"""Dense statevector simulation primitives.

Conventions, used everywhere in this package:

* Qubit 0 is the least significant bit of the amplitude index.
* A register occupying qubits [start, start + width) holds the value
  ``(index >> start) & (2**width - 1)``; its most significant bit sits on
  the highest qubit of the range.
* One rule maps qubits onto numpy axes, in `_view`, and every kernel and
  state op takes its view from it: the axes run from the highest qubit
  down, a control qubit is indexed at its value, a (start, width) register
  is one axis indexed by its value, and each run of other qubits is one
  axis. The view never copies, and `_view` is where qubits are checked.
* The `*_inplace` kernels edit an amplitude buffer through that view.
  circuits.CircuitOp runs them on a copy of a state, or on the state's own
  buffer where the caller owns it: a readout allocates its state once, at
  its final width, and runs every stage in place. The seven wrappers that
  copy a state and run one kernel (apply_single ... apply_multiplexed_ry)
  have no caller in the package; they stay because the benchmark's tracer
  patches them by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateBranchError,
    DimensionError,
    NormalizationError,
    RegisterError,
    ResourceLimitError,
    UnitaryError,
)

DEFAULT_QUBIT_CAP = 24

_SQ2 = np.sqrt(2.0)

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQ2
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def ry_matrix(angle: float) -> np.ndarray:
    """Rotation about Y: maps |0> to cos(angle/2)|0> + sin(angle/2)|1>."""
    c = np.cos(angle / 2.0)
    s = np.sin(angle / 2.0)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz_matrix(angle: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * angle), 0], [0, np.exp(0.5j * angle)]],
        dtype=np.complex128,
    )


def phase_matrix(lam: float) -> np.ndarray:
    """diag(1, e^{i lam}). phase_matrix(pi/2) is the S gate."""
    return np.array([[1, 0], [0, np.exp(1j * lam)]], dtype=np.complex128)


@dataclass
class StateVector:
    """A pure state over n_qubits qubits as a flat complex128 array."""

    n_qubits: int
    amps: np.ndarray


def amplitude_mib(n_qubits: int) -> str:
    """The MiB of amplitudes a state of n_qubits holds, 16 * 2^n / 2^20 =
    2^(n - 16), for a message; past the float range it reads 2^(n - 16)."""
    e = n_qubits - 16
    return f"{2.0**e:.3g}" if e < 1024 else f"2^{e}"


def check_qubit_cap(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> None:
    """Refuse a state of n_qubits above the cap, before anything of that
    size (a state, or a table indexed by its registers) is built."""
    if n_qubits > cap:
        raise ResourceLimitError(
            f"{n_qubits} qubits ({amplitude_mib(n_qubits)} MiB of amplitudes) "
            f"exceeds the cap of {cap}"
        )


def new_zero_state(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    if n_qubits < 1:
        raise RegisterError("a state needs at least one qubit")
    check_qubit_cap(n_qubits, cap)
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def from_amplitudes(values, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Wrap an explicit amplitude vector. The norm must already be 1."""
    amps = np.asarray(values, dtype=np.complex128).ravel()
    n = int(amps.size).bit_length() - 1
    if amps.size < 2 or amps.size != 2**n:
        raise DimensionError(f"amplitude count {amps.size} is not a power of two >= 2")
    check_qubit_cap(n, cap)
    if not np.all(np.isfinite(amps)):
        raise NormalizationError("amplitudes must be finite (no NaN or inf)")
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > 1e-9:
        raise NormalizationError(f"norm is {nrm!r}, expected 1")
    return StateVector(n, amps.copy())


def check_unitary2(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise UnitaryError(f"expected a 2x2 matrix, got shape {u.shape}")
    dev = np.max(np.abs(u.conj().T @ u - np.eye(2)))
    if dev > 1e-12:
        raise UnitaryError(f"matrix deviates from unitarity by {dev:.3e}")
    return u


def _view(amps, n, controls=(), regs=()):
    """amps as a view whose axes run from the highest qubit down: each
    (qubit, value) control is indexed at its value, each (start, width)
    register is one axis of 2^width and each run of other qubits is one
    axis. Returns the view and the axis of each register, in the order
    given. A qubit out of range, a qubit used twice or a control value
    other than 0 or 1 raises RegisterError. The view never copies; only
    the fixed qubits are walked, so its cost does not grow with n."""
    spans = [(q + 1, q, i, v) for i, (q, v) in enumerate(controls)]
    spans += [(s + w, s, ~i, None) for i, (s, w) in enumerate(regs)]
    spans.sort(reverse=True)
    shape, index, axes, top, ndim = [], [], [0] * len(regs), n, 0
    for end, s, i, v in spans:
        if s < 0 or end < s or end > n:
            raise RegisterError(f"qubits [{s}, {end}) out of range for {n} qubits")
        if end > top:
            raise RegisterError(f"qubit {max(s, top)} used twice in one gate")
        if end < top:
            shape.append(1 << (top - end))
            index.append(slice(None))
            ndim += 1
        shape.append(1 << (end - s))
        if v is None:
            axes[~i] = ndim
            index.append(slice(None))
            ndim += 1
        elif v in (0, 1):
            index.append(int(v))
        else:
            raise RegisterError(f"control value must be 0 or 1, got {v}")
        top = s
    if top:
        shape.append(1 << top)
        index.append(slice(None))
        ndim += 1
    # with every qubit indexed, the Ellipsis keeps a 0-d view, not a copy
    return amps.reshape(shape)[tuple(index) if ndim else (*index, ...)], axes


# ---------------------------------------------------------------------------
# In-place kernels. These edit an amplitude buffer through _view and are
# shared by the public functions below and by circuits.CircuitOp.

# Amplitudes per piece in the block-table, reflection-table and oracle
# kernels: their temporaries stay this size whatever the state size, and a
# piece stays in cache.
CHUNK = 1 << 13


def _pieces(view, whole, cut=()):
    """view, its axes reordered to whole + cut + the others, in pieces of
    at most CHUNK amplitudes (or of the whole axes alone, where those hold
    more): the trailing axes are batched, the one where the budget runs out
    is sliced and those before it are walked one position at a time.
    Yields each piece's slices over the axes after the whole ones, and the
    piece."""
    rest = [a for a in range(view.ndim) if a not in whole and a not in cut]
    view = view.transpose((*whole, *cut, *rest))
    shape = view.shape[len(whole):]
    budget = max(1, CHUNK // math.prod(view.shape[:len(whole)]))
    j, size = len(shape), 1
    while j and size * shape[j - 1] <= budget:
        j -= 1
        size *= shape[j]
    head, tail = (slice(None),) * len(whole), (slice(None),) * (len(shape) - j)
    if not j:
        yield tail, view
        return
    step = budget // size
    for pos in np.ndindex(*shape[:j - 1]):
        for lo in range(0, shape[j - 1], step):
            at = (*(slice(p, p + 1) for p in pos), slice(lo, lo + step), *tail)
            yield at, view[head + at]


def apply_single_inplace(amps, n, target, u, controls=()):
    view, (t,) = _view(amps, n, controls, ((target, 1),))
    view = view.swapaxes(0, t)
    # in place: one copy of the |0> half and one half-sized temporary
    a0, a1 = view[0, ...], view[1, ...]  # views, also when n == 1
    c0 = a0.copy()
    a0 *= u[0, 0]
    a0 += u[0, 1] * a1
    a1 *= u[1, 1]
    a1 += u[1, 0] * c0


def apply_swap_inplace(amps, n, q1, q2, controls=()):
    v01, _ = _view(amps, n, (*controls, (q1, 0), (q2, 1)))
    v10, _ = _view(amps, n, (*controls, (q1, 1), (q2, 0)))
    tmp = v01.copy()
    v01[...] = v10
    v10[...] = tmp


def apply_zero_reflection_inplace(amps, n, qubits, controls=()):
    """Multiply by -1 every amplitude whose listed qubits are all 0."""
    if not qubits:
        raise RegisterError("zero reflection needs at least one qubit")
    view, _ = _view(amps, n, (*controls, *((q, 0) for q in qubits)))
    view *= -1.0


def apply_basis_oracle_inplace(amps, n, in_reg, out_reg, table, controls=()):
    """|a>|b> -> |a>|b XOR table[a]> on (in_reg, out_reg)."""
    view, (a_in, a_out) = _view(amps, n, controls, (in_reg, out_reg))
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (1 << in_reg[1],):
        raise RegisterError(f"oracle table has {table.size} entries, expected {1 << in_reg[1]}")
    if table.min() < 0 or table.max() >= (1 << out_reg[1]):
        raise RegisterError("oracle output exceeds the output register width")
    if not table.any():
        return
    # one gather new[b, a] = old[b ^ table[a], a] per piece of input values
    b = np.arange(1 << out_reg[1])[:, None]
    for (a, *_), sub in _pieces(view, (a_out,), (a_in,)):
        t = table[a]
        sub[...] = sub[b ^ t, np.arange(t.size)]


def apply_qft_inplace(amps, n, reg, sign, controls=()):
    """The register's quantum Fourier transform (sign +1) or its inverse
    (sign -1): |k> -> T^-1/2 sum_b e^{sign 2 pi i k b / T} |b> with
    T = 2^width, as one in-place FFT along the register's axis."""
    view, (a,) = _view(amps, n, controls, (reg,))
    if reg[1] < 1:
        raise RegisterError("qft needs a register of width >= 1")
    (np.fft.ifft if sign > 0 else np.fft.fft)(view, axis=a, norm="ortho", out=view)


def apply_phase_table_inplace(amps, n, reg, phases, controls=()):
    """Diagonal gate: multiply by phases[v] where v is the register value."""
    view, (a,) = _view(amps, n, controls, (reg,))
    phases = np.asarray(phases, dtype=np.complex128)
    if phases.shape != (1 << reg[1],):
        raise RegisterError(f"phase table has {phases.size} entries, expected {1 << reg[1]}")
    if np.max(np.abs(np.abs(phases) - 1.0)) > 1e-12:
        raise UnitaryError("phase table entries must have unit magnitude")
    view = view.swapaxes(a, -1)
    view *= phases


def apply_multiplexed_ry_inplace(amps, n, key_reg, target, angles, controls=()):
    """Ry(angles[v]) on target, keyed on the value v of key_reg."""
    _view(amps, n, controls, (key_reg, (target, 1)))  # checks wires even if no angle is set
    s, w = key_reg
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (1 << w,):
        raise RegisterError(f"angle table has {angles.size} entries, expected {1 << w}")
    for v in range(1 << w):
        if angles[v] == 0.0:
            continue
        key = tuple((s + b, (v >> b) & 1) for b in range(w))
        apply_single_inplace(amps, n, target, ry_matrix(angles[v]), (*controls, *key))


def apply_block_table_inplace(amps, n, keys, targets, blocks, controls=()):
    """Block-diagonal unitary: blocks[v] acts on the target qubits wherever
    the key qubits hold value v (bit b of v on keys[b]; bit b of a block
    index on targets[b])."""
    k, w = len(keys), len(targets)
    if not w:
        raise RegisterError("a block table needs at least one target qubit")
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.shape != (1 << k, 1 << w, 1 << w):
        raise RegisterError(
            f"block table has shape {blocks.shape}, expected {(1 << k, 1 << w, 1 << w)}"
        )
    # keys, then targets, the highest bit of each first, so that a C-order
    # flattening of each group gives its value
    view, axes = _view(amps, n, controls, [(q, 1) for q in (*keys[::-1], *targets[::-1])])
    for _, sub in _pieces(view, axes):
        sub[...] = np.matmul(blocks, sub.reshape(1 << k, 1 << w, -1)).reshape(sub.shape)


def apply_reflection_table_inplace(amps, n, keys, targets, vectors, controls=()):
    """Householder reflection keyed on the key qubits: wherever they hold
    value v, the targets' state x becomes x - vectors[v] (vectors[v]^H x).
    Each vectors[v] has squared norm 2 (a reflection) or is 0 (the
    identity). Bit order as in apply_block_table_inplace."""
    k, w = len(keys), len(targets)
    vectors = np.asarray(vectors, dtype=np.complex128)
    if vectors.shape != (1 << k, 1 << w):
        raise RegisterError(
            f"reflection table has shape {vectors.shape}, expected {(1 << k, 1 << w)}")
    sq = np.sum(np.abs(vectors) ** 2, axis=1)
    if np.max(np.minimum(np.abs(sq - 2.0), sq)) > 1e-12:
        raise UnitaryError("reflection vectors must have squared norm 2 or 0")
    view, axes = _view(amps, n, controls, [(q, 1) for q in (*keys[::-1], *targets[::-1])])
    rows = vectors.conj()[:, None, :]
    for _, sub in _pieces(view, axes):
        x = sub.reshape(1 << k, 1 << w, -1)
        sub[...] = (x - vectors[:, :, None] * np.matmul(rows, x)).reshape(sub.shape)


# ---------------------------------------------------------------------------
# Public operations.


def apply_single(state: StateVector, target: int, u, controls=()) -> StateVector:
    """Apply a 2x2 unitary, optionally gated on (qubit, value) control pairs."""
    u = check_unitary2(u)
    amps = state.amps.copy()
    apply_single_inplace(amps, state.n_qubits, target, u, tuple(controls))
    return StateVector(state.n_qubits, amps)


def apply_controlled(state: StateVector, controls, target: int, u) -> StateVector:
    """Apply u on target in the subspace where every control qubit is 1."""
    u = check_unitary2(u)
    amps = state.amps.copy()
    pairs = tuple((int(q), 1) for q in controls)
    apply_single_inplace(amps, state.n_qubits, target, u, pairs)
    return StateVector(state.n_qubits, amps)


def apply_basis_oracle(state: StateVector, input_reg, output_reg, table) -> StateVector:
    """XOR a table over basis states: |a>|b> -> |a>|b XOR table[a]>.
    Applying the same oracle twice is the identity."""
    amps = state.amps.copy()
    apply_basis_oracle_inplace(amps, state.n_qubits, input_reg, output_reg, table)
    return StateVector(state.n_qubits, amps)


def apply_swap(state: StateVector, q1: int, q2: int) -> StateVector:
    amps = state.amps.copy()
    apply_swap_inplace(amps, state.n_qubits, q1, q2)
    return StateVector(state.n_qubits, amps)


def apply_zero_reflection(state: StateVector, qubits) -> StateVector:
    """Negate every amplitude whose listed qubits are all 0."""
    amps = state.amps.copy()
    apply_zero_reflection_inplace(amps, state.n_qubits, tuple(qubits))
    return StateVector(state.n_qubits, amps)


def apply_phase_table(state: StateVector, reg, phases) -> StateVector:
    amps = state.amps.copy()
    apply_phase_table_inplace(amps, state.n_qubits, reg, phases)
    return StateVector(state.n_qubits, amps)


def apply_multiplexed_ry(state: StateVector, key_reg, target: int, angles) -> StateVector:
    amps = state.amps.copy()
    apply_multiplexed_ry_inplace(amps, state.n_qubits, key_reg, target, angles)
    return StateVector(state.n_qubits, amps)


def _mass(view) -> float:
    """Sum of |amplitude|^2 over a view, in index order, with one float
    temporary the size of the view."""
    p = np.abs(view)  # a C-order copy, so the sum runs in index order
    return float(np.sum(np.square(p, out=p).ravel()))


def postselect(state: StateVector, qubit: int, bit: int, *,
               inplace: bool = False) -> tuple[StateVector, float]:
    """Project onto qubit == bit and renormalize; returns the exact branch
    probability. The projected state is a new buffer, or, with
    inplace=True, state's own: the other branch is zeroed and the branch
    scaled where they lie, so a caller that owns state allocates no second
    one. The amplitudes are the same either way."""
    n = state.n_qubits
    branch, _ = _view(state.amps, n, ((qubit, bit),))
    prob = _mass(branch)
    if prob < 1e-24:
        raise DegenerateBranchError(
            f"branch qubit{qubit}={bit} has probability {prob!r}"
        )
    if inplace:
        amps = state.amps
        _view(amps, n, ((qubit, 1 - bit),))[0][...] = 0.0
    else:
        amps = np.zeros_like(state.amps)
    np.divide(branch, np.sqrt(prob), out=_view(amps, n, ((qubit, bit),))[0])
    return StateVector(n, amps), prob


def tensor(a: StateVector, b: StateVector, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Tensor product with a's qubits as the high-order bits of the index."""
    n = a.n_qubits + b.n_qubits
    check_qubit_cap(n, cap)
    return StateVector(n, np.kron(a.amps, b.amps))


def register_distribution(state: StateVector, regs) -> np.ndarray:
    """Joint marginal of the given registers.

    Returns an array of shape (2**w1, 2**w2, ...) indexed by register values
    in the order given.
    """
    p = np.abs(state.amps)
    p, axes = _view(np.square(p, out=p), state.n_qubits, regs=regs)
    # the other axes keep their order, so the rest sums in index order
    p = np.moveaxis(p, axes, range(len(axes)))
    return p.reshape([1 << w for _, w in regs] + [-1]).sum(axis=-1)


def clean_component(state: StateVector, regs) -> tuple[StateVector, float]:
    """Slice where every qubit outside `regs` is 0, renormalized.

    Returns the sub-state over the listed registers (concatenated low to
    high, in the order given) and the probability mass of that slice.
    """
    n = state.n_qubits
    kept = {q for s, w in regs for q in range(s, s + w)}
    view, axes = _view(state.amps, n, [(q, 0) for q in range(n) if q not in kept], regs)
    # the first listed register becomes the low bits of the sub-state index
    amps = view.transpose(axes[::-1]).ravel()
    mass = _mass(amps)
    if mass < 1e-24:
        raise DegenerateBranchError("no amplitude left outside the traced registers")
    return StateVector(len(kept), amps / np.sqrt(mass)), mass
