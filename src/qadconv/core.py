"""Dense statevector simulation primitives.

Conventions, used everywhere in this package:

* Qubit 0 is the least significant bit of the amplitude index.
* A register occupying qubits [start, start + width) holds the value
  ``(index >> start) & (2**width - 1)``; its most significant bit sits on
  the highest qubit of the range.
* Operations have value semantics: they return a new StateVector and never
  mutate their input. Internally a single amplitude copy is made and then
  edited through reshaped views, so composing many gates stays cheap.
"""

from __future__ import annotations

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


def check_qubit_cap(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> None:
    """Refuse a state of n_qubits above the cap, before anything of that
    size (a state, or a table indexed by its registers) is built."""
    if n_qubits > cap:
        raise ResourceLimitError(
            f"{n_qubits} qubits ({16 * 2**n_qubits / 2**20:.3g} MiB of amplitudes) "
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


def _normalize_controls(n: int, controls, target_qubits) -> tuple:
    """Validate (qubit, value) control pairs against n and the target set."""
    out = []
    seen = set(target_qubits)
    for q, v in controls:
        q = int(q)
        if not 0 <= q < n:
            raise RegisterError(f"control qubit {q} out of range for {n} qubits")
        if q in seen:
            raise RegisterError(f"qubit {q} used twice in one gate")
        if v not in (0, 1):
            raise RegisterError(f"control value must be 0 or 1, got {v}")
        seen.add(q)
        out.append((q, int(v)))
    return tuple(out)


def _controlled_view(amps, n, controls, regs=()):
    """The slice of amps where every control qubit holds its value, as a
    (2, 2, ...) view, and the axis of each remaining qubit in it (the
    highest qubit first, so registers keep C-order value layout). Each
    (start, width) register in regs, free of controls, becomes one axis
    indexed by its value, mapped from its start qubit; its axes are
    adjacent with chained strides, so merging them never copies."""
    idx = [slice(None)] * n
    for q, v in controls:
        idx[n - 1 - q] = v
    free = [q for q in range(n - 1, -1, -1) if idx[n - 1 - q] == slice(None)]
    # with no free qubit left, the Ellipsis keeps a 0-d view, not a copy
    view = amps.reshape((2,) * n)[tuple(idx) if free else (*idx, ...)]
    if regs:
        width = {s: w for s, w in regs if w}
        free = [q for q in free if not any(s < q < s + w for s, w in width.items())]
        view = view.reshape([1 << width.get(q, 1) for q in free])
    return view, {q: a for a, q in enumerate(free)}


# ---------------------------------------------------------------------------
# In-place kernels. These edit an amplitude buffer through reshaped views and
# are shared by the public functions below and by circuits.CircuitOp.

# Amplitudes per piece in the block-table kernel: its matmul temporaries stay
# this size whatever the state size, and a piece stays in cache.
CHUNK = 1 << 13


def apply_single_inplace(amps, n, target, u, controls=()):
    if not 0 <= target < n:
        raise RegisterError(f"target qubit {target} out of range for {n} qubits")
    controls = _normalize_controls(n, controls, (target,))
    view, axis = _controlled_view(amps, n, controls)
    view = np.moveaxis(view, axis[target], 0)
    # in place: one copy of the |0> half and one half-sized temporary
    a0, a1 = view[0, ...], view[1, ...]  # views, also when n == 1
    c0 = a0.copy()
    a0 *= u[0, 0]
    a0 += u[0, 1] * a1
    a1 *= u[1, 1]
    a1 += u[1, 0] * c0


def apply_swap_inplace(amps, n, q1, q2, controls=()):
    if q1 == q2:
        raise RegisterError("swap needs two distinct qubits")
    for q in (q1, q2):
        if not 0 <= q < n:
            raise RegisterError(f"swap qubit {q} out of range for {n} qubits")
    controls = _normalize_controls(n, controls, (q1, q2))
    v01, _ = _controlled_view(amps, n, controls + ((q1, 0), (q2, 1)))
    v10, _ = _controlled_view(amps, n, controls + ((q1, 1), (q2, 0)))
    tmp = v01.copy()
    v01[...] = v10
    v10[...] = tmp


def apply_zero_reflection_inplace(amps, n, qubits, controls=()):
    """Multiply by -1 every amplitude whose listed qubits are all 0."""
    if not qubits:
        raise RegisterError("zero reflection needs at least one qubit")
    controls = _normalize_controls(n, controls, qubits)
    for q in qubits:
        if not 0 <= q < n:
            raise RegisterError(f"reflection qubit {q} out of range")
    view, _ = _controlled_view(amps, n, controls + tuple((q, 0) for q in qubits))
    view *= -1.0


def apply_basis_oracle_inplace(amps, n, in_reg, out_reg, table, controls=()):
    """|a>|b> -> |a>|b XOR table[a]> on (in_reg, out_reg)."""
    in_s, in_w = in_reg
    out_s, out_w = out_reg
    _check_reg(n, in_reg, "input")
    _check_reg(n, out_reg, "output")
    if in_w and in_s < out_s + out_w and out_s < in_s + in_w:
        raise RegisterError("oracle input and output registers overlap")
    controls = _normalize_controls(
        n, controls, tuple(range(out_s, out_s + out_w)) + tuple(range(in_s, in_s + in_w))
    )
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (1 << in_w,):
        raise RegisterError(f"oracle table has {table.size} entries, expected {1 << in_w}")
    if table.size and (table.min() < 0 or table.max() >= (1 << out_w)):
        raise RegisterError("oracle output exceeds the output register width")
    if not table.any():
        return
    # one gather new[a, b] = old[a, b ^ table[a]] on the merged (in, out)
    # axes, in pieces of input values and other axes whose temporaries
    # stay within CHUNK amplitudes (or one output register)
    view, axis = _controlled_view(amps, n, controls, (in_reg, out_reg))
    view = (np.moveaxis(view, (axis[in_s], axis[out_s]), (0, 1)) if in_w
            else np.moveaxis(view, axis[out_s], 0)[None])
    rest = view.shape[2:]
    inner = min(len(rest), max(0, (CHUNK >> out_w).bit_length() - 1))
    group = max(1, CHUNK >> (out_w + inner))
    for a in range(0, 1 << in_w, group):
        cols = np.arange(1 << out_w) ^ table[a:a + group, None]
        rows = np.arange(len(cols))[:, None]
        for pos in np.ndindex(*rest[:len(rest) - inner]):
            sub = view[(slice(a, a + group), slice(None)) + pos]
            sub[...] = sub[rows, cols]


def apply_qft_inplace(amps, n, reg, sign, controls=()):
    """The register's quantum Fourier transform (sign +1) or its inverse
    (sign -1): |k> -> T^-1/2 sum_b e^{sign 2 pi i k b / T} |b> with
    T = 2^width, as one in-place FFT along the register's merged axis."""
    s, w = reg
    _check_reg(n, reg, "qft")
    if w < 1:
        raise RegisterError("qft needs a register of width >= 1")
    controls = _normalize_controls(n, controls, tuple(range(s, s + w)))
    view, axis = _controlled_view(amps, n, controls, (reg,))
    (np.fft.ifft if sign > 0 else np.fft.fft)(view, axis=axis[s], norm="ortho", out=view)


def apply_phase_table_inplace(amps, n, reg, phases, controls=()):
    """Diagonal gate: multiply by phases[v] where v is the register value."""
    s, w = reg
    _check_reg(n, reg, "phase")
    phases = np.asarray(phases, dtype=np.complex128)
    if phases.shape != (1 << w,):
        raise RegisterError(f"phase table has {phases.size} entries, expected {1 << w}")
    if np.max(np.abs(np.abs(phases) - 1.0)) > 1e-12:
        raise UnitaryError("phase table entries must have unit magnitude")
    controls = _normalize_controls(n, controls, tuple(range(s, s + w)))
    view, axis = _controlled_view(amps, n, controls, (reg,))
    # the register is one axis, so its phases broadcast over the rest
    view *= phases.reshape([phases.size if a == axis.get(s) else 1 for a in range(view.ndim)])


def apply_multiplexed_ry_inplace(amps, n, key_reg, target, angles, controls=()):
    """Ry(angles[v]) on target, keyed on the value v of key_reg."""
    s, w = key_reg
    _check_reg(n, key_reg, "key")
    angles = np.asarray(angles, dtype=np.float64)
    if angles.shape != (1 << w,):
        raise RegisterError(f"angle table has {angles.size} entries, expected {1 << w}")
    if s <= target < s + w:
        raise RegisterError("rotation target lies inside its own key register")
    base = _normalize_controls(n, controls, tuple(range(s, s + w)) + (target,))
    for v in range(1 << w):
        if angles[v] == 0.0:
            continue
        key_controls = tuple((s + b, (v >> b) & 1) for b in range(w))
        apply_single_inplace(amps, n, target, ry_matrix(angles[v]), base + key_controls)


def apply_block_table_inplace(amps, n, keys, targets, blocks, controls=()):
    """Block-diagonal unitary: blocks[v] acts on the target qubits wherever
    the key qubits hold value v (bit b of v on keys[b]; bit b of a block
    index on targets[b])."""
    keys, targets = tuple(keys), tuple(targets)
    k, w = len(keys), len(targets)
    if not w:
        raise RegisterError("a block table needs at least one target qubit")
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.shape != (1 << k, 1 << w, 1 << w):
        raise RegisterError(
            f"block table has shape {blocks.shape}, expected {(1 << k, 1 << w, 1 << w)}"
        )
    for q in keys + targets:
        if not 0 <= q < n:
            raise RegisterError(f"block qubit {q} out of range for {n} qubits")
    if len(set(keys + targets)) != k + w:
        raise RegisterError("block key and target qubits must be distinct")
    controls = _normalize_controls(n, controls, keys + targets)
    # the control-selected slice, its axes ordered (keys, targets, rest)
    # with the highest qubit of each group first, so a C-order flattening
    # of each group gives its register value
    view, axis = _controlled_view(amps, n, controls)
    front = [axis[q] for q in reversed(keys)] + [axis[q] for q in reversed(targets)]
    rest = [a for a in range(view.ndim) if a not in set(front)]
    view = view.transpose(front + rest)
    # loop over the outer rest axes, batch the inner ones
    inner = min(len(rest), max(0, (CHUNK >> (k + w)).bit_length() - 1))
    outer = len(rest) - inner
    head = (slice(None),) * (k + w)
    shape = (1 << k, 1 << w, 1 << inner)
    for pos in np.ndindex(*view.shape[k + w:k + w + outer]):
        sub = view[head + pos]
        sub[...] = np.matmul(blocks, sub.reshape(shape)).reshape(sub.shape)


def _check_reg(n, reg, what):
    s, w = reg
    if w < 0 or s < 0 or s + w > n:
        raise RegisterError(f"{what} register [{s}, {s + w}) out of range for {n} qubits")


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


def apply_basis_oracle(state: StateVector, input_reg, output_reg, f) -> StateVector:
    """XOR-accumulate f over basis states: |a>|b> -> |a>|b XOR f(a)>.

    f may be a callable on register values or a precomputed table. Applying
    the same oracle twice is the identity.
    """
    in_w = input_reg[1]
    if callable(f):
        table = np.fromiter(
            (int(f(v)) for v in range(1 << in_w)), dtype=np.int64, count=1 << in_w
        )
    else:
        table = np.asarray(f, dtype=np.int64)
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


def postselect(state: StateVector, qubit: int, bit: int) -> tuple[StateVector, float]:
    """Project onto qubit == bit and renormalize; returns the exact branch probability."""
    if not 0 <= qubit < state.n_qubits:
        raise RegisterError(f"qubit {qubit} out of range")
    if bit not in (0, 1):
        raise RegisterError("bit must be 0 or 1")
    branch = state.amps.reshape(-1, 2, 1 << qubit)[:, bit, :]
    # np.abs makes a C-order copy, so the sum runs in index order
    prob = float(np.sum((np.abs(branch) ** 2).ravel()))
    if prob < 1e-24:
        raise DegenerateBranchError(
            f"branch qubit{qubit}={bit} has probability {prob!r}"
        )
    amps = np.zeros_like(state.amps)
    np.divide(branch, np.sqrt(prob), out=amps.reshape(-1, 2, 1 << qubit)[:, bit, :])
    return StateVector(state.n_qubits, amps), prob


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
    n = state.n_qubits
    for reg in regs:
        _check_reg(n, reg, "marginal")
    p = (np.abs(state.amps) ** 2).reshape((2,) * n)
    front = []
    for s, w in regs:
        front.extend(n - 1 - (s + b) for b in range(w - 1, -1, -1))
    if len(set(front)) != len(front):
        raise RegisterError("marginal registers overlap")
    rest = [ax for ax in range(n) if ax not in set(front)]
    p = p.transpose(front + rest)
    return p.reshape([1 << w for _, w in regs] + [-1]).sum(axis=-1)


def clean_component(state: StateVector, regs) -> tuple[StateVector, float]:
    """Slice where every qubit outside `regs` is 0, renormalized.

    Returns the sub-state over the listed registers (concatenated low to
    high, in the order given) and the probability mass of that slice.
    """
    n = state.n_qubits
    # Index grid over the kept registers; all other bits stay 0. The first
    # listed register becomes the low bits of the sub-state index.
    idx = np.zeros(1, dtype=np.int64)
    width = 0
    for s, w in regs:
        _check_reg(n, (s, w), "clean")
        vals = np.arange(1 << w, dtype=np.int64) << s
        idx = (vals[:, None] + idx[None, :]).ravel()
        width += w
    amps = state.amps[idx]
    mass = float(np.sum(np.abs(amps) ** 2))
    if mass < 1e-24:
        raise DegenerateBranchError("no amplitude left outside the traced registers")
    return StateVector(width, amps / np.sqrt(mass)), mass
