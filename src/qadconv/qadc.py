"""Analog-to-digital conversion of amplitudes via phase estimation.

Three variants read different parts of the prepared amplitudes c_k into a
register: magnitude |c_k| (swap test V against an address mirror), real
part (Hadamard test W), and imaginary part (W with a quarter-wave plate on
the test qubit). They share one construction and differ only in the load
L: readout_layout derives the registers from the variant (the mirror is
empty for real and imag), and readout_iterate builds Z_b L^-1 R_0 L, whose
restriction to one address acts as a plane rotation by 2 pi theta_k.
readout_block estimates theta_k into a phase register, converts the phase
pattern to the recovered value with a lookup oracle (one gather), and
uncomputes everything except the address and value registers; run_qadc and
the nonlinear pipeline run it in place on one buffer (run_stages). The
iterate is built from the plain load; it is never applied, only counted.

The estimate runs in the iterate's eigenbasis V, which readout_eigenbasis
writes down in closed form (the iterate is a product of two reflections):
L V^H fuses into block records, the 2^t - 1 controlled iterates become one
spectral record e^(i phi omega), and the inverse QFT stays one qft record,
an in-place FFT on the phase register. The V that would close phase
estimation commutes with everything up to the un-estimate, whose leading
V^H it cancels, so neither is applied. The uncompute stage is the
estimate's structural inverse. flat_readout_block lays out the same block
with textbook phase estimation, the reference it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .circuits import (
    PE_CTRL_TAG,
    CircuitOp,
    Eigenbasis,
    Gate,
    RegisterLayout,
    fuse,
    iqft_op,
    phase_estimate_op,
    spectral_record,
)
from .errors import ConfigError
from .fixedpoint import FixedPointCodec, abs_recovery_oracle, real_recovery_oracle
from .prep import UA_ENTRY_TAG, PrepTree, synthesize_ua

_SQRT2 = math.sqrt(2.0)

# the part of c_k each variant reads
PARTS = {"abs": np.abs, "real": np.real, "imag": np.imag}


@dataclass(frozen=True)
class GroverSpectrum:
    """Closed-form spectral data of the per-address rotation block."""

    value: float
    variant: str
    alpha: float
    beta: float
    theta: float
    lambda_plus: complex
    lambda_minus: complex
    coef_plus: complex
    coef_minus: complex
    degenerate: bool


def _spectrum(value: float, variant: str, alpha2: float) -> GroverSpectrum:
    alpha2 = min(max(alpha2, 0.0), 1.0)
    alpha = math.sqrt(alpha2)
    beta = math.sqrt(max(1.0 - alpha2, 0.0))
    theta = math.asin(alpha) / math.pi
    return GroverSpectrum(
        value=value,
        variant=variant,
        alpha=alpha,
        beta=beta,
        theta=theta,
        lambda_plus=complex(np.exp(2j * np.pi * theta)),
        lambda_minus=complex(np.exp(-2j * np.pi * theta)),
        coef_plus=complex(-1j * np.exp(1j * np.pi * theta) / _SQRT2),
        coef_minus=complex(1j * np.exp(-1j * np.pi * theta) / _SQRT2),
        degenerate=alpha < 1e-12 or beta < 1e-12,
    )


def spectrum_oracle(r: float) -> GroverSpectrum:
    """Spectrum of the magnitude-variant block for |c_k| = r."""
    if not 0.0 <= r <= 1.0 + 1e-12:
        raise ConfigError("r", f"magnitude must lie in [0, 1], got {r!r}")
    return _spectrum(float(r), "abs", (1.0 + r * r) / 2.0)


def part_spectrum(x: float) -> GroverSpectrum:
    """Spectrum of the real/imag-variant block for Re or Im c_k = x."""
    if not -1.0 - 1e-12 <= x <= 1.0 + 1e-12:
        raise ConfigError("x", f"part must lie in [-1, 1], got {x!r}")
    return _spectrum(float(x), "part", (1.0 + x) / 2.0)


# ---------------------------------------------------------------------------
# Layouts and circuit builders.


def readout_layout(variant: str, n: int, m: int, g: int) -> RegisterLayout:
    """Address, data, the address mirror `a` (n qubits for abs, none for
    real and imag), the test qubit b and the m + g bit phase register.
    The one place a readout's variant, m and g are checked."""
    if variant not in PARTS:
        raise ConfigError("variant", f"unknown variant {variant!r}")
    if m < 1:
        raise ConfigError("m", "need at least one fraction bit")
    if g < 0:
        raise ConfigError("g", "guard bits cannot be negative")
    mirror = n if variant == "abs" else 0
    return RegisterLayout.build(
        ("ad", n), ("data", n), ("a", mirror), ("b", 1), ("regp", m + g)
    )


def hadamard_layer(layout: RegisterLayout, name: str) -> CircuitOp:
    return CircuitOp(
        tuple(Gate("h", (q,)) for q in layout.qubits(name)), label=f"h-{name}"
    )


def v_from_prep(layout: RegisterLayout, prep: CircuitOp) -> CircuitOp:
    """CNOTs copying the address into the mirror, the data load, then a
    measurement-free swap test of data against the mirror."""
    b = layout.start("b")
    ds = layout.start("data")
    a = layout.start("a")
    ad = layout.start("ad")
    n = layout.width("data")
    gates = [Gate("x", (a + i,), controls=((ad + i, 1),)) for i in range(n)]
    gates.extend(prep.gates)
    gates.append(Gate("h", (b,)))
    gates.extend(Gate("swap", (ds + i, a + i), controls=((b, 1),)) for i in range(n))
    gates.append(Gate("h", (b,)))
    return CircuitOp(tuple(gates), label="v")


def w_from_prep(layout: RegisterLayout, prep: CircuitOp, imag: bool) -> CircuitOp:
    """Hadamard test: branch B=0 loads the data, branch B=1 mirrors the
    address into the data register. The imag variant inserts a quarter
    phase on B before the closing Hadamard."""
    b = layout.start("b")
    ds = layout.start("data")
    ad = layout.start("ad")
    n = layout.width("data")
    gates = [Gate("h", (b,))]
    gates.extend(prep.controlled((b, 0)).gates)
    gates.extend(
        Gate("x", (ds + i,), controls=((b, 1), (ad + i, 1))) for i in range(n)
    )
    if imag:
        gates.append(Gate("phase", (b,), (math.pi / 2,)))
    gates.append(Gate("h", (b,)))
    return CircuitOp(tuple(gates), label="w-imag" if imag else "w")


def readout_load(layout: RegisterLayout, prep: CircuitOp, variant: str) -> CircuitOp:
    """A readout's load L, gate by gate: V (with its address copy) for abs,
    W for real and W with the quarter phase for imag."""
    if variant == "abs":
        return v_from_prep(layout, prep)
    return w_from_prep(layout, prep, imag=variant == "imag")


def readout_iterate(layout: RegisterLayout, load: CircuitOp) -> CircuitOp:
    """The readout reflection, applied left to right: Z_b, load^-1, the
    reflection about |0> of data, mirror and b, load."""
    b = layout.start("b")
    zero_qubits = tuple(layout.qubits("data")) + tuple(layout.qubits("a")) + (b,)
    gates = (
        (Gate("z", (b,)),)
        + load.inverse().gates
        + (Gate("reflect", zero_qubits),)
        + load.gates
    )
    return CircuitOp(gates, label="g")


def readout_eigenbasis(layout: RegisterLayout, load: CircuitOp) -> tuple[Gate, np.ndarray]:
    """The eigenbasis of readout_iterate(layout, load), in closed form.

    Where the address holds k, the iterate is (I - 2 psi psi^H) Z_b with
    psi = L|k, 0>, and b is the highest of its target qubits (data, mirror,
    b). Write psi's b = 0 and b = 1 halves as a_k u and b_k w, with u and w
    unit vectors (e_0 for a half that is 0). On span{u, w} the iterate turns
    by omega = 2 atan2(a_k, b_k) = 2 pi theta_k, with eigenvectors
    (u +- i w)/sqrt2 for e^(+-i omega); it is +1 on the rest of the b = 0
    half and -1 on the rest of the b = 1 half. A Householder reflection per half takes e_0 to
    u (or w) up to a phase, and a 2x2 mix on b turns those two into
    (u +- i w)/sqrt2. So V's columns are: target value 0, +omega; b = 1
    with the other targets 0, -omega; the rest of b = 0, 0; the rest of
    b = 1, pi. No eigensolver is called.

    Returns the eigenbasis record V^H on qubits [0, b] (the address as its
    keys) and the eigenphases omega[v], v the value of those qubits.
    """
    k = layout.width("ad")
    s = layout.start("b") + 1
    half = 1 << (s - k - 1)
    # psi for every address at once: the load on sum_k |k, 0>
    amps = np.zeros(1 << s, dtype=np.complex128)
    amps[:1 << k] = 1.0
    psi = load.apply(core.StateVector(s, amps), inplace=True).amps.reshape(2, half, 1 << k)
    psi = psi.transpose(0, 2, 1)  # [b, address, other targets]
    norms = np.sqrt(np.sum(np.abs(psi) ** 2, axis=2))
    unit = psi / np.where(norms > 0, norms, 1.0)[..., None]
    unit[norms == 0, 0] = 1.0  # e_0 stands in for a half that is 0
    # I - nu nu^H with nu ~ unit + p e_0, p the phase of unit[0] (1 where it
    # is 0), takes e_0 to -conj(p) unit; adding p keeps nu away from 0
    p = np.exp(1j * np.angle(unit[..., 0]))
    nu = unit.copy()
    nu[..., 0] += p
    nu *= _SQRT2 / np.sqrt(np.sum(np.abs(nu) ** 2, axis=2))[..., None]
    # V = (P_u + P_w) M with M e_0 = -(p_u e_0 + i p_w e_h)/sqrt2 and
    # M e_h = -(p_u e_0 - i p_w e_h)/sqrt2; the record holds M^H
    turn = np.array([[1.0, -1j], [1.0, 1j]]) / _SQRT2
    mix = turn[None] * -p.conj().T[:, None, :]
    omega = 2.0 * np.arctan2(norms[0], norms[1])
    phases = np.zeros((2, half, 1 << k))
    phases[1] = math.pi
    phases[0, 0] = omega
    phases[1, 0] = -omega
    basis = Eigenbasis(k, nu.reshape(2 << k, half), mix)
    return Gate("eigenbasis", tuple(range(s)), basis, label="eigenbasis"), phases.reshape(-1)


def readout_block(prep: CircuitOp, variant: str, n: int, m: int, g: int,
                  out_start: int) -> list:
    """One readout as three ops for run_stages: estimate, recover, un-estimate.

    Load and estimate; copy the recovered value into a value register of
    fresh qubits at out_start (m bits for abs, m + 1 signed bits for real
    and imag); un-estimate and un-load. The load L is readout_load.

    The estimate runs in the iterate's eigenbasis V (readout_eigenbasis):
    L V^H, the phase register's Hadamards, one spectral record
    e^(i phi omega) in place of the 2^t - 1 controlled iterates, and the
    inverse qft record. Phase estimation would close with V; V acts only
    on the address and target qubits, so it commutes with the inverse QFT,
    the recover gather and the un-estimate's QFT, and cancels against the
    un-estimate's leading V^H. Both are left out, so the block is the same
    unitary as with textbook phase estimation, and every marginal over the
    address and the phase or value registers is unchanged at every stage.
    The estimate is fused once (circuits.fuse), which compiles L V^H into
    block records; the un-estimate is the estimate's structural inverse.
    The copy is self-inverse and the ops around it mirror each other, so
    the block is its own inverse. prep is the data-load circuit on the
    data register.
    """
    layout = readout_layout(variant, n, m, g)
    load = readout_load(layout, prep, variant)
    basis, phases = readout_eigenbasis(layout, load)
    regp = layout.reg("regp")
    cascade = spectral_record(readout_iterate(layout, load), phases, regp)
    fwd = fuse(load + CircuitOp((basis,)) + hadamard_layer(layout, "regp")
               + CircuitOp((cascade,))) + iqft_op(*regp)
    return [fwd, _recover_stage(layout, variant, m, g, out_start), fwd.inverse()]


def flat_readout_block(prep: CircuitOp, variant: str, n: int, m: int, g: int,
                       out_start: int) -> list:
    """readout_block's ops with textbook phase estimation, the flat
    reference it is checked against: the load, then phase_estimate_op of
    the readout iterate; the same recover op; then the inverse of load
    and estimate. Gate by gate, so only small blocks are practical."""
    layout = readout_layout(variant, n, m, g)
    load = readout_load(layout, prep, variant)
    fwd = load + phase_estimate_op(readout_iterate(layout, load), layout.reg("regp"))
    return [fwd, _recover_stage(layout, variant, m, g, out_start), fwd.inverse()]


def _recover_stage(layout: RegisterLayout, variant: str, m: int, g: int,
                   out_start: int) -> CircuitOp:
    """The lookup oracle that copies the value recovered from the phase
    register into the value register of fresh qubits at out_start."""
    recovery = abs_recovery_oracle if variant == "abs" else real_recovery_oracle
    oracle = recovery(m, guard_bits=g)
    width = oracle.out_codec.width
    wires = tuple(layout.qubits("regp")) + tuple(range(out_start, out_start + width))
    return CircuitOp(
        (Gate("oracle", wires, tuple(int(x) for x in oracle.table), label=oracle.name),),
        label="recover",
    )


def run_stages(amps: np.ndarray, live: int, ops) -> int:
    """Run ops in order, in place, on the low slice amps[:2^live] of a
    buffer allocated at the run's final width, and return the new live.

    live only grows: before each op it becomes one more than the highest
    qubit this op or an earlier one touches. The qubits above it are still
    |0>, so a register joins the state by widening the slice, not a copy."""
    for op in ops:
        live = max(live, 1 + max(op.used_qubits()))
        op.apply(core.StateVector(live, amps[:1 << live]), inplace=True)
    return live


# ---------------------------------------------------------------------------
# The full conversion.


@dataclass(frozen=True)
class QadcResult:
    variant: str
    m: int
    g: int
    digital_state: core.StateVector
    per_address_estimates: np.ndarray
    per_address_modal_probability: np.ndarray
    per_address_within_bound: np.ndarray
    per_address_phase_success: np.ndarray
    per_address_code_distribution: np.ndarray
    readout_accuracy: float
    fidelity_vs_ideal: float
    clean_probability: float
    controlled_ua_count: int
    true_values: np.ndarray


# The benchmark (perfbench/workloads.py, perfbench/tracing.py) reaches these
# three forwards by name; they go with its next change.
def abs_qadc(tree: PrepTree, n: int, m: int, g: int = 3,
             cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    return run_qadc(tree, "abs", n, m, g, cap=cap)


def real_qadc(tree: PrepTree, n: int, m: int, g: int = 3,
              cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    return run_qadc(tree, "real", n, m, g, cap=cap)


def imag_qadc(tree: PrepTree, n: int, m: int, g: int = 3,
              cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    return run_qadc(tree, "imag", n, m, g, cap=cap)


def run_qadc(tree: PrepTree, variant: str, n: int, m: int, g: int = 3,
             cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    """Read one part of the tree's amplitudes into an m-bit value register:
    "abs" the magnitudes |c_k|, "real" and "imag" the signed parts."""
    if n != tree.depth:
        raise ConfigError("n", f"tree has {tree.depth} address qubits, got n={n}")
    layout = readout_layout(variant, n, m, g)
    codec = FixedPointCodec(m, signed=variant != "abs")
    reg_s = layout.n_qubits
    # the one buffer of the run, with the value register on top; allocating
    # it checks the qubit cap, which also bounds the 2^t-entry recovery table
    state = core.new_zero_state(reg_s + codec.width, cap=cap)
    true_values = np.array(PARTS[variant](tree.amplitudes()), dtype=np.float64)
    spectrum = spectrum_oracle if variant == "abs" else part_spectrum
    thetas = [spectrum(x).theta for x in true_values]

    ops = readout_block(synthesize_ua(tree).op(start=n), variant, n, m, g, reg_s)
    live = run_stages(state.amps, 0, [hadamard_layer(layout, "ad") + ops[0]])

    # phase-register statistics before anything is uncomputed
    t = m + g
    joint = core.register_distribution(core.StateVector(live, state.amps[:1 << live]),
                                       [(0, n), layout.reg("regp")])
    phase_success = _phase_success(joint.reshape(1 << n, 1 << t), thetas, t, m)
    run_stages(state.amps, live, ops[1:])

    ua_count = sum(_controlled_ua_count(op.gates) for op in ops)
    return _summarize(
        variant, m, g, state, n, reg_s, codec, true_values, phase_success, ua_count,
    )


def _controlled_ua_count(gates) -> int:
    """Controlled-U applications: per spectral record (PE_CTRL_TAG), the
    loader entries (UA_ENTRY_TAG records) in its iterate times its count
    2^t - 1, as the controlled powers it stands for would apply them. A
    small spectral record is fused into a power record, so power records
    are searched too."""
    total = 0
    for gate in gates:
        if gate.tag == PE_CTRL_TAG:
            entries = sum(h.tag == UA_ENTRY_TAG for h in gate.params.iterate)
            total += gate.params.count * entries
        elif gate.kind == "power":
            total += _controlled_ua_count(gate.params.iterate)
    return total


def _phase_success(joint: np.ndarray, thetas, t: int, m: int) -> np.ndarray:
    """Per address: mass of phase patterns within 2^-m of either branch."""
    frac = np.arange(1 << t) / (1 << t)
    out = np.zeros(len(thetas))
    for k, theta in enumerate(thetas):
        dd = np.minimum.reduce(
            [
                np.abs(frac - br - s)
                for br in (theta, 1.0 - theta)
                for s in (-1.0, 0.0, 1.0)
            ]
        )
        row = joint[k]
        tot = row.sum()
        out[k] = float(row[dd <= 2.0**-m].sum() / tot) if tot > 0 else 0.0
    return out


def _summarize(variant, m, g, state, n, reg_s, codec, true_values,
               phase_success, ua_count) -> QadcResult:
    reg_width = codec.width
    n_addr = 1 << n
    joint = core.register_distribution(state, [(0, n), (reg_s, reg_width)])
    joint = joint.reshape(n_addr, 1 << reg_width)
    decoded = codec.values()
    bound = 2.0**-m + 2.0 ** -(m + 1)

    estimates = np.zeros(n_addr)
    modal_p = np.zeros(n_addr)
    within = np.zeros(n_addr)
    cond = np.zeros_like(joint)
    for k in range(n_addr):
        row = joint[k] / joint[k].sum()
        cond[k] = row
        code = int(np.argmax(row))
        estimates[k] = decoded[code]
        modal_p[k] = row[code]
        within[k] = row[np.abs(decoded - true_values[k]) <= bound].sum()

    # overlap with the ideal digital state built from the true values
    ideal_codes = [codec.encode(v) for v in true_values]
    picks = [k | (code << reg_s) for k, code in enumerate(ideal_codes)]
    fidelity = float(abs(state.amps[picks].sum()) / math.sqrt(n_addr))

    digital, clean_mass = core.clean_component(state, [(0, n), (reg_s, reg_width)])
    return QadcResult(
        variant=variant,
        m=m,
        g=g,
        digital_state=digital,
        per_address_estimates=estimates,
        per_address_modal_probability=modal_p,
        per_address_within_bound=within,
        per_address_phase_success=phase_success,
        per_address_code_distribution=cond,
        readout_accuracy=float(within.mean()),
        fidelity_vs_ideal=fidelity,
        clean_probability=float(clean_mass),
        controlled_ua_count=ua_count,
        true_values=true_values,
    )
