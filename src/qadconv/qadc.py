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
uncomputes everything except the address and value registers; the
nonlinear pipeline runs it in place on one buffer (run_stages). The
iterate is built from the plain load; it is never applied, only counted.

The estimate runs in the iterate's eigenbasis V, which readout_eigenbasis
writes down in closed form (the iterate is a product of two reflections).
Every readout builds it one way: L V^H fuses into block records, then
_phase_stages gives the phase register's Hadamards (fused apart), one
spectral record e^(i phi omega) in place of the 2^t - 1 controlled
iterates, and one qft record, an in-place inverse FFT on the phase
register. The V that would close phase estimation commutes with
everything up to the un-estimate, whose leading V^H it cancels, so neither
is applied. The uncompute stage is the estimate's structural inverse.
flat_readout_block lays out the same block with textbook phase
estimation, the reference it is checked against.

Only the load L depends on the amplitudes, so each readout builds only
L V^H (_load_stage), the spectral record and the un-estimate, the
estimate's inverse. The other records depend only on the readout's
shape (layout, idle controls, variant, m, g, out_start): the fused phase
Hadamards and the inverse qft record (_phase_register) and the recover
oracle (_recover_stage). They are built once per shape, held in a
fixed-size functools.lru_cache, and shared by every readout of that
shape; their block tables are read-only, and so is the un-estimate's
inverse Hadamard table, a view of the shared one. qadconv verify clears
them first (_clear_shape_cache), so it checks what the current code
builds.

Per address the iterate turns L|k, 0> within one plane, so V^H L|k, 0>
lies in span{e_0, e_b}: from L V^H until the un-load the data and mirror
registers hold |0>, provided the block's input is |0> on every register
but the address. readout_block(..., clean_input=True) states that
precondition, and then the phase register's Hadamards, the inverse QFT and
recover (and their mirrors in the un-estimate) carry a (q, 0) control on
every data and mirror qubit, so their kernels run on that slice only; no
other record differs. A one-input nonlinear pipeline sets it.

run_qadc takes that support as its state. It allocates only the
estimate's buffer (address through phase register, no value register),
runs the clean estimate on it and reads the (address, phase) joint, which
gives the code distribution through the recovery table. It then copies the
support into a compact state [address, b, phase, value] and runs recover
and the un-estimate there: the inverse of _phase_stages built on that
frame, its spectral record on the eigen-index (address, b). The un-load is
read, not run: the final state's clean row, where every register but the
address and value is 0, needs only the un-load's row 0, conj(x_jk) with
x_jk = <e_j|V^H L|k, 0> (readout_eigenbasis). whole_state_readout runs the
whole-state block on one buffer of the logical width, the reference the
compact tail is checked against.
"""

from __future__ import annotations

import functools
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


def readout_eigenbasis(layout: RegisterLayout,
                       load: CircuitOp) -> tuple[Gate, np.ndarray, np.ndarray]:
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
    keys), the eigenphases omega[v], v the value of those qubits, and
    x[j, k] = <e_j|V^H L|k, 0>, the clean input's amplitudes on e_0 (j = 0)
    and e_b (j = 1), read off the norms of psi's halves.
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
    # V e_0 = (u + i w)/sqrt2 and V e_b = (u - i w)/sqrt2, so V^H takes
    # psi = a_k u + b_k w to (a_k -+ i b_k)/sqrt2 on e_0 and e_b
    x = np.array([norms[0] - 1j * norms[1], norms[0] + 1j * norms[1]]) / _SQRT2
    basis = Eigenbasis(k, nu.reshape(2 << k, half), mix)
    return Gate("eigenbasis", tuple(range(s)), basis, label="eigenbasis"), phases.reshape(-1), x


def readout_block(prep: CircuitOp, variant: str, n: int, m: int, g: int,
                  out_start: int, clean_input: bool = False) -> list:
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
    Every block has the one layout: L V^H fused into block records
    (circuits.fuse, _load_stage), then _phase_stages; the un-estimate is
    the estimate's structural inverse. The copy is self-inverse and the ops
    around it mirror each other, so the block is its own inverse. prep is
    the data-load circuit on the data register. Only fuse(L V^H), the
    spectral record and the un-estimate are built per call; the phase
    register's other records and recover are shared per shape.

    clean_input states a precondition: the block's input is |0> on every
    register but the address. Then V^H L|k, 0> lies in span{e_0, e_b} for
    every address k (readout_eigenbasis), so the data and mirror registers
    hold |0> from L V^H until the un-load. The phase register's Hadamards,
    the inverse QFT, recover and their mirrors in the un-estimate then
    carry a (q, 0) control on every data and mirror qubit, and their
    kernels run only on that slice: a 4^n-th of the state for abs, a 2^n-th
    for real and imag. Those controls are the only difference: record for
    record, the whole-state block is the clean one without them. On a
    clean input the two are the same unitary; on any other input they are
    not.

    The whole-state block serves the nonlinear pipeline (a one-input f sets
    clean_input) and whole_state_readout, the reference run_qadc is checked
    against. run_qadc itself takes only the clean estimate and runs its
    tail on the compact support.
    """
    layout = readout_layout(variant, n, m, g)
    idle = _idle(layout) if clean_input else ()
    lvh, iterate, phases, _ = _load_stage(layout, prep, variant)
    fwd = lvh + _phase_stages(layout, iterate, phases, idle)
    return [fwd, _recover_stage(layout, variant, m, g, out_start, idle), fwd.inverse()]


def _idle(layout: RegisterLayout) -> tuple:
    """(q, 0) on every data and mirror qubit: the clean input's support."""
    return tuple((q, 0) for q in (*layout.qubits("data"), *layout.qubits("a")))


def _load_stage(layout: RegisterLayout, prep: CircuitOp,
                variant: str) -> tuple[CircuitOp, CircuitOp, np.ndarray, np.ndarray]:
    """The records of a readout that depend on its data: L V^H fused into
    block records, and what the phase stages and run_qadc's compact tail
    read besides: the readout iterate, its eigenphases and x
    (readout_eigenbasis)."""
    load = readout_load(layout, prep, variant)
    iterate = readout_iterate(layout, load)
    basis, phases, x = readout_eigenbasis(layout, load)
    return fuse(load + CircuitOp((basis,))), iterate, phases, x


# Readout records that depend on a readout's shape and never on its data are
# built once per shape and shared by every readout of that shape (see
# _phase_register and _recover_stage); each cache holds this many shapes.
_SHAPES_HELD = 32


def _phase_stages(layout: RegisterLayout, iterate: CircuitOp, phases,
                  idle: tuple = ()) -> CircuitOp:
    """Phase estimation of iterate on a state already in its eigenbasis:
    the phase register's Hadamards fused, the spectral record with
    eigenphases `phases` on the register just below the phase register, and
    the inverse qft record. The Hadamards and the qft carry idle's
    controls. Only the spectral record depends on the data and is built
    per call; the Hadamards and the inverse qft come from _phase_register,
    built once per (layout, idle)."""
    hadamards, iqft = _phase_register(layout, idle)
    spectral = spectral_record(iterate, phases, layout.reg("regp"))
    return CircuitOp(hadamards + (spectral,) + iqft, label="phase-stages")


@functools.lru_cache(maxsize=_SHAPES_HELD)
def _phase_register(layout: RegisterLayout, idle: tuple) -> tuple[tuple, tuple]:
    """The records _phase_stages puts around its spectral record, which
    depend only on the layout and idle: the Hadamards fused and the inverse
    qft, each carrying idle's controls. Built once per (layout, idle) and
    shared, so the Hadamards' block table is read-only; so is its inverse,
    a conjugate-transposed view of it."""
    hadamards = fuse(hadamard_layer(layout, "regp")).controlled(*idle)
    for gate in hadamards.gates:
        gate.params.blocks.flags.writeable = False
    return hadamards.gates, iqft_op(*layout.reg("regp")).controlled(*idle).gates


def flat_readout_block(prep: CircuitOp, variant: str, n: int, m: int, g: int,
                       out_start: int) -> list:
    """readout_block's ops with textbook phase estimation, the flat
    reference it is checked against: the load, then phase_estimate_op of
    the readout iterate; the same recover op; then the inverse of load
    and estimate. Gate by gate, so only small blocks are practical."""
    layout = readout_layout(variant, n, m, g)
    load = readout_load(layout, prep, variant)
    fwd = load + phase_estimate_op(readout_iterate(layout, load), layout.reg("regp"))
    return [fwd, _recover_stage(layout, variant, m, g, out_start, ()), fwd.inverse()]


@functools.lru_cache(maxsize=_SHAPES_HELD)
def _recover_stage(layout: RegisterLayout, variant: str, m: int, g: int,
                   out_start: int, idle: tuple) -> CircuitOp:
    """The lookup oracle that copies the value recovered from the phase
    register into the value register of fresh qubits at out_start, with
    idle's controls. It depends only on its arguments, so it is built once
    per shape and shared; its table is a tuple."""
    recovery = abs_recovery_oracle if variant == "abs" else real_recovery_oracle
    oracle = recovery(m, guard_bits=g)
    width = oracle.out_codec.width
    wires = tuple(layout.qubits("regp")) + tuple(range(out_start, out_start + width))
    return CircuitOp(
        (Gate("oracle", wires, tuple(int(x) for x in oracle.table), label=oracle.name),),
        label="recover",
    ).controlled(*idle)


def _clear_shape_cache() -> None:
    """Drop every record built once per shape, so that the next readouts
    build theirs from the current code (qadconv verify starts this way)."""
    _phase_register.cache_clear()
    _recover_stage.cache_clear()


def run_stages(amps: np.ndarray, live: int, ops) -> int:
    """Run ops in order, in place, on the low slice amps[:2^live] of a
    buffer allocated at the run's final width, and return the new live.

    live only grows: before each op it becomes one more than the highest
    qubit this op or an earlier one touches. The qubits above it are still
    |0>, so a register joins the state by widening the slice, not a copy."""
    for op in ops:
        live = max(live, 1 + max(op.used_qubits(), default=-1))
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
    "abs" the magnitudes |c_k|, "real" and "imag" the signed parts.

    The cap is checked at the readout's logical width, the layout plus the
    value register, but no state of that width is allocated. The address
    Hadamards and the clean estimate (_load_stage, then _phase_stages) run
    on a buffer of the layout alone. The per-address code distribution is
    read off it: the (address, phase) joint, pushed through the recovery
    table, which is the (address, value) distribution of the final state.

    The tail runs on the estimate's support, where the data and mirror
    registers hold |0>: a compact state of n + 1 + t + w qubits, [address,
    b, phase, value], runs recover (its own op) and the un-estimate, the
    inverse of _phase_stages on that frame with +omega on e_0 and -omega on
    e_b. The un-load L^-1 V is read through its row 0: the clean row at
    value v is sum_j conj(x_jk) compact[k, j, phase 0, v]. The fidelity and
    the clean digital state come from that row. whole_state_readout is the
    reference this is checked against."""
    if n != tree.depth:
        raise ConfigError("n", f"tree has {tree.depth} address qubits, got n={n}")
    layout = readout_layout(variant, n, m, g)
    codec = FixedPointCodec(m, signed=variant != "abs")
    reg_s, t = layout.n_qubits, m + g
    # the cap also bounds the 2^t-entry recovery table, so it is checked
    # before anything is built
    core.check_qubit_cap(reg_s + codec.width, cap)
    state = core.new_zero_state(reg_s, cap=cap)
    true_values = np.array(PARTS[variant](tree.amplitudes()), dtype=np.float64)
    spectrum = spectrum_oracle if variant == "abs" else part_spectrum
    thetas = [spectrum(x).theta for x in true_values]

    lvh, iterate, phases, x = _load_stage(layout, synthesize_ua(tree).op(start=n), variant)
    fwd = lvh + _phase_stages(layout, iterate, phases, _idle(layout))
    run_stages(state.amps, 0, [hadamard_layer(layout, "ad") + fwd])

    # phase-register statistics before anything is uncomputed, and the code
    # distribution they give through the recovery table
    joint = core.register_distribution(state, [(0, n), layout.reg("regp")])
    joint = joint.reshape(1 << n, 1 << t)
    phase_success = _phase_success(joint, thetas, t, m)
    frame = RegisterLayout.build(("ad", n), ("b", 1), ("regp", t))
    recover = _recover_stage(frame, variant, m, g, frame.n_qubits, ())
    codes = _code_distribution(joint, recover.gates[0].params, codec.width)

    # the support, [address, b, phase] with the other targets 0, as the
    # compact state; the value register above it is still |0>
    compact = np.zeros(1 << (frame.n_qubits + codec.width), dtype=np.complex128)
    compact[:1 << frame.n_qubits].reshape(1 << t, 2, 1 << n)[...] = (
        state.amps.reshape(1 << t, 2, -1, 1 << n)[:, :, 0])
    eigen = phases.reshape(2, -1, 1 << n)[:, 0].reshape(-1)  # +omega on e_0, -omega on e_b
    unestimate = _phase_stages(frame, iterate, eigen).inverse()
    run_stages(compact, frame.n_qubits, [recover, unestimate])

    # the un-load's row 0 at phase 0: <k, 0|L^-1 V|k, e_j> = conj(x[j, k])
    rows = compact.reshape(1 << codec.width, 1 << t, 2, 1 << n)[:, 0]
    clean = (rows * x.conj()).sum(axis=1)  # [value, address]
    ua_count = sum(_controlled_ua_count(op.gates) for op in (fwd, recover, unestimate))
    return _summarize(
        variant, m, g, clean, n, codec, true_values, codes, phase_success, ua_count,
    )


def whole_state_readout(tree: PrepTree, variant: str, n: int, m: int, g: int,
                        block=readout_block) -> tuple[core.StateVector, tuple]:
    """The reference for run_qadc's compact tail: the address Hadamards and
    the three ops of a whole-state block (readout_block, or
    flat_readout_block where the block is small) run on one buffer of the
    readout's logical width. Returns the final state, address low and the
    value register on top, and what run_qadc reports of it: the clean
    digital state, the fidelity with the ideal digital state, the clean
    probability and the block's controlled-U count."""
    layout = readout_layout(variant, n, m, g)
    reg_s = layout.n_qubits
    codec = FixedPointCodec(m, signed=variant != "abs")
    state = core.new_zero_state(reg_s + codec.width)
    ops = block(synthesize_ua(tree).op(start=n), variant, n, m, g, reg_s)
    run_stages(state.amps, 0, [hadamard_layer(layout, "ad") + ops[0], *ops[1:]])
    digital, mass = core.clean_component(state, [(0, n), (reg_s, codec.width)])
    picks = np.arange(1 << n) | (codec.encode(PARTS[variant](tree.amplitudes())) << reg_s)
    fidelity = float(abs(state.amps[picks].sum()) / math.sqrt(1 << n))
    count = sum(_controlled_ua_count(op.gates) for op in ops)
    return state, (digital, fidelity, float(mass), count)


def _code_distribution(joint: np.ndarray, table, width: int) -> np.ndarray:
    """The (address, value) distribution a readout ends with, from its
    (address, phase) joint before recover: each row pushed through the
    recovery table, summed in phase order. Exact, because recover XORs
    table[phase] into fresh |0> qubits and the un-estimate never changes
    the address or value registers. A row may stand for any key the
    phase register is read with, an address and earlier values too."""
    rows = len(joint)
    bins = (np.arange(rows)[:, None] << width | np.asarray(table, dtype=np.int64)).ravel()
    # one bincount adds each bin's weights in input order, so row by row in
    # phase order
    return np.bincount(bins, weights=joint.ravel(),
                       minlength=rows << width).reshape(rows, 1 << width)


def _controlled_ua_count(gates) -> int:
    """Controlled-U applications: per spectral record (PE_CTRL_TAG), the
    loader entries (UA_ENTRY_TAG records) in its iterate times its count
    2^t - 1, as the controlled powers it stands for would apply them."""
    total = 0
    for gate in gates:
        if gate.tag == PE_CTRL_TAG:
            entries = sum(h.tag == UA_ENTRY_TAG for h in gate.params.iterate)
            total += gate.params.count * entries
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


def _summarize(variant, m, g, clean, n, codec, true_values, joint,
               phase_success, ua_count) -> QadcResult:
    """The result of a finished readout. The per-address code statistics
    come from joint, the (address, value) distribution read off the
    estimate through the recovery table (_code_distribution); the fidelity
    and the clean digital state come from clean[v, k], the final state's
    amplitude where the address holds k, the value register v and every
    other register 0."""
    reg_width = codec.width
    n_addr = 1 << n
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
    addresses = np.arange(n_addr)
    fidelity = float(abs(clean[codec.encode(true_values), addresses].sum()) / math.sqrt(n_addr))

    # the clean row, value above address, renormalized
    digital, clean_mass = core.clean_component(
        core.StateVector(n + reg_width, clean.reshape(-1)), [(0, n), (n, reg_width)])
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
