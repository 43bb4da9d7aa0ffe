"""Analog-to-digital conversion of amplitudes via phase estimation.

Three variants read different parts of the prepared amplitudes c_k into a
register: magnitude |c_k| (swap-test geometry with a mirror register),
real part (Hadamard test), and imaginary part (Hadamard test with a
quarter-wave plate on the test qubit). Each variant builds a reflection
operator whose restriction to one address acts as a plane rotation by
2 pi theta_k, estimates theta_k into a phase register, converts the phase
pattern to the recovered value with a lookup oracle, and uncomputes
everything except the address and value registers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .circuits import PE_CTRL_TAG, CircuitOp, Gate, RegisterLayout, phase_estimate_op
from .errors import ConfigError
from .fixedpoint import FixedPointCodec, abs_recovery_oracle, real_recovery_oracle
from .prep import UA_ENTRY_TAG, PrepTree, synthesize_ua

_SQRT2 = math.sqrt(2.0)


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


def abs_layout(n: int, m: int, g: int) -> RegisterLayout:
    return RegisterLayout.build(
        ("ad", n), ("data", n), ("a", n), ("b", 1), ("regp", m + g)
    )


def part_layout(n: int, m: int, g: int) -> RegisterLayout:
    return RegisterLayout.build(("ad", n), ("data", n), ("b", 1), ("regp", m + g))


def hadamard_layer(layout: RegisterLayout, name: str) -> CircuitOp:
    return CircuitOp(
        tuple(Gate("h", (q,)) for q in layout.qubits(name)), label=f"h-{name}"
    )


def address_copy_op(layout: RegisterLayout) -> CircuitOp:
    """CNOTs fanning the address bits into the mirror register."""
    ad = layout.start("ad")
    a = layout.start("a")
    n = layout.width("ad")
    return CircuitOp(
        tuple(
            Gate("x", (a + i,), controls=((ad + i, 1),)) for i in range(n)
        ),
        label="copy-address",
    )


def v_from_prep(layout: RegisterLayout, prep: CircuitOp) -> CircuitOp:
    """Data load followed by a measurement-free swap test against the mirror."""
    b = layout.start("b")
    ds = layout.start("data")
    a = layout.start("a")
    n = layout.width("data")
    gates = list(prep.gates)
    gates.append(Gate("h", (b,)))
    gates.extend(Gate("swap", (ds + i, a + i), controls=((b, 1),)) for i in range(n))
    gates.append(Gate("h", (b,)))
    return CircuitOp(tuple(gates), label="v")


def build_v(layout: RegisterLayout, tree: PrepTree) -> CircuitOp:
    return v_from_prep(layout, synthesize_ua(tree).op(start=layout.start("data")))


def g_from_prep(layout: RegisterLayout, v_op: CircuitOp) -> CircuitOp:
    """The magnitude-variant reflection: Z_B, V^-1, fan-in, flip about zero,
    fan-in, V (applied left to right)."""
    b = layout.start("b")
    zero_qubits = (
        tuple(layout.qubits("data")) + tuple(layout.qubits("a")) + (b,)
    )
    copy = address_copy_op(layout).gates
    gates = (
        (Gate("z", (b,)),)
        + v_op.inverse().gates
        + copy
        + (Gate("reflect", zero_qubits),)
        + copy
        + v_op.gates
    )
    return CircuitOp(gates, label="g")


def build_g(layout: RegisterLayout, tree: PrepTree) -> CircuitOp:
    return g_from_prep(layout, build_v(layout, tree))


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


def build_w(layout: RegisterLayout, tree: PrepTree, imag: bool = False) -> CircuitOp:
    return w_from_prep(
        layout, synthesize_ua(tree).op(start=layout.start("data")), imag
    )


def g_prime_from_prep(layout: RegisterLayout, w_op: CircuitOp) -> CircuitOp:
    b = layout.start("b")
    zero_qubits = tuple(layout.qubits("data")) + (b,)
    gates = (
        (Gate("z", (b,)),)
        + w_op.inverse().gates
        + (Gate("reflect", zero_qubits),)
        + w_op.gates
    )
    return CircuitOp(gates, label="g-prime")


def build_g_prime(layout: RegisterLayout, tree: PrepTree, imag: bool = False) -> CircuitOp:
    return g_prime_from_prep(layout, build_w(layout, tree, imag))


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


def abs_qadc(tree: PrepTree, n: int, m: int, g: int = 3,
             cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    c = tree.amplitudes()
    return run_qadc(
        "abs",
        lambda start: synthesize_ua(tree).op(start=start),
        np.abs(c),
        n, m, g, cap=cap,
    )


def real_qadc(tree: PrepTree, n: int, m: int, g: int = 3,
              cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    c = tree.amplitudes()
    return run_qadc(
        "real",
        lambda start: synthesize_ua(tree).op(start=start),
        c.real.copy(),
        n, m, g, cap=cap,
    )


def imag_qadc(tree: PrepTree, n: int, m: int, g: int = 3,
              cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    c = tree.amplitudes()
    return run_qadc(
        "imag",
        lambda start: synthesize_ua(tree).op(start=start),
        c.imag.copy(),
        n, m, g, cap=cap,
    )


def run_qadc(variant, prep_builder, true_values, n, m, g,
             cap: int = core.DEFAULT_QUBIT_CAP) -> QadcResult:
    """Drive one conversion. prep_builder(start) must return the data-load
    circuit at the given offset; true_values are the exact quantities the
    variant is reading out (used for spectra and accuracy reporting)."""
    if variant not in ("abs", "real", "imag"):
        raise ConfigError("variant", f"unknown variant {variant!r}")
    t = m + g
    true_values = np.asarray(true_values, dtype=np.float64)
    if true_values.size != 1 << n:
        raise ConfigError("n", f"need {1 << n} true values, got {true_values.size}")

    # the qubit cap also bounds the 2^t-entry recovery table: check it first
    layout = abs_layout(n, m, g) if variant == "abs" else part_layout(n, m, g)
    reg_width = FixedPointCodec(m, signed=variant != "abs").width
    total = layout.n_qubits + reg_width
    core.check_qubit_cap(total, cap)

    prep = prep_builder(layout.start("data"))
    if variant == "abs":
        oracle = abs_recovery_oracle(m, guard_bits=g)
        spectra = [spectrum_oracle(r) for r in true_values]
        v_op = v_from_prep(layout, prep)
        grover = g_from_prep(layout, v_op)
        front = hadamard_layer(layout, "ad") + address_copy_op(layout) + v_op
        back = v_op.inverse() + address_copy_op(layout)
    else:
        oracle = real_recovery_oracle(m, guard_bits=g)
        spectra = [part_spectrum(x) for x in true_values]
        w_op = w_from_prep(layout, prep, imag=(variant == "imag"))
        grover = g_prime_from_prep(layout, w_op)
        front = hadamard_layer(layout, "ad") + w_op
        back = w_op.inverse()

    regp = layout.reg("regp")
    pe = phase_estimate_op(grover, regp)
    estimate = front + pe
    uncompute = pe.inverse() + back
    state = estimate.apply(core.new_zero_state(layout.n_qubits))

    # phase-register statistics before anything is uncomputed
    inter_joint = core.register_distribution(state, [(0, n), regp])
    inter_joint = inter_joint.reshape(1 << n, 1 << t)
    phase_success = _phase_success(inter_joint, [sp.theta for sp in spectra], t, m)

    # write the recovered value, then run the uncompute tail
    state = core.tensor(core.new_zero_state(reg_width), state)
    reg_s = layout.n_qubits
    recover = CircuitOp(
        (
            Gate("oracle", tuple(layout.qubits("regp")) + tuple(range(reg_s, total)),
                 tuple(int(x) for x in oracle.table), label=oracle.name),
        ),
        label="recover",
    )
    state = recover.apply(state)
    state = uncompute.apply(state)

    # controlled-U applications: loader entries per iterate times the
    # logical iterate applications of the power records
    ua_per_iterate = sum(1 for gate in grover.gates if gate.tag == UA_ENTRY_TAG)
    ua_count = ua_per_iterate * sum(
        gate.params.count
        for op in (estimate, uncompute)
        for gate in op.gates
        if gate.tag == PE_CTRL_TAG
    )
    return _summarize(
        variant, m, g, state, n, reg_s, oracle.out_codec, true_values,
        phase_success, ua_count,
    )


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
