"""Digital-to-analog conversion: rotate a looked-up value onto an ancilla.

The input is a digital state (1/sqrt(N)) sum_j |j>|code_j>. A bookkeeping
register takes (2/pi) arccos |f~| and a sign bit, the ancilla rotation is
keyed directly on the value register with double-precision angles so the
|0>-ancilla amplitude is exactly f~(d_j), the sign bit contributes a -1
phase, and everything except the address register is uncomputed. Success
means the ancilla reads 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .circuits import CircuitOp, Gate
from .errors import ConfigError, RegisterError, ZeroSuccessError
from .fixedpoint import FixedPointCodec, FunctionOracle

UD_TAG = "ud"


@dataclass(frozen=True)
class QdacOutcome:
    success: bool
    attempts: int
    output: core.StateVector
    empirical_probability: float
    predicted_probability: float
    residual_mass: float = 0.0


def make_digital_state(data, m: int, signed: bool = False,
                       cap: int = core.DEFAULT_QUBIT_CAP) -> core.StateVector:
    """(1/sqrt(N)) sum_j |j>|code(d_j)> with the address in the low qubits."""
    codec = FixedPointCodec(m, signed=signed)
    codes = [codec.encode(v) for v in np.asarray(data, dtype=np.float64)]
    n_addr = _address_width(len(codes))
    op = digital_load_op(codes, n_addr, codec.width)
    return op.apply(core.new_zero_state(n_addr + codec.width, cap=cap))


def digital_load_op(codes, n_addr: int, value_width: int, start: int = 0) -> CircuitOp:
    """Hadamards on the address register, then the XOR table load."""
    gates = [Gate("h", (start + q,)) for q in range(n_addr)]
    gates.append(
        Gate("oracle", tuple(range(start, start + n_addr + value_width)),
             tuple(int(c) for c in codes), tag=UD_TAG, label="load-data")
    )
    return CircuitOp(tuple(gates), label="load-digital")


def _address_width(count: int) -> int:
    if count < 1 or count & (count - 1):
        raise RegisterError(f"need a power-of-two data length, got {count}")
    return count.bit_length() - 1


def extract_codes(state: core.StateVector, n_addr: int, value_width: int) -> list[int]:
    """Read the per-address value codes off a digital state, validating shape."""
    n_total = n_addr + value_width
    if state.n_qubits != n_total:
        raise RegisterError(
            f"digital state has {state.n_qubits} qubits, expected {n_total}"
        )
    joint = core.register_distribution(state, [(0, n_addr), (n_addr, value_width)])
    joint = joint.reshape(1 << n_addr, 1 << value_width)
    n = 1 << n_addr
    codes = []
    for j in range(n):
        v = int(np.argmax(joint[j]))
        if abs(joint[j, v] - 1.0 / n) > 1e-9 or joint[j].sum() - joint[j, v] > 1e-12:
            raise RegisterError(
                f"address {j} is not a uniform single-valued digital branch"
            )
        codes.append(v)
    return codes


def predict_success(data, f=None, m: int | None = None) -> float:
    """Mean of f~(d)^2 over the data.

    With no f this is the mean square of the data itself, which equals
    variance + mean^2 exactly. A FunctionOracle brings its own quantization;
    a bare callable quantizes only if m is given.
    """
    d = np.asarray(data, dtype=np.float64)
    if isinstance(f, FunctionOracle):
        in_codec = f.in_codecs[0]
        vals = f.out_codec.decode_array(
            [f.table[in_codec.encode(x)] for x in d]
        )
    else:
        fn = f if callable(f) else (lambda x: x)
        if m is None:
            vals = np.asarray([fn(float(x)) for x in d])
        else:
            signed = bool((d < 0).any())
            in_codec = FixedPointCodec(m, signed=signed)
            raw = [fn(in_codec.decode(in_codec.encode(x))) for x in d]
            signed_out = bool(any(y < 0 for y in raw))
            out_codec = FixedPointCodec(m, signed=signed_out)
            vals = np.asarray([out_codec.decode(out_codec.encode(y)) for y in raw])
    return float(np.mean(vals**2))


def conversion_suffix_op(
    f: FunctionOracle, d_codes, n_addr: int, start: int = 0
) -> tuple[CircuitOp, int]:
    """Gates that turn an already-loaded digital state into the analog one.

    Layout above `start`: value register (f's input width), then m phi bits,
    then a sign bit when f outputs signed codes, then the ancilla. Returns
    the circuit and the ancilla qubit index.
    """
    w_v = f.in_codecs[0].width
    m = f.out_codec.m
    signed_out = f.out_codec.signed
    phi_codec = FixedPointCodec(m)
    v_start = start + n_addr
    phi_start = v_start + w_v
    sign_w = 1 if signed_out else 0
    anc = phi_start + m + sign_w

    f_vals = f.decoded_outputs()
    phi_table = []
    angles = []
    for v in range(1 << w_v):
        fv = float(f_vals[v])
        mag = min(abs(fv), 1.0)
        phi_code = phi_codec.encode((2.0 / math.pi) * math.acos(mag))
        sign_bit = 1 if fv < 0 else 0
        phi_table.append(phi_code | (sign_bit << m))
        angles.append(2.0 * math.acos(mag))

    phi_oracle = Gate("oracle", tuple(range(v_start, anc)), tuple(phi_table),
                      label="phi-sign")
    gates = [
        phi_oracle,
        Gate("mux-ry", tuple(range(v_start, phi_start)) + (anc,), tuple(angles)),
    ]
    if signed_out:
        gates.append(Gate("phase-table", (phi_start + m,), (1.0, -1.0)))
    gates.append(phi_oracle)  # self-inverse uncompute
    gates.append(
        Gate("oracle", tuple(range(start, phi_start)), tuple(int(c) for c in d_codes),
             label="unload-data")
    )
    return CircuitOp(tuple(gates), label="qdac-suffix"), anc


def qdac_run(
    state: core.StateVector,
    f: FunctionOracle,
    m: int,
    rng: np.random.Generator | None = None,
    mode: str = "postselect",
    shots: int = 2048,
    rounds: int | None = None,
    cap: int = core.DEFAULT_QUBIT_CAP,
) -> QdacOutcome:
    """Convert a digital state to the analog encoding of f over its values."""
    if f.arity != 1:
        raise ConfigError("f", "digital-to-analog conversion needs a 1-input oracle")
    if f.out_codec.m != m:
        raise ConfigError("m", f"oracle emits {f.out_codec.m} fraction bits, not {m}")
    w_v = f.in_codecs[0].width
    n_addr = state.n_qubits - w_v
    if n_addr < 0:
        raise RegisterError("state is narrower than the oracle's input register")
    sign_w = 1 if f.out_codec.signed else 0
    extra = m + sign_w + 1
    core.check_qubit_cap(state.n_qubits + extra, cap)
    d_codes = extract_codes(state, n_addr, w_v)

    f_vals = f.out_codec.decode_array([f.table[c] for c in d_codes])
    predicted = float(np.mean(f_vals**2))
    if float(np.max(np.abs(f_vals))) == 0.0:
        raise ZeroSuccessError("f~ vanishes on every data value")

    suffix, anc = conversion_suffix_op(f, d_codes, n_addr)
    full = suffix.apply(core.tensor(core.new_zero_state(extra, cap=cap), state, cap=cap))

    if mode == "postselect":
        return _finish(full, anc, n_addr, predicted, attempts=1, success=True,
                       empirical=None)
    if mode == "sample":
        if rng is None:
            raise ConfigError("rng", "sample mode needs a random generator")
        p = float(core.register_distribution(full, [(anc, 1)])[0])
        hits = rng.random(shots) < p
        out = _finish(full, anc, n_addr, predicted, attempts=shots,
                      success=bool(hits.any()), empirical=float(hits.mean()))
        return out
    if mode == "amplify":
        prep = digital_load_op(d_codes, n_addr, w_v)
        procedure = prep.then(suffix, label="qdac-full")
        p0 = float(core.register_distribution(full, [(anc, 1)])[0])
        r = grover_rounds(p0) if rounds is None else int(rounds)
        boosted = amplitude_amplify(procedure, anc + 1, anc, r, cap=cap)
        return _finish(boosted, anc, n_addr, predicted, attempts=1 + 2 * r,
                       success=True, empirical=None)
    raise ConfigError("mode", f"unknown mode {mode!r}")


def _finish(full, anc, n_addr, predicted, attempts, success, empirical):
    selected, prob = core.postselect(full, anc, 0)
    if n_addr > 0:
        output, mass = core.clean_component(selected, [(0, n_addr)])
    else:
        output, mass = core.clean_component(selected, [(0, 0)])
    return QdacOutcome(
        success=success,
        attempts=attempts,
        output=output,
        empirical_probability=prob if empirical is None else empirical,
        predicted_probability=predicted,
        residual_mass=1.0 - mass,
    )


def grover_rounds(initial_success: float) -> int:
    """floor(pi / (4 asin sqrt p) - 1/2), never negative."""
    if not 0.0 < initial_success <= 1.0:
        raise ZeroSuccessError(
            f"cannot amplify from success probability {initial_success!r}"
        )
    ang = math.asin(math.sqrt(initial_success))
    # the tiny nudge keeps exact ties (e.g. p=1/4 -> 1.0) from flooring down
    return max(0, int(math.floor(math.pi / (4.0 * ang) - 0.5 + 1e-12)))


def amplitude_amplify(
    procedure: CircuitOp, n_qubits: int, flag: int, rounds: int,
    cap: int = core.DEFAULT_QUBIT_CAP,
) -> core.StateVector:
    """Grover-boost the flag=0 component of procedure|0...0>.

    One round is -A R0 A^-1 Rgood; the leading minus keeps the boosted state
    in phase with the plain postselected branch.
    """
    state = procedure.apply(core.new_zero_state(n_qubits, cap=cap))
    p0 = float(core.register_distribution(state, [(flag, 1)])[0])
    if p0 < 1e-24:
        raise ZeroSuccessError("procedure never sets the flag to 0")
    for _ in range(int(rounds)):
        state = core.apply_zero_reflection(state, [flag])
        state = procedure.inverse().apply(state)
        state = core.apply_zero_reflection(state, range(n_qubits))
        state = procedure.apply(state)
        state = core.StateVector(state.n_qubits, -state.amps)
    return state
