"""Digital-to-analog conversion: rotate a looked-up value onto an ancilla.

The input is a digital state (1/sqrt(N)) sum_j |j>|code_j>. The paper
writes theta = arccos f~(d_j) into a register and rotates an ancilla
controlled on it; here the ancilla, directly above the value register,
is rotated by Ry(2 arccos f~(v)) keyed on the value register itself, with
double-precision angles. Its |0> amplitude is then exactly f~(d_j), sign
included, and unloading the data clears the value register. The state
spans address + value + ancilla qubits. Success means the ancilla reads 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .circuits import CircuitOp, Gate
from .errors import ConfigError, RegisterError, ZeroSuccessError
from .fixedpoint import FixedPointCodec, FunctionOracle

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
             tuple(int(c) for c in codes), label="load-data")
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


def value_rotation(f: FunctionOracle, start: int) -> Gate:
    """Ry(2 arccos f~(v)) on the qubit just above f's input registers, which
    start at `start`, keyed on their value v. The rotated qubit's |0>
    amplitude is f~(v); a negative f~ needs no sign bit, since
    cos(arccos f~) = f~."""
    width = sum(c.width for c in f.in_codecs)
    angles = 2.0 * np.arccos(np.clip(f.decoded_outputs(), -1.0, 1.0))
    return Gate("mux-ry", tuple(range(start, start + width + 1)), tuple(angles))


def conversion_suffix_op(
    f: FunctionOracle, d_codes, n_addr: int, start: int = 0
) -> tuple[CircuitOp, int]:
    """Gates that turn an already-loaded digital state into the analog one.

    Layout above `start`: the address register, the value register (f's
    input width), then the ancilla. The ancilla is rotated by
    value_rotation, then the data are unloaded. Returns the circuit and the
    ancilla qubit index.
    """
    v_start = start + n_addr
    anc = v_start + f.in_codecs[0].width
    unload = Gate("oracle", tuple(range(start, anc)), tuple(int(c) for c in d_codes),
                  label="unload-data")
    return CircuitOp((value_rotation(f, v_start), unload), label="qdac-suffix"), anc


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
    core.check_qubit_cap(state.n_qubits + 1, cap)
    d_codes = extract_codes(state, n_addr, w_v)

    f_vals = f.out_codec.decode_array([f.table[c] for c in d_codes])
    predicted = float(np.mean(f_vals**2))
    if float(np.max(np.abs(f_vals))) == 0.0:
        raise ZeroSuccessError("f~ vanishes on every data value")

    suffix, anc = conversion_suffix_op(f, d_codes, n_addr)
    full = suffix.apply(core.tensor(core.new_zero_state(1, cap=cap), state, cap=cap))

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
    grover = CircuitOp(
        (Gate("reflect", (flag,)),) + procedure.inverse().gates
        + (Gate("reflect", tuple(range(n_qubits))),) + procedure.gates,
        label="grover-round",
    )
    for _ in range(int(rounds)):
        state = grover.apply(state)
        np.negative(state.amps, out=state.amps)
    return state
