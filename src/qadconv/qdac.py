"""Digital-to-analog conversion: rotate a looked-up value onto an ancilla.

The input is a digital state (1/sqrt(N)) sum_j |j>|code_j>: each address
holds the real amplitude 1/sqrt(N) on exactly one value, so the state is
exactly the data load applied to |0...0>. Any other state (a phase on a
branch, a spread value) is refused with RegisterError. The paper writes
theta = arccos f~(d_j) into a register and rotates an ancilla controlled
on it; here the ancilla, directly above the value register, is rotated by
Ry(2 arccos f~(v)) keyed on the value register itself, with
double-precision angles. Its |0> amplitude is then exactly f~(d_j), sign
included, and unloading the data clears the value register. The state
spans address + value + ancilla qubits. Success means the ancilla reads 0.

`finish` reads that ancilla out in one of MODES: postselect the branch,
sample it (one binomial draw over the shots), or amplify it with Grover
rounds started from the converted state. The nonlinear pipeline ends in
the same `finish`; both entries run `check_mode` before any work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core
from .circuits import CircuitOp, Gate
from .errors import ConfigError, RegisterError, ZeroSuccessError
from .fixedpoint import FixedPointCodec, FunctionOracle

MODES = ("postselect", "sample", "amplify")


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
    values = np.asarray(data, dtype=np.float64)
    codec = FixedPointCodec(m, signed=signed)
    n_addr = _address_width(len(values))
    # the zero state checks the cap before a huge m reaches the encoder
    state = core.new_zero_state(n_addr + codec.width, cap=cap)
    codes = [codec.encode(v) for v in values]
    return digital_load_op(codes, n_addr, codec.width).apply(state, inplace=True)


def digital_load_op(codes, n_addr: int, value_width: int) -> CircuitOp:
    """Hadamards on the address register, then the XOR table load."""
    gates = [Gate("h", (q,)) for q in range(n_addr)]
    gates.append(
        Gate("oracle", tuple(range(n_addr + value_width)),
             tuple(int(c) for c in codes), label="load-data")
    )
    return CircuitOp(tuple(gates), label="load-digital")


def _address_width(count: int) -> int:
    if count < 1 or count & (count - 1):
        raise RegisterError(f"need a power-of-two data length, got {count}")
    return count.bit_length() - 1


def extract_codes(state: core.StateVector, n_addr: int, value_width: int) -> list[int]:
    """Read the per-address value codes off a digital state.

    Every address must hold the real amplitude 1/sqrt(N) on exactly one
    value and nothing elsewhere (to 1e-9), which makes the state exactly
    digital_load_op(codes)|0...0>.
    """
    n_total = n_addr + value_width
    if state.n_qubits != n_total:
        raise RegisterError(
            f"digital state has {state.n_qubits} qubits, expected {n_total}"
        )
    n = 1 << n_addr
    amps = state.amps.reshape(1 << value_width, n)
    codes = np.argmax(np.abs(amps), axis=0)
    want = np.zeros(amps.shape)
    want[codes, np.arange(n)] = 1.0 / math.sqrt(n)
    bad = np.flatnonzero(np.abs(amps - want).max(axis=0) > 1e-9)
    if bad.size:
        raise RegisterError(
            f"address {int(bad[0])} is not a single value with amplitude 1/sqrt({n})"
        )
    return [int(c) for c in codes]


def predict_success(data) -> float:
    """Mean square of the data, the identity map's success probability;
    it equals variance + mean^2 exactly."""
    return float(np.mean(np.asarray(data, dtype=np.float64) ** 2))


def value_rotation(f: FunctionOracle, start: int) -> Gate:
    """Ry(2 arccos f~(v)) on the qubit just above f's input registers, which
    start at `start`, keyed on their value v. The rotated qubit's |0>
    amplitude is f~(v); a negative f~ needs no sign bit, since
    cos(arccos f~) = f~."""
    width = sum(c.width for c in f.in_codecs)
    angles = 2.0 * np.arccos(np.clip(f.decoded_outputs(), -1.0, 1.0))
    return Gate("mux-ry", tuple(range(start, start + width + 1)), tuple(angles))


def conversion_suffix_op(f: FunctionOracle, d_codes, n_addr: int) -> tuple[CircuitOp, int]:
    """Gates that turn an already-loaded digital state into the analog one.

    Layout from qubit 0: the address register, the value register (f's
    input width), then the ancilla. The ancilla is rotated by
    value_rotation, then the data are unloaded. Returns the circuit and the
    ancilla qubit index.
    """
    anc = n_addr + f.in_codecs[0].width
    unload = Gate("oracle", tuple(range(anc)), tuple(int(c) for c in d_codes),
                  label="unload-data")
    return CircuitOp((value_rotation(f, n_addr), unload), label="qdac-suffix"), anc


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
    check_mode(mode, rng, shots, rounds)
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
    full = suffix.apply(core.tensor(core.new_zero_state(1, cap=cap), state, cap=cap),
                        inplace=True)
    # extract_codes accepted the state, so full is procedure|0...0>
    procedure = digital_load_op(d_codes, n_addr, w_v).then(suffix, label="qdac-full")
    return finish(full, anc, n_addr, predicted, mode, procedure, rng, shots, rounds)[0]


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_shots(shots) -> None:
    """The one shot rule: a whole number in [1, 2^63 - 1], the range of Generator.binomial."""
    if not _is_int(shots) or not 1 <= shots <= np.iinfo(np.int64).max:
        raise ConfigError("shots", f"need a whole number in [1, 2^63 - 1], got {shots!r}")


def check_mode(mode: str, rng, shots, rounds) -> None:
    """Refuse a mode not in MODES, sample mode with no generator, a shot
    count that breaks check_shots, or a round count that is neither None
    nor a whole number >= 0, before any circuit is built."""
    if mode not in MODES:
        raise ConfigError("mode", f"unknown mode {mode!r}")
    if mode == "sample" and rng is None:
        raise ConfigError("rng", "sample mode needs a seeded generator")
    check_shots(shots)
    if rounds is not None and (not _is_int(rounds) or rounds < 0):
        raise ConfigError("rounds", f"need None or a whole number of rounds >= 0, "
                                    f"got {rounds!r}")


def finish(state: core.StateVector, anc: int, n_addr: int, predicted: float, mode: str,
           procedure: CircuitOp, rng: np.random.Generator | None = None, shots: int = 2048,
           rounds: int | None = None) -> tuple[QdacOutcome, float]:
    """Read out the ancilla=0 branch of state = procedure|0...0>.

    postselect keeps the branch; sample draws one binomial count of
    successes over `shots` tries; amplify runs `rounds` Grover rounds
    (grover_rounds(p) by default) from state, then postselects. The output
    is that branch cleaned onto the address register (qubits 0..n_addr-1).
    Also returns p, the branch probability before any boosting. Callers
    pass mode, rng, shots and rounds through check_mode before building the
    state.

    state is consumed, so it must be a buffer the caller owns. postselect
    and sample project it in place and build no second full-size state;
    amplify projects the boosted state in place, which the Grover rounds
    build as one copy of state.
    """
    amplify = mode == "amplify"
    # amplify starts from the whole state, so there p is read off a copy
    branch, p = core.postselect(state, anc, 0, inplace=not amplify)
    empirical, attempts, success = p, 1, True
    if mode == "sample":
        hits = int(rng.binomial(shots, p))
        empirical, attempts, success = hits / shots, shots, hits > 0
    elif amplify:
        r = grover_rounds(p) if rounds is None else int(rounds)
        del branch  # not kept alive next to the boosted state
        boosted = amplitude_amplify(procedure, state, anc, r)
        branch, empirical = core.postselect(boosted, anc, 0, inplace=True)
        attempts = 1 + 2 * r
    output, mass = core.clean_component(branch, [(0, n_addr)])
    return QdacOutcome(
        success=success,
        attempts=attempts,
        output=output,
        empirical_probability=empirical,
        predicted_probability=predicted,
        residual_mass=1.0 - mass,
    ), p


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
    procedure: CircuitOp, state: core.StateVector, flag: int, rounds: int,
) -> core.StateVector:
    """Grover-boost the flag=0 component of state, which must be
    procedure|0...0>.

    One round is -A R0 A^-1 Rgood; the leading minus keeps the boosted state
    in phase with the plain postselected branch.
    """
    grover = CircuitOp(
        (Gate("reflect", (flag,)),) + procedure.inverse().gates
        + (Gate("reflect", tuple(range(state.n_qubits))),) + procedure.gates,
        label="grover-round",
    )
    # the first round copies state, so the caller's state is left as it was
    for i in range(int(rounds)):
        state = grover.apply(state, inplace=i > 0)
        np.negative(state.amps, out=state.amps)
    return state
