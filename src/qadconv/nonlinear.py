"""Nonlinear amplitude transformation and the amplitude perceptron.

The pipeline reads each amplitude into fixed-point registers (real part,
and the imaginary part too when the activation uses it), rotates an
ancilla so its |0> branch carries f of those registers, and runs the
readout circuits again to clear the registers. Each readout block is a
palindrome (load, estimate, copy out, un-estimate, un-load), so it is its
own inverse; when the activation ignores the imaginary register the two
imag blocks sit adjacent in the circuit and cancel exactly, and the
pipeline skips them. The last block's un-estimate and the revert's first
re-estimate act only on qubits below the value registers, which the
f-rotation leaves alone, so that pair cancels too: a 1-input f runs H,
load + estimate, copy out, f-rotation, copy out, un-estimate + un-load.
The value register still holds the digital value while f is evaluated.
The state is one buffer at its final width, value registers and ancilla
on top, and every stage runs in place on it (qadc.run_stages). It ends
in qdac.finish, the readout qdac_run uses: postselect the ancilla,
sample it with one binomial draw, or amplify it with Grover rounds
started from the state the pipeline has just built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import core
# phase_estimate_op is unused here, but perfbench's tracer test looks it up on this module
from .circuits import CircuitOp, Gate, phase_estimate_op  # noqa: F401
from .errors import ConfigError, RegisterError, ResourceLimitError, ZeroSuccessError
from .fixedpoint import (
    ACTIVATIONS,
    FixedPointCodec,
    FunctionOracle,
    activation_oracle,
)
from .prep import PrepTree, synthesize_ua
from .qadc import hadamard_layer, readout_block, readout_layout, run_stages
from .qdac import check_mode, check_shots, finish, value_rotation


# Most gate records an ansatz may hold. Every readout iterate carries the
# ansatz twice, and each of its records is built and materialized once per
# readout block, so a run's time grows with this count.
ANSATZ_RECORD_CAP = 1 << 12


def check_ansatz_cap(n_qubits: int, layers: int) -> None:
    """Refuse an ansatz whose gate records would exceed ANSATZ_RECORD_CAP,
    before its angles or any circuit are built."""
    ring = n_qubits if n_qubits > 2 else n_qubits - 1
    records = layers * (2 * n_qubits + ring)
    if records > ANSATZ_RECORD_CAP:
        raise ResourceLimitError(
            f"{layers} ansatz layers on {n_qubits} qubits ({records} gate records) "
            f"exceeds the cap of {ANSATZ_RECORD_CAP} records"
        )


@dataclass(frozen=True)
class AnsatzCircuit:
    """Alternating rotation and entangling layers on the data register.

    params has shape (layers, n_qubits, 2): a y angle and a z angle per
    qubit per layer, followed by a ring of controlled-Z. A layer whose
    parameters are all exactly zero is skipped entirely (the
    identity-at-zero convention), so the zero vector is the identity.
    """

    n_qubits: int
    layers: int
    params: np.ndarray

    def __post_init__(self):
        check_ansatz_cap(self.n_qubits, self.layers)
        p = np.asarray(self.params, dtype=np.float64)
        want = (self.layers, self.n_qubits, 2)
        if p.shape != want:
            raise ConfigError("params", f"expected shape {want}, got {p.shape}")
        object.__setattr__(self, "params", p)

    def with_params(self, params) -> "AnsatzCircuit":
        return replace(self, params=np.asarray(params, dtype=np.float64))

    def op(self, start: int = 0) -> CircuitOp:
        n = self.n_qubits
        gates = []
        ring = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            ring.append((n - 1, 0))
        for layer in self.params:
            if not layer.any():
                continue
            for q in range(n):
                gates.append(Gate("ry", (start + q,), (float(layer[q, 0]),)))
            for q in range(n):
                gates.append(Gate("rz", (start + q,), (float(layer[q, 1]),)))
            for a, b in ring:
                gates.append(Gate("z", (start + b,), controls=((start + a, 1),)))
        return CircuitOp(tuple(gates), label="ansatz")


@dataclass(frozen=True)
class NonlinearOutcome:
    success: bool
    attempts: int
    output: core.StateVector
    amplitudes: np.ndarray
    target: np.ndarray
    fidelity: float
    success_probability: float
    empirical_probability: float
    predicted_probability: float
    leakage: float
    mode: str


def _arity(f) -> int:
    """Number of inputs of an activation, known before its table is built."""
    if isinstance(f, FunctionOracle):
        return f.arity
    return ACTIVATIONS[f][1] if isinstance(f, str) and f in ACTIVATIONS else 1


def _resolve_activation(f, m: int) -> FunctionOracle:
    if isinstance(f, FunctionOracle):
        if not f.out_codec.signed or f.out_codec.m != m:
            raise ConfigError("f", "output codec must be signed with matching m")
        if any(not c.signed or c.m != m for c in f.in_codecs):
            raise ConfigError("f", "input codecs must be signed with matching m")
        return f
    return activation_oracle(f, m, in_signed=True, out_signed=True)


def _classical_target(c: np.ndarray, f: FunctionOracle) -> np.ndarray:
    if f.arity == 1:
        vals = np.array([f.fn(float(x)) for x in c.real])
    else:
        vals = np.array([f.fn(float(x), float(y)) for x, y in zip(c.real, c.imag)])
    norm = math.sqrt(float((vals**2).sum()))
    if norm == 0.0:
        raise ZeroSuccessError("the activation vanishes on every input amplitude")
    return vals / norm


def nonlinear_transform(tree: PrepTree, f, n: int, m: int, g: int,
                        rng=None, mode: str = "postselect", shots: int = 2048,
                        rounds=None, cap: int = core.DEFAULT_QUBIT_CAP) -> NonlinearOutcome:
    if n != tree.depth:
        raise ConfigError("n", f"tree has {tree.depth} address qubits, got n={n}")
    return _pipeline(synthesize_ua(tree).op(start=n), tree.amplitudes(), n, f, m, g,
                     rng=rng, mode=mode, shots=shots, rounds=rounds, cap=cap)


def _pipeline(prep, source, n, f, m, g, rng, mode, shots, rounds, cap):
    """Convert, evaluate f, revert. prep loads the data register (qubits
    n .. 2n-1); `source` holds the amplitudes the classical target applies
    f to."""
    check_mode(mode, rng, shots, rounds)
    base = readout_layout("real", n, m, g)
    nb = base.n_qubits
    mw = FixedPointCodec(m, signed=True).width
    anc = nb + _arity(f) * mw
    # the run's one buffer; allocating it checks the qubit cap, which also
    # bounds every 2^m-sized table, before any is built
    state = core.new_zero_state(anc + 1, cap=cap)
    f = _resolve_activation(f, m)
    target = _classical_target(source, f)
    fvals = np.clip(f.decoded_outputs(), -1.0, 1.0)
    if not np.any(fvals):
        raise ZeroSuccessError("every quantized activation value is zero")

    # each readout block is its own inverse, so reverting replays them
    # backwards; the last block's un-estimate and the revert's first
    # re-estimate act only below nb, where the f-rotation does not, so that
    # pair cancels and the rotation sits between two copies of the value
    blocks = [readout_block(prep, "real", n, m, g, nb)]
    if f.arity == 2:
        blocks.append(readout_block(prep, "imag", n, m, g, nb + mw))
    *done, (fwd, recover, back) = blocks
    forward = [hadamard_layer(base, "ad")] + [op for b in done for op in b] + [fwd, recover]
    rest = [CircuitOp((value_rotation(f, nb),), label="f-rotation"), recover, back]
    rest += [op for b in reversed(done) for op in b]

    live = run_stages(state.amps, 0, forward)
    # success probability predicted from the pipeline's own registers; the
    # un-estimate still to come touches neither the address nor the values
    key_joint = core.register_distribution(core.StateVector(live, state.amps[:1 << live]),
                                           [(0, n), (nb, anc - nb)])
    predicted = float((key_joint.reshape(1 << n, -1) @ (fvals**2)).sum())
    run_stages(state.amps, live, rest)

    procedure = CircuitOp(tuple(gate for op in forward + rest for gate in op.gates))
    out, p = finish(state, anc, n, predicted, mode, procedure, rng, shots, rounds)
    return NonlinearOutcome(
        success=out.success,
        attempts=out.attempts,
        output=out.output,
        amplitudes=out.output.amps,
        target=np.asarray(target, dtype=np.float64),
        fidelity=float(abs(np.vdot(target, out.output.amps))),
        success_probability=p,
        empirical_probability=float(out.empirical_probability),
        predicted_probability=predicted,
        leakage=float(out.residual_mass),
        mode=mode,
    )


# ---------------------------------------------------------------------------
# Amplitude perceptron.


def perceptron_run(tree: PrepTree, ansatz: AnsatzCircuit, sigma, m: int, g: int,
                   rng=None, mode: str = "postselect", shots: int = 2048,
                   cap: int = core.DEFAULT_QUBIT_CAP) -> NonlinearOutcome:
    """Forward pass: load, rotate by the ansatz, then the nonlinear pipeline.

    The activation reads the real-part register only, matching the
    real-vector framing of the perceptron.
    """
    n = tree.depth
    if ansatz.n_qubits != n:
        raise ConfigError("ansatz", f"ansatz spans {ansatz.n_qubits} qubits, data has {n}")
    if _arity(sigma) != 1:
        raise ConfigError("sigma", "the perceptron activation takes one argument")
    ua = synthesize_ua(tree)
    rotated = (ua.op(0) + ansatz.op(0)).apply(core.new_zero_state(n, cap=cap), inplace=True)
    return _pipeline(
        ua.op(start=n) + ansatz.op(start=n),
        rotated.amps, n, sigma, m, g, rng=rng, mode=mode, shots=shots, rounds=None,
        cap=cap,
    )


@dataclass(frozen=True)
class PerceptronReadout:
    k: int
    estimate: float
    shots: int
    p_zero: float
    standard_error: float


def swap_test_readout(output: core.StateVector, k: int, shots: int, rng) -> PerceptronReadout:
    """Estimate |<k|output>|^2 from a sampled swap test against |k>."""
    check_shots(shots)
    if rng is None:
        raise ConfigError("rng", "readout sampling needs a seeded generator")
    n = output.n_qubits
    if not 0 <= k < (1 << n):
        raise RegisterError(f"basis index {k} out of range for {n} qubits")
    anc = 2 * n
    amps = np.zeros(1 << (anc + 1), dtype=np.complex128)
    amps[(k << n):(k << n) + (1 << n)] = output.amps
    state = core.StateVector(anc + 1, amps)
    gates = [Gate("h", (anc,))]
    gates.extend(Gate("swap", (i, n + i), controls=((anc, 1),)) for i in range(n))
    gates.append(Gate("h", (anc,)))
    state = CircuitOp(tuple(gates)).apply(state, inplace=True)
    p_zero = float(core.register_distribution(state, [(anc, 1)])[0])
    p_hat = int(rng.binomial(shots, p_zero)) / shots
    estimate = min(max(2.0 * p_hat - 1.0, 0.0), 1.0)
    return PerceptronReadout(
        k=k,
        estimate=estimate,
        shots=shots,
        p_zero=p_zero,
        standard_error=math.sqrt(p_hat * (1.0 - p_hat) / shots),
    )


@dataclass(frozen=True)
class TrainResult:
    theta: np.ndarray
    loss: float
    trace: tuple
    evaluations: int


def train_demo(objective, ansatz: AnsatzCircuit, tree: PrepTree, sigma, m: int, g: int,
               shots: int, rng, budget: int = 50) -> TrainResult:
    """Tune the ansatz so swap-test readouts match the target overlaps.

    Gradient-free coordinate search: nudge one angle at a time, keep
    improvements. Every loss evaluation draws from its own spawned RNG
    stream, so results do not depend on evaluation order.
    """
    objective = np.asarray(objective, dtype=np.float64)
    n_out = 1 << tree.depth
    if objective.shape != (n_out,):
        raise ConfigError("objective", f"need {n_out} target readouts")

    def loss_of(params) -> float:
        child = rng.spawn(1)[0]
        out = perceptron_run(tree, ansatz.with_params(params), sigma, m, g).output
        total = 0.0
        for k in range(n_out):
            est = swap_test_readout(out, k, shots, child).estimate
            total += (est - objective[k]) ** 2
        return total

    theta = ansatz.params.copy()
    if budget < 1:
        return TrainResult(theta=theta, loss=math.inf, trace=(), evaluations=0)

    best_loss = loss_of(theta)
    trace = [best_loss]
    evals = 1
    flat_size = theta.size
    coord = 0
    width = 0.4  # radians; halved after a sweep over every angle finds nothing
    stale = 0
    while evals < budget:
        moved = False
        for delta in (width, -width):
            if evals >= budget:
                break
            cand = theta.copy()
            cand.flat[coord] += delta
            l = loss_of(cand)
            evals += 1
            if l < best_loss:
                theta, best_loss, moved = cand, l, True
            trace.append(best_loss)
            if moved:
                break
        coord = (coord + 1) % flat_size
        stale = 0 if moved else stale + 1
        if stale >= flat_size:
            width *= 0.5
            stale = 0
    return TrainResult(theta=theta, loss=best_loss, trace=tuple(trace), evaluations=evals)
