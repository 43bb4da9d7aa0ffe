"""Pipeline, perceptron, swap-test readout, training loop."""

import math
import tracemalloc

import numpy as np
import pytest

from qadconv import core, nonlinear, reference
from qadconv.circuits import CircuitOp
from qadconv.errors import ConfigError, RegisterError, ResourceLimitError, ZeroSuccessError
from qadconv.fixedpoint import FixedPointCodec, FunctionOracle, activation_oracle
from qadconv.nonlinear import (
    ANSATZ_RECORD_CAP,
    AnsatzCircuit,
    PerceptronReadout,
    nonlinear_transform,
    perceptron_run,
    swap_test_readout,
    train_demo,
)
from qadconv.prep import build_tree, synthesize_ua
from qadconv.qadc import (
    flat_readout_block,
    hadamard_layer,
    readout_block,
    readout_layout,
    run_qadc,
    run_stages,
)
from qadconv.qdac import finish, grover_rounds, value_rotation
from qadconv.reference import dense_unitary, grover_probability, is_unitary


def test_ansatz_parameter_bookkeeping():
    a = AnsatzCircuit(3, 2, np.zeros((2, 3, 2)))
    assert a.params.size == 12
    assert a.params.shape == (2, 3, 2)
    with pytest.raises(ConfigError):
        AnsatzCircuit(2, 2, np.zeros((2, 2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ansatz_record_cap_counts_the_records_op_builds(n):
    per_layer = len(AnsatzCircuit(n, 1, np.ones((1, n, 2))).op().gates)
    layers = ANSATZ_RECORD_CAP // per_layer
    at_cap = AnsatzCircuit(n, layers, np.ones((layers, n, 2)))
    assert len(at_cap.op().gates) == layers * per_layer <= ANSATZ_RECORD_CAP
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        AnsatzCircuit(n, layers + 1, np.ones((layers + 1, n, 2)))


def test_ansatz_is_unitary():
    rng = np.random.default_rng(31)
    a = AnsatzCircuit(2, 2, rng.uniform(-np.pi, np.pi, size=(2, 2, 2)))
    u = dense_unitary(a.op(), 2)
    assert is_unitary(u, tol=1e-12)


def test_ansatz_identity_at_zero():
    """All-zero parameters mean no gates at all, entanglers included."""
    a = AnsatzCircuit(3, 2, np.zeros((2, 3, 2)))
    assert a.op().gates == ()
    rng = np.random.default_rng(32)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps /= np.linalg.norm(amps)
    st = core.StateVector(3, amps.copy())
    out = a.op().apply(st)
    assert np.array_equal(out.amps, amps)


def test_ansatz_ring_wiring():
    rng = np.random.default_rng(33)
    a = AnsatzCircuit(3, 1, rng.uniform(0.1, 1.0, size=(1, 3, 2)))
    names = [type(gate).__name__ for gate in a.op().gates]
    # 3 ry, 3 rz, then the 3-cycle of controlled-z
    assert len(names) == 9
    cz = [gate for gate in a.op().gates if gate.kind == "z"]
    assert len(cz) == 3
    # a two-qubit register keeps a single entangler, not a doubled pair
    b = AnsatzCircuit(2, 1, rng.uniform(0.1, 1.0, size=(1, 2, 2)))
    assert sum(1 for gate in b.op().gates if gate.kind == "z") == 1


def test_identity_activation_reproduces_input():
    tree = build_tree(np.array([0.6, 0.8]))
    out = nonlinear_transform(tree, "identity", 1, 4, 3)
    assert out.leakage < 0.1
    assert out.fidelity >= 1.0 - out.leakage
    assert out.target == pytest.approx([0.6, 0.8], abs=1e-12)


def test_square_matches_closed_form():
    tree = build_tree(np.array([0.6, 0.8]))
    out = nonlinear_transform(tree, "square", 1, 3, 2)
    pred = reference.pipeline_prediction([0.6, 0.8], lambda v: v * v, 3, 2)
    assert out.success_probability == pytest.approx(
        pred["success_probability"], abs=1e-10
    )
    assert out.predicted_probability == pytest.approx(
        out.success_probability, abs=1e-10
    )
    assert out.leakage == pytest.approx(pred["leakage"], abs=1e-9)
    assert np.max(np.abs(out.amplitudes - pred["output"])) < 1e-9
    assert out.target == pytest.approx(
        np.array([0.36, 0.64]) / math.hypot(0.36, 0.64), abs=1e-12
    )


def test_tanh_uniform_stays_uniform():
    tree = build_tree(np.full(4, 0.5))
    out = nonlinear_transform(tree, "tanh", 2, 3, 3)
    assert np.max(np.abs(out.amplitudes - out.amplitudes[0])) < 1e-10
    assert out.fidelity >= 1.0 - out.leakage
    pred = reference.pipeline_prediction([0.5] * 4, np.tanh, 3, 3)
    assert out.success_probability == pytest.approx(
        pred["success_probability"], abs=1e-10
    )


def test_sample_mode_needs_rng_and_tracks_probability():
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ConfigError):
        nonlinear_transform(tree, "square", 1, 3, 2, mode="sample")
    rng = np.random.default_rng(55)
    shots = 4096
    out = nonlinear_transform(tree, "square", 1, 3, 2, rng=rng, mode="sample",
                              shots=shots)
    p = out.success_probability
    sigma = math.sqrt(p * (1 - p) / shots)
    assert abs(out.empirical_probability - p) <= 3 * sigma
    assert out.attempts == shots
    assert out.success


def test_sample_mode_without_rng_is_refused_before_any_readout_block(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a readout block before checking the mode")

    monkeypatch.setattr(nonlinear, "readout_block", refuse)
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ConfigError, match="rng"):
        nonlinear_transform(tree, "square", 1, 3, 2, mode="sample")


@pytest.mark.parametrize("bad", [dict(mode="sample", shots=0), dict(mode="sample", shots=-3),
                                 dict(mode="amplify", rounds=-2)],
                         ids=["shots0", "shots-3", "rounds-2"])
def test_bad_shots_or_rounds_are_refused_before_any_readout_block(monkeypatch, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("built a readout block before checking the counts")

    monkeypatch.setattr(nonlinear, "readout_block", refuse)
    tree = build_tree(np.array([0.6, 0.8]))
    name = "shots" if "shots" in bad else "rounds"
    with pytest.raises(ConfigError, match=name):
        nonlinear_transform(tree, "square", 1, 3, 2, rng=np.random.default_rng(0), **bad)


def test_amplify_mode_boosts_by_grover_law():
    tree = build_tree(np.array([0.6, 0.8]))
    out = nonlinear_transform(tree, "square", 1, 3, 2, mode="amplify")
    r = grover_rounds(out.success_probability)
    assert out.attempts == 1 + 2 * r
    want = grover_probability(out.success_probability, r)
    assert out.empirical_probability == pytest.approx(want, abs=1e-9)
    assert out.fidelity >= 1.0 - out.leakage - 1e-9


def test_amplify_rounds_override_keeps_conditional_state():
    """Rotating in the good/bad plane rescales the success branch but leaves
    the state conditioned on success untouched."""
    tree = build_tree(np.array([0.6, 0.8]))
    plain = nonlinear_transform(tree, "square", 1, 3, 2)
    out = nonlinear_transform(tree, "square", 1, 3, 2, mode="amplify", rounds=2)
    assert out.attempts == 5
    want = grover_probability(plain.success_probability, 2)
    assert out.empirical_probability == pytest.approx(want, abs=1e-9)
    # identical up to the global sign of sin((2r+1)*theta)
    overlap = abs(np.vdot(out.amplitudes, plain.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-9)
    assert out.leakage == pytest.approx(plain.leakage, abs=1e-9)


def test_amplify_inverts_the_compiled_pipeline(monkeypatch):
    # the pipeline's readout blocks (spectral estimate) against the same
    # blocks with textbook phase estimation, gate by gate
    tree = build_tree(np.array([0.6, 0.8]))
    got = nonlinear_transform(tree, "square", 1, 2, 1, mode="amplify", rounds=2)

    def flat(*args, clean_input=False):  # the flat block runs on the whole state
        return flat_readout_block(*args)

    monkeypatch.setattr(nonlinear, "readout_block", flat)
    want = nonlinear_transform(tree, "square", 1, 2, 1, mode="amplify", rounds=2)
    assert got.attempts == want.attempts == 5
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= 1e-12
    assert abs(got.empirical_probability - want.empirical_probability) <= 1e-12
    assert abs(got.success_probability - want.success_probability) <= 1e-12
    assert abs(got.leakage - want.leakage) <= 1e-12
    assert abs(got.fidelity - want.fidelity) <= 1e-12


def test_pipeline_refuses_rounds_past_2_to_the_run_qubits_before_building(monkeypatch):
    # ad, data, b, 3 phase bits, 3-bit signed value, ancilla: at most 2^10 rounds
    def refuse(*args, **kwargs):
        raise AssertionError("built a readout block or a table before checking the rounds")

    monkeypatch.setattr(nonlinear, "readout_block", refuse)
    monkeypatch.setattr(FunctionOracle, "build", refuse)
    tree = build_tree(np.array([0.6, 0.8]))
    for rounds in (1025, 10**20):
        with pytest.raises(ResourceLimitError, match="Grover rounds exceed 2\\^10"):
            nonlinear_transform(tree, "square", 1, 2, 1, mode="amplify", rounds=rounds)


@pytest.mark.parametrize("name,value", [("square", 1.0), ("tanh", -1.0)])
def test_pipeline_runs_on_a_single_amplitude(name, value):
    # n = 0, so the address Hadamard layer is an op with no gates
    out = nonlinear_transform(build_tree(np.array([value])), name, 0, 2, 1)
    assert out.output.n_qubits == 0 and out.fidelity == 1.0


@pytest.mark.parametrize("mode", ["postselect", "amplify"])
def test_pipeline_honours_the_callers_cap(caps_checked, mode):
    # ad, data, b, 3 phase bits, 3-bit signed value, ancilla: 10 qubits
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ResourceLimitError, match="cap of 9"):
        nonlinear_transform(tree, "square", 1, 2, 1, mode=mode, cap=9)
    caps_checked.clear()
    out = nonlinear_transform(tree, "square", 1, 2, 1, mode=mode, cap=10)
    assert out.output.n_qubits == 1
    assert caps_checked and set(caps_checked) == {10}
    caps_checked.clear()
    ansatz = AnsatzCircuit(1, 1, np.zeros((1, 1, 2)))
    perceptron_run(tree, ansatz, "tanh", 2, 1, cap=10)
    assert caps_checked and set(caps_checked) == {10}


def _uncancelled_pipeline(tree, name, n, m, g, mode):
    """The convert-evaluate-revert circuit with no pair cancelled: H, every
    readout block, the f-rotation, then every block replayed in reverse,
    read out by the same finish. Returns (outcome, p, predicted)."""
    f = activation_oracle(name, m, in_signed=True, out_signed=True)
    prep = synthesize_ua(tree).op(start=n)
    base = readout_layout("real", n, m, g)
    nb, mw = base.n_qubits, m + 1
    blocks = [readout_block(prep, "real", n, m, g, nb)]
    if f.arity == 2:
        blocks.append(readout_block(prep, "imag", n, m, g, nb + mw))
    anc = nb + f.arity * mw
    forward = hadamard_layer(base, "ad") + CircuitOp(
        tuple(gate for b in blocks for op in b for gate in op.gates))
    rest = CircuitOp((value_rotation(f, nb),)) + CircuitOp(
        tuple(gate for b in reversed(blocks) for op in b for gate in op.gates))
    # every gate runs on the whole state, the ancilla included
    state = forward.apply(core.new_zero_state(anc + 1))
    fvals = np.clip(f.decoded_outputs(), -1.0, 1.0)
    joint = core.register_distribution(state, [(0, n), (nb, anc - nb)])
    predicted = float((joint.reshape(1 << n, -1) @ fvals**2).sum())
    state = rest.apply(state)
    procedure = forward + rest
    out, p = finish(state, anc, n, predicted, mode, procedure)
    return out, p, predicted


def _skew(m):
    """A 2-input activation that is not symmetric in its inputs, so the
    packed order of the (real, imag) values matters."""
    codec = FixedPointCodec(m, signed=True)
    return FunctionOracle.build("skew", lambda x, y: 0.5 * x - 0.25 * y, (codec, codec), codec)


@pytest.mark.parametrize("f", ["tanh", "product", _skew(2)], ids=["tanh", "product", "skew"])
def test_pipeline_predicts_from_the_joint_before_the_last_recover(monkeypatch, f):
    # the reference: the (address, values) marginal of the state after the
    # last recover, as the pipeline read it before it pushed the joint before
    # that recover through its table
    stages = []

    def recording(amps, live, ops):
        stages.extend(ops)
        return run_stages(amps, live, ops)

    monkeypatch.setattr(nonlinear, "run_stages", recording)
    n, m, g = 2, 2, 1
    tree = build_tree(np.array([0.3 + 0.5j, -0.4 + 0.1j, 0.2 - 0.6j, 0.25 + 0.15j]),
                      normalize="silent")
    got = nonlinear_transform(tree, f, n, m, g).predicted_probability
    f = activation_oracle(f, m, in_signed=True, out_signed=True) if isinstance(f, str) else f
    nb = readout_layout("real", n, m, g).n_qubits
    anc = nb + f.arity * (m + 1)
    upto = [op.label for op in stages].index("f-rotation")
    buf = np.zeros(1 << (anc + 1), dtype=np.complex128)
    buf[0] = 1.0
    live = run_stages(buf, 0, stages[:upto])
    joint = core.register_distribution(core.StateVector(live, buf[:1 << live]),
                                       [(0, n), (nb, anc - nb)])
    want = float((joint.reshape(1 << n, -1) @ np.clip(f.decoded_outputs(), -1, 1) ** 2).sum())
    assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("mode", ["postselect", "amplify"])
@pytest.mark.parametrize("name,n,m,g", [("tanh", 2, 3, 2), ("product", 1, 2, 2)])
def test_cancelled_pipeline_matches_the_uncancelled_circuit(monkeypatch, name, n, m, g, mode):
    rng = np.random.default_rng(2024 + n)
    c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    tree = build_tree(c / np.linalg.norm(c))
    ops = []

    def recording(amps, live, stages):
        ops.extend(stages)
        return run_stages(amps, live, stages)

    monkeypatch.setattr(nonlinear, "run_stages", recording)
    got = nonlinear_transform(tree, name, n, m, g, mode=mode)
    want, p, predicted = _uncancelled_pipeline(tree, name, n, m, g, mode)
    assert np.max(np.abs(got.amplitudes - want.output.amps)) <= 1e-12
    assert got.success_probability == pytest.approx(p, abs=1e-12)
    assert got.empirical_probability == pytest.approx(want.empirical_probability, abs=1e-12)
    assert got.predicted_probability == pytest.approx(predicted, abs=1e-12)
    assert got.leakage == pytest.approx(want.residual_mass, abs=1e-12)
    assert got.attempts == want.attempts

    # f is evaluated on the digital value register(s): the rotation is one
    # mux-ry keyed on the value qubits, with the ancilla right above them
    nb = readout_layout("real", n, m, g).n_qubits
    anc = nb + (2 if name == "product" else 1) * (m + 1)
    (rotation,) = [op for op in ops if op.label == "f-rotation"]
    (gate,) = rotation.gates
    assert gate.kind == "mux-ry"
    assert gate.wires == tuple(range(nb, anc)) + (anc,)
    # one fewer un-estimate/re-estimate pair than two passes of every block
    blocks = 2 if name == "product" else 1
    assert sum(op.label == "recover" for op in ops) == 2 * blocks
    assert len(ops) == 1 + 6 * blocks - 2 + 1


def test_two_argument_activation_on_imaginary_data():
    """Purely imaginary data: the real register reads exactly zero, so the
    joint law reduces to the imag-register distribution."""
    c = np.array([0.8j, 0.6j])
    tree = build_tree(c)
    f = activation_oracle(lambda x, y: (x + y) / 2, 3, in_signed=True,
                          out_signed=True, arity=2)
    out = nonlinear_transform(tree, f, 1, 3, 3)
    assert out.predicted_probability == pytest.approx(
        out.success_probability, abs=1e-10
    )
    m, g = 3, 3
    amps = []
    p_tot = 0.0
    for y in (0.8, 0.6):
        dist = reference.code_distribution(
            reference.theta_from_part(y), m + g, m, signed=True
        )
        e1 = sum(p * reference.quantize_signed(v / 2, m) for v, p in dist.items())
        e2 = sum(p * reference.quantize_signed(v / 2, m) ** 2 for v, p in dist.items())
        amps.append(e1)
        p_tot += e2 / 2
    assert out.success_probability == pytest.approx(p_tot, abs=1e-10)
    clean = np.asarray(amps) / math.sqrt(2)
    want = clean / np.linalg.norm(clean)
    assert np.max(np.abs(out.amplitudes - want)) < 1e-9


def test_zero_activation_raises():
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ZeroSuccessError):
        nonlinear_transform(tree, lambda v: 0.0, 1, 3, 2)


def test_perceptron_linearity_boundary():
    """Identity activation makes the whole pipeline a plain linear map."""
    tree = build_tree(np.array([0.6, 0.8]))
    ansatz = AnsatzCircuit(1, 1, np.array([[[0.9, 0.0]]]))
    out = perceptron_run(tree, ansatz, "identity", 4, 3)
    rotated = ansatz.op().apply(
        core.StateVector(1, np.array([0.6, 0.8], dtype=complex))
    )
    target = rotated.amps.real / np.linalg.norm(rotated.amps.real)
    assert out.target == pytest.approx(target, abs=1e-12)
    pred = reference.pipeline_prediction(rotated.amps.real, lambda v: v, 4, 3)
    assert np.max(np.abs(out.amplitudes - pred["output"])) < 1e-9
    # one input sits past the codec ceiling, so allow the clipping bias
    assert out.fidelity >= 0.99


def test_perceptron_identity_ansatz_recovers_input():
    tree = build_tree(np.array([0.6, 0.8]))
    ansatz = AnsatzCircuit(1, 1, np.zeros((1, 1, 2)))
    state = perceptron_run(tree, ansatz, "identity", 4, 3).output
    overlap = abs(np.vdot(np.array([0.6, 0.8]), state.amps))
    assert overlap >= 0.99


def test_perceptron_single_qubit_rotation():
    a = 0.7
    tree = build_tree(np.array([1.0, 0.0]))
    ansatz = AnsatzCircuit(1, 1, np.array([[[2 * a, 0.0]]]))
    out = perceptron_run(tree, ansatz, "identity", 4, 3)
    want = np.array([math.cos(a), math.sin(a)])
    assert np.max(np.abs(out.amplitudes - want)) <= 2 * 2**-4 + out.leakage


def test_perceptron_random_tanh_matches_reference():
    rng = np.random.default_rng(77)
    c = rng.uniform(0.2, 1.0, size=4)
    c /= np.linalg.norm(c)
    tree = build_tree(c)
    ansatz = AnsatzCircuit(2, 1, rng.uniform(-0.8, 0.8, size=(1, 2, 2)))
    m, g = 3, 3
    out = perceptron_run(tree, ansatz, "tanh", m, g)
    rotated = (ansatz.op()).apply(core.StateVector(2, c.astype(complex)))
    xs = rotated.amps.real
    pred = reference.pipeline_prediction(xs, np.tanh, m, g)
    assert out.success_probability == pytest.approx(
        pred["success_probability"], abs=1e-10
    )
    assert np.max(np.abs(out.amplitudes - pred["output"])) < 1e-9
    classical = np.tanh(xs) / np.linalg.norm(np.tanh(xs))
    assert np.max(np.abs(out.amplitudes - classical)) <= 2 * 2**-m + 3 * out.leakage


def test_swap_test_exact_cases():
    rng = np.random.default_rng(91)
    basis = core.StateVector(2, np.array([0, 1, 0, 0], dtype=complex))
    r = swap_test_readout(basis, 1, 256, rng)
    assert r.estimate == pytest.approx(1.0, abs=1e-12)
    assert r.p_zero == pytest.approx(1.0, abs=1e-12)

    r = swap_test_readout(basis, 2, 4096, rng)
    assert r.p_zero == pytest.approx(0.5, abs=1e-12)
    # orthogonal overlap: estimate is clamped shot noise around zero
    assert r.estimate <= 3 / math.sqrt(4096)


def test_swap_test_sampled_overlap():
    rng = np.random.default_rng(92)
    psi = core.StateVector(1, np.array([0.5, math.sqrt(0.75)], dtype=complex))
    shots = 10_000
    r = swap_test_readout(psi, 0, shots, rng)
    p0 = (1 + 0.25) / 2
    assert r.p_zero == pytest.approx(p0, abs=1e-12)
    sigma = 2 * math.sqrt(p0 * (1 - p0) / shots)
    assert abs(r.estimate - 0.25) <= 3 * sigma
    assert r.standard_error <= 1 / (2 * math.sqrt(shots))


def test_swap_test_argument_errors():
    psi = core.StateVector(1, np.array([1.0, 0.0], dtype=complex))
    rng = np.random.default_rng(93)
    with pytest.raises(ConfigError):
        swap_test_readout(psi, 0, 0, rng)
    # the shot rule check_mode and the CLI use: a whole number in [1, 2^63 - 1]
    for bad in (2.5, True, 1 << 63):
        with pytest.raises(ConfigError, match="shots"):
            swap_test_readout(psi, 0, bad, rng)
    with pytest.raises(ConfigError):
        swap_test_readout(psi, 0, 16, None)
    with pytest.raises(RegisterError):
        swap_test_readout(psi, 2, 16, rng)


def test_train_budget_zero_returns_initial():
    tree = build_tree(np.array([0.6, 0.8]))
    ansatz = AnsatzCircuit(1, 1, np.zeros((1, 1, 2)))
    res = train_demo([0.4, 0.6], ansatz, tree, "identity", 3, 2, shots=64,
                     rng=np.random.default_rng(1), budget=0)
    assert res.evaluations == 0
    assert np.array_equal(res.theta, ansatz.params)


def test_train_monotone_improvement():
    tree = build_tree(np.array([0.6, 0.8]))
    ansatz = AnsatzCircuit(1, 1, np.array([[[0.8, 0.0]]]))
    res = train_demo([0.36, 0.64], ansatz, tree, "identity", 3, 2, shots=512,
                     rng=np.random.default_rng(2), budget=7)
    assert res.evaluations == 7
    assert res.loss <= res.trace[0]
    assert all(b <= a + 1e-12 for a, b in zip(res.trace, res.trace[1:]))


def test_train_planted_optimum_hits_noise_floor():
    tree = build_tree(np.array([0.6, 0.8]))
    theta_star = np.array([[[0.9, 0.0]]])
    ansatz = AnsatzCircuit(1, 1, theta_star)
    out = perceptron_run(tree, ansatz, "identity", 3, 2).output
    targets = np.abs(out.amps) ** 2
    shots = 10_000
    res = train_demo(targets, ansatz, tree, "identity", 3, 2, shots=shots,
                     rng=np.random.default_rng(3), budget=3)
    assert res.loss <= 9 * targets.size / shots


def _unit_tree(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return build_tree(c / np.linalg.norm(c))


# Entry points whose largest state has 20 qubits (16 MiB). The pipelines
# allocate that state once, at its final width, and run every stage and the
# closing postselection in place on it; they hold the float marginal read
# off the 19-qubit slice before the ancilla joins (a quarter), and the
# postselection sums the kept branch's mass in pieces (1.07 states
# measured). run_qadc allocates no state of that width: a 14-qubit estimate
# buffer and an 18-qubit compact tail (a quarter), 0.31 states in all.
STATE_BYTES = 16 << 20
MEMORY_CASES = {
    "run_qadc": (0.33, lambda: run_qadc(_unit_tree(2, 0), "real", 2, m=5, g=4)),
    "nonlinear_transform": (
        1.12, lambda: nonlinear_transform(_unit_tree(3, 1), "tanh", 3, m=4, g=3)),
    "perceptron_run": (1.12, lambda: perceptron_run(
        _unit_tree(3, 1), AnsatzCircuit(3, 2, np.full((2, 3, 2), 0.3)), "tanh", m=4, g=3)),
}


@pytest.mark.parametrize("name", sorted(MEMORY_CASES))
def test_entry_points_hold_at_most_1_35_states(name):
    bound, run = MEMORY_CASES[name]
    run()  # numpy's and the package's one-time allocations stay out of the peak
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * STATE_BYTES, (name, peak / STATE_BYTES)
