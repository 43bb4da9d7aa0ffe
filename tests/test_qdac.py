import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from qadconv import core, qdac, reference
from qadconv.errors import (
    CodecRangeError,
    ConfigError,
    RegisterError,
    ResourceLimitError,
    ZeroSuccessError,
)
from qadconv.fixedpoint import ACTIVATIONS, FixedPointCodec, activation_oracle


def identity_oracle(m, signed=False):
    return activation_oracle("identity", m, in_signed=signed, out_signed=signed)


def test_make_digital_state_two_values():
    st = qdac.make_digital_state([0.0, 0.5], m=2)
    # (|0>|00> + |1>|10>)/sqrt(2): indices 0 and 1 + (2 << 1)
    assert st.n_qubits == 3
    assert st.amps[0] == pytest.approx(1 / np.sqrt(2))
    assert st.amps[1 + (2 << 1)] == pytest.approx(1 / np.sqrt(2))
    assert np.count_nonzero(st.amps) == 2


def test_make_digital_state_single_address():
    st = qdac.make_digital_state([0.75], m=2)
    assert st.n_qubits == 2
    assert abs(st.amps[0b11]) == pytest.approx(1.0)


def test_make_digital_state_uniform_amplitudes():
    rng = np.random.default_rng(0)
    data = rng.uniform(0, 0.9, size=4)
    st = qdac.make_digital_state(data, m=5)
    nz = st.amps[np.abs(st.amps) > 0]
    np.testing.assert_allclose(np.abs(nz), 0.5, atol=1e-12)
    assert nz.size == 4


def test_make_digital_state_range_error():
    with pytest.raises(CodecRangeError):
        qdac.make_digital_state([0.5, 1.5], m=3)


def test_extract_codes_roundtrip():
    data = [0.1, 0.6, 0.3, 0.9]
    st = qdac.make_digital_state(data, m=6)
    codec = FixedPointCodec(6)
    assert qdac.extract_codes(st, 2, 6) == [codec.encode(v) for v in data]


def test_extract_codes_rejects_non_digital():
    st = core.new_zero_state(3)
    with pytest.raises(RegisterError):
        qdac.extract_codes(st, 1, 2)


@pytest.mark.parametrize("mode", qdac.MODES)
def test_a_phased_digital_state_is_refused(mode):
    # postselect kept the -1 phase on address 1 and amplify, which rebuilt
    # the start from |0...0>, dropped it: [0.894, -0.447] against [0.894, 0.447]
    st = qdac.make_digital_state([0.5, 0.25], m=4)
    codec = FixedPointCodec(4)
    st.amps[1 + (codec.encode(0.25) << 1)] *= -1
    with pytest.raises(RegisterError):
        qdac.qdac_run(st, identity_oracle(4), m=4, rng=np.random.default_rng(0), mode=mode)


def test_moments_and_identity_prediction():
    rng = np.random.default_rng(1)
    for _ in range(50):
        data = rng.uniform(0, 1, size=8)
        mu, v = data.mean(), data.var()
        assert qdac.predict_success(data) == pytest.approx(v + mu * mu, abs=1e-12)


def test_predict_success_examples():
    assert qdac.predict_success([0.3, 0.3, 0.3, 0.3]) == pytest.approx(0.09)
    assert qdac.predict_success([0.0, 1.0]) == pytest.approx(0.5)


def test_predict_success_quantized_matches_oracle_path():
    data = [0.6, 0.8]
    out = qdac.qdac_run(qdac.make_digital_state(data, m=8), identity_oracle(8), m=8)
    dq = reference.quantize_unsigned(data, 8)
    assert out.predicted_probability == pytest.approx(np.mean(dq**2), abs=1e-15)
    # the frozen reference value for m=8 identity on (0.6, 0.8)
    assert out.predicted_probability == pytest.approx(0.50156402587890625, abs=1e-15)


def test_qdac_identity_postselect():
    data = [0.6, 0.8]
    st = qdac.make_digital_state(data, m=8)
    out = qdac.qdac_run(st, identity_oracle(8), m=8)
    assert out.success
    assert out.attempts == 1
    assert out.empirical_probability == pytest.approx(
        out.predicted_probability, abs=1e-12
    )
    dq = reference.quantize_unsigned(data, 8)
    target = core.from_amplitudes(dq / np.linalg.norm(dq))
    assert abs(np.vdot(out.output.amps, target.amps)) >= 1 - 1e-9
    assert out.residual_mass < 1e-12


def test_qdac_uniform_data_succeeds_always():
    st = qdac.make_digital_state([1.0, 1.0], m=4)
    out = qdac.qdac_run(st, identity_oracle(4), m=4)
    # clamped to 15/16 but uniform, so the output is exactly (|0>+|1>)/sqrt 2
    assert out.predicted_probability == pytest.approx((15 / 16) ** 2)
    np.testing.assert_allclose(out.output.amps, [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_qdac_square_oracle():
    data = [0.6, 0.8]
    st = qdac.make_digital_state(data, m=8)
    sq = activation_oracle("square", 8)
    out = qdac.qdac_run(st, sq, m=8)
    dq = reference.quantize_unsigned(data, 8)
    fq = reference.quantize_unsigned(dq**2, 8)
    assert out.predicted_probability == pytest.approx(np.mean(fq**2), abs=1e-15)
    target = core.from_amplitudes(fq / np.linalg.norm(fq))
    assert abs(np.vdot(out.output.amps, target.amps)) >= 1 - 1e-9


def test_qdac_random_pairs_fidelity():
    rng = np.random.default_rng(7)
    names = ["identity", "square", "tanh", "relu-capped"]
    for trial in range(50):
        n = int(rng.choice([2, 4]))
        data = rng.uniform(0.05, 0.95, size=n)
        name = names[trial % len(names)]
        orc = activation_oracle(name, 6)
        st = qdac.make_digital_state(data, m=6)
        out = qdac.qdac_run(st, orc, m=6)
        fq = orc.out_codec.decode_array(
            [orc.table[FixedPointCodec(6).encode(v)] for v in data]
        )
        assert out.empirical_probability == pytest.approx(
            np.mean(fq**2), abs=1e-12
        )
        target = core.from_amplitudes(fq / np.linalg.norm(fq))
        assert abs(np.vdot(out.output.amps, target.amps)) >= 1 - 1e-9
        assert out.residual_mass < 1e-12


def test_qdac_signed_values_carry_sign():
    data = [0.5, -0.5]
    st = qdac.make_digital_state(data, m=4, signed=True)
    orc = identity_oracle(4, signed=True)
    out = qdac.qdac_run(st, orc, m=4)
    want = np.array([0.5, -0.5]) / np.linalg.norm([0.5, 0.5])
    np.testing.assert_allclose(out.output.amps, want, atol=1e-12)


def test_qdac_zero_function_raises():
    st = qdac.make_digital_state([0.0, 0.0], m=3)
    with pytest.raises(ZeroSuccessError):
        qdac.qdac_run(st, identity_oracle(3), m=3)


def test_qdac_mode_validation():
    st = qdac.make_digital_state([0.5, 0.5], m=3)
    with pytest.raises(ConfigError):
        qdac.qdac_run(st, identity_oracle(3), m=3, mode="quantum")
    with pytest.raises(ConfigError):
        qdac.qdac_run(st, identity_oracle(4), m=3)
    with pytest.raises(ConfigError):
        qdac.qdac_run(st, identity_oracle(3), m=3, mode="sample")


def test_sample_mode_without_rng_is_refused_before_the_suffix_is_built(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built the conversion suffix before checking the mode")

    monkeypatch.setattr(qdac, "conversion_suffix_op", refuse)
    st = qdac.make_digital_state([0.6, 0.8], m=4)
    with pytest.raises(ConfigError, match="rng"):
        qdac.qdac_run(st, identity_oracle(4), m=4, mode="sample")


BAD_COUNTS = [
    dict(mode="sample", shots=0),
    dict(mode="sample", shots=-3),
    dict(mode="sample", shots=2.5),
    dict(mode="postselect", shots=True),
    dict(mode="sample", shots=1 << 63),
    dict(mode="amplify", rounds=-2),
    dict(mode="amplify", rounds=1.0),
]


@pytest.mark.parametrize("bad", BAD_COUNTS, ids=lambda b: "-".join(map(str, b.values())))
def test_bad_shots_or_rounds_are_refused_before_the_suffix_is_built(monkeypatch, bad):
    def refuse(*args, **kwargs):
        raise AssertionError("built the conversion suffix before checking the counts")

    monkeypatch.setattr(qdac, "conversion_suffix_op", refuse)
    st = qdac.make_digital_state([0.6, 0.8], m=4)
    name = "shots" if "shots" in bad else "rounds"
    with pytest.raises(ConfigError, match=name):
        qdac.qdac_run(st, identity_oracle(4), m=4, rng=np.random.default_rng(0), **bad)


def test_zero_rounds_and_numpy_counts_are_accepted():
    st = qdac.make_digital_state([0.6, 0.8], m=4)
    out = qdac.qdac_run(st, identity_oracle(4), m=4, mode="amplify", rounds=np.int64(0))
    assert out.attempts == 1 and type(out.attempts) is int
    out = qdac.qdac_run(st, identity_oracle(4), m=4, mode="sample", shots=np.int64(1),
                        rng=np.random.default_rng(0))
    assert out.attempts == 1


def test_qdac_sample_mode_statistics():
    data = [0.6, 0.8]
    st = qdac.make_digital_state(data, m=8)
    rng = np.random.default_rng(42)
    out = qdac.qdac_run(st, identity_oracle(8), m=8, rng=rng, mode="sample",
                        shots=20000)
    p = out.predicted_probability
    sigma = np.sqrt(p * (1 - p) / 20000)
    assert abs(out.empirical_probability - p) <= 3 * sigma
    assert out.attempts == 20000
    assert out.success
    # one binomial draw of the exact branch probability, as in the nonlinear pipeline
    exact = qdac.qdac_run(st, identity_oracle(8), m=8).empirical_probability
    assert out.empirical_probability == np.random.default_rng(42).binomial(20000, exact) / 20000


def test_amplify_quarter_probability_one_round():
    # |alpha|^2 = 1/4: a single round lands exactly on probability 1
    st = qdac.make_digital_state([0.5, 0.5], m=4)
    out = qdac.qdac_run(st, identity_oracle(4), m=4, mode="amplify", rounds=1)
    assert out.empirical_probability == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(out.output.amps, [1 / np.sqrt(2)] * 2, atol=1e-9)
    assert out.attempts == 3


def test_amplify_round_sweep_matches_closed_form():
    data = [0.4, 0.5]
    st = qdac.make_digital_state(data, m=6)
    orc = identity_oracle(6)
    p0 = float(np.mean(reference.quantize_unsigned(data, 6) ** 2))
    for r in range(4):
        out = qdac.qdac_run(st, orc, m=6, mode="amplify", rounds=r)
        want = reference.grover_probability(p0, r)
        assert out.empirical_probability == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("mode", ["postselect", "sample", "amplify"])
def test_qdac_run_leaves_the_callers_state_unchanged(mode):
    st = qdac.make_digital_state([0.4, -0.5, 0.1, 0.7], m=5, signed=True)
    before = st.amps.tobytes()
    orc = activation_oracle("tanh", 5, in_signed=True, out_signed=True)
    qdac.qdac_run(st, orc, m=5, mode=mode, rng=np.random.default_rng(1))
    assert st.amps.tobytes() == before


@pytest.mark.parametrize("rounds", [0, 1, 3])
def test_amplitude_amplify_leaves_the_callers_state_and_matches_round_by_round_copies(rounds):
    from qadconv.circuits import CircuitOp, Gate

    proc = CircuitOp((Gate("h", (0,)), Gate("ry", (1,), (2.2,), controls=((0, 1),))))
    st = proc.apply(core.new_zero_state(2))
    before = st.amps.tobytes()
    got = qdac.amplitude_amplify(proc, st, 1, rounds)
    assert st.amps.tobytes() == before
    grover = CircuitOp((Gate("reflect", (1,)),) + proc.inverse().gates
                       + (Gate("reflect", (0, 1)),) + proc.gates)
    want = st
    for _ in range(rounds):
        want = core.StateVector(2, -grover.apply(want).amps)
    assert got.amps.tobytes() == want.amps.tobytes()


ONE_INPUT = sorted(name for name, (_, arity) in ACTIVATIONS.items() if arity == 1)


@settings(max_examples=100, deadline=None)
@given(
    signed=hst.booleans(),
    size=hst.sampled_from([2, 4, 8]),
    name=hst.sampled_from(ONE_INPUT),
    rounds=hst.integers(0, 3),
    data=hst.data(),
)
def test_amplify_output_equals_postselect_output(signed, size, name, rounds, data):
    m = 4
    lo = -0.9 if signed else 0.0
    values = data.draw(hst.lists(hst.floats(lo, 0.9), min_size=size, max_size=size))
    state = qdac.make_digital_state(values, m, signed=signed)
    orc = activation_oracle(name, m, in_signed=signed, out_signed=signed)
    try:
        plain = qdac.qdac_run(state, orc, m)
    except ZeroSuccessError:
        with pytest.raises(ZeroSuccessError):
            qdac.qdac_run(state, orc, m, mode="amplify", rounds=rounds)
        return
    boosted = qdac.qdac_run(state, orc, m, mode="amplify", rounds=rounds)
    p = plain.empirical_probability
    assert boosted.empirical_probability == pytest.approx(
        reference.grover_probability(p, rounds), abs=1e-10)
    # past the optimum, sin((2r+1) asin sqrt p) < 0 negates the whole branch
    sign = np.sign(np.sin((2 * rounds + 1) * np.arcsin(np.sqrt(p))))
    assert np.max(np.abs(boosted.output.amps - sign * plain.output.amps)) <= 1e-10
    assert boosted.residual_mass == pytest.approx(plain.residual_mass, abs=1e-10)
    assert boosted.attempts == 1 + 2 * rounds


def test_grover_rounds_formula():
    assert qdac.grover_rounds(0.25) == 1
    assert qdac.grover_rounds(1.0) == 0
    assert qdac.grover_rounds(0.01) == 7
    with pytest.raises(ZeroSuccessError):
        qdac.grover_rounds(0.0)


def test_amplitude_amplify_direct():
    from qadconv.circuits import CircuitOp, Gate

    # one qubit: Ry puts sqrt(0.25) on |0> (the good flag value)
    ang = 2 * np.arccos(np.sqrt(0.25))
    proc = CircuitOp((Gate("ry", (0,), (ang,)),))
    st = qdac.amplitude_amplify(proc, proc.apply(core.new_zero_state(1)), 0, rounds=1)
    assert abs(st.amps[0]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_reference_rounds_agree_with_library():
    assert reference.grover_optimal_rounds(0.25) == 1
    ties = [np.sin(np.pi / (4 * k + 2)) ** 2 for k in range(1, 12)]
    for p in list(np.linspace(1e-3, 1.0, 997)) + ties:
        assert reference.grover_optimal_rounds(p) == qdac.grover_rounds(p), p


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("m", [2, 4, 7])
def test_postselect_matches_reference_prediction(m, signed):
    quantize = reference.quantize_signed if signed else reference.quantize_unsigned
    rng = np.random.default_rng(40 + m + 10 * signed)
    for size in (2, 4, 8):
        data = rng.uniform(-0.9 if signed else 0.05, 0.9, size=size)
        st = qdac.make_digital_state(data, m, signed=signed)
        for name in ("identity", "square", "tanh", "relu-capped"):
            fn = ACTIVATIONS[name][0]
            orc = activation_oracle(name, m, in_signed=signed, out_signed=signed)
            fq = quantize([fn(float(x)) for x in quantize(data, m)], m)
            amps, p = reference.qdac_prediction(fq)
            if p == 0.0:
                with pytest.raises(ZeroSuccessError):
                    qdac.qdac_run(st, orc, m)
                continue
            out = qdac.qdac_run(st, orc, m)
            assert out.empirical_probability == pytest.approx(p, abs=1e-12), name
            np.testing.assert_allclose(out.output.amps, amps, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("signed", [False, True])
def test_conversion_suffix_is_rotation_then_unload(signed):
    orc = identity_oracle(3, signed)
    suffix, anc = qdac.conversion_suffix_op(orc, [1, 2], n_addr=1)
    assert anc == 1 + orc.in_codecs[0].width
    assert [g.kind for g in suffix.gates] == ["mux-ry", "oracle"]
    rot = suffix.gates[0]
    assert rot.wires == tuple(range(1, anc + 1))
    # the ancilla's |0> amplitude is f~ of the value register, sign included
    np.testing.assert_allclose(np.cos(np.asarray(rot.params) / 2), orc.decoded_outputs(),
                               atol=1e-15)


@pytest.mark.parametrize("mode", ["postselect", "amplify"])
def test_qdac_run_honours_the_callers_cap(caps_checked, mode):
    # 2 address + 4 value qubits + ancilla = 7 qubits
    st = qdac.make_digital_state([0.3, 0.4, 0.5, 0.6], m=4)
    orc = identity_oracle(4)
    with pytest.raises(ResourceLimitError, match="cap of 6"):
        qdac.qdac_run(st, orc, m=4, mode=mode, cap=6)
    caps_checked.clear()
    out = qdac.qdac_run(st, orc, m=4, mode=mode, cap=7)
    assert out.output.n_qubits == 2
    assert caps_checked and set(caps_checked) == {7}


def test_huge_m_hits_the_cap_before_any_value_is_encoded(monkeypatch):
    def refuse(self, v):
        raise AssertionError("encoded past the cap")

    monkeypatch.setattr(FixedPointCodec, "encode", refuse)
    for signed in (False, True):
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            qdac.make_digital_state([0.3, 0.4, 0.5, 0.6], m=2000, signed=signed)


def test_make_digital_state_honours_the_callers_cap(caps_checked):
    with pytest.raises(ResourceLimitError, match="cap of 5"):
        qdac.make_digital_state([0.3, 0.4, 0.5, 0.6], m=4, cap=5)
    caps_checked.clear()
    assert qdac.make_digital_state([0.3, 0.4, 0.5, 0.6], m=4, cap=6).n_qubits == 6
    assert caps_checked == [6]
