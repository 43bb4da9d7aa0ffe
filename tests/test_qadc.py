"""Amplitude readout circuits: spectral blocks, full conversions, uncompute."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qadconv import core, nonlinear, qadc, reference
from qadconv.circuits import PE_CTRL_TAG, CircuitOp, Gate, RegisterLayout, phase_estimate_op
from qadconv.errors import ConfigError, ResourceLimitError
from qadconv.fixedpoint import abs_recovery_oracle
from qadconv.nonlinear import AnsatzCircuit, nonlinear_transform, perceptron_run
from qadconv.prep import UA_ENTRY_TAG, build_tree, synthesize_ua
from qadconv.qadc import (
    GroverSpectrum,
    abs_qadc,
    flat_readout_block,
    hadamard_layer,
    imag_qadc,
    part_spectrum,
    readout_block,
    readout_iterate,
    readout_layout,
    readout_load,
    real_qadc,
    run_qadc,
    run_stages,
    spectrum_oracle,
    v_from_prep,
    w_from_prep,
)
from qadconv.reference import dense_unitary


def _loader(layout, tree):
    return synthesize_ua(tree).op(start=layout.start("data"))


def _abs_iterate(layout, tree):
    """The magnitude iterate around the load: address copy, then V."""
    return readout_iterate(layout, readout_load(layout, _loader(layout, tree), "abs"))


def test_spectrum_oracle_anchors():
    s = spectrum_oracle(0.0)
    assert s.alpha == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert s.beta == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert s.theta == pytest.approx(0.25, abs=1e-12)
    assert not s.degenerate

    s = spectrum_oracle(1.0)
    assert s.alpha == pytest.approx(1.0, abs=1e-12)
    assert s.beta == pytest.approx(0.0, abs=1e-12)
    assert s.theta == pytest.approx(0.5, abs=1e-12)
    assert s.degenerate

    s = spectrum_oracle(0.7)
    assert s.theta == pytest.approx(math.asin(math.sqrt(0.745)) / math.pi, abs=1e-12)
    assert s.theta == pytest.approx(0.3315, abs=5e-4)


def test_spectrum_invariants_random():
    rng = np.random.default_rng(11)
    for r in rng.uniform(0, 1, size=50):
        s = spectrum_oracle(r)
        assert s.alpha**2 + s.beta**2 == pytest.approx(1.0, abs=1e-12)
        assert math.sin(math.pi * s.theta) == pytest.approx(s.alpha, abs=1e-12)
        assert s.lambda_plus == pytest.approx(np.exp(2j * np.pi * s.theta), abs=1e-12)
        assert abs(s.coef_plus) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert abs(s.coef_minus) == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_spectrum_domain_errors():
    with pytest.raises(ConfigError):
        spectrum_oracle(-0.01)
    with pytest.raises(ConfigError):
        spectrum_oracle(1.01)
    with pytest.raises(ConfigError):
        part_spectrum(-1.01)
    with pytest.raises(ConfigError):
        part_spectrum(1.2)


def _small_layout():
    return RegisterLayout.build(("ad", 1), ("data", 1), ("a", 1), ("b", 1))


def _abs_branches(r):
    """Start state V|0> for a two-leaf tree with |c_0| = r, split on B."""
    tree = build_tree(np.array([r, math.sqrt(1 - r * r)]))
    layout = _small_layout()
    psi = v_from_prep(layout, _loader(layout, tree)).apply(core.new_zero_state(4))
    b_bit = (np.arange(16) >> 3) & 1
    v0 = np.where(b_bit == 0, psi.amps, 0)
    v1 = np.where(b_bit == 1, psi.amps, 0)
    return layout, tree, psi.amps, v0, v1


def test_v_branch_norms_random_complex():
    # |0>_B branch carries (1 + r_k^2)/2 of the mass for every address
    rng = np.random.default_rng(5)
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c /= np.linalg.norm(c)
    tree = build_tree(c)
    layout = readout_layout("abs", 2, 1, 1)
    op = hadamard_layer(layout, "ad") + readout_load(layout, _loader(layout, tree), "abs")
    state = op.apply(core.new_zero_state(layout.n_qubits))
    joint = core.register_distribution(state, [layout.reg("ad"), layout.reg("b")])
    for k in range(4):
        r2 = abs(c[k]) ** 2
        assert joint[k, 0] == pytest.approx((1 + r2) / 2 / 4, abs=1e-12)
        assert joint[k, 1] == pytest.approx((1 - r2) / 2 / 4, abs=1e-12)


def test_g_block_matches_spectrum_for_random_r():
    """Dense restriction of G to the two-branch span is the expected rotation."""
    rng = np.random.default_rng(7)
    for r in rng.uniform(0.02, 0.98, size=100):
        layout, tree, psi, v0, v1 = _abs_branches(r)
        s = spectrum_oracle(r)
        e0 = v0 / np.linalg.norm(v0)
        e1 = v1 / np.linalg.norm(v1)
        gmat = dense_unitary(_abs_iterate(layout, tree), 4)
        block = np.array(
            [
                [e0.conj() @ gmat @ e0, e0.conj() @ gmat @ e1],
                [e1.conj() @ gmat @ e0, e1.conj() @ gmat @ e1],
            ]
        )
        phi = 2 * math.pi * s.theta
        want = np.array(
            [[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]]
        )
        assert np.max(np.abs(block - want)) < 1e-10

        evals, evecs = np.linalg.eig(block)
        order = np.argsort(evals.imag)
        assert evals[order[1]] == pytest.approx(s.lambda_plus, abs=1e-10)
        assert evals[order[0]] == pytest.approx(s.lambda_minus, abs=1e-10)
        plus = np.array([1, 1j]) / math.sqrt(2)
        minus = np.array([1, -1j]) / math.sqrt(2)
        assert abs(np.vdot(plus, evecs[:, order[1]])) == pytest.approx(1.0, abs=1e-8)
        assert abs(np.vdot(minus, evecs[:, order[0]])) == pytest.approx(1.0, abs=1e-8)

        # start state decomposes with coefficient magnitude 1/sqrt(2) on each
        start2 = np.array([np.vdot(e0, psi), np.vdot(e1, psi)])
        cp = np.vdot(plus, start2)
        cm = np.vdot(minus, start2)
        assert abs(cp) == pytest.approx(1 / math.sqrt(2), abs=1e-10)
        assert cp == pytest.approx(s.coef_plus, abs=1e-10)
        assert cm == pytest.approx(s.coef_minus, abs=1e-10)


def test_g_block_quarter_turn_at_r_zero():
    layout, tree, psi, v0, v1 = _abs_branches(0.0)
    e0 = v0 / np.linalg.norm(v0)
    e1 = v1 / np.linalg.norm(v1)
    gmat = dense_unitary(_abs_iterate(layout, tree), 4)
    block = np.array(
        [
            [e0.conj() @ gmat @ e0, e0.conj() @ gmat @ e1],
            [e1.conj() @ gmat @ e0, e1.conj() @ gmat @ e1],
        ]
    )
    # quarter turn: squaring gives -I, the fourth power closes the circle
    assert np.max(np.abs(np.linalg.matrix_power(block, 2) + np.eye(2))) < 1e-10
    assert np.max(np.abs(np.linalg.matrix_power(block, 4) - np.eye(2))) < 1e-10


def test_g_flips_start_state_at_r_one():
    layout, tree, psi, _, _ = _abs_branches(1.0)
    out = _abs_iterate(layout, tree).apply(core.StateVector(4, psi.copy()))
    assert np.max(np.abs(out.amps + psi)) < 1e-10


def _part_branches(c):
    tree = build_tree(np.asarray(c, dtype=complex))
    layout = RegisterLayout.build(("ad", 1), ("data", 1), ("a", 0), ("b", 1))
    return layout, tree


@pytest.mark.parametrize("imag", [False, True])
def test_g_prime_block_matches_part_spectrum(imag):
    rng = np.random.default_rng(13 if imag else 12)
    for x in rng.uniform(-0.95, 0.95, size=40):
        c = [1j * x, math.sqrt(1 - x * x)] if imag else [x, math.sqrt(1 - x * x)]
        layout, tree = _part_branches(c)
        w = w_from_prep(layout, _loader(layout, tree), imag)
        psi = w.apply(core.new_zero_state(3)).amps
        b_bit = (np.arange(8) >> 2) & 1
        v0 = np.where(b_bit == 0, psi, 0)
        v1 = np.where(b_bit == 1, psi, 0)
        s = part_spectrum(x)
        assert np.linalg.norm(v0) ** 2 == pytest.approx((1 + x) / 2, abs=1e-12)
        e0 = v0 / np.linalg.norm(v0)
        e1 = v1 / np.linalg.norm(v1)
        gmat = dense_unitary(readout_iterate(layout, w), 3)
        block = np.array(
            [
                [e0.conj() @ gmat @ e0, e0.conj() @ gmat @ e1],
                [e1.conj() @ gmat @ e0, e1.conj() @ gmat @ e1],
            ]
        )
        evals = np.linalg.eigvals(block)
        order = np.argsort(evals.imag)
        assert evals[order[1]] == pytest.approx(s.lambda_plus, abs=1e-10)
        assert evals[order[0]] == pytest.approx(s.lambda_minus, abs=1e-10)


# ---------------------------------------------------------------------------
# Full conversions against the closed-form pipeline.


def test_abs_basis_state_reads_top_code():
    """c = e_2: the ideal r=1 is past the top code, so the register clamps."""
    tree = build_tree(np.array([0, 0, 1, 0.0]))
    res = abs_qadc(tree, n=2, m=3, g=2)
    assert res.per_address_estimates[2] == pytest.approx(0.875, abs=1e-12)
    assert res.per_address_modal_probability[2] == pytest.approx(1.0, abs=1e-9)
    # every theta here is dyadic, so the whole run is exact
    assert res.clean_probability == pytest.approx(1.0, abs=1e-10)
    assert res.per_address_phase_success == pytest.approx([1, 1, 1, 1], abs=1e-10)


def test_abs_uniform_reads_half():
    tree = build_tree(np.full(4, 0.5))
    res = abs_qadc(tree, n=2, m=3, g=2)
    assert np.allclose(res.per_address_estimates, 0.5)
    assert res.per_address_modal_probability == pytest.approx(
        [0.757743] * 4, abs=1e-5
    )
    assert res.per_address_within_bound == pytest.approx([0.919546] * 4, abs=1e-5)
    assert res.per_address_phase_success == pytest.approx([0.976075] * 4, abs=1e-5)
    assert res.fidelity_vs_ideal == pytest.approx(0.757742518205, abs=1e-9)


def test_abs_full_laws_match_reference():
    """Code rows, fidelity, and clean mass all follow the closed forms."""
    tree = build_tree(np.array([0.6, 0.8]))
    m, g = 4, 3
    res = abs_qadc(tree, n=1, m=m, g=g)
    t = m + g
    fid = 0.0
    clean = 0.0
    for k, r in enumerate([0.6, 0.8]):
        theta = reference.theta_from_abs(r)
        dist = reference.code_distribution(theta, t, m, signed=False)
        row = res.per_address_code_distribution[k]
        for code in range(1 << m):
            want = dist.get(code / (1 << m), 0.0)
            assert row[code] == pytest.approx(want, abs=1e-10)
        fid += dist.get(reference.quantize_unsigned(r, m), 0.0)
        clean += sum(p * p for p in dist.values())
    assert res.fidelity_vs_ideal == pytest.approx(fid / 2, abs=1e-9)
    assert res.clean_probability == pytest.approx(clean / 2, abs=1e-9)
    assert res.fidelity_vs_ideal == pytest.approx(0.892134482001, abs=1e-6)
    assert res.clean_probability == pytest.approx(0.805992196873, abs=1e-6)


def test_abs_controlled_prep_count_law():
    tree = build_tree(np.array([0.6, 0.8]))
    m, g = 3, 2
    res = abs_qadc(tree, n=1, m=m, g=g)
    assert res.controlled_ua_count == 4 * (2 ** (m + g) - 1)


def test_recovery_consistency_with_phase_argmax():
    # modal decode equals recovery applied to the phase register's argmax
    tree = build_tree(np.full(4, 0.5))
    m, g = 3, 2
    res = abs_qadc(tree, n=2, m=m, g=g)
    oracle = abs_recovery_oracle(m, guard_bits=g)
    theta = reference.theta_from_abs(0.5)
    dist = reference.branch_pair_distribution(theta, m + g)
    code = int(oracle.table[int(np.argmax(dist))])
    assert np.allclose(res.per_address_estimates, oracle.out_codec.decode(code))


def test_digital_state_form_on_exact_input():
    """Dyadic inputs leave the registers in the ideal digital state exactly."""
    tree = build_tree(np.array([0, 0, 1, 0.0]))
    res = abs_qadc(tree, n=2, m=3, g=2)
    digital = res.digital_state
    assert digital.n_qubits == 2 + 3
    oracle = abs_recovery_oracle(3, guard_bits=2)
    codes = [int(oracle.table[8]), int(oracle.table[8]), int(oracle.table[16]),
             int(oracle.table[8])]
    want = np.zeros(32, dtype=complex)
    for k, code in enumerate(codes):
        want[k | (code << 2)] = 0.5
    assert np.max(np.abs(digital.amps - want)) < 1e-9


def test_real_plus_and_minus_one_exact():
    res = real_qadc(build_tree(np.array([1.0, 0.0])), n=1, m=3, g=2)
    assert res.per_address_estimates[0] == pytest.approx(0.875, abs=1e-12)
    assert res.per_address_modal_probability[0] == pytest.approx(1.0, abs=1e-9)
    assert res.clean_probability == pytest.approx(1.0, abs=1e-10)

    res = real_qadc(build_tree(np.array([-1.0, 0.0])), n=1, m=3, g=2)
    assert res.per_address_estimates[0] == pytest.approx(-1.0, abs=1e-12)
    assert res.per_address_modal_probability[0] == pytest.approx(1.0, abs=1e-9)


def test_real_uniform_within_bound():
    c = np.full(2, 1 / math.sqrt(2))
    res = real_qadc(build_tree(c), n=1, m=4, g=3)
    assert np.all(np.abs(res.per_address_estimates - c) <= 2**-4 + 2**-5)
    assert res.per_address_within_bound == pytest.approx([1.0, 1.0], abs=1e-9)


def test_imag_basis_state():
    res = imag_qadc(build_tree(np.array([1j, 0])), n=1, m=3, g=2)
    assert res.per_address_estimates[0] == pytest.approx(0.875, abs=1e-12)
    assert res.per_address_modal_probability[0] == pytest.approx(1.0, abs=1e-9)


def test_imag_of_real_data_is_zero():
    res = imag_qadc(build_tree(np.array([0.6, 0.8])), n=1, m=3, g=3)
    assert res.per_address_estimates == pytest.approx([0.0, 0.0], abs=1e-12)
    assert res.fidelity_vs_ideal == pytest.approx(1.0, abs=1e-9)
    assert res.clean_probability == pytest.approx(1.0, abs=1e-9)


def test_imag_mixed_signs_within_bound():
    c = np.array([0.5, 0.5j, -0.5, -0.5j])
    res = imag_qadc(build_tree(c), n=2, m=4, g=3)
    want = np.array([0.0, 0.5, 0.0, -0.5])
    assert np.all(np.abs(res.per_address_estimates - want) <= 2**-4 + 2**-5)
    assert res.per_address_estimates[0] == pytest.approx(0.0, abs=1e-12)
    assert res.per_address_estimates[2] == pytest.approx(0.0, abs=1e-12)
    assert np.all(res.per_address_phase_success > 0.98)
    assert res.controlled_ua_count == 4 * (2**7 - 1)


def test_estimates_stay_in_codec_range():
    rng = np.random.default_rng(21)
    c = rng.normal(size=4)
    c /= np.linalg.norm(c)
    res = real_qadc(build_tree(c), n=2, m=3, g=2)
    assert np.all(res.per_address_estimates >= -1.0)
    assert np.all(res.per_address_estimates <= 0.875)
    assert res.variant == "real"
    assert (res.m, res.g) == (3, 2)


# ---------------------------------------------------------------------------
# The shared readout block and the single entry point.

VARIANTS = ("abs", "real", "imag")
small_readouts = dict(
    variant=st.sampled_from(VARIANTS),
    n=st.integers(1, 2),
    m=st.integers(1, 3),
    g=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)


def _random_tree(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return build_tree(c / np.linalg.norm(c))


@settings(max_examples=30, deadline=None)
@given(**small_readouts)
def test_readout_block_is_its_own_inverse(variant, n, m, g, seed):
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, seed))
    ops = readout_block(prep, variant, n, m, g, layout.n_qubits)
    width = m if variant == "abs" else m + 1
    nq = layout.n_qubits + width
    # only recover reaches the value register above the readout's qubits
    assert [1 + max(op.used_qubits()) for op in ops] == [layout.n_qubits, nq, layout.n_qubits]
    assert ops[1].label == "recover"
    block = CircuitOp(tuple(gate for op in ops for gate in op.gates))
    rng = np.random.default_rng(seed ^ 0x5EED)
    amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    start = core.from_amplitudes(amps / np.linalg.norm(amps))
    twice = block.apply(block.apply(start))
    assert np.max(np.abs(twice.amps - start.amps)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(**small_readouts)
def test_every_readout_stage_preserves_the_norm(variant, n, m, g, seed):
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, seed))
    ops = readout_block(prep, variant, n, m, g, layout.n_qubits)
    live = layout.n_qubits
    rng = np.random.default_rng(seed ^ 0x5EED)
    amps = rng.normal(size=1 << live) + 1j * rng.normal(size=1 << live)
    buf = np.zeros(1 << (1 + max(ops[1].used_qubits())), dtype=np.complex128)
    buf[:1 << live] = amps / np.linalg.norm(amps)
    for op in ops:
        live = run_stages(buf, live, [op])
        assert abs(np.linalg.norm(buf[:1 << live]) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(buf) - 1.0) <= 1e-12


def _tensor_stages(state, ops):
    """The reference for run_stages: per op, tensor fresh zero qubits on top
    of the state up to the op's highest qubit, then apply the op to a copy."""
    for op in ops:
        extra = 1 + max(op.used_qubits()) - state.n_qubits
        if extra > 0:
            state = core.tensor(core.new_zero_state(extra), state)
        state = op.apply(state)
    return state


def test_run_stages_passes_over_an_op_with_no_gates():
    # at n = 0 the address Hadamard layer touches no qubit
    empty = hadamard_layer(readout_layout("real", 0, 2, 1), "ad")
    assert empty.gates == ()
    buf = np.array([1, 0, 0, 0], dtype=np.complex128)
    assert run_stages(buf, 0, [empty]) == 0
    assert run_stages(buf, 0, [empty, CircuitOp((Gate("x", (1,)),)), empty]) == 2
    assert buf.tolist() == [0, 0, 1, 0]


@settings(max_examples=20, deadline=None)
@given(**small_readouts)
def test_run_stages_on_one_buffer_matches_stage_by_stage_tensor_products(
        variant, n, m, g, seed):
    # both runs hold recover, which widens the live slice, and then the
    # un-estimate, which touches only the qubits below the value register
    # but must run on the widened slice
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, seed))
    ops = readout_block(prep, variant, n, m, g, layout.n_qubits)
    nq = layout.n_qubits
    total = 1 + max(ops[1].used_qubits())
    rng = np.random.default_rng(seed ^ 0x5EED)
    amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    for run in (ops, ops[1:]):
        buf = np.zeros(1 << total, dtype=np.complex128)
        buf[:1 << nq] = amps
        live = run_stages(buf, nq, run)
        want = _tensor_stages(core.StateVector(nq, amps.copy()), run)
        assert live == want.n_qubits == total
        # the tensor product writes 0 * x, a -0.0 where x < 0; adding 0.0
        # turns every zero into +0.0 and leaves the other bytes alone
        assert (buf + 0.0).tobytes() == (want.amps + 0.0).tobytes()


@settings(max_examples=30, deadline=None)
@given(**small_readouts)
def test_phase_success_matches_reference(variant, n, m, g, seed):
    tree = _random_tree(n, seed)
    res = run_qadc(tree, variant, n, m, g)
    part = {"abs": np.abs, "real": np.real, "imag": np.imag}[variant]
    np.testing.assert_array_equal(res.true_values, part(tree.amplitudes()))
    theta_of = reference.theta_from_abs if variant == "abs" else reference.theta_from_part
    want = [reference.phase_success_mass(theta_of(float(x)), m + g, m)
            for x in res.true_values]
    np.testing.assert_allclose(res.per_address_phase_success, want, rtol=0, atol=1e-9)


def test_run_qadc_rejects_bad_arguments():
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ConfigError):
        run_qadc(tree, "phase", 1, 2, 1)
    with pytest.raises(ConfigError):
        run_qadc(tree, "abs", 2, 2, 1)
    with pytest.raises(ConfigError):
        readout_block(synthesize_ua(tree).op(start=1), "phase", 1, 2, 1, 6)


@pytest.mark.parametrize("m,g", [(2, -1), (0, 1)], ids=["g-1", "m0"])
@pytest.mark.parametrize("entry", ["qadc", "transform", "perceptron"])
def test_bad_m_or_g_is_refused_before_any_readout_block(monkeypatch, entry, m, g):
    def refuse(*args, **kwargs):
        raise AssertionError("fused a readout load before checking m and g")

    monkeypatch.setattr(qadc, "fuse", refuse)
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ConfigError, match="g:" if g < 0 else "m:"):
        if entry == "qadc":
            run_qadc(tree, "abs", 1, m, g)
        elif entry == "transform":
            nonlinear_transform(tree, "square", 1, m, g)
        else:
            perceptron_run(tree, AnsatzCircuit(1, 1, np.zeros((1, 1, 2))), "tanh", m, g)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_readout_layout_places_b_and_the_phase_register_after_the_mirror(variant, n):
    # the nonlinear pipeline's register arithmetic (nb, anc) rests on these
    m, g = 3, 2
    layout = readout_layout(variant, n, m, g)
    mirror = n if variant == "abs" else 0
    assert [(name, width) for name, _, width in layout.registers] == [
        ("ad", n), ("data", n), ("a", mirror), ("b", 1), ("regp", m + g)]
    assert layout.start("b") == 2 * n + mirror
    assert layout.reg("regp") == (2 * n + mirror + 1, m + g)
    assert layout.n_qubits == 2 * n + mirror + 1 + m + g


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_qadc_honours_the_callers_cap(caps_checked, variant):
    # abs: ad, data, mirror, b, 3 phase bits, 2-bit value; real/imag: ad,
    # data, b, 3 phase bits, 3-bit signed value; 9 qubits either way
    tree = build_tree(np.array([0.6, 0.8]))
    with pytest.raises(ResourceLimitError, match="cap of 8"):
        run_qadc(tree, variant, 1, 2, 1, cap=8)
    caps_checked.clear()
    res = run_qadc(tree, variant, 1, 2, 1, cap=9)
    assert res.controlled_ua_count == 4 * (2**3 - 1)
    assert caps_checked and set(caps_checked) == {9}


def _pe_records(gates):
    """Phase-estimation records in order."""
    return [gate for gate in gates if gate.tag == PE_CTRL_TAG]


@pytest.mark.parametrize("n,m,g", [(1, 2, 1), (2, 3, 2)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_spectral_record_powers_match_the_readout_iterate(variant, n, m, g):
    layout = readout_layout(variant, n, m, g)
    tree = _random_tree(n, 17 * n + m)
    prep = _loader(layout, tree)
    flat = readout_iterate(layout, readout_load(layout, prep, variant))
    t = m + g
    s = layout.start("regp")
    u = dense_unitary(flat, s)
    fwd = readout_block(prep, variant, n, m, g, layout.n_qubits)[0]
    (spectral,) = _pe_records(fwd.gates)
    assert spectral.kind == "spectral" and spectral.params.count == (1 << t) - 1
    (basis,) = [h for gate in fwd.gates if gate.kind == "power"
                for h in gate.params.iterate if h.kind == "eigenbasis"]
    # V lambda^(2^j) V^H, from the eigenbasis record and the spectral
    # record's row phi = 2^j, is the flat iterate's power U^(2^j)
    v = dense_unitary(CircuitOp((basis,)), s).conj().T
    rows = spectral.params.phases.reshape(1 << t, 1 << s)
    for j in range(t):
        power = v @ np.diag(rows[1 << j]) @ v.conj().T
        assert np.max(np.abs(power - np.linalg.matrix_power(u, 1 << j))) <= 1e-12
    # the record carries the readout iterate around the plain load, gate for
    # gate, with one loader entry in L^-1 and one in L
    iterate = spectral.params.iterate
    assert [(h.kind, h.wires, h.controls) for h in iterate] == [
        (h.kind, h.wires, h.controls) for h in flat.gates]
    assert sum(h.tag == UA_ENTRY_TAG for h in iterate) == 2
    # two loader entries per iterate, in the estimate and the un-estimate
    assert run_qadc(tree, variant, n, m, g).controlled_ua_count == 4 * ((1 << t) - 1)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("n,m,g", [(1, 2, 1), (2, 2, 1), (2, 3, 0), (3, 2, 1)])
def test_phase_estimate_matches_the_dense_oracle_on_readout_iterates(variant, n, m, g):
    # phase_estimate_op on the readout iterate U, after the address
    # Hadamards and the load, against the same steps in dense numpy: the
    # phase register's Hadamards, U^(2^j) from matrix_power where phase
    # bit j is 1, then the inverse DFT on the phase register
    layout = readout_layout(variant, n, m, g)
    load = readout_load(layout, _loader(layout, _random_tree(n, 100 * n + 10 * m + g)), variant)
    iterate = readout_iterate(layout, load)
    s, t = layout.reg("regp")
    start = (hadamard_layer(layout, "ad") + load).apply(core.new_zero_state(s + t))
    pe = phase_estimate_op(iterate, (s, t))
    got = pe.apply(start)
    u = dense_unitary(iterate, s)
    powers = [np.linalg.matrix_power(u, 1 << j) for j in range(t)]
    rows = np.empty((1 << t, 1 << s), dtype=np.complex128)
    for phi in range(1 << t):
        rows[phi] = start.amps[:1 << s] / math.sqrt(1 << t)  # phase register at 0
        for j in range(t):
            if phi >> j & 1:
                rows[phi] = powers[j] @ rows[phi]
    want = reference.dft_matrix(1 << t).conj().T @ rows
    assert np.max(np.abs(got.amps - want.ravel())) <= 1e-12
    assert np.max(np.abs(pe.inverse().apply(got).amps - start.amps)) <= 1e-12


def _tree_with_part(variant, n, x, seed):
    """A random n-address tree whose address-0 amplitude has part x: x
    itself for abs and real, i x for imag."""
    rng = np.random.default_rng(seed)
    rest = rng.normal(size=(1 << n) - 1) + 1j * rng.normal(size=(1 << n) - 1)
    rest *= math.sqrt(max(1.0 - x * x, 0.0)) / np.linalg.norm(rest)
    return build_tree(np.concatenate([[1j * x if variant == "imag" else x], rest]),
                      normalize="silent")


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(VARIANTS), n=st.integers(1, 2), x=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
@example(variant="real", n=1, x=0.0, seed=0)
@example(variant="abs", n=2, x=1.0, seed=1)
@example(variant="real", n=2, x=-1.0, seed=2)
@example(variant="real", n=1, x=math.sqrt(0.5), seed=3)
@example(variant="imag", n=2, x=-math.sqrt(0.5), seed=4)
@example(variant="abs", n=1, x=math.sqrt(0.5), seed=5)
@example(variant="real", n=2, x=1 - 1e-9, seed=6)
@example(variant="imag", n=1, x=-1 + 1e-9, seed=7)
@example(variant="abs", n=2, x=1e-9, seed=8)
def test_spectral_block_equals_the_flat_block(variant, n, x, seed):
    # the estimate in the iterate's eigenbasis, with V cancelled across
    # recover, against textbook phase estimation
    m, g = 2, 1
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _tree_with_part(variant, n, x, seed))
    ops = readout_block(prep, variant, n, m, g, layout.n_qubits)
    flat = flat_readout_block(prep, variant, n, m, g, layout.n_qubits)
    nq = 1 + max(ops[1].used_qubits())
    rng = np.random.default_rng(seed ^ 0x5EED)
    amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    got = amps / np.linalg.norm(amps)
    want = got.copy()
    run_stages(got, nq, ops)
    run_stages(want, nq, flat)
    assert np.max(np.abs(got - want)) <= 1e-12


def _run_block(ops, start, nq):
    """The final state of ops run in place on start, widened to nq qubits."""
    buf = np.zeros(1 << nq, dtype=np.complex128)
    buf[:start.size] = start
    run_stages(buf, 0, ops)
    return buf


@settings(max_examples=30, deadline=None)
@given(**small_readouts)
def test_support_restricted_block_equals_the_whole_block_on_a_clean_input(
        variant, n, m, g, seed):
    # a clean input: any address state, |0> on every other register
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, seed))
    out = layout.n_qubits
    ops = readout_block(prep, variant, n, m, g, out, clean_input=True)
    idle = {(q, 0) for q in (*layout.qubits("data"), *layout.qubits("a"))}
    restricted = [gate.kind for op in ops for gate in op.gates if gate.controls]
    assert all(set(gate.controls) == idle for op in ops for gate in op.gates if gate.controls)
    # the phase Hadamards, the inverse QFT and recover, then their mirrors
    assert "qft" in restricted and "oracle" in restricted and "power" in restricted
    # L V^H is fused alone: no whole-state block holds a phase Hadamard
    regp = set(layout.qubits("regp"))
    assert not any(set(gate.wires) & regp for gate in ops[0].gates
                   if gate.kind == "power" and not gate.controls)
    nq = 1 + max(ops[1].used_qubits())
    rng = np.random.default_rng(seed ^ 0x5EED)
    addr = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    addr /= np.linalg.norm(addr)
    got = _run_block(ops, addr, nq)
    paths = [readout_block(prep, variant, n, m, g, out)]
    if m + g <= 3:  # the flat block runs 2^t - 1 iterates gate by gate
        paths.append(flat_readout_block(prep, variant, n, m, g, out))
    for path in paths:
        assert np.max(np.abs(got - _run_block(path, addr, nq))) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(**small_readouts)
def test_support_restricted_block_differs_on_an_input_that_is_not_clean(
        variant, n, m, g, seed):
    # the precondition is real: where data or mirror is not |0> the
    # restricted records do not act
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, seed))
    out = layout.n_qubits
    ops = readout_block(prep, variant, n, m, g, out, clean_input=True)
    nq = 1 + max(ops[1].used_qubits())
    rng = np.random.default_rng(seed ^ 0x5EED)
    amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    amps /= np.linalg.norm(amps)
    whole = readout_block(prep, variant, n, m, g, out)
    assert np.linalg.norm(_run_block(ops, amps, nq) - _run_block(whole, amps, nq)) > 0.1


@pytest.mark.parametrize("n,m,g", [(1, 1, 0), (1, 2, 1), (2, 2, 1), (2, 3, 2)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_the_whole_state_block_is_the_clean_block_without_its_idle_controls(variant, n, m, g):
    # one layout for both: record for record, the whole-state block is the
    # clean one with the (q, 0) controls on data and mirror taken off
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, 11 * n + m + g))
    out = layout.n_qubits
    idle = set(qadc._idle(layout))
    clean = readout_block(prep, variant, n, m, g, out, clean_input=True)
    whole = readout_block(prep, variant, n, m, g, out)
    for clean_op, whole_op in zip(clean, whole, strict=True):
        for c, w in zip(clean_op.gates, whole_op.gates, strict=True):
            assert (c.kind, c.wires, c.tag) == (w.kind, w.wires, w.tag)
            assert tuple(pair for pair in c.controls if pair not in idle) == w.controls
            if c.kind == "power":
                assert np.array_equal(c.params.blocks, w.params.blocks)
            elif c.kind == "spectral":
                assert np.array_equal(c.params.phases, w.params.phases)
            else:
                assert c.params == w.params


@pytest.mark.parametrize("f,arity", [("tanh", 1), ("product", 2)])
def test_only_a_lone_pipeline_block_runs_on_the_clean_support(monkeypatch, f, arity):
    # a two-input pipeline replays the real block after the imag block has
    # changed the state, so neither of its blocks may carry idle controls
    built = []

    def keep(*args, **kwargs):
        built.append(readout_block(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(nonlinear, "readout_block", keep)
    n, m, g = 2, 2, 1
    nonlinear_transform(_random_tree(n, 5), f, n, m, g)
    assert len(built) == arity
    controls = {gate.controls for ops in built for op in ops for gate in op.gates}
    if arity == 1:
        idle = tuple((q, 0) for q in readout_layout("real", n, m, g).qubits("data"))
        assert controls == {(), idle}
    else:
        assert controls == {()}


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), n=st.integers(1, 2), m=st.integers(1, 2),
       g=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_every_path_counts_the_same_primitives_and_controlled_unitaries(variant, n, m, g,
                                                                        seed):
    # flat: phase_estimate_op gate by gate; spectral: readout_block
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, seed))
    out = layout.n_qubits
    spectral = readout_block(prep, variant, n, m, g, out)
    flat = flat_readout_block(prep, variant, n, m, g, out)
    regp = set(layout.qubits("regp"))
    flat_cu = sum(gate.tag == UA_ENTRY_TAG and any(q in regp for q, _ in gate.controls)
                  for op in flat for gate in op.gates)
    t = m + g
    assert flat_cu == 4 * ((1 << t) - 1)
    assert sum(qadc._controlled_ua_count(op.gates) for op in spectral) == flat_cu
    prims = {sum(op.primitive_count() for op in path) for path in (flat, spectral)}
    assert len(prims) == 1


def test_no_lapack_routine_is_reachable_from_the_readouts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK routine called on the op path")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "qr", "svd", "inv", "pinv", "solve",
                 "lstsq"):
        monkeypatch.setattr(np.linalg, name, refuse)
    tree = _random_tree(2, 11)
    run_qadc(tree, "abs", 2, 3, 2)
    run_qadc(tree, "real", 2, 3, 2)
    perceptron_run(tree, AnsatzCircuit(2, 1, np.full((1, 2, 2), 0.4)), "tanh", 2, 1)


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(VARIANTS), shape=st.sampled_from([(1, 2, 1), (2, 3, 1), (2, 4, 3)]),
       seed=st.integers(0, 2**32 - 1))
def test_digital_state_follows_the_amplitude_law(variant, shape, seed):
    n, m, g = shape
    tree = _random_tree(n, seed)
    res = run_qadc(tree, variant, n, m, g)
    want = reference.amplitude_law(tree.amplitudes(), variant, m, g)
    assert np.max(np.abs(res.digital_state.amps - want)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), n=st.integers(1, 3), m=st.integers(1, 4),
       g=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(variant="abs", n=2, m=4, g=3, seed=0)
@example(variant="imag", n=1, m=1, g=0, seed=1)
def test_compact_tail_matches_the_whole_state_block(variant, n, m, g, seed):
    # run_qadc's recover and un-estimate on the eigenframe's support, the
    # un-load read through its row 0, against all three ops of the
    # whole-state block on one buffer; the flat block where it is small
    tree = _random_tree(n, seed)
    res = run_qadc(tree, variant, n, m, g)
    wants = [qadc.whole_state_readout(tree, variant, n, m, g)[1]]
    # counted off the spectral records, which the flat block does not have
    assert res.controlled_ua_count == wants[0][3] == 4 * ((1 << (m + g)) - 1)
    if n + m + g <= 4:  # the flat block runs 2^t - 1 iterates gate by gate
        wants.append(qadc.whole_state_readout(tree, variant, n, m, g, flat_readout_block)[1])
    for digital, fidelity, mass, _ in wants:
        assert np.max(np.abs(res.digital_state.amps - digital.amps)) <= 1e-12
        assert abs(res.fidelity_vs_ideal - fidelity) <= 1e-12
        assert abs(res.clean_probability - mass) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(**small_readouts)
def test_code_distribution_read_off_the_estimate_is_the_final_states(variant, n, m, g, seed):
    # the reference: the (address, value) marginal of the whole final state
    tree = _random_tree(n, seed)
    res = run_qadc(tree, variant, n, m, g)
    state, _ = qadc.whole_state_readout(tree, variant, n, m, g)
    width = m if variant == "abs" else m + 1
    joint = core.register_distribution(
        state, [(0, n), (readout_layout(variant, n, m, g).n_qubits, width)])
    want = joint / joint.sum(axis=1, keepdims=True)
    assert np.max(np.abs(res.per_address_code_distribution - want)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(variant=st.sampled_from(VARIANTS), shape=st.sampled_from([(1, 2, 1), (2, 3, 1)]),
       seed=st.integers(0, 2**32 - 1))
def test_phase_register_returns_to_zero_up_to_the_unclean_mass(variant, shape, seed):
    # the clean slice has every qubit outside the address and value
    # registers at 0, the phase register among them
    n, m, g = shape
    tree = _random_tree(n, seed)
    res = run_qadc(tree, variant, n, m, g)
    state, _ = qadc.whole_state_readout(tree, variant, n, m, g)
    layout = readout_layout(variant, n, m, g)
    off_zero = 1.0 - core.register_distribution(state, [layout.reg("regp")])[0]
    assert off_zero <= 1.0 - res.clean_probability + 1e-12


# ---------------------------------------------------------------------------
# Records built once per shape.

SHAPES = [(1, 1, 0), (1, 2, 1), (2, 3, 2)]


def _assert_same_record(a, b):
    """Two records equal field by field, every table under np.array_equal
    (with its dtype), the iterate of a power or spectral record too."""
    assert (a.kind, a.wires, a.controls, a.tag, a.label) == (b.kind, b.wires, b.controls,
                                                             b.tag, b.label)
    if a.kind in ("power", "spectral"):
        assert len(a.params.iterate) == len(b.params.iterate)
        for x, y in zip(a.params.iterate, b.params.iterate):
            _assert_same_record(x, y)
    if a.kind == "power":
        assert a.params.keys == b.params.keys
        assert a.params.blocks.dtype == b.params.blocks.dtype
        assert np.array_equal(a.params.blocks, b.params.blocks)
    elif a.kind == "spectral":
        assert a.params.count == b.params.count
        assert np.array_equal(a.params.phases, b.params.phases)
    elif a.kind == "eigenbasis":
        assert (a.params.keys, a.params.mix_first) == (b.params.keys, b.params.mix_first)
        assert np.array_equal(a.params.vectors, b.params.vectors)
        assert np.array_equal(a.params.mix, b.params.mix)
    else:
        assert a.params == b.params


def _hadamard_records(op):
    """The fused phase-register Hadamards among op's records."""
    return [gate for gate in op.gates
            if gate.kind == "power" and all(h.kind == "h" for h in gate.params.iterate)]


@pytest.mark.parametrize("clean_input", [False, True], ids=["whole", "clean"])
@pytest.mark.parametrize("n,m,g", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_warm_block_is_the_cold_block_bit_for_bit(variant, n, m, g, clean_input):
    layout = readout_layout(variant, n, m, g)
    prep = _loader(layout, _random_tree(n, 7 * n + m + g))
    args = (prep, variant, n, m, g, layout.n_qubits)
    qadc._clear_shape_cache()
    cold = readout_block(*args, clean_input=clean_input)
    hits = qadc._phase_register.cache_info().hits + qadc._recover_stage.cache_info().hits
    warm = readout_block(*args, clean_input=clean_input)
    # the warm block took its phase register and recover records from the cache
    assert qadc._phase_register.cache_info().hits + qadc._recover_stage.cache_info().hits \
        == hits + 2
    for cold_op, warm_op in zip(cold, warm, strict=True):
        assert cold_op.label == warm_op.label
        for a, b in zip(cold_op.gates, warm_op.gates, strict=True):
            _assert_same_record(a, b)


@pytest.mark.parametrize("n,m,g", SHAPES)
@pytest.mark.parametrize("variant", VARIANTS)
def test_a_warm_readout_is_the_cold_readout_bit_for_bit(variant, n, m, g):
    tree = _random_tree(n, 5 * n + m + g)
    qadc._clear_shape_cache()
    cold = run_qadc(tree, variant, n, m, g)
    warm = run_qadc(tree, variant, n, m, g)
    for field in cold.__dataclass_fields__:
        a, b = getattr(cold, field), getattr(warm, field)
        if isinstance(a, core.StateVector):
            assert a.n_qubits == b.n_qubits
            a, b = a.amps, b.amps
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field
        else:
            assert a == b, field


@pytest.mark.parametrize("variant", VARIANTS)
def test_clean_and_whole_state_blocks_share_no_hadamard_record(variant):
    layout = readout_layout(variant, 2, 3, 2)
    prep = _loader(layout, _random_tree(2, 3))
    args = (prep, variant, 2, 3, 2, layout.n_qubits)
    clean = readout_block(*args, clean_input=True)
    whole = readout_block(*args)
    clean_h = _hadamard_records(clean[0]) + _hadamard_records(clean[2])
    whole_h = _hadamard_records(whole[0]) + _hadamard_records(whole[2])
    assert clean_h and whole_h
    assert not {id(gate) for gate in clean_h} & {id(gate) for gate in whole_h}
    idle = set(qadc._idle(layout))
    assert all(idle <= set(gate.controls) for gate in clean_h)
    assert all(not gate.controls for gate in whole_h)


@pytest.mark.parametrize("variant", VARIANTS)
def test_two_value_registers_get_two_recover_records(variant):
    layout = readout_layout(variant, 1, 2, 1)
    prep = _loader(layout, _random_tree(1, 4))
    out = layout.n_qubits
    low = readout_block(prep, variant, 1, 2, 1, out)[1].gates[0]
    high = readout_block(prep, variant, 1, 2, 1, out + 3)[1].gates[0]
    width = 2 if variant == "abs" else 3
    assert low.wires[-width:] == tuple(range(out, out + width))
    assert high.wires[-width:] == tuple(range(out + 3, out + 3 + width))
    assert low.params == high.params


@pytest.mark.parametrize("clean_input", [False, True], ids=["whole", "clean"])
def test_a_shared_table_cannot_be_written(clean_input):
    layout = readout_layout("real", 2, 3, 2)
    prep = _loader(layout, _random_tree(2, 8))
    fwd, _, back = readout_block(prep, "real", 2, 3, 2, layout.n_qubits,
                                 clean_input=clean_input)
    shared = _hadamard_records(fwd) + _hadamard_records(back)
    assert len(shared) == 2
    for gate in shared:
        with pytest.raises(ValueError):
            gate.params.blocks[0, 0, 0] = 0.0
    # what each op builds afresh stays the caller's
    (own,) = [gate for gate in fwd.gates if gate.kind == "spectral"]
    assert own.params.phases.flags.writeable


def test_the_shape_caches_stay_within_their_size():
    held = qadc._SHAPES_HELD
    layout = readout_layout("abs", 1, 1, 0)
    prep = _loader(layout, _random_tree(1, 2))
    for out in range(layout.n_qubits, layout.n_qubits + held + 3):
        readout_block(prep, "abs", 1, 1, 0, out)
    assert qadc._recover_stage.cache_info().currsize == held
    # a layout is fixed by the variant's mirror, n and m + g
    layouts = {readout_layout(variant, n, t, 0)
               for variant in ("abs", "real") for n in (1, 2, 3) for t in range(1, 7)}
    assert len(layouts) > held
    for layout in layouts:
        qadc._phase_register(layout, ())
    assert qadc._phase_register.cache_info().currsize == held
    assert qadc._phase_register.cache_info().maxsize == held


def test_readouts_on_many_threads_share_the_records_safely():
    # the CLI's sweeps run readouts on a thread pool, and every thread reads
    # and fills the one cache; a short switch interval interleaves them
    shapes = [(variant, 1, m, g) for variant in VARIANTS for m, g in ((1, 0), (2, 1))]
    trees = [_random_tree(1, 30 + i) for i in range(len(shapes))]
    want = [run_qadc(tree, *shape).digital_state.amps for tree, shape in zip(trees, shapes)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            qadc._clear_shape_cache()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run_qadc, tree, *shape)
                           for tree, shape in zip(trees, shapes) for _ in range(2)]
                got = [future.result(timeout=60).digital_state.amps for future in futures]
            twice = [amps for amps in want for _ in range(2)]
            assert all(np.array_equal(a, b) for a, b in zip(got, twice, strict=True))
    finally:
        sys.setswitchinterval(old)
