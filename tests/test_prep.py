import numpy as np
import pytest

from qadconv import core, prep, reference
from qadconv.errors import DimensionError, NormalizationError


def random_vector(n, seed, complex_data=True):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n)
    if complex_data:
        v = v + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_tree_shape_and_sums():
    tree = prep.build_tree([0.6, 0.8])
    assert tree.depth == 1
    assert tree.root == pytest.approx(1.0)
    np.testing.assert_allclose(tree.leaf_values(), [0.36, 0.64])


def test_basis_vector_tree():
    tree = prep.build_tree([1, 0, 0, 0])
    assert tree.level(0)[0] == pytest.approx(1.0)
    np.testing.assert_allclose(tree.level(1), [1.0, 0.0])
    np.testing.assert_allclose(tree.level(2), [1, 0, 0, 0])


def test_parent_child_sums_random():
    data = random_vector(8, seed=1)
    tree = prep.build_tree(data)
    for l in range(tree.depth):
        up = tree.level(l)
        down = tree.level(l + 1)
        np.testing.assert_allclose(up, down[0::2] + down[1::2], atol=1e-12)
    assert tree.root == pytest.approx(1.0, abs=1e-12)


def test_build_tree_validation():
    with pytest.raises(DimensionError):
        prep.build_tree([1.0, 0.0, 0.0])
    with pytest.raises(NormalizationError):
        prep.build_tree([0.0, 0.0])
    with pytest.raises(NormalizationError):
        prep.build_tree([1.0, 1.0], normalize="strict")


def test_build_tree_warns_then_normalizes():
    with pytest.warns(UserWarning):
        tree = prep.build_tree([3.0, 4.0])
    np.testing.assert_allclose(tree.leaf_values(), [0.36, 0.64])
    np.testing.assert_allclose(tree.amplitudes(), [0.6, 0.8])


def test_synthesize_two_amplitudes():
    tree = prep.build_tree([0.6, 0.8])
    circ = prep.synthesize_ua(tree)
    out = circ.op().apply(core.new_zero_state(1))
    np.testing.assert_allclose(out.amps, [0.6, 0.8], atol=1e-12)


def test_synthesize_basis_state():
    for k in range(4):
        data = np.zeros(4)
        data[k] = 1.0
        tree = prep.build_tree(data)
        out = prep.synthesize_ua(tree).op().apply(core.new_zero_state(2))
        assert abs(out.amps[k]) == pytest.approx(1.0, abs=1e-12)


def test_synthesize_complex_phases():
    data = np.asarray([0.5, 0.5j, -0.5, -0.5j])
    tree = prep.build_tree(data)
    out = prep.synthesize_ua(tree).op().apply(core.new_zero_state(2))
    np.testing.assert_allclose(out.amps, data, atol=1e-12)


@pytest.mark.parametrize("data", [[5e-324, 1j], [-5e-324j, 1e-310 + 1e-310j, -1.0, 0.0]],
                         ids=["real", "complex"])
def test_subnormal_amplitudes_get_unit_phases(data):
    data = np.asarray(data, dtype=complex)
    tree = prep.build_tree(data)
    assert np.max(np.abs(np.abs(tree.phases) - 1.0)) <= 1e-15
    out = prep.synthesize_ua(tree).op().apply(core.new_zero_state(tree.depth))
    np.testing.assert_allclose(out.amps, data, atol=1e-12)


def test_preparation_fidelity_sweep():
    seed = 0
    for n in (2, 4, 8, 16):
        for trial in range(8):
            data = random_vector(n, seed=seed)
            seed += 1
            tree = prep.build_tree(data, normalize="silent")
            w = tree.depth
            out = prep.synthesize_ua(tree).op(start=0).apply(core.new_zero_state(max(w, 1)))
            target = core.from_amplitudes(data)
            assert abs(np.vdot(out.amps, target.amps)) >= 1 - 1e-10


def test_apply_ua_inverse_roundtrip():
    data = random_vector(8, seed=11)
    tree = prep.build_tree(data, normalize="silent")
    ua = prep.synthesize_ua(tree).op(start=0)
    back = ua.inverse().apply(ua.apply(core.new_zero_state(3)))
    assert abs(back.amps[0]) == pytest.approx(1.0, abs=1e-10)


def test_apply_ua_on_offset_register():
    data = random_vector(4, seed=12)
    tree = prep.build_tree(data, normalize="silent")
    st = prep.synthesize_ua(tree).op(start=1).apply(core.new_zero_state(4))
    dist = core.register_distribution(st, [(1, 2)])
    np.testing.assert_allclose(dist, np.abs(data) ** 2, atol=1e-12)


def test_two_registers_give_product_amplitudes():
    data = np.asarray(random_vector(4, seed=13))
    tree = prep.build_tree(data, normalize="silent")
    ua = prep.synthesize_ua(tree)
    st = (ua.op(start=0) + ua.op(start=2)).apply(core.new_zero_state(4))
    want = np.kron(data, data)  # high register index varies first in kron
    np.testing.assert_allclose(st.amps, want, atol=1e-12)


def test_measurement_probability_after_prep():
    tree = prep.build_tree([0.6, 0.8])
    st = prep.synthesize_ua(tree).op(start=0).apply(core.new_zero_state(1))
    dist = core.register_distribution(st, [(0, 1)])
    assert dist[0] == pytest.approx(0.36, abs=1e-12)


def test_zero_subtree_produces_identity_rotation():
    data = np.asarray([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])
    tree = prep.build_tree(data)
    op = prep.synthesize_ua(tree).op()
    out = op.apply(core.new_zero_state(2))
    np.testing.assert_allclose(out.amps, data, atol=1e-12)
    # level-1 rotation under the dead branch is the identity angle
    assert op.gates[1].params[1] == 0.0


def test_gate_count_linear_bound():
    for n in (2, 4, 8, 16, 32):
        data = random_vector(n, seed=20 + n)
        circ = prep.synthesize_ua(prep.build_tree(data, normalize="silent"))
        assert circ.op().primitive_count() <= 4 * n


def test_ua_entry_tag_present():
    tree = prep.build_tree([0.6, 0.8])
    op = prep.synthesize_ua(tree).op()
    assert op.gates[0].tag == prep.UA_ENTRY_TAG


def test_dense_matrix_is_unitary():
    data = random_vector(8, seed=21)
    op = prep.synthesize_ua(prep.build_tree(data, normalize="silent")).op()
    mat = reference.dense_unitary(op, 3)
    assert reference.is_unitary(mat, tol=1e-10)
    np.testing.assert_allclose(mat[:, 0], data, atol=1e-12)


def test_load_data_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("# comment\n0.6\n0.8,0.0\n-0.1,0.2\n")
    got = prep.load_data(p)
    np.testing.assert_allclose(got, [0.6, 0.8, -0.1 + 0.2j])


def test_load_data_f64(tmp_path):
    p = tmp_path / "d.bin"
    np.asarray([0.6, 0.8], dtype="<f8").tofile(p)
    got = prep.load_data(p, fmt="f64")
    np.testing.assert_allclose(got, [0.6, 0.8])


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)])
def test_build_tree_rejects_non_finite(bad):
    with pytest.raises(NormalizationError):
        prep.build_tree([bad, 1.0, 0.0, 0.0])


@pytest.mark.parametrize("row", ["nan", "inf", "0.5,nan"])
def test_load_data_rejects_non_finite_csv(tmp_path, row):
    p = tmp_path / "d.csv"
    p.write_text(f"0.6\n{row}\n")
    with pytest.raises(NormalizationError):
        prep.load_data(p)


def test_load_data_rejects_non_finite_f64(tmp_path):
    p = tmp_path / "d.bin"
    np.asarray([0.6, np.nan], dtype="<f8").tofile(p)
    with pytest.raises(NormalizationError):
        prep.load_data(p, fmt="f64")
