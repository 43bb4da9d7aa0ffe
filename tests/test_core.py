from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qadconv import core
from qadconv.errors import (
    DegenerateBranchError,
    DimensionError,
    NormalizationError,
    RegisterError,
    ResourceLimitError,
    UnitaryError,
)


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return core.from_amplitudes(v / np.linalg.norm(v))


def test_new_zero_state():
    st = core.new_zero_state(3)
    assert st.n_qubits == 3
    assert st.amps[0] == 1.0
    assert np.count_nonzero(st.amps) == 1


def test_new_zero_state_rejects_bad_sizes():
    with pytest.raises(RegisterError):
        core.new_zero_state(0)
    with pytest.raises(ResourceLimitError):
        core.new_zero_state(25)
    # the cap is overridable
    assert core.new_zero_state(25, cap=26).n_qubits == 25


def test_from_amplitudes_validation():
    with pytest.raises(DimensionError):
        core.from_amplitudes([1.0, 0.0, 0.0])
    with pytest.raises(NormalizationError):
        core.from_amplitudes([1.0, 1.0])


def test_qubit_zero_is_low_bit():
    st = core.new_zero_state(2)
    st = core.apply_single(st, 0, core.X_MATRIX)
    assert abs(st.amps[1]) == pytest.approx(1.0)
    st = core.new_zero_state(2)
    st = core.apply_single(st, 1, core.X_MATRIX)
    assert abs(st.amps[2]) == pytest.approx(1.0)


def test_single_gate_matches_kron():
    # qubit q acts at the kron position n-1-q
    st = random_state(3, seed=1)
    mat = core.ry_matrix(0.8)
    got = core.apply_single(st, 1, mat)
    eye = np.eye(2)
    full = np.kron(eye, np.kron(mat, eye))
    np.testing.assert_allclose(got.amps, full @ st.amps, atol=1e-12)


def test_apply_single_rejects_nonunitary():
    st = core.new_zero_state(1)
    with pytest.raises(UnitaryError):
        core.apply_single(st, 0, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_controls_gate_the_update():
    st = core.new_zero_state(2)
    # X on qubit 1 controlled on qubit 0 being 1 does nothing from |00>
    got = core.apply_single(st, 1, core.X_MATRIX, controls=((0, 1),))
    np.testing.assert_allclose(got.amps, st.amps)
    # controlled on qubit 0 being 0 it fires
    got = core.apply_single(st, 1, core.X_MATRIX, controls=((0, 0),))
    assert abs(got.amps[2]) == pytest.approx(1.0)


def test_apply_controlled_builds_cnot():
    st = core.new_zero_state(2)
    st = core.apply_single(st, 0, core.X_MATRIX)
    got = core.apply_controlled(st, [0], 1, core.X_MATRIX)
    assert abs(got.amps[3]) == pytest.approx(1.0)


def test_control_validation():
    st = core.new_zero_state(2)
    with pytest.raises(RegisterError):
        core.apply_single(st, 0, core.X_MATRIX, controls=((0, 1),))
    with pytest.raises(RegisterError):
        core.apply_single(st, 0, core.X_MATRIX, controls=((5, 1),))
    with pytest.raises(RegisterError):
        core.apply_single(st, 0, core.X_MATRIX, controls=((1, 2),))


def test_value_semantics():
    st = core.new_zero_state(1)
    before = st.amps.copy()
    core.apply_single(st, 0, core.H_MATRIX)
    np.testing.assert_array_equal(st.amps, before)


def test_unitarity_preserved_on_random_circuit():
    rng = np.random.default_rng(7)
    st = random_state(4, seed=7)
    for _ in range(30):
        q = int(rng.integers(4))
        theta = float(rng.uniform(0, 2 * np.pi))
        st = core.apply_single(st, q, core.ry_matrix(theta))
    assert np.linalg.norm(st.amps) == pytest.approx(1.0, abs=1e-12)


def test_basis_oracle_permutes_and_inverts():
    st = random_state(3, seed=3)
    table = [1, 0, 1, 1]
    once = core.apply_basis_oracle(st, (0, 2), (2, 1), table)
    twice = core.apply_basis_oracle(once, (0, 2), (2, 1), table)
    np.testing.assert_allclose(twice.amps, st.amps)
    # spot-check one index: input register value 2 XORs 1 into the output bit
    idx = 0b010
    assert once.amps[idx ^ 0b100] == st.amps[idx]


def test_basis_oracle_rejects_overlap_and_range():
    st = random_state(3)
    with pytest.raises(RegisterError):
        core.apply_basis_oracle(st, (0, 2), (1, 1), [0, 0, 0, 0])
    with pytest.raises(RegisterError):
        core.apply_basis_oracle(st, (0, 2), (2, 1), [0, 1, 2, 0])


def test_zero_reflection_flips_only_zero_block():
    st = random_state(3, seed=5)
    got = core.apply_zero_reflection(st, [0, 1])
    expect = st.amps.copy()
    for i in range(8):
        if i & 0b011 == 0:
            expect[i] = -expect[i]
    np.testing.assert_allclose(got.amps, expect)


def test_phase_table_requires_unit_magnitude():
    st = random_state(2)
    with pytest.raises(UnitaryError):
        core.apply_phase_table(st, (0, 1), [1.0, 0.5])
    got = core.apply_phase_table(st, (0, 1), [1.0, 1j])
    np.testing.assert_allclose(got.amps[1], 1j * st.amps[1])


def test_multiplexed_ry_selects_angle_by_register():
    st = core.new_zero_state(2)
    st = core.apply_single(st, 0, core.H_MATRIX)
    got = core.apply_multiplexed_ry(st, (0, 1), 1, [0.0, np.pi])
    # key 0 untouched, key 1 rotated |0> -> |1>
    assert abs(got.amps[0b00]) == pytest.approx(1 / np.sqrt(2))
    assert abs(got.amps[0b11]) == pytest.approx(1 / np.sqrt(2))
    assert abs(got.amps[0b01]) < 1e-12


def test_postselect():
    st = core.apply_single(core.new_zero_state(2), 0, core.H_MATRIX)
    kept, prob = core.postselect(st, 0, 1)
    assert prob == pytest.approx(0.5)
    assert abs(kept.amps[1]) == pytest.approx(1.0)
    # qubit 1 never leaves |0>, so selecting its 1 branch is degenerate
    with pytest.raises(DegenerateBranchError):
        core.postselect(st, 1, 1)


@pytest.mark.parametrize("qubit,bit", [(0, 0), (2, 1), (4, 0)])
def test_postselect_in_place_matches_the_copy(qubit, bit):
    rng = np.random.default_rng(qubit + 7 * bit)
    amps = rng.normal(size=32) + 1j * rng.normal(size=32)
    st = core.StateVector(5, amps.copy())
    kept, prob = core.postselect(st, qubit, bit)
    assert st.amps.tobytes() == amps.tobytes()
    owned, owned_prob = core.postselect(st, qubit, bit, inplace=True)
    assert owned.amps is st.amps
    assert owned_prob == prob
    assert owned.amps.tobytes() == kept.amps.tobytes()


def test_tensor_order():
    # tensor(a, b) puts a on the high qubits
    a = core.apply_single(core.new_zero_state(1), 0, core.X_MATRIX)
    b = core.new_zero_state(1)
    st = core.tensor(a, b)
    assert abs(st.amps[0b10]) == pytest.approx(1.0)


def test_register_distribution_msb_convention():
    # register value reads bits MSB-high: qubit start+w-1 is the top bit
    st = core.new_zero_state(3)
    st = core.apply_single(st, 2, core.X_MATRIX)
    dist = core.register_distribution(st, [(1, 2)])
    assert dist.shape == (4,)
    assert dist[2] == pytest.approx(1.0)


def test_register_distribution_joint():
    st = random_state(4, seed=9)
    joint = core.register_distribution(st, [(0, 2), (2, 2)])
    assert joint.shape == (4, 4)
    assert joint.sum() == pytest.approx(1.0)
    lone = core.register_distribution(st, [(0, 2)])
    np.testing.assert_allclose(joint.sum(axis=1), lone, atol=1e-12)


def test_clean_component_extracts_zero_slice():
    st = random_state(3, seed=10)
    sub, mass = core.clean_component(st, [(0, 2)])
    assert sub.n_qubits == 2
    expect = st.amps[:4]
    np.testing.assert_allclose(sub.amps * np.sqrt(mass), expect)
    assert mass == pytest.approx(float(np.sum(np.abs(expect) ** 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_from_amplitudes_rejects_non_finite(bad):
    with pytest.raises(NormalizationError):
        core.from_amplitudes([bad, 0.0])


def _bits(i, qubits):
    return sum(((i >> q) & 1) << b for b, q in enumerate(qubits))


@pytest.mark.parametrize("chunk", [core.CHUNK, 4])
def test_block_table_matches_index_loop(monkeypatch, chunk):
    # scattered key and target qubits, a value-0 control, and (with a tiny
    # chunk) the outer loop over the remaining qubits
    monkeypatch.setattr(core, "CHUNK", chunk)
    rng = np.random.default_rng(7)
    n, keys, targets, controls = 7, (5, 1), (0, 6, 3), ((4, 0),)
    blocks = rng.normal(size=(4, 8, 8)) + 1j * rng.normal(size=(4, 8, 8))
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    want = amps.copy()
    for i in range(1 << n):
        if (i >> 4) & 1:
            continue
        base = i & ~sum(1 << q for q in targets)
        v, r = _bits(i, keys), _bits(i, targets)
        want[i] = sum(
            blocks[v][r, c] * amps[base | sum(((c >> b) & 1) << q for b, q in enumerate(targets))]
            for c in range(8)
        )
    got = amps.copy()
    core.apply_block_table_inplace(got, n, keys, targets, blocks, controls)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_block_table_validation():
    amps = np.zeros(8, dtype=np.complex128)
    eye = np.eye(2, dtype=np.complex128)[None]
    with pytest.raises(RegisterError):
        core.apply_block_table_inplace(amps, 3, (0,), (1,), eye)  # needs 2 blocks
    with pytest.raises(RegisterError):
        core.apply_block_table_inplace(amps, 3, (1,), (1,), np.stack([eye[0]] * 2))
    with pytest.raises(RegisterError):
        core.apply_block_table_inplace(amps, 3, (), (3,), eye)
    with pytest.raises(RegisterError):
        core.apply_block_table_inplace(amps, 3, (), (0,), eye, controls=((0, 1),))


def _index_loop_oracle(amps, in_reg, out_reg, table, controls):
    out = amps.copy()
    for i in range(amps.size):
        if any((i >> q) & 1 != v for q, v in controls):
            continue
        a = (i >> in_reg[0]) & ((1 << in_reg[1]) - 1)
        out[i] = amps[i ^ (table[a] << out_reg[0])]
    return out


@pytest.mark.parametrize("in_reg,out_reg", [((0, 2), (3, 3)), ((4, 2), (0, 3)), ((0, 0), (1, 2))])
def test_basis_oracle_matches_index_loop(in_reg, out_reg):
    # input below or above the output register, or empty; a value-0 control
    rng = np.random.default_rng(11)
    amps = rng.normal(size=1 << 7) + 1j * rng.normal(size=1 << 7)
    table = [int(x) for x in rng.integers(0, 1 << out_reg[1], size=1 << in_reg[1])]
    controls = ((6, 0),)
    got = amps.copy()
    core.apply_basis_oracle_inplace(got, 7, in_reg, out_reg, table, controls)
    np.testing.assert_array_equal(got, _index_loop_oracle(amps, in_reg, out_reg, table, controls))


@st.composite
def oracle_cases(draw):
    """(n, in_reg, out_reg, table, controls) on at most 9 qubits: the input
    register below or above the output register, or empty, with a gap of
    free qubits between them and padding around; up to two controls of
    either value on the free qubits, the gap's first."""
    w_in, w_out = draw(st.integers(0, 3)), draw(st.integers(1, 3))
    low, gap = draw(st.integers(0, 1)), draw(st.integers(0, 2))
    high = draw(st.integers(0, 9 - low - w_in - gap - w_out))
    n = low + w_in + gap + w_out + high
    below = draw(st.booleans())
    first, second = (w_in, w_out) if below else (w_out, w_in)
    lower, upper = low, low + first + gap
    in_reg = (lower if below else upper, w_in) if w_in else (0, 0)
    out_reg = (upper if below else lower, w_out)
    between = list(range(low + first, low + first + gap))
    outside = [q for q in range(n) if not (low <= q < low + first + gap + second)]
    picked = (between + outside)[:draw(st.integers(0, min(2, len(between) + len(outside))))]
    controls = tuple((q, draw(st.integers(0, 1))) for q in picked)
    table = draw(st.lists(st.integers(0, (1 << w_out) - 1),
                          min_size=1 << w_in, max_size=1 << w_in))
    return n, in_reg, out_reg, table, controls


@settings(max_examples=80, deadline=None)
@given(oracle_cases(), st.sampled_from([core.CHUNK, 16, 1]), st.integers(0, 2**32 - 1))
def test_basis_oracle_gather_equals_index_loop(case, chunk, seed):
    # a small CHUNK splits the gather into groups of input values and
    # runs of the other axes
    n, in_reg, out_reg, table, controls = case
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    got = amps.copy()
    with mock.patch.object(core, "CHUNK", chunk):
        core.apply_basis_oracle_inplace(got, n, in_reg, out_reg, table, controls)
    np.testing.assert_array_equal(got, _index_loop_oracle(amps, in_reg, out_reg, table, controls))


def test_phase_table_matches_index_loop():
    rng = np.random.default_rng(12)
    amps = rng.normal(size=1 << 6) + 1j * rng.normal(size=1 << 6)
    phases = np.exp(1j * rng.uniform(-np.pi, np.pi, size=8))
    got = amps.copy()
    core.apply_phase_table_inplace(got, 6, (2, 3), phases, controls=((0, 0), (5, 1)))
    want = np.array([
        a * phases[(i >> 2) & 7] if (i & 1) == 0 and (i >> 5) & 1 else a
        for i, a in enumerate(amps)
    ])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("target", [0, 3, 6])
def test_single_gate_with_controls_matches_kron(target):
    st = random_state(7, seed=target)
    u = core.ry_matrix(0.8) @ core.rz_matrix(0.3)
    full = np.kron(np.kron(np.eye(1 << (6 - target)), u), np.eye(1 << target))
    for controls in ((), (((target + 3) % 7, 0),)):
        got = core.apply_single(st, target, u, controls=controls)
        want = full @ st.amps
        if controls:
            skip = ((np.arange(1 << 7) >> ((target + 3) % 7)) & 1) == 1
            want[skip] = st.amps[skip]
        np.testing.assert_allclose(got.amps, want, rtol=0, atol=1e-12)


# Each kernel with two wires, (first, second), on a 4-qubit state; qubit 3
# is free in every default placement.
_KERNELS = {
    "single": lambda a, w, c: core.apply_single_inplace(a, 4, w[0], core.X_MATRIX, c),
    "swap": lambda a, w, c: core.apply_swap_inplace(a, 4, w[0], w[1], c),
    "reflect": lambda a, w, c: core.apply_zero_reflection_inplace(a, 4, w, c),
    "oracle": lambda a, w, c: core.apply_basis_oracle_inplace(
        a, 4, (w[0], 1), (w[1], 1), [0, 1], c),
    "qft": lambda a, w, c: core.apply_qft_inplace(a, 4, (w[0], 2), 1, c),
    "phase-table": lambda a, w, c: core.apply_phase_table_inplace(a, 4, (w[0], 1), [1, 1j], c),
    "mux-ry": lambda a, w, c: core.apply_multiplexed_ry_inplace(
        a, 4, (w[0], 1), w[1], [0.3, 0.5], c),
    "block-table": lambda a, w, c: core.apply_block_table_inplace(
        a, 4, (w[0],), (w[1],), np.stack([np.eye(2), core.X_MATRIX]), c),
}
_FAULTS = {
    "out-of-range": ((4, 1), ()),
    "control-on-own-wire": ((0, 1), ((0, 1),)),
    "control-value-2": ((0, 1), ((3, 2),)),
    "overlapping-wires": ((0, 0), ()),
}


@pytest.mark.parametrize("kernel,fault", [
    (kernel, fault) for kernel in sorted(_KERNELS) for fault in sorted(_FAULTS)
    # one wire or one register: nothing to overlap
    if not (fault == "overlapping-wires" and kernel in ("single", "qft", "phase-table"))
])
def test_every_kernel_refuses_bad_wires_and_controls(kernel, fault):
    wires, controls = _FAULTS[fault]
    amps = np.zeros(16, dtype=np.complex128)
    amps[0] = 1.0
    _KERNELS[kernel](amps, (0, 1), ())  # the default placement is valid
    with pytest.raises(RegisterError):
        _KERNELS[kernel](amps, wires, controls)


@st.composite
def view_cases(draw):
    """(n, controls, regs) on at most 8 qubits: the qubits from 0 up cut
    into runs of free qubits, controls of either value and registers,
    listed in a random order."""
    n = draw(st.integers(1, 8))
    controls, regs, q = [], [], 0
    while q < n:
        kind, w = draw(st.sampled_from(("free", "control", "reg"))), draw(st.integers(1, n - q))
        if kind == "control":
            controls.append((q, draw(st.integers(0, 1))))
            w = 1
        elif kind == "reg":
            regs.append((q, w))
        q += w
    return n, draw(st.permutations(controls)), draw(st.permutations(regs))


@settings(max_examples=200, deadline=None)
@given(view_cases())
@example((1, [(0, 1)], []))  # every qubit indexed: a 0-d view
@example((1, [], [(0, 1)]))
@example((3, [(0, 1), (2, 0), (1, 1)], []))
def test_view_never_copies_and_keeps_index_order(case):
    n, controls, regs = case
    amps = np.arange(1 << n)
    view, axes = core._view(amps, n, controls, regs)
    assert np.shares_memory(view, amps)
    # each register is one axis indexed by its value, and the view lists
    # the selected amplitudes in index order
    hit = [i for i in range(1 << n) if all((i >> q) & 1 == v for q, v in controls)]
    assert view.ravel().tolist() == hit
    for (s, w), a in zip(regs, axes):
        values = np.moveaxis((view >> s) & ((1 << w) - 1), a, -1)
        assert np.all(values == np.arange(1 << w))
    # one more axis per run of other qubits
    fixed = {q for q, _ in controls} | {q for s, w in regs for q in range(s, s + w)}
    runs = sum(q not in fixed and (q + 1 == n or q + 1 in fixed) for q in range(n))
    assert view.ndim == len(regs) + runs
