import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qadconv import circuits, core, reference
from qadconv.circuits import CircuitOp, Gate, RegisterLayout
from qadconv.errors import RegisterError, UnitaryError
from textbook import textbook_qft_op


def random_state(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return core.from_amplitudes(v / np.linalg.norm(v))


def test_layout_allocates_contiguously():
    lay = RegisterLayout.build(("a", 2), ("b", 3), ("c", 1))
    assert lay.n_qubits == 6
    assert lay.reg("a") == (0, 2)
    assert lay.reg("b") == (2, 3)
    assert lay.reg("c") == (5, 1)
    assert list(lay.qubits("c")) == [5]


def test_layout_allows_zero_width():
    lay = RegisterLayout.build(("a", 0), ("b", 2))
    assert lay.reg("a") == (0, 0)


def test_layout_rejects_duplicates():
    with pytest.raises(RegisterError):
        RegisterLayout.build(("a", 1), ("a", 2))


def test_circuit_inverse_roundtrip():
    st = random_state(3, seed=1)
    op = CircuitOp(
        (
            Gate("h", (0,)),
            Gate("ry", (1,), (0.7,)),
            Gate("phase", (2,), (0.3,), controls=((0, 1),)),
            Gate("swap", (0, 2)),
            Gate("reflect", (0, 1)),
            Gate("phase-table", (0, 1), (1, 1j, -1, -1j)),
            Gate("mux-ry", (0, 1, 2), (0.1, 0.2, 0.3, 0.4)),
            Gate("oracle", (0, 1, 2), (0, 1, 1, 0)),
        )
    )
    back = (op + op.inverse()).apply(st)
    np.testing.assert_allclose(back.amps, st.amps, atol=1e-12)


def test_circuit_then_composes_in_order():
    st = core.new_zero_state(1)
    x_then_h = CircuitOp((Gate("x", (0,)),)).then(CircuitOp((Gate("h", (0,)),)))
    got = x_then_h.apply(st)
    np.testing.assert_allclose(got.amps, [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-12)


def test_controlled_adds_to_every_gate():
    op = CircuitOp((Gate("x", (0,)), Gate("swap", (0, 1))))
    cop = op.controlled((2, 1))
    assert all(g.controls == ((2, 1),) for g in cop.gates)


def test_controlled_rejects_collision():
    op = CircuitOp((Gate("x", (0,)),))
    with pytest.raises(RegisterError):
        op.controlled((0, 1))


def test_controlled_circuit_leaves_zero_branch_alone():
    st = core.apply_single(core.new_zero_state(4), 3, core.H_MATRIX)
    cop = circuits.qft_op(0, 3).controlled((3, 1))
    out = cop.apply(st)
    np.testing.assert_allclose(out.amps[:8], st.amps[:8])
    assert abs(np.linalg.norm(out.amps[8:]) - np.linalg.norm(st.amps[8:])) < 1e-12


def test_qft_matches_dft_matrix():
    for w in (1, 2, 3, 4):
        mat = reference.dense_unitary(circuits.qft_op(0, w), w)
        np.testing.assert_allclose(mat, reference.dft_matrix(1 << w), atol=1e-12)


def test_qft_on_offset_register():
    # acting on qubits [1, 3) of a 4-qubit state touches nothing else
    st = random_state(4, seed=2)
    op = circuits.qft_op(1, 2)
    out = op.apply(st)
    there = core.register_distribution(st, [(0, 1), (3, 1)])
    after = core.register_distribution(out, [(0, 1), (3, 1)])
    np.testing.assert_allclose(after, there, atol=1e-12)


def test_iqft_inverts_qft():
    st = random_state(3, seed=3)
    out = circuits.iqft_op(0, 3).apply(circuits.qft_op(0, 3).apply(st))
    np.testing.assert_allclose(out.amps, st.amps, atol=1e-12)


@pytest.mark.parametrize("width", range(1, 8))
def test_qft_record_matches_textbook_gates(width):
    # the register sits above qubit 0 and below two more qubits, one of
    # them a control in the controlled cases
    n, start = width + 3, 1
    st = random_state(n, seed=width)
    top = n - 1
    for make in (circuits.qft_op, circuits.iqft_op):
        (record,) = make(start, width).gates
        assert record.kind == "qft"
        assert record.wires == tuple(range(start, start + width))
        flat = textbook_qft_op(start, width)
        if make is circuits.iqft_op:
            flat = flat.inverse()
        assert make(start, width).primitive_count() == flat.primitive_count()
        for op, ref in ((make(start, width), flat),
                        (make(start, width).controlled((top, 1)), flat.controlled((top, 1))),
                        (make(start, width).controlled((top, 0)), flat.controlled((top, 0)))):
            assert np.max(np.abs(op.apply(st).amps - ref.apply(st).amps)) <= 1e-12


def test_qft_and_oracle_records_stay_within_a_quarter_state():
    # the readout's shape on 16 qubits: a 7-qubit phase register at 4..10
    # and a 5-bit value register above it; each record runs in place on
    # the buffer, and what it allocates on the way stays below a quarter
    # of the state
    n = 16
    rng = np.random.default_rng(16)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    table = tuple(int(x) for x in rng.integers(0, 32, size=128))
    records = (
        circuits.qft_op(4, 7).gates
        + circuits.iqft_op(4, 7).controlled((0, 1)).gates
        + (Gate("oracle", tuple(range(4, 16)), table),)
    )
    tracemalloc.start()
    try:
        amps.copy()  # the tracer sees numpy's buffers
        assert tracemalloc.get_traced_memory()[1] >= amps.nbytes
        for gate in records:
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            circuits.KINDS[gate.kind].run(gate, amps, n)
            peak = tracemalloc.get_traced_memory()[1] - held
            assert peak <= amps.nbytes / 4, (gate.kind, peak / amps.nbytes)
    finally:
        tracemalloc.stop()


def phase_unitary(theta, qubit=0):
    return CircuitOp((Gate("phase", (qubit,), (2 * np.pi * theta,)),))


def test_phase_estimate_dyadic_is_exact():
    t = 4
    for theta in (0.0, 1 / 16, 5 / 16, 15 / 16):
        st = core.apply_single(core.new_zero_state(1 + t), 0, core.X_MATRIX)
        out = circuits.phase_estimate_op(phase_unitary(theta), (1, t)).apply(st)
        dist = core.register_distribution(out, [(1, t)]).ravel()
        assert dist[int(theta * 16)] == pytest.approx(1.0, abs=1e-12)


def test_phase_estimate_matches_closed_form():
    t = 5
    for theta in (1 / 3, 0.2137, 0.77):
        st = core.apply_single(core.new_zero_state(1 + t), 0, core.X_MATRIX)
        out = circuits.phase_estimate_op(phase_unitary(theta), (1, t)).apply(st)
        dist = core.register_distribution(out, [(1, t)]).ravel()
        np.testing.assert_allclose(
            dist, reference.pe_distribution(theta, t), atol=1e-12
        )


def test_phase_estimate_application_count():
    # t Hadamards, U controlled on phase bit j 2^j times, one inverse qft
    t = 6
    op = circuits.phase_estimate_op(phase_unitary(1 / 3), (1, t))
    controlled = [g.controls for g in op.gates if g.controls]
    assert [controlled.count(((1 + j, 1),)) for j in range(t)] == [2**j for j in range(t)]
    assert len(controlled) == 2**t - 1
    assert [g.kind for g in op.gates if not g.controls] == ["h"] * t + ["qft"]
    assert op.gates[-1].params == (-1,)


# a random iterate on qubits 0..w-1 (w = 2 or 3): qubit 0 is its key, read
# only as a control and with both values, qubits 1..w-1 its targets
@st.composite
def keyed_iterates(draw):
    w = draw(st.integers(2, 3))
    targets = list(range(1, w))
    gates = []
    for i in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["h", "x", "ry", "rz", "phase"] + ["swap"] * (w == 3)))
        params = (draw(st.floats(-math.pi, math.pi)),) if kind in ("ry", "rz", "phase") else ()
        wires = tuple(targets) if kind == "swap" else (draw(st.sampled_from(targets)),)
        # the first two gates carry a value-0 and a value-1 key control
        key = i if i < 2 else draw(st.sampled_from([None, 0, 1]))
        controls = () if key is None else ((0, key),)
        free = [q for q in targets if q not in wires]
        if free and draw(st.booleans()):
            controls += ((free[0], draw(st.integers(0, 1))),)
        gates.append(Gate(kind, wires, params, controls))
    return w, CircuitOp(tuple(gates))


@settings(max_examples=60, deadline=None)
@given(keyed_iterates(), st.integers(1, 3), st.booleans())
def test_phase_estimate_matches_a_dense_oracle(case, t, below):
    # the oracle: H^t on the phase register, U^(2^j) from matrix_power
    # controlled on phase bit j, then the inverse DFT; the phase register
    # sits above the iterate, or below it with the iterate moved up
    w, unitary = case
    dim, size = 1 << w, 1 << t
    u = reference.dense_unitary(unitary, w)
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    hadamards = np.ones((1, 1))
    for _ in range(t):
        hadamards = np.kron(hadamards, h)
    want = np.kron(hadamards, np.eye(dim))  # index u + (phi << w)
    for j in range(t):
        bit = (np.arange(size) >> j) & 1
        power = np.linalg.matrix_power(u, 1 << j)
        controlled = np.kron(np.diag(bit), power) + np.kron(np.diag(1 - bit), np.eye(dim))
        want = controlled @ want
    want = np.kron(reference.dft_matrix(size).conj().T, np.eye(dim)) @ want
    if below:  # index phi + (u << t)
        want = want.reshape(size, dim, size, dim).transpose(1, 0, 3, 2).reshape(want.shape)
        moved = CircuitOp(tuple(replace(g, wires=tuple(q + t for q in g.wires),
                                        controls=tuple((q + t, v) for q, v in g.controls))
                                for g in unitary.gates))
        pe = circuits.phase_estimate_op(moved, (0, t))
    else:
        pe = circuits.phase_estimate_op(unitary, (w, t))
    got = reference.dense_unitary(pe, w + t)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert np.max(np.abs(reference.dense_unitary(pe.inverse(), w + t) - want.conj().T)) <= 1e-12


def test_phase_estimate_rejects_overlap():
    with pytest.raises(RegisterError):
        circuits.phase_estimate_op(phase_unitary(0.25, qubit=1), (1, 3))


def test_multiplexed_ry_gate_equals_controlled_rotations():
    st = random_state(3, seed=4)
    gate = Gate("mux-ry", (0, 1, 2), (0.3, 1.2, 0.0, 2.5))
    got = CircuitOp((gate,)).apply(st)
    want = st
    for v, ang in enumerate(gate.params):
        if ang == 0.0:
            continue
        ctl = tuple((b, (v >> b) & 1) for b in range(2))
        want = core.apply_single(want, 2, core.ry_matrix(ang), controls=ctl)
    np.testing.assert_allclose(got.amps, want.amps, atol=1e-12)


def test_primitive_count_charges_tables_by_size():
    gate = Gate("mux-ry", (0, 1, 2, 3), tuple(np.linspace(0, 1, 8)))
    assert gate.primitive_count == 8
    assert Gate("phase-table", (0, 1), (1, 1j, -1, -1j)).primitive_count == 4
    assert Gate("h", (0,)).primitive_count == 1
    # the qft record is charged its textbook gate count
    assert circuits.qft_op(0, 3).primitive_count() == len(textbook_qft_op(0, 3).gates) == 7


def test_unknown_gate_kind_is_rejected():
    with pytest.raises(RegisterError):
        Gate("cnot", (0, 1))


# ---------------------------------------------------------------------------
# Every gate kind against an independently built 3-qubit matrix on qubits
# 0..2, optionally controlled by qubit 3 of a 4-qubit register.


def _embed_2x2(u, target):
    m = np.zeros((8, 8), dtype=np.complex128)
    for i in range(8):
        for j in range(8):
            if (i ^ j) & ~(1 << target) == 0:
                m[i, j] = u[(i >> target) & 1, (j >> target) & 1]
    return m


def _permutation(f):
    m = np.zeros((8, 8))
    for i in range(8):
        m[f(i), i] = 1.0
    return m


def _ry(a):
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]])


_R = 1 / math.sqrt(2)
_MUX_ANGLES = (0.3, 1.2, 0.0, 2.5)
_PHASES = tuple(np.exp(1j * np.array([0.0, 0.4, 1.9, -2.2])))
_TABLE = (0, 1, 1, 0)


def _mux_matrix():
    m = np.zeros((8, 8), dtype=np.complex128)
    for i in range(8):
        for j in range(8):
            if i & 3 == j & 3:
                m[i, j] = _ry(_MUX_ANGLES[i & 3])[i >> 2, j >> 2]
    return m


_H = np.array([[_R, _R], [_R, -_R]])


def _ctrl(u, qubit, value):
    """u where qubit holds value, identity elsewhere (u must not move it)."""
    hit = np.array([(i >> qubit) & 1 == value for i in range(8)])
    return np.where(hit[:, None], u, np.eye(8))


# a power record's iterate: qubit 0 is only ever a control (its key, with
# value-0 and value-1 controls), qubits 1 and 2 are targets
_ITERATE = CircuitOp((
    Gate("ry", (1,), (0.7,), controls=((0, 0),)),
    Gate("h", (2,), controls=((0, 1),)),
    Gate("phase", (1,), (0.4,), controls=((2, 1),)),
    Gate("swap", (1, 2), controls=((0, 0),)),
))
_ITERATE_MATRIX = (
    _ctrl(_permutation(lambda i: (i & 1) | ((i & 2) << 1) | ((i & 4) >> 1)), 0, 0)
    @ _ctrl(_embed_2x2(np.diag([1, np.exp(0.4j)]), 1), 2, 1)
    @ _ctrl(_embed_2x2(_H, 2), 0, 1)
    @ _ctrl(_embed_2x2(_ry(0.7), 1), 0, 0)
)


# an eigenbasis record on key qubit 0 and targets 1 and 2 (b = 2): the
# Householder vector of each (key, b) value, one of them 0 (the identity),
# then a 2x2 mix on b where qubit 1 is 0
_HOUSEHOLDER = np.array([[1.0, 1.0j], [0.0, 0.0], [-0.6, 0.8], [1.2j, -1.6]]) * np.array(
    [[1.0], [1.0], [math.sqrt(2)], [_R]])  # squared norms 2, 0, 2, 2
_MIX = np.array([_ry(0.9) * np.exp(0.3j), _H @ np.diag([1, np.exp(-1.1j)])])
_EIGENBASIS = circuits.Eigenbasis(1, _HOUSEHOLDER, _MIX)


def _eigenbasis_matrix():
    """Per key value v (qubit 0): I - u u^H on qubit 1 for each value of b
    (qubit 2), then _MIX[v] on b where qubit 1 is 0."""
    m = np.zeros((8, 8), dtype=np.complex128)
    for v in (0, 1):
        reflect = np.zeros((4, 4), dtype=np.complex128)  # target index q1 + 2 q2
        for b in (0, 1):
            u = _HOUSEHOLDER[v | b << 1]
            half = [2 * b, 2 * b + 1]
            reflect[np.ix_(half, half)] = np.eye(2) - np.outer(u, u.conj())
        mix = np.eye(4, dtype=np.complex128)
        mix[np.ix_([0, 2], [0, 2])] = _MIX[v]
        at = [v | t << 1 for t in range(4)]
        m[np.ix_(at, at)] = mix @ reflect
    return m


# a spectral record: the phase table e^(i phi omega_v) with the eigen-index
# v on qubits 0-1 and the phase register phi on qubit 2
_OMEGA = np.array([0.7, -2.1, 0.0, math.pi])


KIND_CASES = {
    "h": (Gate("h", (1,)), _embed_2x2(_H, 1)),
    "x": (Gate("x", (1,)), _embed_2x2(np.array([[0, 1], [1, 0]]), 1)),
    "y": (Gate("y", (1,)), _embed_2x2(np.array([[0, -1j], [1j, 0]]), 1)),
    "z": (Gate("z", (1,)), _embed_2x2(np.diag([1, -1]), 1)),
    "ry": (Gate("ry", (2,), (0.7,)), _embed_2x2(_ry(0.7), 2)),
    "rz": (Gate("rz", (0,), (0.7,)),
           _embed_2x2(np.diag([np.exp(-0.35j), np.exp(0.35j)]), 0)),
    "phase": (Gate("phase", (2,), (0.7,)), _embed_2x2(np.diag([1, np.exp(0.7j)]), 2)),
    "swap": (Gate("swap", (0, 2)),
             _permutation(lambda i: (i & 2) | ((i & 1) << 2) | ((i >> 2) & 1))),
    "reflect": (Gate("reflect", (0, 1)),
                np.diag([-1.0 if i & 3 == 0 else 1.0 for i in range(8)])),
    "phase-table": (Gate("phase-table", (1, 2), _PHASES),
                    np.diag([_PHASES[i >> 1] for i in range(8)])),
    "oracle": (Gate("oracle", (0, 1, 2), _TABLE),
               _permutation(lambda i: i ^ (_TABLE[i & 3] << 2))),
    "mux-ry": (Gate("mux-ry", (0, 1, 2), _MUX_ANGLES), _mux_matrix()),
    "qft": (Gate("qft", (0, 1, 2), (1,)), reference.dft_matrix(8)),
    "power": (circuits.fuse(_ITERATE).gates[0], _ITERATE_MATRIX),
    "eigenbasis": (Gate("eigenbasis", (0, 1, 2), _EIGENBASIS), _eigenbasis_matrix()),
    "spectral": (circuits.spectral_record(_ITERATE, _OMEGA, (2, 1)),
                 np.diag(np.exp(1j * np.outer([0, 1], _OMEGA).ravel()))),
}


def test_kind_cases_cover_every_kind():
    assert set(KIND_CASES) == set(circuits.KINDS)


@pytest.mark.parametrize("kind", ["phase-table", "spectral"])
def test_a_non_unit_phase_table_raises_when_its_record_is_made(kind):
    good = KIND_CASES[kind][0]
    if kind == "phase-table":
        params = (good.params[0], 0.5, *good.params[2:])
    else:
        phases = good.params.phases.copy()
        phases[1] *= 1.0 + 1e-9
        params = replace(good.params, phases=phases)
    with pytest.raises(UnitaryError):
        Gate(kind, good.wires, params)
    # the kernel checks the table's shape only; the record checked it when made
    core.apply_phase_table_inplace(random_state(2).amps, 2, (0, 2), [1.0, 0.5, 1.0, 1.0])


@pytest.mark.parametrize("control", [None, 1, 0],
                         ids=["plain", "controlled", "controlled-0"])
@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_gate_kind_matches_independent_matrix(kind, control):
    gate, block = KIND_CASES[kind]
    op = CircuitOp((gate,))
    eye, zero = np.eye(8), np.zeros((8, 8))
    if control is None:
        want = np.kron(np.eye(2), block)
    else:
        op = op.controlled((3, control))
        want = (np.block([[eye, zero], [zero, block]]) if control
                else np.block([[block, zero], [zero, eye]]))
    u = reference.dense_unitary(op, 4)
    assert np.max(np.abs(u - want)) <= 1e-12
    inv = reference.dense_unitary(op.inverse(), 4)
    assert np.max(np.abs(inv @ u - np.eye(16))) <= 1e-12


# kinds whose wires need not be contiguous: free qubits may sit between
# wires 0|1 and 1|2; oracle and mux-ry only between their register and wire 2
_GAPS = {"swap": (True, True), "reflect": (True, True), "power": (True, True),
         "eigenbasis": (True, True), "oracle": (False, True), "mux-ry": (False, True)}


@st.composite
def placed_gates(draw):
    """A KIND_CASES gate whose three qubits are moved to `place` on a state
    of at most 8 qubits, with free qubits below, above and (where _GAPS
    allows) between them, and 0-3 extra controls of either value."""
    kind = draw(st.sampled_from(sorted(KIND_CASES)))
    gaps = [draw(st.integers(0, 2)) if ok else 0 for ok in _GAPS.get(kind, (False, False))]
    low = draw(st.integers(0, 5 - sum(gaps)))
    place = (low, low + 1 + gaps[0], low + 2 + sum(gaps))
    n = draw(st.integers(place[2] + 1, 8))
    free = [q for q in range(n) if q not in place]
    picked = draw(st.lists(st.sampled_from(free), unique=True, max_size=3)) if free else []
    controls = tuple((q, draw(st.integers(0, 1))) for q in picked)
    return kind, place, n, controls


def _embed(block, place, n, controls, amps):
    """block on the qubits in place (bit b of its index on place[b]) where
    every control holds its value; amps unchanged elsewhere."""
    idx = np.arange(1 << n)
    local = sum(((idx >> p) & 1) << b for b, p in enumerate(place))
    spread = np.array([sum(((c >> b) & 1) << p for b, p in enumerate(place)) for c in range(8)])
    moved = (block[local] * amps[(idx & ~spread[7])[:, None] | spread]).sum(axis=1)
    hit = np.ones(1 << n, dtype=bool)
    for q, v in controls:
        hit &= ((idx >> q) & 1) == v
    return np.where(hit, moved, amps)


@settings(max_examples=200, deadline=None)
@given(placed_gates(), st.integers(0, 2**32 - 1))
def test_every_kind_matches_its_block_wherever_it_is_placed(case, seed):
    kind, place, n, controls = case
    gate, block = KIND_CASES[kind]
    moved = replace(gate, wires=tuple(place[w] for w in gate.wires), controls=controls)
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    got = CircuitOp((moved,)).apply(core.StateVector(n, amps.copy())).amps
    assert np.max(np.abs(got - _embed(block, place, n, controls, amps))) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(placed_gates(), st.integers(0, 2**32 - 1))
def test_every_kind_applies_in_place_as_it_applies_to_a_copy(case, seed):
    kind, place, n, controls = case
    gate = KIND_CASES[kind][0]
    op = CircuitOp((replace(gate, wires=tuple(place[w] for w in gate.wires),
                            controls=controls),))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    state = core.StateVector(n, amps.copy())
    by_value = op.apply(state)
    assert state.amps.tobytes() == amps.tobytes()  # the caller's state is left alone
    assert by_value.amps is not state.amps
    in_place = op.apply(state, inplace=True)
    assert in_place.amps is state.amps
    assert in_place.amps.tobytes() == by_value.amps.tobytes()


def test_power_record_splits_keys_from_targets():
    gate = KIND_CASES["power"][0]
    assert gate.wires == (0, 1, 2)
    assert gate.params.keys == 1  # one block per value of key qubit 0
    assert gate.params.blocks.shape == (2, 4, 4)
    assert gate.params.iterate == _ITERATE.gates
    assert gate.primitive_count == len(_ITERATE.gates)


def test_power_record_tables_compare_by_identity():
    gate = KIND_CASES["power"][0]
    twin = circuits.fuse(_ITERATE).gates[0]
    assert twin.wires == gate.wires
    assert np.array_equal(twin.params.blocks, gate.params.blocks)
    assert "blocks=array" in repr(gate.params)
    assert gate == gate
    assert gate != twin  # no elementwise ndarray comparison
    assert len({gate, twin}) == 2
