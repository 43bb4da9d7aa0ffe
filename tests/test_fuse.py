"""Fused block records against the flat gate list they compile.

circuits.fuse merges runs of gates, power records included, into power
records whose block tables stay within 4^FUSE_QUBITS entries.
The flat CircuitOp stays the reference: every comparison applies both to
the same state and asks for agreement to 1e-12.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qadconv import circuits, core, qadc
from qadconv.circuits import FUSE_QUBITS, CircuitOp, Gate, fuse
from qadconv.prep import build_tree, synthesize_ua

TOL = 1e-12
SINGLE = ("h", "x", "y", "z")
ROTATIONS = ("ry", "rz", "phase")
KINDS = SINGLE + ROTATIONS + ("swap", "reflect", "phase-table", "oracle", "mux-ry", "qft")

angles = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def records(draw, n):
    """One gate of a random kind on n qubits, with up to two random (qubit,
    value) controls on qubits it does not touch."""
    kind = draw(st.sampled_from(KINDS))
    order = draw(st.permutations(range(n)))
    if kind in SINGLE:
        wires, params = (order[0],), ()
    elif kind in ROTATIONS:
        wires, params = (order[0],), (draw(angles),)
    elif kind == "swap":
        wires, params = tuple(order[:2]), ()
    elif kind == "reflect":
        wires, params = tuple(order[:draw(st.integers(1, 3))]), ()
    else:
        # table kinds: contiguous registers, low to high
        w = draw(st.integers(1, 2))
        if kind == "qft":
            s = draw(st.integers(0, n - w))
            wires, params = tuple(range(s, s + w)), (draw(st.sampled_from([1, -1])),)
        elif kind == "phase-table":
            s = draw(st.integers(0, n - w))
            wires = tuple(range(s, s + w))
            params = tuple(np.exp(1j * np.array(draw(
                st.lists(angles, min_size=1 << w, max_size=1 << w)))))
        elif kind == "oracle":
            w_out = draw(st.integers(1, 2))
            s = draw(st.integers(0, n - w - w_out))
            ins, outs = range(s, s + w), range(s + w, s + w + w_out)
            if draw(st.booleans()):
                ins, outs = range(s + w_out, s + w_out + w), range(s, s + w_out)
            wires = tuple(ins) + tuple(outs)
            params = tuple(draw(st.lists(st.integers(0, (1 << w_out) - 1),
                                         min_size=1 << w, max_size=1 << w)))
        else:  # mux-ry
            s = draw(st.integers(0, n - w))
            target = draw(st.sampled_from([q for q in range(n) if not s <= q < s + w]))
            wires = tuple(range(s, s + w)) + (target,)
            params = tuple(draw(st.lists(angles, min_size=1 << w, max_size=1 << w)))
    free = [q for q in order if q not in wires]
    picked = free[:draw(st.integers(0, min(2, len(free))))]
    controls = tuple((q, draw(st.integers(0, 1))) for q in picked)
    return Gate(kind, wires, params, controls)


@st.composite
def circuits_with_a_cascade(draw):
    """A random circuit on 5-8 qubits with a cascade in the middle: for
    j < t, the records fuse makes of U, each run optionally controlled on
    its own qubit above U's, as phase estimation lays out its controlled
    copies of U. The cascade's power records are made before this fuse
    call, so they are labelled apart from the records it makes."""
    n = draw(st.integers(5, 8))
    t = draw(st.integers(1, min(3, n - 4)))
    before = draw(st.lists(records(n), min_size=1, max_size=12))
    after = draw(st.lists(records(n), min_size=1, max_size=12))
    unitary = CircuitOp(tuple(draw(st.lists(records(n - t), min_size=1, max_size=3))))
    fused = [replace(p, label="cascade") if is_fused(p) else p for p in fuse(unitary).gates]
    cascade = []
    for j in range(t):
        controls = ((n - t + j, draw(st.integers(0, 1))),) if draw(st.booleans()) else ()
        cascade.extend(p.with_controls(controls) for p in fused)
    return n, CircuitOp(tuple(before) + tuple(cascade) + tuple(after), label="random")


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return core.from_amplitudes(v / np.linalg.norm(v))


def max_dev(a, b):
    return float(np.max(np.abs(a.amps - b.amps)))


def is_fused(gate):
    return gate.kind == "power" and gate.label == "fused"


def table_size(gates):
    """keys + 2 * targets of the block table that would fuse gates: a
    power record's first params.keys wires are read only as controls."""
    wires, ctrls = set(), set()
    for gate in gates:
        k = gate.params.keys if gate.kind == "power" else 0
        wires |= set(gate.wires[k:])
        ctrls |= set(gate.wires[:k]) | {q for q, _ in gate.controls}
    return len(ctrls - wires) + 2 * len(wires)


def fits(gates):
    return table_size(gates) <= 2 * FUSE_QUBITS


def unfuse(gates):
    """The source gates of fused records, recursively; others as they are."""
    for gate in gates:
        if is_fused(gate):
            yield from unfuse(gate.params.iterate)
        else:
            yield gate


@settings(max_examples=60, deadline=None)
@given(circuits_with_a_cascade(), st.integers(0, 2**32 - 1))
def test_fused_equals_flat(case, seed):
    n, op = case
    fused = fuse(op)
    start = random_state(n, seed)
    assert max_dev(fused.apply(start), op.apply(start)) <= TOL
    assert max_dev(fused.inverse().apply(start), op.inverse().apply(start)) <= TOL
    assert fused.primitive_count() == op.primitive_count()
    assert fused.label == op.label
    # the records expand back to the original gates, the same objects in order
    flat = list(unfuse(fused.gates))
    assert len(flat) == len(op.gates)
    assert all(a is b for a, b in zip(flat, op.gates))
    runs = []
    for gate in fused.gates:
        if is_fused(gate):
            # a fused run: within the table bound; a run that is one
            # power record is that record, not a fused one
            table = gate.params
            assert fits(table.iterate)
            assert table.blocks.size <= 4**FUSE_QUBITS
            assert not (len(table.iterate) == 1 and table.iterate[0].kind == "power")
            runs.append(list(table.iterate))
        elif gate.kind == "qft" or not fits([gate]):
            runs.append(None)  # passed through, closing the run before it
        else:
            assert gate.kind == "power"  # a lone power record of the cascade
            runs.append([gate])
    # greedy: a run closes only where the next record's first gate would
    # break the bound
    for run, nxt in zip(runs, runs[1:]):
        if run is not None and nxt is not None:
            assert not fits(run + nxt[:1])


def test_fuse_passes_wide_gates_and_powers_through():
    wide = Gate("reflect", tuple(range(FUSE_QUBITS + 1)))  # 2 * 7 > 12
    (power,) = fuse(CircuitOp((Gate("h", (0,)),))).gates
    x, z = Gate("x", (1,)), Gate("z", (2,))
    op = CircuitOp((Gate("h", (0,)), wide, x, z, power))
    out = fuse(op).gates
    # lone fitting gates become block records, wide records pass through,
    # and a power record joins a run like any other gate
    assert [is_fused(gate) for gate in out] == [True, False, True]
    assert out[0].params.iterate == (op.gates[0],)
    assert out[0].params.blocks.shape == (1, 2, 2)
    assert out[1] is wide
    assert out[2].params.iterate == (x, z, power)
    # a run that is one power record stays that record
    assert fuse(CircuitOp((power,))).gates[0] is power
    assert fuse(CircuitOp(())).gates == ()


def test_fuse_passes_qft_records_through_and_closes_the_run():
    qft = circuits.qft_op(1, 2).gates[0]
    iqft = circuits.iqft_op(0, 3).controlled((3, 0)).gates[0]
    h, x = Gate("h", (0,)), Gate("x", (2,))
    op = CircuitOp((h, x, qft, x, iqft, h))
    out = fuse(op).gates
    # the qft records fit the table bound but pass through unchanged; the
    # gates on either side of one never share a block record
    assert [gate.kind for gate in out] == ["power", "qft", "power", "qft", "power"]
    assert out[1] is qft and out[3] is iqft
    assert out[0].params.iterate == (h, x)
    assert out[2].params.iterate == (x,) and out[4].params.iterate == (h,)
    start = random_state(4, 2)
    assert max_dev(fuse(op).apply(start), op.apply(start)) <= TOL
    assert fuse(op).primitive_count() == op.primitive_count()


def test_runs_close_at_the_table_bound():
    # a key qubit counts once, a target twice: 10 keys and 1 target fit
    # (10 + 2 = 12), and the 11th key closes the run
    keyed = tuple(Gate("x", (0,), controls=((q, 1),)) for q in range(1, 12))
    first, second = fuse(CircuitOp(keyed)).gates
    assert len(first.params.iterate) == 10 and first.params.blocks.shape == (1 << 10, 2, 2)
    assert second.params.iterate == keyed[10:]
    # FUSE_QUBITS targets fit, one more closes the run
    hs = tuple(Gate("h", (q,)) for q in range(FUSE_QUBITS + 1))
    first, second = fuse(CircuitOp(hs)).gates
    assert first.params.blocks.shape == (1, 1 << FUSE_QUBITS, 1 << FUSE_QUBITS)
    assert second.params.iterate == hs[FUSE_QUBITS:]


def test_fused_record_keys_are_control_only_qubits():
    op = CircuitOp((
        Gate("h", (1,), controls=((0, 1),)),
        Gate("ry", (2,), (0.3,), controls=((0, 0), (1, 1))),
    ))
    (gate,) = fuse(op).gates
    assert gate.wires == (0, 1, 2)  # key qubit 0, then targets 1 and 2
    assert gate.params.keys == 1
    assert gate.params.blocks.shape == (2, 4, 4)
    assert gate.label == "fused"


def test_a_power_record_keeps_its_key_wires_in_a_fused_run():
    # U acts on qubit 2 under key qubit 1; its power record, controlled on
    # qubit 3 once and on qubit 4 twice as in phase estimation, fuses with
    # keys 1, 3 and 4
    (power,) = fuse(CircuitOp((Gate("ry", (2,), (0.7,), controls=((1, 1),)),))).gates
    assert power.params.keys == 1
    cascade = [power.with_controls(((q, 1),)) for q in (3, 4, 4)]
    op = CircuitOp((Gate("h", (0,)),) + tuple(cascade))
    (gate,) = fuse(op).gates
    assert gate.wires == (1, 3, 4, 0, 2)
    assert gate.params.keys == 3
    start = random_state(5, 1)
    assert max_dev(fuse(op).apply(start), op.apply(start)) <= TOL


def eigenbasis_records(gates):
    """The eigenbasis records among gates, also those inside fused records."""
    return [h for gate in unfuse(gates) for h in (gate,) if h.kind == "eigenbasis"]


@pytest.mark.parametrize("variant", ["abs", "real", "imag"])
def test_readout_block_fuses_load_and_estimate_once(variant):
    n, m, g = 2, 2, 1
    layout = qadc.readout_layout(variant, n, m, g)
    rng = np.random.default_rng(7)
    c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    prep = synthesize_ua(build_tree(c / np.linalg.norm(c))).op(start=layout.start("data"))
    load = qadc.readout_load(layout, prep, variant)
    iterate = qadc.readout_iterate(layout, load)
    flat = load + circuits.phase_estimate_op(iterate, layout.reg("regp"))
    fwd, _, back = qadc.readout_block(prep, variant, n, m, g, layout.n_qubits)
    assert any(is_fused(gate) for gate in fwd.gates)
    assert len(fwd.gates) < len(flat.gates)
    assert fwd.primitive_count() == back.primitive_count() == flat.primitive_count()
    # the un-estimate is the structural inverse: its blocks are the forward
    # blocks conjugate-transposed and its phases conjugated, in reverse order
    for a, b in zip(fwd.gates, reversed(back.gates)):
        if a.kind == "power":
            assert np.array_equal(b.params.blocks, a.params.blocks.conj().transpose(0, 2, 1))
        if a.kind == "spectral":
            assert np.array_equal(b.params.phases, a.params.phases.conj())
    # V^H sits inside the fused load record; with the V that closes
    # textbook phase estimation put back, the estimate is the flat one
    (basis,) = eigenbasis_records(fwd.gates)
    closing = CircuitOp((basis,)).inverse()
    start = random_state(layout.n_qubits, 3)
    assert max_dev((fwd + closing).apply(start), flat.apply(start)) <= TOL
    assert max_dev((closing.inverse() + back).apply(start), flat.inverse().apply(start)) <= TOL


@pytest.mark.parametrize("variant", ["abs", "real"])
def test_readout_stages_are_block_records_and_one_qft(variant):
    # a gate left out of a block record would run through the single-qubit
    # kernel, whose half-state temporaries raise the peak memory of a
    # readout; the one qft record is an in-place FFT and the one spectral
    # record an in-place phase table, whose buffers stay far below the
    # state's size
    n, m, g = 2, 4, 3
    layout = qadc.readout_layout(variant, n, m, g)
    prep = synthesize_ua(build_tree(np.array([0.1, 0.5j, -0.7, 0.5]))).op(
        start=layout.start("data"))
    fwd, _, back = qadc.readout_block(prep, variant, n, m, g, layout.n_qubits)
    s, t = layout.reg("regp")
    # the estimate ends in the inverse QFT, and the un-estimate undoes it;
    # the controlled powers are one spectral record over address, targets
    # and phase register
    for op, sign in ((fwd, -1), (back, 1)):
        (qft,) = [gate for gate in op.gates if gate.kind == "qft"]
        assert qft.wires == tuple(layout.qubits("regp")) and qft.params == (sign,)
        (spectral,) = [gate for gate in op.gates if gate.kind == "spectral"]
        assert spectral.wires == tuple(range(s + t)) and spectral.tag == circuits.PE_CTRL_TAG
        assert spectral.params.count == (1 << t) - 1
        assert all(gate.kind == "power" and gate.params.blocks is not None
                   for gate in op.gates if gate is not qft and gate is not spectral)
    # V^H fused into the load's block record, which is keyed on the address
    load_record = fwd.gates[0]
    assert "eigenbasis" in [h.kind for h in load_record.params.iterate]
    assert load_record.params.keys == n
