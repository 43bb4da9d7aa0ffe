"""Fused block records against the flat gate list they compile.

circuits.fuse merges runs of gates into count-1 power records. The flat
CircuitOp stays the reference: every comparison applies both to the same
state and asks for agreement to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qadconv import circuits, core, qadc
from qadconv.circuits import FUSE_QUBITS, CircuitOp, Gate, fuse, power_records
from qadconv.prep import build_tree, synthesize_ua

TOL = 1e-12
SINGLE = ("h", "x", "y", "z")
ROTATIONS = ("ry", "rz", "phase")
KINDS = SINGLE + ROTATIONS + ("swap", "reflect", "phase-table", "oracle", "mux-ry")

angles = st.floats(-np.pi, np.pi, allow_nan=False)


@st.composite
def records(draw, n):
    """One gate of a random fusible kind on n qubits, with up to two random
    (qubit, value) controls on qubits it does not touch."""
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
        if kind == "phase-table":
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
def circuits_with_a_power(draw):
    """A random circuit on 5-8 qubits with a compiled power record in the
    middle, optionally controlled."""
    n = draw(st.integers(5, 8))
    before = draw(st.lists(records(n), min_size=1, max_size=12))
    after = draw(st.lists(records(n), min_size=1, max_size=12))
    unitary = CircuitOp(tuple(draw(st.lists(records(n - 1), min_size=1, max_size=3))))
    power = power_records(unitary, 2)[1]
    if draw(st.booleans()):
        power = power.with_controls(((n - 1, draw(st.integers(0, 1))),))
    return n, CircuitOp(tuple(before) + (power,) + tuple(after), label="random")


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return core.from_amplitudes(v / np.linalg.norm(v))


def max_dev(a, b):
    return float(np.max(np.abs(a.amps - b.amps)))


def is_fused(gate):
    return gate.kind == "power" and gate.label == "fused"


@settings(max_examples=60, deadline=None)
@given(circuits_with_a_power(), st.integers(0, 2**32 - 1))
def test_fused_equals_flat(case, seed):
    n, op = case
    fused = fuse(op)
    start = random_state(n, seed)
    assert max_dev(fused.apply(start), op.apply(start)) <= TOL
    assert max_dev(fused.inverse().apply(start), op.inverse().apply(start)) <= TOL
    assert fused.primitive_count() == op.primitive_count()
    assert fused.label == op.label
    # fused records are runs of two or more gates within FUSE_QUBITS; every
    # other record passes through as the same object, in order
    flat = []
    for gate in fused.gates:
        if is_fused(gate):
            table = gate.params
            assert table.count == 1 and len(table.iterate) >= 2
            assert len(gate.used_qubits()) <= FUSE_QUBITS
            assert len(CircuitOp(table.iterate).used_qubits()) <= FUSE_QUBITS
            flat.extend(table.iterate)
        else:
            flat.append(gate)
    assert len(flat) == len(op.gates)
    assert all(a is b for a, b in zip(flat, op.gates))


def test_fuse_passes_wide_gates_and_powers_through():
    wide = Gate("reflect", tuple(range(FUSE_QUBITS + 1)))
    power = power_records(CircuitOp((Gate("h", (0,)),)), 1)[0]
    op = CircuitOp((Gate("h", (0,)), wide, Gate("x", (1,)), power, Gate("z", (2,))))
    assert fuse(op).gates == op.gates
    assert fuse(CircuitOp(())).gates == ()


def test_fused_record_keys_are_control_only_qubits():
    op = CircuitOp((
        Gate("h", (1,), controls=((0, 1),)),
        Gate("ry", (2,), (0.3,), controls=((0, 0), (1, 1))),
    ))
    (gate,) = fuse(op).gates
    assert gate.wires == (0, 1, 2)  # key qubit 0, then targets 1 and 2
    assert gate.params.keys == 1
    assert gate.params.blocks.shape == (2, 4, 4)
    assert gate.to_line() == "power fused w=[0,1,2] c=[] p=[2x4x4 blocks ^1]"


@pytest.mark.parametrize("variant", ["abs", "real", "imag"])
def test_readout_block_fuses_load_and_estimate_once(variant):
    n, m, g = 2, 2, 1
    layout = (qadc.abs_layout if variant == "abs" else qadc.part_layout)(n, m, g)
    rng = np.random.default_rng(7)
    c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    prep = synthesize_ua(build_tree(c / np.linalg.norm(c))).op(start=layout.start("data"))
    if variant == "abs":
        v_op = qadc.v_from_prep(layout, prep)
        load, iterate = qadc.address_copy_op(layout) + v_op, qadc.g_from_prep(layout, v_op)
    else:
        load = qadc.w_from_prep(layout, prep, imag=variant == "imag")
        iterate = qadc.g_prime_from_prep(layout, load)
    flat = load + circuits.phase_estimate_op(iterate, layout.reg("regp"))
    stages = qadc.readout_block(layout, prep, variant, m, g, layout.n_qubits)
    fwd, back = stages[0][1], stages[2][1]
    assert any(is_fused(gate) for gate in fwd.gates)
    assert len(fwd.gates) < len(flat.gates)
    assert fwd.primitive_count() == back.primitive_count() == flat.primitive_count()
    # the un-estimate is the structural inverse: its blocks are the forward
    # blocks conjugate-transposed, in reverse order
    for a, b in zip(fwd.gates, reversed(back.gates)):
        if a.kind == "power":
            assert np.array_equal(b.params.blocks, a.params.blocks.conj().transpose(0, 2, 1))
    start = random_state(layout.n_qubits, 3)
    assert max_dev(fwd.apply(start), flat.apply(start)) <= TOL
    assert max_dev(back.apply(start), flat.inverse().apply(start)) <= TOL
