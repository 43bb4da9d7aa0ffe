"""Compiled phase estimation against the flat unrolled circuit.

The flat reference is the textbook definition (textbook.py): Hadamards,
then the iterate controlled on phase bit j and repeated 2^j times, then the
inverse QFT gate by gate. Every comparison is to 1e-12.
"""

from functools import partial

import numpy as np
import pytest

from qadconv import circuits, core, nonlinear, qadc
from qadconv.circuits import CircuitOp, Gate, phase_estimate_op
from qadconv.prep import build_tree, synthesize_ua
from textbook import flat_phase_estimate_op, flat_readout_block, unfused_load

TOL = 1e-12


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return core.from_amplitudes(v / np.linalg.norm(v))


def pe_records(gates):
    """The phase-estimation records among gates (a readout's spectral
    record), also those nested in the fused records that hold them."""
    for gate in gates:
        if gate.tag == circuits.PE_CTRL_TAG:
            yield gate
        elif gate.kind == "power":
            yield from pe_records(gate.params.iterate)


def readout_ops(variant, tree, n, m, g):
    """(layout, front, iterate): the Hadamard layer plus the unfused load
    that precedes phase estimation in the readout block run_qadc runs, and
    the iterate whose controlled powers that block's spectral record
    stands for."""
    layout = qadc.readout_layout(variant, n, m, g)
    prep = synthesize_ua(tree).op(start=layout.start("data"))
    estimate = qadc.readout_block(prep, variant, n, m, g, layout.n_qubits)[0][1]
    power = next(pe_records(estimate.gates))
    front = qadc.hadamard_layer(layout, "ad") + unfused_load(layout, prep, variant)
    return layout, front, CircuitOp(power.params.iterate, label=power.label)


def max_dev(a, b):
    return float(np.max(np.abs(a.amps - b.amps)))


@pytest.mark.parametrize("variant", ["abs", "real", "imag"])
@pytest.mark.parametrize("n,m,g", [(1, 2, 1), (2, 2, 1), (2, 3, 0), (3, 2, 1)])
def test_compiled_and_replay_match_flat_on_readout_iterates(monkeypatch, variant, n, m, g):
    rng = np.random.default_rng(100 * n + 10 * m + g)
    c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    tree = build_tree(c / np.linalg.norm(c))
    layout, front, iterate = readout_ops(variant, tree, n, m, g)
    regp = layout.reg("regp")
    start = front.apply(core.new_zero_state(layout.n_qubits))
    flat = flat_phase_estimate_op(iterate, regp)
    want = flat.apply(start)
    for budget, compiled in ((circuits.POWER_TABLE_BUDGET, True), (0, False)):
        monkeypatch.setattr(circuits, "POWER_TABLE_BUDGET", budget)
        pe = phase_estimate_op(iterate, regp)
        powers = [gate for gate in pe.gates if gate.kind == "power"]
        assert len(powers) == m + g
        assert all((gate.params.blocks is not None) == compiled for gate in powers)
        # the address register is the key: one block per address value
        assert all(gate.params.keys == n for gate in powers)
        assert pe.primitive_count() == flat.primitive_count()
        got = pe.apply(start)
        assert max_dev(got, want) <= TOL
        assert max_dev(pe.inverse().apply(got), flat.inverse().apply(want)) <= TOL
        assert max_dev(pe.inverse().apply(got), start) <= TOL


def test_compiled_matches_flat_without_key_qubits():
    t = 5
    unit = CircuitOp((Gate("phase", (t,), (1.0,)),))
    pe = phase_estimate_op(unit, (0, t))
    powers = [gate for gate in pe.gates if gate.kind == "power"]
    assert all(gate.params.keys == 0 for gate in powers)
    assert all(gate.params.blocks.shape == (1, 2, 2) for gate in powers)
    flat = flat_phase_estimate_op(unit, (0, t))
    for seed in range(3):
        st = random_state(t + 1, seed)
        assert max_dev(pe.apply(st), flat.apply(st)) <= TOL
        assert max_dev(pe.inverse().apply(st), flat.inverse().apply(st)) <= TOL


def test_phase_estimate_is_linear_in_t():
    tree = build_tree(np.array([0.1, 0.5, 0.7, 0.5]))
    _, _, iterate = readout_ops("abs", tree, 2, 5, 3)
    pe = phase_estimate_op(iterate, (7, 8))
    assert len(pe.gates) < 60
    assert sum(gate.params.count for gate in pe.gates if gate.kind == "power") == 2**8 - 1


def test_amplify_inverts_the_compiled_pipeline(monkeypatch):
    # the pipeline's readout blocks (spectral estimate) against the same
    # blocks with textbook phase estimation, gate by gate
    tree = build_tree(np.array([0.6, 0.8]))
    got = nonlinear.nonlinear_transform(tree, "square", 1, 2, 1, mode="amplify", rounds=2)
    monkeypatch.setattr(nonlinear, "readout_block",
                        partial(flat_readout_block, estimate=flat_phase_estimate_op))
    want = nonlinear.nonlinear_transform(tree, "square", 1, 2, 1, mode="amplify", rounds=2)
    assert got.attempts == want.attempts == 5
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) <= TOL
    assert abs(got.empirical_probability - want.empirical_probability) <= TOL
    assert abs(got.success_probability - want.success_probability) <= TOL
    assert abs(got.leakage - want.leakage) <= TOL
    assert abs(got.fidelity - want.fidelity) <= TOL
