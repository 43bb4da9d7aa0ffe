"""Self-tests of the benchmark, on small instances of its workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import qadconv  # noqa: E402
import qadconv.reference  # noqa: E402,F401

import run  # noqa: E402
import simstats  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from worker import closed_loop  # noqa: E402

SMALL = {
    "qadc-readout": workloads.QadcReadout(m=2, g=2),
    "qdac-convert": workloads.QdacConvert(m=3),
    "perceptron-train": workloads.PerceptronTrain(m=2, g=1),
}


# -- the tail-percentile rule ---------------------------------------------


@pytest.mark.parametrize("n", [20, 21, 37, 100, 250])
def test_tail_has_exactly_ten_samples_beyond(n):
    rng = np.random.default_rng(n)
    samples = list(rng.permutation(n) * 0.5 + 1.0)
    value, pct = stats.tail(samples)
    assert sum(s > value for s in samples) == stats.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_is_the_highest_such_percentile():
    samples = [float(i) for i in range(100)]
    value, pct = stats.tail(samples)
    assert (value, pct) == (89.0, 90.0)
    # one rank higher leaves only nine samples beyond it
    assert sum(s > 90.0 for s in samples) == 9


@pytest.mark.parametrize("n", [1, 10, 12, 19])
def test_tail_below_twenty_samples_is_the_slowest(n):
    # ten samples beyond would put the percentile below the median
    samples = [float(i) for i in range(n)][::-1]
    assert stats.tail(samples) == (float(n - 1), 100.0)


def test_tail_is_never_below_the_median():
    for n in range(1, 60):
        samples = [float(i) for i in range(n)]
        value, pct = stats.tail(samples)
        assert pct >= 50.0 and value >= samples[(n - 1) // 2]


def test_tail_needs_a_sample():
    with pytest.raises(ValueError):
        stats.tail([])


# -- failed ops are errors, not timed successes ---------------------------


def _corrupt(name, result):
    if name == "qadc-readout":
        dist = np.array(result.per_address_code_distribution)
        dist[0] = np.roll(dist[0], 1)
        return dataclasses.replace(result, per_address_code_distribution=dist)
    if name == "qdac-convert":
        return dataclasses.replace(
            result, empirical_probability=result.empirical_probability * (1 + 1e-6))
    out, readouts = result
    bad = dataclasses.replace(readouts[0], p_zero=readouts[0].p_zero + 1e-6)
    return out, [bad] + readouts[1:]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_corrupted_output_counts_as_error(name):
    wl = SMALL[name]
    phase = closed_loop(wl, qadconv, seed=3, seconds=0, min_ops=1,
                        run=lambda q, inp: _corrupt(name, wl.run(q, inp)))
    assert phase.attempted == wl.cycle
    assert phase.failed == phase.attempted
    assert phase.samples == []
    assert all(rec.get("failed") for rec in phase.records)


def test_qdac_amplify_without_rounds_counts_as_error():
    # A change that skips amplification reports one attempt and the initial
    # success probability; it must fail the check, not be timed as cheaper.
    wl = SMALL["qdac-convert"]

    def skip_rounds(q, inp):
        if inp["mode"] == "amplify":
            inp = dict(inp, mode="postselect")
        return wl.run(q, inp)

    phase = closed_loop(wl, qadconv, seed=3, seconds=0, min_ops=1, run=skip_rounds)
    amplify = [rec for rec in phase.records if "/amplify/" in rec["label"]]
    assert amplify and all(rec.get("failed") for rec in amplify)
    assert phase.failed == len(amplify)
    assert all("attempts" in msg for _, msg in phase.failures)


def test_amplify_rounds_match_the_reference_except_at_exact_ties():
    ref = qadconv.reference
    assert ref.grover_optimal_rounds(0.25) == 0  # 1.5 - 1/2 floored one short
    assert workloads.amplify_rounds(ref, 0.25) == 1
    for p in np.linspace(1e-4, 1.0, 4001):
        if abs(p - 0.25) > 1e-12:
            assert workloads.amplify_rounds(ref, p) == ref.grover_optimal_rounds(p)


def test_raising_op_counts_as_error():
    wl = SMALL["qdac-convert"]

    def boom(q, inp):
        raise qadconv.ZeroSuccessError("injected")

    phase = closed_loop(wl, qadconv, seed=3, seconds=0, min_ops=1, run=boom)
    assert phase.failed == phase.attempted == wl.cycle
    assert "ZeroSuccessError" in phase.failures[0][1]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_correct_ops_pass_their_reference_check(name):
    wl = SMALL[name]
    phase = closed_loop(wl, qadconv, seed=5, seconds=0, min_ops=1)
    assert phase.failures == []
    assert len(phase.samples) == phase.attempted == wl.cycle


def test_loop_stops_at_whole_cycles_after_min_ops():
    wl = SMALL["qadc-readout"]
    phase = closed_loop(wl, qadconv, seed=1, seconds=0, min_ops=4)
    assert phase.attempted == 6
    assert phase.next_index == 6


# -- seeded inputs -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_come_from_the_seed(name):
    wl = workloads.WORKLOADS[name]
    key = {"qadc-readout": "vec", "qdac-convert": "data", "perceptron-train": "theta"}[name]
    a = wl.make_input(7, workloads.OPS_STREAM, 4)[key]
    assert np.array_equal(a, wl.make_input(7, workloads.OPS_STREAM, 4)[key])
    for other in ((8, workloads.OPS_STREAM, 4), (7, workloads.OPS_STREAM, 5),
                  (7, workloads.WARMUP_STREAM, 4)):
        b = wl.make_input(*other)[key]
        assert a.shape != b.shape or not np.array_equal(a, b)


def test_ansatz_matrix_matches_the_library():
    wl = SMALL["perceptron-train"]
    inp = wl.make_input(2, workloads.OPS_STREAM, 0)
    ansatz = qadconv.AnsatzCircuit(wl.n, wl.layers, inp["theta"])
    state = ansatz.op(0).apply(qadconv.core.from_amplitudes(inp["x"]))
    np.testing.assert_allclose(workloads.ansatz_matrix(inp["theta"]) @ inp["x"],
                               state.amps, atol=1e-13)


# -- tracing -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_covers_each_op_and_restores_the_package(name):
    wl = SMALL[name]
    original = qadconv.core.apply_single_inplace
    original_pe = qadconv.circuits.phase_estimate_op
    tracer = tracing.Tracer()
    tracer.install(qadconv)
    try:
        # names imported directly into other modules are wrapped where they are looked up
        assert qadconv.qadc.phase_estimate_op is qadconv.circuits.phase_estimate_op
        assert qadconv.nonlinear.phase_estimate_op is qadconv.circuits.phase_estimate_op
        assert qadconv.circuits.phase_estimate_op is not original_pe
        assert qadconv.core.apply_single_inplace is not original
        phase = closed_loop(wl, qadconv, seed=4, seconds=0, min_ops=1, tracer=tracer)
    finally:
        tracer.uninstall()
    assert qadconv.core.apply_single_inplace is original
    assert qadconv.qadc.phase_estimate_op is original_pe
    assert phase.failures == []
    copy_s = tracing.copy_seconds(tracer.kernel_sizes(), reps=3)
    layer = tracing.summarize(tracer.spans, copy_s, phase.layer_values, overhead=1.0)
    assert set(layer) == set(tracing.PER_LAYER)
    assert layer["trace.ops"] == wl.cycle
    assert layer["trace.coverage"] > 0.9
    self_total = sum(layer[f"{lay}.self_s"] for lay in tracing.LAYERS + ("bench",))
    wall = sum(tracing._dur(r) for r in tracer.spans if r[tracing.NAME] == "bench.op") / wl.cycle
    assert self_total == pytest.approx(wall, rel=1e-9)
    counts = tracing.op_counts(tracer.spans)
    assert all(c["records"] > 0 for c in counts.values())


def test_traced_counts_are_exact():
    wl = SMALL["qadc-readout"]
    tracer = tracing.Tracer()
    tracer.install(qadconv)
    try:
        phase = closed_loop(wl, qadconv, seed=4, seconds=0, min_ops=1, tracer=tracer)
    finally:
        tracer.uninstall()
    t = wl.m + wl.g
    counts = tracing.op_counts(tracer.spans)
    # phase estimation and its inverse each apply the controlled iterate 2^t - 1 times
    assert all(c["controlled_u"] == 2 * (2**t - 1) for c in counts.values())
    assert len(phase.records) == 3
    qubits = {phase.records[op]["label"]: n for op, n in tracing.op_qubits(tracer.spans).items()}
    assert qubits == wl.state_qubits()


# -- simulated-statistics records ------------------------------------------


def _record(value):
    return {"workload": "w", "seed": 1,
            "ops": [{"op": 0, "label": "x", "values": {"p": value, "v": [value, 1.0]},
                     "counts": {"records": 10}}]}


def test_simstats_compare_tolerates_rounding_only():
    values, counts, n = simstats.compare(_record(0.5), _record(0.5 + 1e-14))
    assert (values, counts, n) == ([], [], 1)
    values, _, _ = simstats.compare(_record(0.5), _record(0.5 + 1e-9))
    assert len(values) == 2


def test_simstats_compare_reports_count_changes():
    new = _record(0.5)
    new["ops"][0]["counts"]["records"] = 4
    values, counts, _ = simstats.compare(_record(0.5), new)
    assert values == [] and counts == [("op 0 (x) records", "10 -> 4")]


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == tracing.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_qdac_amplify_rounds_do_not_depend_on_the_seed():
    wl = workloads.WORKLOADS["qdac-convert"]
    rounds = {}
    for seed in range(40):
        for i in range(wl.cycle):
            inp = wl.make_input(seed, workloads.OPS_STREAM, i)
            p = float(np.mean(wl.expected(qadconv, inp) ** 2))
            r = workloads.amplify_rounds(qadconv.reference, p)
            rounds.setdefault(inp["f"], set()).add(r)
    assert rounds == {"identity": {1}, "tanh": {1}, "square": {3}}
