"""The names and results the benchmark in perfbench/ relies on.

perfbench/ reaches into the package by name: its workloads call the qADC
forwards and check results against reference closed forms, and its tracer
wraps each layer's public functions where they are looked up. These tests
run those hooks on small instances, so a change that breaks one fails here.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import qadconv  # noqa: E402
import qadconv.reference  # noqa: E402,F401  (the workloads' checks read it as an attribute)
import tracing  # noqa: E402
import workloads  # noqa: E402

# the small instances perfbench's self-tests use
SMALL = {
    "qadc-readout": workloads.QadcReadout(m=2, g=2),
    "qdac-convert": workloads.QdacConvert(m=3),
    "perceptron-train": workloads.PerceptronTrain(m=2, g=1),
}
# qadc: the abs, real and imag forwards; qdac: postselect and amplify
OP_INDICES = {"qadc-readout": (0, 1, 2), "qdac-convert": (0, 1), "perceptron-train": (0,)}


def _owners():
    mods = [qadconv] + [getattr(qadconv, name) for name in tracing.LAYERS]
    return mods + [qadconv.circuits.CircuitOp, qadconv.prep.PrepCircuit]


def test_tracer_install_wraps_by_name_and_uninstall_restores():
    before = {owner: dict(vars(owner)) for owner in _owners()}
    tracer = tracing.Tracer()
    tracer.install(qadconv)
    try:
        q = qadconv
        wrapped = [
            (q.qadc, "run_qadc"), (q.qadc, "abs_qadc"), (q.qadc, "real_qadc"),
            (q.qadc, "imag_qadc"), (q.qadc, "phase_estimate_op"),
            (q.nonlinear, "phase_estimate_op"), (q.nonlinear, "perceptron_run"),
            (q.qdac, "qdac_run"), (q.qdac, "amplitude_amplify"),
        ]
        for owner, attr in wrapped:
            assert getattr(owner, attr) is not before[owner][attr], f"{owner.__name__}.{attr}"
        assert q.qadc.phase_estimate_op is q.circuits.phase_estimate_op
        assert q.nonlinear.phase_estimate_op is q.circuits.phase_estimate_op
    finally:
        tracer.uninstall()
    for owner, snapshot in before.items():
        now = dict(vars(owner))
        assert now.keys() == snapshot.keys()
        changed = [k for k in now if now[k] is not snapshot[k]]
        assert changed == [], f"{owner} not restored: {changed}"


def test_traced_qadc_op_splits_at_the_recover_apply():
    wl = SMALL["qadc-readout"]
    tracer = tracing.Tracer()
    tracer.install(qadconv)
    try:
        tracer.begin_op(0)
        wl.run(qadconv, wl.make_input(1, workloads.OPS_STREAM, 0))
        tracer.end_op()
    finally:
        tracer.uninstall()
    spans = tracer.spans
    runs = [i for i, rec in enumerate(spans) if rec[tracing.NAME] == "qadc.run"]
    assert len(runs) == 1
    assert spans[spans[runs[0]][tracing.PARENT]][tracing.NAME] == "qadc.readout"
    labels = [rec[tracing.INFO]["label"] for rec in spans
              if rec[tracing.NAME] == "circuits.apply" and rec[tracing.PARENT] == runs[0]]
    assert labels.count("recover") == 1
    assert labels.index("recover") not in (0, len(labels) - 1)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_workload_ops_pass_their_checks(name):
    wl = SMALL[name]
    for index in OP_INDICES[name]:
        inp = wl.make_input(1, workloads.OPS_STREAM, index)
        result = wl.run(qadconv, inp)
        assert wl.check(qadconv, inp, result) == [], inp["label"]


def test_traced_qdac_amplify_span_reports_its_closed_form_rounds():
    # the tracer reads amplitude_amplify's rounds as its 4th positional argument
    wl = SMALL["qdac-convert"]
    inp = wl.make_input(1, workloads.OPS_STREAM, 1)
    assert inp["mode"] == "amplify"
    tracer = tracing.Tracer()
    tracer.install(qadconv)
    try:
        tracer.begin_op(0)
        wl.run(qadconv, inp)
        tracer.end_op()
    finally:
        tracer.uninstall()
    p = float(np.mean(wl.expected(qadconv, inp) ** 2))
    rounds = [rec[tracing.INFO] for rec in tracer.spans if rec[tracing.NAME] == "qdac.amplify"]
    assert rounds == [workloads.amplify_rounds(qadconv.reference, p)]
