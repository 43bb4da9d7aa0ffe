"""One workload in one process: set-up, warm-up, then the closed loop.

Started by run.py. Prints a single line ``@@RESULT <json>`` on stdout and
exits 0; anything else on stdout is informational. With ``--setup-only`` it
stops after the warm-up op, which is how run.py takes several set-up
samples in one run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field

import workloads

# Each untraced run measures whole cycles of the workload and at least this
# many ops, so that every run has ten ops slower than its reported tail or,
# failing twenty ops, takes the tail over more than ten.
MIN_OPS = 11
# Failure messages carried into the result, at most.
MAX_FAILURES_REPORTED = 20


@dataclass
class Phase:
    """What a run of the closed loop measured."""

    samples: list = field(default_factory=list)  # op wall times of checked ops, s
    attempted: int = 0
    failures: list = field(default_factory=list)  # (op index, message)
    records: list = field(default_factory=list)  # simulated statistics per op
    layer_values: dict = field(default_factory=dict)  # op index -> values
    next_index: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)


def closed_loop(wl, q, seed: int, seconds: float, first: int = 0,
                min_ops: int = MIN_OPS, tracer=None, run=None) -> Phase:
    """Run ops first, first+1, ... until `seconds` have passed.

    The loop stops at a whole number of workload cycles and after at least
    `min_ops` ops. Only the call to ``run`` is timed; input generation and
    the reference check sit outside the timed region. An op that raises or
    fails its check is counted as failed and its time is not a sample.
    """
    run = wl.run if run is None else run
    phase = Phase(next_index=first)
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        inp = wl.make_input(seed, workloads.OPS_STREAM, i)
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = run(q, inp)
            problems = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, problems = None, [f"raised {type(exc).__name__}: {exc}"]
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.end_op()
        if problems is None:
            problems = wl.check(q, inp, out)
        phase.attempted += 1
        record = {"op": i, "label": inp["label"]}
        if problems:
            phase.failures.append((i, "; ".join(problems)))
            record["failed"] = True
        else:
            phase.samples.append(t1 - t0)
            record["values"] = wl.sim_values(inp, out)
            record["counts"] = wl.sim_counts(inp, out)
            phase.layer_values[i] = wl.layer_values(inp, out)
        phase.records.append(record)
        i += 1
        done = i - first
        if done >= min_ops and done % wl.cycle == 0 and time.perf_counter() >= deadline:
            break
    phase.next_index = i
    return phase


def _summary(phase: Phase, *earlier: Phase) -> dict:
    """Samples of `phase`; attempts and failures of it and the `earlier` phases."""
    failures = [f for ph in earlier + (phase,) for f in ph.failures]
    return {
        "samples": phase.samples,
        "attempted": sum(ph.attempted for ph in earlier + (phase,)),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_REPORTED],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="run.py's time.perf_counter() just before starting this process")
    p.add_argument("--spans", help="where the traced run writes its spans")
    args = p.parse_args(argv)

    import qadconv
    import qadconv.reference  # noqa: F401  (the checks' closed forms)

    wl = workloads.WORKLOADS[args.workload]
    warm = wl.make_input(args.seed, workloads.WARMUP_STREAM, wl.warmup_index)
    warm_problems = wl.check(qadconv, warm, wl.run(qadconv, warm))
    # perf_counter is CLOCK_MONOTONIC, shared with the parent process.
    result = {"setup_s": time.perf_counter() - args.spawned_at,
              "warmup_failures": warm_problems}
    if not args.setup_only:
        result.update(measure(wl, qadconv, args))
    print("@@RESULT " + json.dumps(result), flush=True)
    return 0


def measure(wl, q, args) -> dict:
    if not args.trace:
        phase = closed_loop(wl, q, args.seed, args.seconds)
        out = _summary(phase)
        out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["sim"] = phase.records
        return out

    from tracing import Tracer, copy_seconds, op_counts, op_qubits, summarize

    # An untraced reference phase, then the traced phase on the ops after it.
    plain = closed_loop(wl, q, args.seed, args.seconds / 2, min_ops=1)
    tracer = Tracer()
    tracer.install(q)
    try:
        traced = closed_loop(wl, q, args.seed, args.seconds / 2,
                             first=plain.next_index, min_ops=1, tracer=tracer)
    finally:
        tracer.uninstall()
    overhead = statistics.median(traced.samples) / statistics.median(plain.samples)
    copy_s = copy_seconds(tracer.kernel_sizes())
    layer = summarize(tracer.spans, copy_s, traced.layer_values, overhead)
    counts = op_counts(tracer.spans)
    for rec in traced.records:
        rec.setdefault("counts", {}).update(counts.get(rec["op"], {}))
    labels = {rec["op"]: rec["label"] for rec in traced.records}
    max_qubits: dict[str, int] = {}
    for op, qubits in op_qubits(tracer.spans).items():
        max_qubits[labels[op]] = max(max_qubits.get(labels[op], 0), qubits)
    if args.spans:
        tracer.write_spans(args.spans)
    out = _summary(traced, plain)
    out["untraced_samples"] = plain.samples
    out["layer"] = layer
    out["copy_s"] = {str(k): v for k, v in copy_s.items()}
    out["observed_qubits"] = max_qubits
    out["sim"] = plain.records + traced.records
    return out


if __name__ == "__main__":
    sys.exit(main())
