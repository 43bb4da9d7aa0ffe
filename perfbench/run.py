"""qadconv benchmark: closed-loop workloads, measured end to end and per layer.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload qadc-readout --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    PYTHONPATH=src python3 -m pytest -q perfbench
    python3 perfbench/simstats.py OLD.simstats.json NEW.simstats.json

Workloads (see workloads.py for why each was chosen): ``qadc-readout``,
``qdac-convert`` and ``perceptron-train``. Each runs in its own worker
process as a single-caller closed loop, with tracing off. One *op* is one
user-level call, defined per workload.

End-to-end metrics (``--trace 0``):

* ``op_p50_s``: median wall time per op.
* ``op_tail_s``: wall time at the highest percentile with at least ten
  samples beyond it, or the slowest op when that percentile would fall
  below the median (fewer than twenty ops); the percentile and the sample
  count are printed.
* ``ops_per_s``: checked ops per second of op wall time.
* ``setup_s``: median, over three worker processes, of the time from
  starting the process through ``import qadconv``, input generation and one
  untimed warm-up op.
* ``peak_rss_mib``: peak resident memory of the measuring worker.

The error rate (failed / attempted ops; an op fails if it raises or fails
its reference check) is printed, and is the ``failed`` and ``attempted``
fields of the result line. It is not a metric because it is 0 when the
program is correct.

``--trace 1`` runs half the time untraced and half with span wrappers
installed around every layer's public functions, and reports the
per-layer metrics of tracing.py; ``trace.overhead`` is the traced over
the untraced median op time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Records go to
``perfbench/out/``: ``<workload>-seed<n>-trace<t>.json`` (metrics, samples,
machine and sizing record), ``.simstats.json`` (simulated results per op,
for simstats.py) and, for traced runs, ``.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "op_p50_s": ("s", "lower"),
    "op_tail_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}
SETUP_SAMPLES = 3
# A whole run, workers included, ends within this many seconds or fails.
RUN_BUDGET_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "QADCONV_THREADS")


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    """The worker's environment: package on the path, one thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(env: dict, args: list, deadline: float) -> dict:
    """Run one worker to completion and return its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned_at = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the time budget")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    for line in stdout.splitlines():
        if line.startswith("@@RESULT "):
            return json.loads(line[len("@@RESULT "):])
    raise BenchError(f"worker {' '.join(args)} printed no result")


def _output_of(cmd: list):
    """A command's stripped standard output in ROOT, or None if it fails.

    git looks for a repository at ROOT only, not in the directories above it.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _getconf(name: str):
    value = _output_of(["getconf", name])
    return int(value) if value and value.isdigit() else None


def machine_record(env: dict) -> dict:
    caches = {"L1d": _getconf("LEVEL1_DCACHE_SIZE"), "L2": _getconf("LEVEL2_CACHE_SIZE"),
              "L3": _getconf("LEVEL3_CACHE_SIZE")}
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "thread_env_inherited": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_worker": {v: env[v] for v in THREAD_VARS},
        "threads_used": 1,
        "git_commit": _output_of(["git", "rev-parse", "HEAD"]),
    }


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns its report (metrics, records, paths)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{trace}"
    env = worker_env()
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    extra = ["--spans", str(stem) + ".spans.jsonl"] if trace else []
    main = spawn(env, base + extra, deadline)
    setups = [main["setup_s"]]
    warm_failures = list(main["warmup_failures"])
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            res = spawn(env, base + ["--setup-only"], deadline)
            setups.append(res["setup_s"])
            warm_failures += res["warmup_failures"]
    samples = main["samples"]
    if not samples:
        raise BenchError(f"{name}: no op passed its check: {main['failures'][:3]}")
    wl = workloads.WORKLOADS[name]
    tail_s, tail_pct = stats.tail(samples)
    report = {
        "workload": name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": main["failed"] == 0 and not warm_failures,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "error_rate": main["failed"] / main["attempted"],
        "failures": main["failures"],
        "warmup_failures": warm_failures,
        "op_tail_percentile": tail_pct,
        "samples": samples,
        "setup_samples": setups,
        "machine": machine_record(env),
        "sizing": workloads.sizing(wl),
    }
    if trace:
        import tracing

        report["metrics"] = {k: main["layer"][k] for k in tracing.PER_LAYER}
        report["units"] = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
        report["untraced_samples"] = main["untraced_samples"]
        report["copy_s"] = main["copy_s"]
        report["observed_qubits"] = main["observed_qubits"]
    else:
        report["metrics"] = {
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_s,
            "ops_per_s": len(samples) / sum(samples),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": main["peak_rss_mib"],
        }
        report["units"] = {k: unit for k, (unit, _) in END_TO_END.items()}
    report["record"] = str(stem) + ".json"
    report["simstats"] = str(stem) + ".simstats.json"
    Path(report["simstats"]).write_text(json.dumps(
        {"workload": name, "seed": seed, "ops": main["sim"]}, indent=1))
    Path(report["record"]).write_text(json.dumps(report, indent=1))
    return report


def print_report(rep: dict) -> None:
    print(f"{rep['workload']}  seed={rep['seed']}  seconds={rep['seconds']}  "
          f"trace={rep['trace']}")
    for name, value in rep["metrics"].items():
        unit = rep["units"][name]
        note = ""
        if name == "op_tail_s":
            note = f"  (p{rep['op_tail_percentile']:.1f} of {len(rep['samples'])} samples)"
        elif name == "setup_s":
            note = f"  (median of {len(rep['setup_samples'])})"
        print(f"  {name:<34} {value:14.6g} {unit}{note}")
    print(f"  {'error_rate':<34} {rep['error_rate']:14.6g} ratio"
          f"  ({rep['failed']} of {rep['attempted']} ops failed)")
    for i, msg in rep["failures"][:5]:
        print(f"  failed op {i}: {msg}")
    sizes = ", ".join(f"{k} {v['qubits']} qubits / {v['mib']:g} MiB"
                      for k, v in rep["sizing"].items())
    caches = rep["machine"]["cache_bytes"]
    l2 = caches["L2"] / 2**20 if caches["L2"] else float("nan")
    print(f"  states: {sizes}; L2 {l2:g} MiB")
    print(f"  record: {os.path.relpath(rep['record'], ROOT)}")


def _result_line(rep: dict) -> dict:
    return {
        "correct": rep["correct"],
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": {k: {"value": v, "unit": rep["units"][k]}
                    for k, v in rep["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qadconv" / "__init__.py").is_file():
        print(f"perfbench: no qadconv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for rep in reports:
        print_report(rep)
    if len(reports) == 1:
        print(json.dumps(_result_line(reports[0])))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in reports),
                          "attempted": sum(r["attempted"] for r in reports),
                          "failed": sum(r["failed"] for r in reports),
                          "workloads": {r["workload"]: _result_line(r) for r in reports}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
