"""Span tracing of qadconv's layers, installed from outside the package.

``Tracer.install`` wraps each layer's public functions and replaces every
module attribute bound to the original, so names imported directly (for
example ``phase_estimate_op`` inside ``qadc`` and ``nonlinear``) are traced
too. A span is ``[name, start_ns, end_ns, parent, op, info]``; spans stay in
memory and are written once, at the end, by ``write_spans``.

Kernels are leaves: a kernel called from inside another kernel (the
multiplexed Ry runs single-qubit passes) belongs to the outer kernel's span.
A span's self time is its duration minus the durations of its children,
which never overlap because the loop has a single caller.
"""

from __future__ import annotations

import functools
import json
import statistics
import time

import numpy as np

KERNELS = {
    "apply_single_inplace": "single",
    "apply_swap_inplace": "swap",
    "apply_zero_reflection_inplace": "reflect",
    "apply_basis_oracle_inplace": "oracle",
    "apply_phase_table_inplace": "phase_table",
    "apply_multiplexed_ry_inplace": "mux_ry",
}
KINDS = tuple(KERNELS.values())
STATE_OPS = ("register_distribution", "postselect", "clean_component", "tensor",
             "new_zero_state")
# Value-semantics wrappers in core: a copy plus one kernel.
CORE_WRAPPERS = ("apply_single", "apply_controlled", "apply_basis_oracle", "apply_swap",
                 "apply_zero_reflection", "apply_phase_table", "apply_multiplexed_ry")
ORACLE_FACTORIES = ("activation_oracle", "abs_recovery_oracle", "real_recovery_oracle",
                    "arccos_oracle")
LAYERS = ("core", "circuits", "fixedpoint", "prep", "qadc", "qdac", "nonlinear")

# Every metric the traced run reports: name -> (unit, better). Values are per op
# (means over the traced ops) unless the name says otherwise. x_copy is a
# kernel's busy time over that of plain amps.copy() calls on the same sizes.
# core.bytes_computed is computed from array sizes (one read and one write of
# the state per kernel call), not measured.
PER_LAYER = {}
for _kind in KINDS:
    PER_LAYER[f"core.{_kind}.calls"] = ("count", "lower")
    PER_LAYER[f"core.{_kind}.s"] = ("s", "lower")
    PER_LAYER[f"core.{_kind}.x_copy"] = ("ratio", "lower")
PER_LAYER.update({
    "core.bytes_computed": ("B", "lower"),
    "core.state_ops.s": ("s", "lower"),
    "circuits.apply.calls": ("count", "lower"),
    "circuits.apply.records": ("count", "lower"),
    "circuits.apply.self_s": ("s", "lower"),
    "circuits.compose.s": ("s", "lower"),
    "circuits.pe_build.s": ("s", "lower"),
    "circuits.pe.records": ("count", "lower"),
    "circuits.controlled_u.apps": ("count", "lower"),
    "fixedpoint.oracle_build.calls": ("count", "lower"),
    "fixedpoint.oracle_build.s": ("s", "lower"),
    "fixedpoint.table_entries": ("count", "lower"),
    "prep.build_tree.s": ("s", "lower"),
    "prep.synthesize.s": ("s", "lower"),
    "prep.loader_records": ("count", "lower"),
    "qadc.estimate.s": ("s", "lower"),
    "qadc.recover.s": ("s", "lower"),
    "qadc.uncompute.s": ("s", "lower"),
    "qadc.summarize.s": ("s", "lower"),
    "qadc.phase_success.mean": ("ratio", "higher"),
    "qdac.suffix.s": ("s", "lower"),
    "qdac.amplify.s": ("s", "lower"),
    "qdac.amplify.rounds": ("count", "lower"),
    "qdac.attempts_per_success": ("ratio", "lower"),
    "nonlinear.forward.s": ("s", "lower"),
    "nonlinear.rotate.s": ("s", "lower"),
    "nonlinear.revert.s": ("s", "lower"),
    "nonlinear.finish.s": ("s", "lower"),
    "nonlinear.readout.s": ("s", "lower"),
    "nonlinear.leakage.mean": ("ratio", "lower"),
    "nonlinear.attempts_per_success": ("ratio", "lower"),
})
for _layer in LAYERS + ("bench",):
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "trace.coverage": ("ratio", "higher"),
    "trace.overhead": ("ratio", "lower"),
    "trace.ops": ("count", "higher"),
})

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._in_leaf = [False]
        self._undo: list[tuple] = []

    # -- recording --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        """Open the root span of op `op`; library spans nest under it."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(["bench.op", time.perf_counter_ns(), 0, -1, op, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter_ns()
        self.op = -1

    def _wrap(self, name, fn, info=None, leaf=False):
        spans, stack, in_leaf = self.spans, self._stack, self._in_leaf
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if in_leaf[0]:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(spans))
            spans.append(rec)
            in_leaf[0] = leaf
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                in_leaf[0] = False
            if info is not None:
                rec[INFO] = info(args, kwargs, out)
            return out

        return traced

    # -- installation -----------------------------------------------------

    def install(self, q) -> None:
        """Wrap the public functions of every traced layer of package `q`."""
        mods = [q] + [getattr(q, name) for name in LAYERS]
        core, circuits = q.core, q.circuits
        pe_tag = circuits.PE_CTRL_TAG

        def patch(home, attr, name, info=None, leaf=False):
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, info, leaf)
            for mod in mods:
                if mod.__dict__.get(attr) is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

        def patch_method(cls, attr, name, info=None):
            orig = cls.__dict__[attr]
            self._undo.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, info))

        def amps_size(args, kwargs, out):
            return args[0].size

        def apply_info(args, kwargs, out):
            op = args[0]
            cu = sum(1 for g in op.gates if g.tag == pe_tag)
            return {"label": op.label, "records": len(op.gates), "cu": cu,
                    "qubits": out.n_qubits}

        def records(args, kwargs, out):
            return len(out.gates)

        def rounds(args, kwargs, out):
            return int(args[3] if len(args) > 3 else kwargs["rounds"])

        for attr, kind in KERNELS.items():
            patch(core, attr, f"core.{kind}", amps_size, leaf=True)
        for attr in STATE_OPS:
            patch(core, attr, "core.state_ops")
        for attr in CORE_WRAPPERS:
            patch(core, attr, "core.wrapper")
        patch_method(circuits.CircuitOp, "apply", "circuits.apply", apply_info)
        for attr in ("then", "inverse", "controlled"):
            patch_method(circuits.CircuitOp, attr, "circuits.compose")
        patch(circuits, "phase_estimate_op", "circuits.pe_build", records)
        for attr in ORACLE_FACTORIES:
            patch(q.fixedpoint, attr, "fixedpoint.oracle_build",
                  lambda a, k, out: int(out.table.size))
        patch(q.prep, "build_tree", "prep.build_tree")
        patch(q.prep, "synthesize_ua", "prep.synthesize")
        patch_method(q.prep.PrepCircuit, "op", "prep.synthesize", records)
        for attr in ("abs_qadc", "real_qadc", "imag_qadc"):
            patch(q.qadc, attr, "qadc.readout")
        patch(q.qadc, "run_qadc", "qadc.run")
        patch(q.qdac, "make_digital_state", "qdac.load")
        patch(q.qdac, "qdac_run", "qdac.run")
        patch(q.qdac, "conversion_suffix_op", "qdac.suffix_build")
        patch(q.qdac, "amplitude_amplify", "qdac.amplify", rounds)
        patch(q.nonlinear, "perceptron_run", "nonlinear.pipeline")
        patch(q.nonlinear, "nonlinear_transform", "nonlinear.pipeline")
        patch(q.nonlinear, "swap_test_readout", "nonlinear.readout")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('["name","start_ns","end_ns","parent","op","info"]\n')
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")))
                fh.write("\n")

    def kernel_sizes(self) -> set:
        return {rec[INFO] for rec in self.spans if rec[NAME].startswith("core.")
                and rec[NAME][5:] in KINDS}


def copy_seconds(sizes, reps: int = 15) -> dict:
    """Median time of a plain ``amps.copy()`` per amplitude count."""
    out = {}
    for size in sorted(sizes):
        amps = np.ones(size, dtype=np.complex128)
        batch = max(1, (1 << 16) // size)
        amps.copy()
        times = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            for _ in range(batch):
                amps.copy()
            times.append((time.perf_counter_ns() - t0) / batch)
        out[size] = statistics.median(times) * 1e-9
    return out


def _dur(rec) -> float:
    return (rec[END] - rec[START]) * 1e-9


def _split_stages(spans, kids, parent_idx, pivot_label):
    """Split a span's direct apply children at the child labelled pivot_label.

    Returns (before, pivot, after, tail_s): apply spans before the pivot,
    the pivot itself, those after it, and the time from the end of the last
    apply to the end of the parent span.
    """
    applies = [c for c in kids.get(parent_idx, ()) if spans[c][NAME] == "circuits.apply"]
    at = next((i for i, c in enumerate(applies) if spans[c][INFO]["label"] == pivot_label),
              None)
    if at is None:
        before, pivot, after = applies, [], []
    else:
        before, pivot, after = applies[:at], [applies[at]], applies[at + 1:]
    end = spans[applies[-1]][END] if applies else spans[parent_idx][START]
    return before, pivot, after, (spans[parent_idx][END] - end) * 1e-9


def summarize(spans, copy_s, op_values, overhead: float) -> dict:
    """Per-layer metrics, as means per traced op.

    op_values maps each traced op to the workload's simulated statistics for
    it (``layer_values``); keys a workload does not produce report 0.
    """
    ops = sorted({rec[OP] for rec in spans if rec[NAME] == "bench.op"})
    n_ops = len(ops)
    if not n_ops:
        raise ValueError("no traced ops")
    kids: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            kids.setdefault(rec[PARENT], []).append(i)
    child_s = {p: sum(_dur(spans[c]) for c in cs) for p, cs in kids.items()}

    tot: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    copy_base = {kind: 0.0 for kind in KINDS}
    coverage = []

    def add(name, value):
        tot[name] += value

    for i, rec in enumerate(spans):
        if rec[OP] < 0:
            continue
        name, dur = rec[NAME], _dur(rec)
        self_s = dur - child_s.get(i, 0.0)
        layer, _, what = name.partition(".")
        add(f"{layer}.self_s", self_s)
        if name == "bench.op":
            coverage.append(1.0 - self_s / dur if dur > 0 else 0.0)
        elif layer == "core" and what in KINDS:
            add(f"core.{what}.calls", 1)
            add(f"core.{what}.s", dur)
            add("core.bytes_computed", 2 * 16 * rec[INFO])
            copy_base[what] += copy_s[rec[INFO]]
        elif name == "core.state_ops":
            add("core.state_ops.s", dur)
        elif name == "circuits.apply":
            add("circuits.apply.calls", 1)
            add("circuits.apply.records", rec[INFO]["records"])
            add("circuits.apply.self_s", self_s)
            add("circuits.controlled_u.apps", rec[INFO]["cu"])
        elif name == "circuits.compose":
            if rec[PARENT] < 0 or spans[rec[PARENT]][NAME] != name:
                add("circuits.compose.s", dur)
        elif name == "circuits.pe_build":
            add("circuits.pe_build.s", dur)
            add("circuits.pe.records", rec[INFO])
        elif name == "fixedpoint.oracle_build":
            add("fixedpoint.oracle_build.calls", 1)
            add("fixedpoint.oracle_build.s", dur)
            add("fixedpoint.table_entries", rec[INFO])
        elif name == "prep.build_tree":
            add("prep.build_tree.s", dur)
        elif name == "prep.synthesize":
            add("prep.synthesize.s", dur)
            if rec[INFO] is not None:
                add("prep.loader_records", rec[INFO])
        elif name == "qadc.run":
            before, pivot, after, tail_s = _split_stages(spans, kids, i, "recover")
            add("qadc.estimate.s", sum(_dur(spans[c]) for c in before))
            add("qadc.recover.s", sum(_dur(spans[c]) for c in pivot))
            add("qadc.uncompute.s", sum(_dur(spans[c]) for c in after))
            add("qadc.summarize.s", tail_s)
        elif name == "qdac.run":
            for c in kids.get(i, ()):
                child = spans[c]
                if child[NAME] == "circuits.apply" and child[INFO]["label"] == "qdac-suffix":
                    add("qdac.suffix.s", _dur(child))
        elif name == "qdac.suffix_build":
            add("qdac.suffix.s", dur)
        elif name == "qdac.amplify":
            add("qdac.amplify.s", dur)
            add("qdac.amplify.rounds", rec[INFO])
        elif name == "nonlinear.pipeline":
            before, pivot, after, tail_s = _split_stages(spans, kids, i, "f-rotation")
            add("nonlinear.forward.s", sum(_dur(spans[c]) for c in before))
            add("nonlinear.rotate.s", sum(_dur(spans[c]) for c in pivot))
            add("nonlinear.revert.s", sum(_dur(spans[c]) for c in after))
            add("nonlinear.finish.s", tail_s)
        elif name == "nonlinear.readout":
            add("nonlinear.readout.s", dur)

    out = {name: value / n_ops for name, value in tot.items()}
    for kind in KINDS:
        base = copy_base[kind]
        out[f"core.{kind}.x_copy"] = tot[f"core.{kind}.s"] / base if base > 0 else 0.0
    for key in ("qadc.phase_success.mean", "qdac.attempts_per_success",
                "nonlinear.leakage.mean", "nonlinear.attempts_per_success"):
        vals = [op_values[op][key] for op in ops if key in op_values.get(op, {})]
        out[key] = float(np.mean(vals)) if vals else 0.0
    out["trace.coverage"] = float(np.mean(coverage))
    out["trace.overhead"] = overhead
    out["trace.ops"] = float(n_ops)
    return out


def op_counts(spans) -> dict:
    """Exact per-op counts: gate records executed, kernel calls, controlled-U apps."""
    counts: dict[int, dict] = {}
    for rec in spans:
        if rec[OP] < 0:
            continue
        c = counts.setdefault(rec[OP], {"records": 0, "controlled_u": 0,
                                        **{f"calls.{k}": 0 for k in KINDS}})
        name = rec[NAME]
        if name == "circuits.apply":
            c["records"] += rec[INFO]["records"]
            c["controlled_u"] += rec[INFO]["cu"]
        elif name.startswith("core.") and name[5:] in KINDS:
            c[f"calls.{name[5:]}"] += 1
    return counts


def op_qubits(spans) -> dict:
    """Largest state, in qubits, that each op applied a circuit to."""
    out: dict[int, int] = {}
    for rec in spans:
        if rec[NAME] == "circuits.apply" and rec[OP] >= 0:
            out[rec[OP]] = max(out.get(rec[OP], 0), rec[INFO]["qubits"])
    return out
