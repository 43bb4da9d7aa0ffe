"""Experiment runner: seeded, JSON-emitting subcommands plus a verify suite.

Every run echoes its configuration and emits a schema-versioned record.
Identical configuration and seed give byte-identical metric JSON; wall time
lives outside the metrics block for exactly that reason. Sweeps fan out to
a thread pool (QADCONV_THREADS) and are merged back by sweep index.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import core, reference
from .circuits import CircuitOp, Gate, phase_estimate_op
from .errors import (
    ConfigError,
    QadconvError,
    ResourceLimitError,
    VerificationError,
)
from .fixedpoint import ACTIVATIONS, activation_oracle
from .nonlinear import (
    AnsatzCircuit,
    check_ansatz_cap,
    nonlinear_transform,
    perceptron_run,
    swap_test_readout,
    train_demo,
)
from .prep import build_tree, load_data, synthesize_ua
from .qadc import (
    flat_readout_block,
    part_spectrum,
    readout_block,
    readout_eigenbasis,
    readout_iterate,
    readout_layout,
    readout_load,
    run_qadc,
    spectrum_oracle,
)
from .qdac import MODES, check_shots, make_digital_state, predict_success, qdac_run

SCHEMA = "qadconv/v1"
KINDS = ("prep", "qdac", "qadc-abs", "qadc-real", "qadc-imag",
         "nonlinear", "perceptron", "spectrum", "verify")

# Most points a spectrum sweep may ask for; checked before any is built.
SWEEP_POINT_CAP = 1 << 16

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_VERIFICATION = 4


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int | None = None
    m: int | None = None
    g: int = 3
    data: str | None = None
    fmt: str = "csv"
    random: int | None = None
    complex_data: bool = False
    seed: int | None = None
    f: str | None = None
    signed: bool = False
    mode: str = "postselect"
    shots: int = 2048
    rounds: int | None = None
    variant: str | None = None
    r: float | None = None
    sweep: str | None = None
    layers: int = 2
    budget: int = 0
    perturb: float = 0.25
    out: str | None = None
    csv_path: str | None = None
    scope: str = "all"
    cap: int = core.DEFAULT_QUBIT_CAP

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError("kind", f"unknown kind {self.kind!r}; known: {KINDS}")
        needs_data = self.kind in ("prep", "qdac", "qadc-abs", "qadc-real",
                                   "qadc-imag", "nonlinear", "perceptron")
        if needs_data:
            if (self.data is None) == (self.random is None):
                raise ConfigError("data", "give exactly one of --data or --random")
            if self.random is not None and self.seed is None:
                raise ConfigError("seed", "--random draws need an explicit --seed")
        if self.random is not None and self.random < 1:
            raise ConfigError("random", "need at least one value")
        sweeping_qadc = self.kind.startswith("qadc") and self.sweep is not None
        if (self.kind in ("qdac", "qadc-abs", "qadc-real", "qadc-imag",
                          "nonlinear", "perceptron")
                and self.m is None and not sweeping_qadc):
            raise ConfigError("m", "this kind needs --m fraction bits")
        if self.m is not None and self.m < 1:
            raise ConfigError("m", "need at least one fraction bit")
        if self.g < 0:
            raise ConfigError("g", "guard bits cannot be negative")
        if self.mode not in MODES:
            raise ConfigError("mode", f"unknown mode {self.mode!r}")
        if self.mode == "sample" and self.seed is None:
            raise ConfigError("seed", "sample mode needs an explicit --seed")
        if self.kind == "perceptron" and self.seed is None:
            raise ConfigError("seed", "the perceptron draws its angles from --seed")
        check_shots(self.shots)
        if self.layers < 0:
            raise ConfigError("layers", "the layer count cannot be negative")
        if not 0.0 <= self.perturb < math.inf:
            raise ConfigError("perturb", f"need a finite spread >= 0, got {self.perturb!r}")
        if self.kind == "spectrum" and self.r is None and self.sweep is None:
            raise ConfigError("r", "give --r or --sweep")
        if self.cap < 1:
            raise ConfigError("cap", "qubit cap must be positive")
        if self.random is not None:
            # 2^n drawn values fill n address qubits: refuse them before the draw
            core.check_qubit_cap((self.random - 1).bit_length(), self.cap)
        if self.kind == "qdac" and self.f in ACTIVATIONS and ACTIVATIONS[self.f][1] != 1:
            # a 2-input table has 4^m entries or more: refuse it before it is built
            raise ConfigError("f", "digital-to-analog conversion needs a 1-input oracle")

    def echo(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class ResultRecord:
    config: ExperimentConfig
    metrics: dict
    wall_time_s: float

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.config.kind,
            "config": self.config.echo(),
            "metrics": self.metrics,
            "wall_time_s": round(self.wall_time_s, 6),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def metrics_json(self) -> str:
        """Compact, key-sorted metric block: the byte-determinism target."""
        return json.dumps(self.metrics, sort_keys=True)


def _threads() -> int | None:
    raw = os.environ.get("QADCONV_THREADS", "").strip()
    if not raw:
        return None
    try:
        count = int(raw)
    except ValueError:
        raise ConfigError("QADCONV_THREADS", f"expected an integer, got {raw!r}") from None
    if count < 1:
        raise ConfigError("QADCONV_THREADS", "thread count must be positive")
    return count


def _pool_map(fn, items) -> list:
    items = list(items)
    if len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        return list(pool.map(fn, items))


def _check_finite(obj, path="metrics") -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _check_finite(v, f"{path}.{k}")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _check_finite(v, f"{path}[{i}]")
    elif isinstance(obj, float) and not math.isfinite(obj):
        raise VerificationError(f"non-finite metric at {path}: {obj!r}")


def _floats(arr) -> list[float]:
    return [float(x) for x in np.asarray(arr, dtype=np.float64)]


def _load_values(cfg: ExperimentConfig) -> np.ndarray:
    if cfg.data is not None:
        return load_data(cfg.data, fmt=cfg.fmt)
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind == "qdac":
        lo = -0.9 if cfg.signed else 0.05
        return rng.uniform(lo, 0.9, size=cfg.random).astype(np.complex128)
    vec = rng.normal(size=cfg.random).astype(np.complex128)
    if cfg.complex_data:
        vec += 1j * rng.normal(size=cfg.random)
    return vec / np.linalg.norm(vec)


def _normalized_tree(values: np.ndarray):
    norm = float(np.linalg.norm(values))
    tree = build_tree(values, normalize="silent")
    return tree, norm


# --------------------------------------------------------------------------
# Runners, one per kind. Each returns a JSON-safe metrics dict.


def _run_prep(cfg: ExperimentConfig) -> dict:
    values = _load_values(cfg)
    tree, norm = _normalized_tree(values)
    op = synthesize_ua(tree).op(0)
    state = op.apply(core.new_zero_state(tree.depth, cap=cfg.cap), inplace=True)
    want = values / norm
    fidelity = float(abs(np.vdot(want, state.amps)))
    return {
        "n_values": int(values.size),
        "n_qubits": tree.depth,
        "input_norm": norm,
        "fidelity": fidelity,
        "gate_count": len(op.gates),
        "primitive_count": op.primitive_count(),
    }


def _run_qdac(cfg: ExperimentConfig) -> dict:
    values = np.asarray(_load_values(cfg).real, dtype=np.float64)
    signed = cfg.signed or bool((values < 0).any())
    # the state's cap check also bounds the 2^(m+signed)-entry activation table
    digital = make_digital_state(values, cfg.m, signed=signed, cap=cfg.cap)
    f = activation_oracle(cfg.f or "identity", cfg.m, in_signed=signed,
                          out_signed=signed)
    rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None
    out = qdac_run(digital, f, cfg.m, rng=rng, mode=cfg.mode,
                   shots=cfg.shots, rounds=cfg.rounds, cap=cfg.cap)
    codec = f.in_codecs[0]
    f_vals = f.out_codec.decode_array([f.table[codec.encode(v)] for v in values])
    target = f_vals / np.linalg.norm(f_vals)
    fidelity = float(abs(np.vdot(target, out.output.amps)))
    return {
        "n_values": int(values.size),
        "m": cfg.m,
        "signed": signed,
        "mode": cfg.mode,
        "function": f.name,
        "predicted_probability": out.predicted_probability,
        "empirical_probability": out.empirical_probability,
        "attempts": out.attempts,
        "success": out.success,
        "fidelity": fidelity,
        "residual_mass": out.residual_mass,
    }


def _run_qadc(cfg: ExperimentConfig) -> dict:
    values = _load_values(cfg)
    tree, _ = _normalized_tree(values)
    variant = cfg.kind.removeprefix("qadc-")

    def one(m: int) -> dict:
        res = run_qadc(tree, variant, tree.depth, m, g=cfg.g, cap=cfg.cap)
        return {
            "m": m,
            "g": cfg.g,
            "estimates": _floats(res.per_address_estimates),
            "true_values": _floats(res.true_values),
            "modal_probability": _floats(res.per_address_modal_probability),
            "within_bound": _floats(res.per_address_within_bound),
            "phase_success": _floats(res.per_address_phase_success),
            "readout_accuracy": res.readout_accuracy,
            "fidelity_vs_ideal": res.fidelity_vs_ideal,
            "clean_probability": res.clean_probability,
            "controlled_ua_count": res.controlled_ua_count,
        }

    if cfg.sweep is None:
        return one(cfg.m)

    try:
        ms = sorted({int(tok) for tok in cfg.sweep.split(",") if tok.strip()})
    except ValueError:
        raise ConfigError("sweep", f"expected a comma list of integers, got {cfg.sweep!r}") from None
    if not ms:
        raise ConfigError("sweep", "no fraction-bit values in the sweep list")
    rows = _pool_map(one, ms)
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path,
            ("m", "fidelity_vs_ideal", "readout_accuracy", "clean_probability",
             "controlled_ua_count"),
            [
                (row["m"], row["fidelity_vs_ideal"], row["readout_accuracy"],
                 row["clean_probability"], row["controlled_ua_count"])
                for row in rows
            ],
        )
    return {"sweep_m": ms, "rows": rows, "g": cfg.g}


def _run_nonlinear(cfg: ExperimentConfig) -> dict:
    values = _load_values(cfg)
    tree, _ = _normalized_tree(values)
    rng = np.random.default_rng(cfg.seed) if cfg.seed is not None else None
    out = nonlinear_transform(tree, cfg.f or "square", tree.depth, cfg.m, cfg.g,
                              rng=rng, mode=cfg.mode, shots=cfg.shots,
                              rounds=cfg.rounds, cap=cfg.cap)
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path,
            ("index", "amplitude", "classical_target"),
            [
                (k, float(out.amplitudes[k].real), float(out.target[k]))
                for k in range(out.target.size)
            ],
        )
    return {
        "function": cfg.f or "square",
        "m": cfg.m,
        "g": cfg.g,
        "mode": cfg.mode,
        "amplitudes": _floats(out.amplitudes.real),
        "classical_target": _floats(out.target),
        "fidelity": out.fidelity,
        "success_probability": out.success_probability,
        "predicted_probability": out.predicted_probability,
        "empirical_probability": out.empirical_probability,
        "leakage": out.leakage,
        "attempts": out.attempts,
        "success": out.success,
    }


def _run_perceptron(cfg: ExperimentConfig) -> dict:
    values = _load_values(cfg)
    tree, _ = _normalized_tree(values)
    n = tree.depth
    check_ansatz_cap(n, cfg.layers)
    rng = np.random.default_rng(cfg.seed)
    theta = rng.uniform(-math.pi / 2, math.pi / 2, size=(cfg.layers, n, 2))
    ansatz = AnsatzCircuit(n, cfg.layers, theta)
    sigma = cfg.f or "tanh"
    out = perceptron_run(tree, ansatz, sigma, cfg.m, cfg.g, cap=cfg.cap)
    readouts = []
    for k in range(1 << n):
        r = swap_test_readout(out.output, k, cfg.shots, rng)
        readouts.append({
            "k": k,
            "estimate": r.estimate,
            "exact": float(abs(out.output.amps[k]) ** 2),
            "p_zero": r.p_zero,
            "standard_error": r.standard_error,
        })
    metrics = {
        "sigma": sigma,
        "m": cfg.m,
        "g": cfg.g,
        "layers": cfg.layers,
        "theta": [[[float(x) for x in q] for q in layer] for layer in theta],
        "amplitudes": _floats(out.amplitudes.real),
        "classical_target": _floats(out.target),
        "fidelity": out.fidelity,
        "success_probability": out.success_probability,
        "leakage": out.leakage,
        "readouts": readouts,
        "shots": cfg.shots,
    }
    if cfg.budget > 0:
        objective = np.abs(out.output.amps) ** 2
        start = AnsatzCircuit(n, cfg.layers,
                              theta + rng.normal(0.0, cfg.perturb, size=theta.shape))
        trained = train_demo(objective, start, tree, sigma, cfg.m, cfg.g,
                             shots=cfg.shots, rng=rng, budget=cfg.budget)
        metrics["training"] = {
            "budget": cfg.budget,
            "perturbation": cfg.perturb,
            "initial_loss": trained.trace[0],
            "final_loss": trained.loss,
            "evaluations": trained.evaluations,
            "trace": [float(x) for x in trained.trace],
        }
    return metrics


def _spectrum_points(cfg: ExperimentConfig) -> list[float]:
    if cfg.r is not None:
        return [cfg.r]
    parts = cfg.sweep.split(":")
    if len(parts) != 3:
        raise ConfigError("sweep", "expected start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError("sweep", f"expected numbers, got {cfg.sweep!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError("sweep", f"start, stop and step must be finite, got {cfg.sweep!r}")
    if step <= 0 or stop < start:
        raise ConfigError("sweep", "need step > 0 and stop >= start")
    span = (stop - start) / step
    if not span < SWEEP_POINT_CAP:  # also refuses a span that overflowed to inf
        raise ResourceLimitError(
            f"sweep {cfg.sweep!r} asks for {span + 1:.3g} points, which exceeds the cap "
            f"of {SWEEP_POINT_CAP}")
    count = int(math.floor(span + 1e-9)) + 1
    return [start + i * step for i in range(count)]


def _run_spectrum(cfg: ExperimentConfig) -> dict:
    variant = cfg.variant or "abs"
    if variant not in ("abs", "part"):
        raise ConfigError("variant", f"unknown spectrum variant {variant!r}")
    oracle = spectrum_oracle if variant == "abs" else part_spectrum
    points = _spectrum_points(cfg)

    def one(r: float) -> dict:
        s = oracle(r)
        return {
            "value": float(r),
            "theta": s.theta,
            "alpha": s.alpha,
            "beta": s.beta,
            "lambda_plus": [s.lambda_plus.real, s.lambda_plus.imag],
            "lambda_minus": [s.lambda_minus.real, s.lambda_minus.imag],
            "degenerate": s.degenerate,
        }

    rows = _pool_map(one, points)
    if cfg.csv_path:
        _write_csv(
            cfg.csv_path,
            ("value", "theta", "lambda_plus_re", "lambda_plus_im",
             "lambda_minus_re", "lambda_minus_im"),
            [
                (row["value"], row["theta"], row["lambda_plus"][0],
                 row["lambda_plus"][1], row["lambda_minus"][0],
                 row["lambda_minus"][1])
                for row in rows
            ],
        )
    if cfg.r is not None and len(rows) == 1:
        return {"variant": variant, **rows[0]}
    return {"variant": variant, "points": len(rows), "rows": rows}


def _run_verify(cfg: ExperimentConfig) -> dict:
    return oracle_suite(cfg.scope)


_RUNNERS = {
    "prep": _run_prep,
    "qdac": _run_qdac,
    "qadc-abs": _run_qadc,
    "qadc-real": _run_qadc,
    "qadc-imag": _run_qadc,
    "nonlinear": _run_nonlinear,
    "perceptron": _run_perceptron,
    "spectrum": _run_spectrum,
    "verify": _run_verify,
}


def run(config: ExperimentConfig) -> ResultRecord:
    config.validate()
    _threads()  # a bad QADCONV_THREADS fails here, before any work runs
    t0 = time.perf_counter()
    metrics = _RUNNERS[config.kind](config)
    wall = time.perf_counter() - t0
    _check_finite(metrics)
    return ResultRecord(config=config, metrics=metrics, wall_time_s=wall)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --------------------------------------------------------------------------
# The brute-force oracle suite behind the verify subcommand. Each check
# compares a simulation against an independent computation and reports its
# worst deviation.


def _check_circuit_products() -> float:
    rng = np.random.default_rng(20260101)
    worst = 0.0
    eye = np.eye(8)
    for _ in range(5):
        gates = []
        for _ in range(12):
            q = int(rng.integers(3))
            kind = str(rng.choice(["h", "x", "ry", "rz"]))
            params = (float(rng.uniform(-math.pi, math.pi)),) if kind in ("ry", "rz") else ()
            controls = ()
            if rng.random() < 0.4:
                c = int(rng.integers(3))
                if c != q:
                    controls = ((c, 1),)
            gates.append(Gate(kind, (q,), params, controls))
        a = CircuitOp(tuple(gates[:6]))
        b = CircuitOp(tuple(gates[6:]))
        ua = reference.dense_unitary(a, 3)
        ub = reference.dense_unitary(b, 3)
        uab = reference.dense_unitary(a + b, 3)
        worst = max(worst, float(np.max(np.abs(ub @ ua - uab))))
        worst = max(worst, float(np.max(np.abs(ua.conj().T @ ua - eye))))
        inv = reference.dense_unitary(a.inverse(), 3)
        worst = max(worst, float(np.max(np.abs(inv @ ua - eye))))
    return worst


def _check_pe_distribution() -> float:
    t = 5
    worst = 0.0
    for phase in (1.0 / 3.0, 3.0 / 8.0):
        unit = CircuitOp((Gate("phase", (t,), (2 * math.pi * phase,)),))
        pe = phase_estimate_op(unit, (0, t))
        amps = np.zeros(1 << (t + 1), dtype=np.complex128)
        amps[1 << t] = 1.0
        state = pe.apply(core.StateVector(t + 1, amps))
        got = core.register_distribution(state, [(0, t)])
        want = reference.pe_distribution(phase, t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def _block_deviation(variant, tree, n, m, g, seed) -> float:
    """The readout block readout_block builds (spectral estimate, recover,
    un-estimate) against flat_readout_block, the same block with textbook
    phase estimation, each run as one circuit on a random state."""
    layout = readout_layout(variant, n, m, g)
    prep = synthesize_ua(tree).op(start=layout.start("data"))
    out = layout.n_qubits
    ops = readout_block(prep, variant, n, m, g, out)
    spectral, flat = (CircuitOp(tuple(gate for op in path for gate in op.gates))
                      for path in (ops, flat_readout_block(prep, variant, n, m, g, out)))
    nq = 1 + max(ops[1].used_qubits())
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
    start = core.StateVector(nq, amps / np.linalg.norm(amps))
    return float(np.max(np.abs(spectral.apply(start).amps - flat.apply(start).amps)))


def _unfuse(gates) -> tuple:
    """gates with every fused record (all power records of a readout
    block) expanded back into its source gates."""
    return tuple(h for g in gates for h in (g.params.iterate if g.kind == "power" else (g,)))


def _check_fused_blocks() -> float:
    """Each stage of the abs and real readout blocks against the same
    records with every fused record expanded back into its source gates
    (the eigenbasis record then applies in factored form), and each whole
    block against the flat block, on random states."""
    rng = np.random.default_rng(20260109)
    tree = build_tree([0.6, 0.8j], normalize="silent")
    worst = 0.0
    prep = synthesize_ua(tree).op(start=1)
    for variant in ("abs", "real"):
        nq = readout_layout(variant, 1, 2, 1).n_qubits
        fwd, _, back = readout_block(prep, variant, 1, 2, 1, nq)
        amps = rng.normal(size=1 << nq) + 1j * rng.normal(size=1 << nq)
        start = core.StateVector(nq, amps / np.linalg.norm(amps))
        for op in (fwd, back):
            flat = CircuitOp(_unfuse(op.gates))
            dev = np.max(np.abs(op.apply(start).amps - flat.apply(start).amps))
            worst = max(worst, float(dev))
        worst = max(worst, _block_deviation(variant, tree, 1, 2, 1, 20260109))
    return worst


def _check_readout_eigenbasis() -> float:
    """V^H G V for the readout iterate G and the closed-form eigenbasis V,
    both materialized per address: its distance from the diagonal of
    eigenphases, and theirs from {+-2 pi theta_k, 0, pi} with theta_k from
    spectrum_oracle or part_spectrum, for abs, real and imag, at the
    address-0 values {0, +-1/sqrt2, +-1, 0.3}."""
    worst = 0.0
    for variant in ("abs", "real", "imag"):
        layout = readout_layout(variant, 1, 1, 0)
        s = layout.start("b") + 1
        half = 1 << (s - 2)
        for x in (0.0, math.sqrt(0.5), -math.sqrt(0.5), 1.0, -1.0, 0.3):
            c = [1j * x if variant == "imag" else x, math.sqrt(1.0 - x * x)]
            tree = build_tree(c, normalize="silent")
            load = readout_load(layout, synthesize_ua(tree).op(start=1), variant)
            basis, phases = readout_eigenbasis(layout, load)
            g_mat = reference.dense_unitary(readout_iterate(layout, load), s)
            v_dag = reference.dense_unitary(CircuitOp((basis,)), s)
            diag = v_dag @ g_mat @ v_dag.conj().T
            worst = max(worst, float(np.max(np.abs(diag - np.diag(np.exp(1j * phases))))))
            for k, ck in enumerate(tree.amplitudes()):
                if variant == "abs":
                    theta = spectrum_oracle(abs(ck)).theta
                else:
                    theta = part_spectrum(ck.real if variant == "real" else ck.imag).theta
                omega = 2.0 * math.pi * theta
                want = np.zeros((2, half))
                want[0, 0], want[1, 0], want[1, 1:] = omega, -omega, math.pi
                got = phases.reshape(2, half, 2)[..., k]
                worst = max(worst, float(np.max(np.abs(np.exp(1j * got) - np.exp(1j * want)))))
    return worst


def _check_amplitude_law() -> float:
    """The clean digital state run_qadc leaves for abs, real and imag
    against reference.amplitude_law, on a complex 2-address tree and a
    complex 4-address tree."""
    rng = np.random.default_rng(20260110)
    worst = 0.0
    for n, m, g in ((1, 2, 1), (2, 3, 1)):
        c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        tree = build_tree(c / np.linalg.norm(c))
        for variant in ("abs", "real", "imag"):
            got = run_qadc(tree, variant, n, m, g).digital_state.amps
            want = reference.amplitude_law(tree.amplitudes(), variant, m, g)
            worst = max(worst, float(np.max(np.abs(got - want))))
    return worst


def _check_prep_trees() -> float:
    rng = np.random.default_rng(20260103)
    worst = 0.0
    for n in (1, 2, 3):
        for _ in range(5):
            c = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            c /= np.linalg.norm(c)
            tree = build_tree(c, normalize="silent")
            state = synthesize_ua(tree).op(0).apply(core.new_zero_state(n))
            worst = max(worst, abs(1.0 - float(abs(np.vdot(c, state.amps)))))
    return worst


def _check_spectrum() -> float:
    rng = np.random.default_rng(20260104)
    worst = 0.0
    layout = readout_layout("abs", 1, 1, 0)
    nq = layout.n_qubits
    b_s, _ = layout.reg("b")
    for r in rng.uniform(0.02, 0.98, size=30):
        spec = spectrum_oracle(float(r))
        tree = build_tree([r, math.sqrt(1.0 - r * r)], normalize="silent")
        load = readout_load(layout, synthesize_ua(tree).op(start=layout.start("data")), "abs")
        gop = readout_iterate(layout, load)
        start = load.apply(core.new_zero_state(nq)).amps
        idx = np.arange(start.size)
        branches = []
        for bit in (0, 1):
            psi = np.where(((idx >> b_s) & 1) == bit, start, 0.0)
            branches.append(psi / np.linalg.norm(psi))
        block = np.empty((2, 2), dtype=np.complex128)
        for j, psi in enumerate(branches):
            gpsi = gop.apply(core.StateVector(nq, psi.copy())).amps
            for i, phi in enumerate(branches):
                block[i, j] = np.vdot(phi, gpsi)
        eigvals, eigvecs = np.linalg.eig(block)
        order = np.argsort(eigvals.imag)[::-1]
        eigvals = eigvals[order]
        eigvecs = eigvecs[:, order]
        worst = max(worst, float(abs(eigvals[0] - spec.lambda_plus)))
        worst = max(worst, float(abs(eigvals[1] - spec.lambda_minus)))
        w = np.array([spec.alpha, spec.beta])
        for col in range(2):
            overlap = abs(np.vdot(eigvecs[:, col], w))
            worst = max(worst, abs(overlap - math.sqrt(0.5)))
    for edge in (0.0, 1.0):
        spectrum_oracle(edge)
    return worst


def _check_qdac_exact() -> float:
    worst = 0.0
    for values, signed in (([0.6, 0.8], False), ([-0.6, 0.8], True)):
        f = activation_oracle("identity", 6, in_signed=signed, out_signed=signed)
        out = qdac_run(make_digital_state(values, 6, signed=signed), f, 6)
        amps, p = reference.qdac_prediction(values, 6, signed=signed)
        worst = max(worst, abs(out.empirical_probability - out.predicted_probability),
                    abs(out.empirical_probability - p),
                    float(np.max(np.abs(out.output.amps - amps))))
    return worst


def _check_moment_identity() -> float:
    rng = np.random.default_rng(20260106)
    worst = 0.0
    for n_vals in (2, 4):
        for _ in range(10):
            data = rng.uniform(0.0, 1.0, size=n_vals)
            mu = float(data.mean())
            var = float(((data - mu) ** 2).mean())
            worst = max(worst, abs(predict_success(data) - (var + mu * mu)))
    return worst


def _check_pipeline() -> float:
    tree = build_tree([0.6, 0.8], normalize="silent")
    out = nonlinear_transform(tree, "square", 1, 3, 2)
    pred = reference.pipeline_prediction([0.6, 0.8], lambda v: v * v, 3, 2)
    worst = abs(out.success_probability - pred["success_probability"])
    worst = max(worst, float(np.max(np.abs(out.amplitudes - pred["output"]))))
    worst = max(worst, abs(out.leakage - pred["leakage"]))
    return worst


ORACLE_CHECKS: tuple[tuple[str, float, object], ...] = (
    ("circuit-products", 1e-12, _check_circuit_products),
    ("pe-distribution", 1e-10, _check_pe_distribution),
    ("fused-blocks", 1e-12, _check_fused_blocks),
    ("readout-eigenbasis", 1e-12, _check_readout_eigenbasis),
    ("amplitude-law", 1e-12, _check_amplitude_law),
    ("prep-trees", 1e-10, _check_prep_trees),
    ("spectrum", 1e-10, _check_spectrum),
    ("qdac-exact", 1e-10, _check_qdac_exact),
    ("moment-identity", 1e-12, _check_moment_identity),
    ("pipeline", 1e-9, _check_pipeline),
)


def oracle_suite(scope: str = "all") -> dict:
    """Run oracle-vs-simulation comparisons and report worst deviations."""
    known = [name for name, _, _ in ORACLE_CHECKS]
    scope = (scope or "").strip()
    if scope in ("", "none"):
        wanted: list[str] = []
    elif scope == "all":
        wanted = known
    else:
        wanted = [tok.strip() for tok in scope.split(",") if tok.strip()]
        bad = sorted(set(wanted) - set(known))
        if bad:
            raise ConfigError("scope", f"unknown checks {bad}; known: {known}")
    rows = []
    for name, tol, fn in ORACLE_CHECKS:
        if name not in wanted:
            continue
        dev = float(fn())
        rows.append({
            "name": name,
            "max_deviation": dev,
            "tolerance": tol,
            "pass": dev <= tol,
        })
    return {"rows": rows, "all_pass": all(r["pass"] for r in rows)}


# --------------------------------------------------------------------------
# Argument parsing.


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qadconv",
        description="Run amplitude conversion experiments and emit JSON records.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, data=False, codec=False, sampled=False):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed; required wherever randomness enters")
        p.add_argument("--out", default=None, help="write the JSON record here")
        p.add_argument("--cap", type=int, default=core.DEFAULT_QUBIT_CAP,
                       help="qubit cap (prints a memory estimate when raised)")
        if data:
            p.add_argument("--data", default=None, help="CSV data file (re[,im] rows)")
            p.add_argument("--fmt", default="csv", choices=("csv", "f64"))
            p.add_argument("--random", type=int, default=None,
                           help="draw this many values instead of reading a file")
            p.add_argument("--complex", dest="complex_data", action="store_true",
                           help="random draws get imaginary parts too")
        if codec:
            p.add_argument("--m", type=int, default=None, help="fraction bits")
            p.add_argument("--g", type=int, default=3, help="guard bits")
        if sampled:
            p.add_argument("--mode", default="postselect", choices=MODES)
            p.add_argument("--shots", type=int, default=2048)
            p.add_argument("--rounds", type=int, default=None,
                           help="amplification rounds override")

    p = sub.add_parser("prep", help="synthesize a loader and check its fidelity")
    add_common(p, data=True)

    p = sub.add_parser("qdac", help="digital state to analog amplitudes")
    add_common(p, data=True, codec=True, sampled=True)
    p.add_argument("--f", default=None, help=f"activation name {sorted(ACTIVATIONS)}")
    p.add_argument("--signed", action="store_true")

    p = sub.add_parser("qadc", help="analog amplitudes to digital registers")
    add_common(p, data=True, codec=True)
    p.add_argument("--variant", default="abs", choices=("abs", "real", "imag"))
    p.add_argument("--sweep", default=None, help="comma list of m values")
    p.add_argument("--csv", dest="csv_path", default=None, help="sweep CSV path")

    p = sub.add_parser("nonlinear", help="apply f to amplitudes via convert-evaluate-revert")
    add_common(p, data=True, codec=True, sampled=True)
    p.add_argument("--f", default="square")
    p.add_argument("--csv", dest="csv_path", default=None,
                   help="per-index amplitude vs classical target CSV")

    p = sub.add_parser("perceptron", help="ansatz forward pass, readout, optional training")
    add_common(p, data=True, codec=True)
    p.add_argument("--sigma", dest="f", default="tanh")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--shots", type=int, default=2048)
    p.add_argument("--train-budget", dest="budget", type=int, default=0)
    p.add_argument("--perturb", type=float, default=0.25,
                   help="training starts this far from the drawn angles")

    p = sub.add_parser("spectrum", help="closed-form iterate eigenvalues for a value")
    add_common(p)
    p.add_argument("--variant", default="abs", choices=("abs", "part"))
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--sweep", default=None, help="start:stop:step value sweep")
    p.add_argument("--csv", dest="csv_path", default=None)

    p = sub.add_parser("verify", help="run the oracle comparison suite")
    add_common(p)
    p.add_argument("--scope", default="all",
                   help="all, none, or a comma list of check names")

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kind = f"qadc-{args.variant}" if args.command == "qadc" else args.command
    fields = {
        "kind": kind,
        "seed": args.seed,
        "out": args.out,
        "cap": args.cap,
    }
    for name in ("data", "fmt", "random", "complex_data", "m", "g", "f", "signed",
                 "mode", "shots", "rounds", "sweep", "csv_path", "layers",
                 "budget", "perturb", "r", "scope"):
        if hasattr(args, name) and getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if kind == "spectrum" and "r" not in fields and not fields.get("sweep"):
        fields["sweep"] = "0:1:0.01"
    return ExperimentConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    if cfg.cap != core.DEFAULT_QUBIT_CAP:
        print(f"qubit cap {cfg.cap}: a full state holds {core.amplitude_mib(cfg.cap)} MiB "
              "of amplitudes", file=sys.stderr)
    try:
        record = run(cfg)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except QadconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    text = record.to_json()
    print(text)
    if cfg.out:
        Path(cfg.out).write_text(text + "\n")
    if cfg.kind == "verify" and not record.metrics["all_pass"]:
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
