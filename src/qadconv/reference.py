"""Closed-form reference results used to check the simulator from the outside.

Everything in this module is computed with plain numpy math, never with the
gate kernels, so tests can compare circuit output against an independent
derivation. Tolerances live in the tests, not here.
"""

from __future__ import annotations

import math

import numpy as np

from . import core


def dense_unitary(op, n_qubits: int) -> np.ndarray:
    """Materialize any circuit-like object (has .apply) as a 2^n x 2^n matrix."""
    dim = 1 << n_qubits
    mat = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        amps = np.zeros(dim, dtype=np.complex128)
        amps[k] = 1.0
        mat[:, k] = op.apply(core.StateVector(n_qubits, amps)).amps
    return mat


def dft_matrix(size: int) -> np.ndarray:
    """F[b, k] = exp(2 pi i b k / size) / sqrt(size)."""
    idx = np.arange(size)
    return np.exp(2j * np.pi * np.outer(idx, idx) / size) / math.sqrt(size)


def is_unitary(mat: np.ndarray, tol: float = 1e-10) -> bool:
    eye = np.eye(mat.shape[0])
    return bool(np.max(np.abs(mat.conj().T @ mat - eye)) <= tol)


# ---------------------------------------------------------------------------
# Phase estimation statistics.


def pe_distribution(phase: float, t: int) -> np.ndarray:
    """Exact t-bit phase-readout distribution for eigenphase `phase`.

    p(b) = sin^2(pi T d) / (T sin(pi d))^2 with d = phase - b/T and T = 2^t.
    A phase that is an exact multiple of 1/T reads out deterministically.
    """
    T = 1 << t
    frac = (phase * T) % 1.0
    if min(frac, 1.0 - frac) < 1e-12:
        out = np.zeros(T)
        out[int(round(phase * T)) % T] = 1.0
        return out
    b = np.arange(T)
    delta = phase - b / T
    return (np.sin(np.pi * T * delta) / (T * np.sin(np.pi * delta))) ** 2


def branch_pair_distribution(theta: float, t: int) -> np.ndarray:
    """Readout distribution when the eigenphases theta and 1-theta mix equally."""
    return 0.5 * (
        pe_distribution(theta % 1.0, t) + pe_distribution((1.0 - theta) % 1.0, t)
    )


def phase_success_mass(theta: float, t: int, m: int) -> float:
    """Probability the t-bit readout lands within 2^-m of either eigenphase."""
    dist = branch_pair_distribution(theta, t)
    b = np.arange(1 << t)
    dd = np.minimum.reduce(
        [
            np.abs((b / (1 << t) - br) - s)
            for br in (theta, 1.0 - theta)
            for s in (-1.0, 0.0, 1.0)
        ]
    )
    return float(dist[dd <= 2.0**-m].sum())


# ---------------------------------------------------------------------------
# Fixed-point rounding (round half up, clamped).


def quantize_unsigned(v, m: int):
    codes = np.clip(np.floor(np.asarray(v, dtype=np.float64) * 2**m + 0.5), 0, 2**m - 1)
    return codes / 2**m


def quantize_signed(v, m: int):
    codes = np.clip(
        np.floor(np.asarray(v, dtype=np.float64) * 2**m + 0.5), -(2**m), 2**m - 1
    )
    return codes / 2**m


# ---------------------------------------------------------------------------
# Amplitude <-> phase relations and the recovery map.


def theta_from_abs(r: float) -> float:
    """Eigenphase produced by an address whose amplitude magnitude is r."""
    return math.asin(math.sqrt((1.0 + r * r) / 2.0)) / math.pi


def theta_from_part(x: float) -> float:
    """Eigenphase produced by an address whose real (or imag) part is x."""
    return math.asin(math.sqrt((1.0 + x) / 2.0)) / math.pi


def recovery_decoded_table(t: int, m: int, signed: bool) -> np.ndarray:
    """Decoded output value for every t-bit phase pattern.

    Folds b through the theta <-> 1-theta symmetry, evaluates the recovery
    map at the cell midpoint, and rounds half-up into m fractional bits.
    """
    b = np.arange(1 << t)
    fold = np.minimum(b, (1 << t) - b)
    theta = (fold + 0.5) / (1 << t)
    val = 2.0 * np.sin(np.pi * theta) ** 2 - 1.0
    if signed:
        return quantize_signed(val, m)
    return quantize_unsigned(np.sqrt(np.clip(val, 0.0, None)), m)


def code_distribution(theta: float, t: int, m: int, signed: bool) -> dict:
    """Map decoded recovery value -> probability, for one address."""
    dist = branch_pair_distribution(theta, t)
    table = recovery_decoded_table(t, m, signed)
    agg: dict[float, float] = {}
    for b in range(1 << t):
        v = float(table[b])
        agg[v] = agg.get(v, 0.0) + float(dist[b])
    return agg


def per_address_code_distribution(amplitudes, variant: str, m: int, g: int) -> np.ndarray:
    """p(code | k) for a qADC readout of the amplitudes, indexed [k, code];
    variant is "abs", "real" or "imag" and the code is the value
    register's pattern (m bits for abs, m + 1 signed bits otherwise). Each
    row is code_distribution at the address's theta."""
    c = np.asarray(amplitudes, dtype=np.complex128)
    signed = variant != "abs"
    part = {"abs": np.abs, "real": np.real, "imag": np.imag}[variant]
    theta_of = theta_from_part if signed else theta_from_abs
    width = m + 1 if signed else m
    out = np.zeros((c.size, 1 << width))
    for k, x in enumerate(part(c)):
        for v, p in code_distribution(theta_of(float(x)), m + g, m, signed).items():
            out[k, round(v * (1 << m)) % (1 << width)] += p
    return out


def amplitude_law(amplitudes, variant: str, m: int, g: int) -> np.ndarray:
    """The clean digital state a qADC readout leaves, sum_k sum_v p(v|k)
    |k>|code(v)> normalized, with the address k in the low qubits; variant
    is "abs", "real" or "imag". The clean amplitude of (k, v) is
    <0|U_k^dag P_v U_k|0>/sqrt(N) = p(v|k)/sqrt(N), with p(v|k) from
    per_address_code_distribution."""
    want = per_address_code_distribution(amplitudes, variant, m, g).T.ravel()
    return want / np.linalg.norm(want)


# ---------------------------------------------------------------------------
# Amplitude amplification.


def grover_probability(initial_success: float, rounds: int) -> float:
    """Success probability after `rounds` reflections, sin^2((2r+1) asin sqrt a)."""
    ang = math.asin(math.sqrt(initial_success))
    return math.sin((2 * rounds + 1) * ang) ** 2


def grover_optimal_rounds(initial_success: float) -> int:
    """floor(pi / (4 asin sqrt a) - 1/2), never negative.

    At a tie such as a = 1/4 the argument is a whole number in exact
    arithmetic but can land just below it in floating point, so a value
    within 1e-9 of a whole number counts as that number.
    """
    if not 0.0 < initial_success <= 1.0:
        raise ValueError("initial success probability must be in (0, 1]")
    x = math.pi / (4.0 * math.asin(math.sqrt(initial_success))) - 0.5
    nearest = round(x)
    return max(0, nearest if abs(x - nearest) < 1e-9 else math.floor(x))


# ---------------------------------------------------------------------------
# End-to-end predictions for the digital->analog and nonlinear pipelines.


def qdac_prediction(values, m: int | None = None, signed: bool = False):
    """(output amplitudes, success probability) for encoding `values`.

    With m given the values are first rounded to m fractional bits, which is
    what the circuit's oracle table actually stores.
    """
    v = np.asarray(values, dtype=np.float64)
    if m is not None:
        v = quantize_signed(v, m) if signed else quantize_unsigned(v, m)
    p = float(np.mean(v**2))
    if p <= 0.0:
        return np.zeros_like(v), 0.0
    return v / math.sqrt(float((v**2).sum())), p


def pipeline_prediction(values, f, m: int, g: int) -> dict:
    """Exact prediction for the real-part nonlinear pipeline.

    Per address the intermediate register holds a distribution of signed
    m-bit codes (phase estimation spread). The clean output amplitude is
    E[f~] / sqrt(N), the success probability is mean_k E[f~^2], and the
    leakage is the part of the success mass that is not in the clean
    component.
    """
    t = m + g
    n_addr = len(values)
    clean = []
    p_tot = 0.0
    for x in values:
        agg = code_distribution(theta_from_part(float(x)), t, m, signed=True)
        e1 = sum(p * float(quantize_signed(f(v), m)) for v, p in agg.items())
        e2 = sum(p * float(quantize_signed(f(v), m)) ** 2 for v, p in agg.items())
        clean.append(e1)
        p_tot += e2 / n_addr
    clean = np.asarray(clean) / math.sqrt(n_addr)
    clean_mass = float((clean**2).sum())
    leakage = 1.0 - clean_mass / p_tot if p_tot > 0 else 0.0
    out = clean / math.sqrt(clean_mass) if clean_mass > 0 else np.zeros_like(clean)
    return {
        "output": out,
        "success_probability": p_tot,
        "leakage": leakage,
        "clean_mass": clean_mass,
    }
