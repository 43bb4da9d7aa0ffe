"""Binary probability trees and synthesis of the amplitude-encoding circuit.

The tree stores, per node, the total squared magnitude of the leaves below
it. Level l of the circuit rotates data qubit n-1-l keyed on the l qubits
already placed, with angle 2*arccos(sqrt(left/parent)); a final diagonal
layer applies the leaf phases. Node sums are kept raw (unnormalized): the
angles use only ratios of them, so off-norm input loads its normalized
vector.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuits import CircuitOp, Gate
from .errors import DimensionError, NormalizationError

UA_ENTRY_TAG = "ua-entry"


@dataclass(frozen=True)
class PrepTree:
    """Per-level raw squared-magnitude sums plus unit phases per leaf."""

    raw_levels: tuple
    phases: np.ndarray

    @property
    def depth(self) -> int:
        return len(self.raw_levels) - 1

    @property
    def root(self) -> float:
        return float(self.raw_levels[0][0])

    def level(self, l: int) -> np.ndarray:
        """Normalized node values at level l (root is level 0, value 1)."""
        return self.raw_levels[l] / self.root

    def leaf_values(self) -> np.ndarray:
        return self.level(self.depth)

    def amplitudes(self) -> np.ndarray:
        """The complex vector this tree encodes."""
        return np.sqrt(self.leaf_values()) * self.phases


def build_tree(data, normalize: str = "warn") -> PrepTree:
    """Fold a length-2^n complex vector into a prep tree.

    normalize: "warn" renormalizes off-norm input with a warning, "silent"
    renormalizes quietly, "strict" raises NormalizationError.
    """
    c = np.asarray(data, dtype=np.complex128)
    if c.ndim != 1 or c.size < 1 or c.size & (c.size - 1):
        raise DimensionError(f"need a power-of-two length vector, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise NormalizationError("data must be finite (no NaN or inf)")
    leaves = np.abs(c) ** 2
    total = float(leaves.sum())
    if total <= 0.0:
        raise NormalizationError("cannot build a tree from the zero vector")
    if abs(total - 1.0) > 1e-9:
        if normalize == "strict":
            raise NormalizationError(f"squared norm is {total!r}, expected 1")
        if normalize == "warn":
            warnings.warn(
                f"input norm {math.sqrt(total):.6g} != 1, renormalizing", stacklevel=2
            )
        elif normalize != "silent":
            raise ValueError(f"unknown normalize mode {normalize!r}")
    levels = [leaves]
    while levels[-1].size > 1:
        below = levels[-1]
        levels.append(below[0::2] + below[1::2])
    levels.reverse()
    # c / |c| multiplies by 1 / |c|, which overflows for a subnormal |c|:
    # those are first scaled by a power of two, which is exact
    c = c * np.where(np.abs(c) < np.finfo(np.float64).tiny, 2.0**600, 1.0)
    mags = np.abs(c)
    phases = np.where(mags > 0, c / np.where(mags > 0, mags, 1.0), 1.0)
    return PrepTree(tuple(levels), phases)


@dataclass(frozen=True)
class PrepCircuit:
    """Synthesized encoder: one multiplexed rotation per level, then phases."""

    tree: PrepTree

    def op(self, start: int = 0) -> CircuitOp:
        gates = []
        n = self.tree.depth
        for l in range(n):
            parents = self.tree.raw_levels[l]
            children = self.tree.raw_levels[l + 1]
            angles = np.zeros(1 << l)
            for p in range(1 << l):
                if parents[p] > 0.0:
                    ratio = min(max(children[2 * p] / parents[p], 0.0), 1.0)
                    angles[p] = 2.0 * math.acos(math.sqrt(ratio))
                # zero-mass subtree keeps the identity rotation
            key = tuple(range(start + n - l, start + n))
            gates.append(Gate("mux-ry", key + (start + n - 1 - l,), tuple(angles)))
        if np.max(np.abs(self.tree.phases - 1.0)) > 1e-15:
            gates.append(
                Gate("phase-table", tuple(range(start, start + n)), tuple(self.tree.phases))
            )
        if not gates:
            return CircuitOp((), label="ua")
        gates[0] = replace(gates[0], tag=UA_ENTRY_TAG)
        return CircuitOp(tuple(gates), label="ua")


def synthesize_ua(tree: PrepTree) -> PrepCircuit:
    return PrepCircuit(tree)


def load_data(path, fmt: str = "csv") -> np.ndarray:
    """Read a data vector from disk.

    csv: one value per line, "re" or "re,im". f64: raw little-endian float64.
    """
    path = Path(path)
    if fmt == "f64":
        data = np.fromfile(path, dtype="<f8").astype(np.complex128)
    elif fmt == "csv":
        rows = []
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            re = float(parts[0])
            im = float(parts[1]) if len(parts) > 1 and parts[1] else 0.0
            rows.append(complex(re, im))
        data = np.asarray(rows, dtype=np.complex128)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if not data.size:
        raise DimensionError(f"no data rows in {path}")
    if not np.all(np.isfinite(data)):
        raise NormalizationError(f"{path} holds a non-finite value (NaN or inf)")
    return data
