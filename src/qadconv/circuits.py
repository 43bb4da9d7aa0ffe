"""Register layouts, composable gate sequences, QFT, and phase estimation.

A CircuitOp is an immutable tuple of Gate records. Applying one copies the
amplitude buffer once and then runs each record's in-place kernel, looked up
by kind in KINDS, so a few thousand gates on a million amplitudes stay fast.
Inversion, control wrapping, and gate counting all work structurally on the
records through the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import core
from .errors import RegisterError


@dataclass(frozen=True)
class RegisterLayout:
    """Named contiguous qubit ranges allocated from qubit 0 upward."""

    registers: tuple[tuple[str, int, int], ...]  # (name, start, width)

    @classmethod
    def build(cls, *specs) -> "RegisterLayout":
        regs = []
        names = set()
        start = 0
        for name, width in specs:
            width = int(width)
            if width < 0:
                raise RegisterError(f"register {name!r} has negative width")
            if name in names:
                raise RegisterError(f"duplicate register name {name!r}")
            names.add(name)
            regs.append((name, start, width))
            start += width
        return cls(tuple(regs))

    @property
    def n_qubits(self) -> int:
        return sum(w for _, _, w in self.registers)

    def reg(self, name: str) -> tuple[int, int]:
        for nm, s, w in self.registers:
            if nm == name:
                return (s, w)
        raise RegisterError(f"no register named {name!r}")

    def start(self, name: str) -> int:
        return self.reg(name)[0]

    def width(self, name: str) -> int:
        return self.reg(name)[1]

    def qubits(self, name: str) -> range:
        s, w = self.reg(name)
        return range(s, s + w)

    def value(self, index: int, name: str) -> int:
        s, w = self.reg(name)
        return (index >> s) & ((1 << w) - 1)

    def names(self) -> tuple[str, ...]:
        return tuple(nm for nm, _, _ in self.registers)


# ---------------------------------------------------------------------------
# Gate records.
#
# Every gate is one Gate record. `wires` lists the qubits the gate acts on;
# register wires are contiguous and run from low to high:
#
#   kind          wires                              params
#   h x y z       (target,)                          ()
#   ry rz phase   (target,)                          (angle,)
#   swap          (q1, q2)                           ()
#   reflect       the qubits reflected about |0..0>  ()
#   phase-table   the register                       2^w unit phases
#   oracle        input register + output register   2^w_in output values
#   mux-ry        key register + (target,)           2^w_key angles
#
# A table's length fixes its register's width, which is how oracle and
# mux-ry records split their wires.


def _reg(qubits) -> tuple[int, int]:
    return (qubits[0], len(qubits)) if qubits else (0, 0)


def _single(matrix):
    def run(g, amps, n):
        core.apply_single_inplace(amps, n, g.wires[0], matrix(*g.params), g.controls)

    return run


def _swap(g, amps, n):
    core.apply_swap_inplace(amps, n, g.wires[0], g.wires[1], g.controls)


def _reflect(g, amps, n):
    core.apply_zero_reflection_inplace(amps, n, g.wires, g.controls)


def _phase_table(g, amps, n):
    core.apply_phase_table_inplace(amps, n, _reg(g.wires), g.params, g.controls)


def _oracle(g, amps, n):
    k = len(g.params).bit_length() - 1
    core.apply_basis_oracle_inplace(
        amps, n, _reg(g.wires[:k]), _reg(g.wires[k:]),
        np.asarray(g.params, dtype=np.int64), g.controls,
    )


def _mux_ry(g, amps, n):
    core.apply_multiplexed_ry_inplace(
        amps, n, _reg(g.wires[:-1]), g.wires[-1],
        np.asarray(g.params, dtype=np.float64), g.controls,
    )


def _negate(params) -> tuple:
    return tuple(-a for a in params)


def _conjugate(params) -> tuple:
    return tuple(np.conj(p) for p in params)


class Kind(NamedTuple):
    category: str  # the bucket gate_counts reports
    run: Callable  # run(gate, amps, n): apply in place through core's kernel
    inverse: Callable | None  # params -> params of the inverse; None: self-inverse
    per_entry: bool  # primitive cost is one per table entry instead of one


KINDS = {
    "h": Kind("single", _single(lambda: core.H_MATRIX), None, False),
    "x": Kind("single", _single(lambda: core.X_MATRIX), None, False),
    "y": Kind("single", _single(lambda: core.Y_MATRIX), None, False),
    "z": Kind("single", _single(lambda: core.Z_MATRIX), None, False),
    "ry": Kind("single", _single(core.ry_matrix), _negate, False),
    "rz": Kind("single", _single(core.rz_matrix), _negate, False),
    "phase": Kind("single", _single(core.phase_matrix), _negate, False),
    "swap": Kind("swap", _swap, None, False),
    "reflect": Kind("reflect", _reflect, None, False),
    "phase-table": Kind("phase-table", _phase_table, _conjugate, True),
    # an oracle is charged as one black-box arithmetic call
    "oracle": Kind("oracle", _oracle, None, False),
    "mux-ry": Kind("mux-ry", _mux_ry, _negate, True),
}


def _fmt(x) -> str:
    x = x.item() if isinstance(x, np.generic) else x
    if isinstance(x, complex):
        return f"{x.real!r}{x.imag:+}j".replace("+-", "-")
    return repr(x)


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: a kind from KINDS, its wires and parameters, and (qubit,
    value) control pairs. tag marks records callers count; label names
    a table for humans."""

    kind: str
    wires: tuple
    params: tuple = ()
    controls: tuple = ()
    tag: str = ""
    label: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise RegisterError(f"unknown gate kind {self.kind!r}")

    @property
    def category(self) -> str:
        return KINDS[self.kind].category

    @property
    def primitive_count(self) -> int:
        return len(self.params) if KINDS[self.kind].per_entry else 1

    def used_qubits(self) -> set:
        return set(self.wires) | {q for q, _ in self.controls}

    def with_controls(self, extra) -> "Gate":
        return replace(self, controls=self.controls + tuple(extra))

    def dagger(self) -> "Gate":
        inverse = KINDS[self.kind].inverse
        return self if inverse is None else replace(self, params=inverse(self.params))

    def to_line(self) -> str:
        head = f"{self.kind} {self.label}" if self.label else self.kind
        wires = ",".join(str(q) for q in self.wires)
        ctrl = ",".join(f"{q}={v}" for q, v in self.controls)
        params = ",".join(_fmt(x) for x in self.params)
        return f"{head} w=[{wires}] c=[{ctrl}] p=[{params}]"


@dataclass(frozen=True)
class CircuitOp:
    """An ordered gate sequence with value semantics."""

    gates: tuple
    label: str = ""

    def then(self, other: "CircuitOp", label: str | None = None) -> "CircuitOp":
        return CircuitOp(self.gates + other.gates, label or self.label)

    def __add__(self, other: "CircuitOp") -> "CircuitOp":
        return self.then(other)

    def inverse(self) -> "CircuitOp":
        return CircuitOp(
            tuple(g.dagger() for g in reversed(self.gates)),
            f"{self.label}^-1" if self.label else "",
        )

    def controlled(self, *controls) -> "CircuitOp":
        """Add (qubit, value) control pairs to every gate."""
        used = self.used_qubits()
        for q, _ in controls:
            if q in used:
                raise RegisterError(f"control qubit {q} collides with the circuit")
        return CircuitOp(
            tuple(g.with_controls(controls) for g in self.gates), self.label
        )

    def used_qubits(self) -> set:
        qs = set()
        for g in self.gates:
            qs |= g.used_qubits()
        return qs

    def apply(self, state: core.StateVector) -> core.StateVector:
        n = state.n_qubits
        amps = state.amps.copy()
        for g in self.gates:
            KINDS[g.kind].run(g, amps, n)
        return core.StateVector(n, amps)

    def gate_counts(self) -> dict:
        counts: dict[str, int] = {}
        for g in self.gates:
            counts[g.category] = counts.get(g.category, 0) + 1
        return counts

    def primitive_count(self) -> int:
        return sum(g.primitive_count for g in self.gates)

    def to_lines(self) -> list[str]:
        return [g.to_line() for g in self.gates]


# ---------------------------------------------------------------------------
# QFT.


def qft_op(start: int, width: int) -> CircuitOp:
    """Exact discrete Fourier transform over a register's value space.

    Maps |k> to (1/sqrt(T)) sum_b e^{2 pi i k b / T} |b> with T = 2**width.
    """
    if width < 1:
        raise RegisterError("qft needs a register of width >= 1")
    gates: list = []
    for j in range(width - 1, -1, -1):
        gates.append(Gate("h", (start + j,)))
        for i in range(j - 1, -1, -1):
            gates.append(
                Gate("phase", (start + j,), (math.pi / 2 ** (j - i),),
                     controls=((start + i, 1),))
            )
    for k in range(width // 2):
        gates.append(Gate("swap", (start + k, start + width - 1 - k)))
    return CircuitOp(tuple(gates), label=f"qft[{start}:{start + width}]")


def iqft_op(start: int, width: int) -> CircuitOp:
    return qft_op(start, width).inverse()


# ---------------------------------------------------------------------------
# Phase estimation.

PE_CTRL_TAG = "pe-ctrl-entry"


def phase_estimate_op(unitary: CircuitOp, regp) -> CircuitOp:
    """Textbook phase estimation as a flat circuit.

    Hadamards on the phase register, then controlled powers U^(2^j) with the
    control on register bit j (the unitary is applied 2^j times, so the
    controlled-unitary application count is exactly 2^t - 1), then the
    inverse QFT. The first record of each controlled application carries
    PE_CTRL_TAG, so counting tagged records counts the applications.
    """
    s, t = regp
    if t < 1:
        raise RegisterError("phase register must have at least one bit")
    used = unitary.used_qubits()
    if used & set(range(s, s + t)):
        raise RegisterError("phase register collides with the unitary's qubits")
    if not unitary.gates:
        raise RegisterError("cannot phase-estimate an empty circuit")
    gates: list = [Gate("h", (s + j,)) for j in range(t)]
    for j in range(t):
        cg = unitary.controlled((s + j, 1))
        entry = replace(cg.gates[0], tag=PE_CTRL_TAG)
        block = (entry,) + cg.gates[1:]
        for _ in range(1 << j):
            gates.extend(block)
    gates.extend(iqft_op(s, t).gates)
    return CircuitOp(tuple(gates), label="phase-estimate")


def phase_estimate(state: core.StateVector, unitary: CircuitOp, regp) -> core.StateVector:
    """Apply phase estimation to a state whose phase register is |0..0>."""
    s, t = regp
    mass = register_distribution_zero_mass(state, regp)
    if mass > 1e-12:
        raise RegisterError(
            f"phase register [{s}:{s + t}) carries probability {mass:.3e}, expected 0"
        )
    return phase_estimate_op(unitary, regp).apply(state)


def register_distribution_zero_mass(state: core.StateVector, reg) -> float:
    """Probability that the register is NOT all zeros."""
    dist = core.register_distribution(state, [reg]).ravel()
    return float(1.0 - dist[0])


def round_guard_table(t: int, m: int) -> np.ndarray:
    """Round a t-bit phase fraction to the nearest m-bit fraction, half up.

    The result wraps modulo 2**m: a pattern just below 1 rounds to 0, which
    is the right thing for phases living on the unit circle.
    """
    if not 0 < m <= t:
        raise RegisterError(f"need 0 < m <= t, got m={m}, t={t}")
    g = t - m
    b = np.arange(1 << t, dtype=np.int64)
    return ((b + ((1 << g) >> 1)) >> g) % (1 << m)


def round_guard_bits(state: core.StateVector, regp, reg_out) -> core.StateVector:
    """XOR the rounded m-bit estimate of the regp fraction into reg_out."""
    t = regp[1]
    m = reg_out[1]
    table = round_guard_table(t, m)
    return core.apply_basis_oracle(state, regp, reg_out, table)
