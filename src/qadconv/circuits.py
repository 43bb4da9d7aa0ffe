"""Register layouts, composable gate sequences, QFT, and phase estimation.

A CircuitOp is an immutable tuple of Gate records. Applying one runs each
record's in-place kernel, looked up by kind in KINDS, on a copy of the
amplitude buffer, or on the buffer itself for a caller that owns it
(inplace=True). Inversion, control wrapping, and primitive counting all
work structurally on the records through the same table. The QFT is one
"qft" record, an in-place FFT. fuse compiles runs of gates into "power"
records whose per-key-value dense block tables hold at most 4^FUSE_QUBITS
entries; a power record keeps its source gates, so its inverse
(conjugate-transposed blocks) and its logical count come from them. A table
whose imaginary parts are all exactly zero (a run of h, x, z, ry and swap
gates, say) is stored as float64 and applied in real arithmetic, at half
the flops of a complex table.

Phase estimation has two forms. phase_estimate_op is the textbook circuit:
Hadamards, the unitary controlled on phase bit j and repeated 2^j times,
then the inverse qft record; it is the flat reference. For an iterate whose
eigenbasis V is known, the whole cascade of controlled powers is
V diag(e^(i phi omega)) V^H: spectral_record writes the diagonal as one
"spectral" record, a phase table that carries the iterate's gates (never
applied; primitive and controlled-unitary counts come from them) and the
logical count 2^t - 1. An "eigenbasis" record holds V^H in factored form,
Householder reflections and a 2x2 mix per key value, so it needs no table
of its own; fuse compiles a small one into blocks. The qADC readouts
estimate this way: L V^H fused, the phase Hadamards fused apart, then the
spectral record and the inverse qft record, which fuse never sees.
"""

from __future__ import annotations

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
#   qft           the register                       (sign,): +1 QFT, -1 inverse
#   power         key qubits + target qubits         PowerTable
#   eigenbasis    key qubits + target qubits         Eigenbasis
#   spectral      eigen-index + phase register       SpectralTable
#
# A table's length fixes its register's width, which is how oracle and
# mux-ry records split their wires; the `keys` count of a PowerTable or an
# Eigenbasis splits a power or eigenbasis record's wires.


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
        amps, n, _reg(g.wires[:k]), _reg(g.wires[k:]), g.params, g.controls)


def _mux_ry(g, amps, n):
    core.apply_multiplexed_ry_inplace(
        amps, n, _reg(g.wires[:-1]), g.wires[-1], g.params, g.controls)


def _qft(g, amps, n):
    core.apply_qft_inplace(amps, n, _reg(g.wires), g.params[0], g.controls)


def _qft_cost(g) -> int:
    w = len(g.wires)  # textbook: w Hadamards, w(w-1)/2 controlled phases, w/2 swaps
    return w + w * (w - 1) // 2 + w // 2


def _power(g, amps, n):
    table = g.params
    core.apply_block_table_inplace(
        amps, n, g.wires[:table.keys], g.wires[table.keys:], table.blocks, g.controls
    )


def _negate(params) -> tuple:
    return tuple(-a for a in params)


def _conjugate(params) -> tuple:
    return tuple(np.conj(p) for p in params)


def _inverse_gates(gates) -> tuple:
    return tuple(g.dagger() for g in reversed(gates))


def _power_inverse(table):
    return replace(table, iterate=_inverse_gates(table.iterate),
                   blocks=table.blocks.conj().transpose(0, 2, 1))


def _power_cost(g) -> int:
    return sum(h.primitive_count for h in g.params.iterate)


def _eigenbasis(g, amps, n):
    basis = g.params
    keys, rest, b = g.wires[:basis.keys], g.wires[basis.keys:-1], g.wires[-1]
    at_zero = (*g.controls, *((q, 0) for q in rest))
    if basis.mix_first:
        core.apply_block_table_inplace(amps, n, keys, (b,), basis.mix, at_zero)
    core.apply_reflection_table_inplace(amps, n, (*keys, b), rest, basis.vectors, g.controls)
    if not basis.mix_first:
        core.apply_block_table_inplace(amps, n, keys, (b,), basis.mix, at_zero)


def _eigenbasis_inverse(basis):
    # the reflections are self-inverse; the mix is conjugate-transposed and
    # moves to the other side of them
    return replace(basis, mix=basis.mix.conj().transpose(0, 2, 1), mix_first=not basis.mix_first)


def _spectral(g, amps, n):
    core.apply_phase_table_inplace(amps, n, _reg(g.wires), g.params.phases, g.controls)


def _spectral_inverse(table):
    return replace(table, iterate=_inverse_gates(table.iterate),
                   phases=table.phases.conj())


class Kind(NamedTuple):
    run: Callable  # run(gate, amps, n): apply in place through core's kernel
    inverse: Callable | None  # params -> params of the inverse; None: self-inverse
    cost: Callable | None  # gate -> logical primitive count; None: one
    check: Callable | None = None  # gate -> None, raises on bad params; run when made


KINDS = {
    "h": Kind(_single(lambda: core.H_MATRIX), None, None),
    "x": Kind(_single(lambda: core.X_MATRIX), None, None),
    "y": Kind(_single(lambda: core.Y_MATRIX), None, None),
    "z": Kind(_single(lambda: core.Z_MATRIX), None, None),
    "ry": Kind(_single(core.ry_matrix), _negate, None),
    "rz": Kind(_single(core.rz_matrix), _negate, None),
    "phase": Kind(_single(core.phase_matrix), _negate, None),
    "swap": Kind(_swap, None, None),
    "reflect": Kind(_reflect, None, None),
    "phase-table": Kind(_phase_table, _conjugate, lambda g: len(g.params),
                        lambda g: core.check_unit_phases(g.params)),
    # an oracle is charged as one black-box arithmetic call
    "oracle": Kind(_oracle, None, None),
    "mux-ry": Kind(_mux_ry, _negate, lambda g: len(g.params)),
    "qft": Kind(_qft, _negate, _qft_cost),
    "power": Kind(_power, _power_inverse, _power_cost),
    # a change of basis that the simulation pulls out of phase estimation,
    # not a gate of the logical circuit
    "eigenbasis": Kind(_eigenbasis, _eigenbasis_inverse, lambda g: 0),
    "spectral": Kind(_spectral, _spectral_inverse, lambda g: g.params.count * _power_cost(g),
                     lambda g: core.check_unit_phases(g.params.phases)),
}


@dataclass(frozen=True, eq=False)
class PowerTable:
    """Params of a power record: `iterate` (a gate tuple) compiled into
    blocks.

    The iterate uses its first `keys` wires only as controls, so it is
    block-diagonal over their value: blocks[v] is the iterate on the other
    (target) wires where the keys hold v. blocks is float64 when every
    entry is real (fuse stores it so wherever the imaginary parts are all
    exactly zero, and the inverse keeps it so), and the block kernel then
    applies it in real arithmetic; otherwise it is complex128. Tables
    compare by identity, never element by element.
    """

    iterate: tuple
    keys: int
    blocks: np.ndarray


@dataclass(frozen=True, eq=False)
class Eigenbasis:
    """Params of an eigenbasis record: per key value v, a unitary V_v^H on
    the target wires, in factored form. The record's first `keys` wires are
    keys; its highest target b splits the targets into two halves.
    vectors[v | b << keys] is the Householder vector (squared norm 2) that
    reflects half b where the keys hold v, and mix[v] is a 2x2 unitary on b
    where the other targets are 0. The reflections come first, then the
    mix; with mix_first the mix comes first (the inverse). No table of
    2^(keys + 2 targets) entries is held, so a record of any size applies
    in a few passes over the state; fuse compiles a small one into blocks
    like any other gate.
    """

    keys: int
    vectors: np.ndarray
    mix: np.ndarray
    mix_first: bool = False


@dataclass(frozen=True, eq=False)
class SpectralTable:
    """Params of a spectral record: the phase-estimation cascade of
    `iterate`, prod_j (C_j iterate^(2^j)), written in the iterate's
    eigenbasis. That cascade is diagonal: phases[v | phi << w] =
    e^(i phi omega_v), where v is the value of the record's low w wires
    (the eigen-index), omega_v the iterate's eigenphase there and phi the
    value of the wires above (the phase register). `count` is the logical
    number of iterate applications, 2^t - 1.
    """

    iterate: tuple
    count: int
    phases: np.ndarray


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: a kind from KINDS, its wires and parameters, and (qubit,
    value) control pairs. tag marks records callers count; label names
    a table for humans. A kind's params check (a phase table's unit
    magnitude) runs once, when the record is made: not when it is applied,
    nor for the records derived from it (_derive)."""

    kind: str
    wires: tuple
    params: tuple = ()
    controls: tuple = ()
    tag: str = ""
    label: str = ""

    def __post_init__(self):
        kind = KINDS.get(self.kind)
        if kind is None:
            raise RegisterError(f"unknown gate kind {self.kind!r}")
        if kind.check is not None:
            kind.check(self)

    @property
    def primitive_count(self) -> int:
        cost = KINDS[self.kind].cost
        return 1 if cost is None else cost(self)

    def used_qubits(self) -> set:
        return set(self.wires) | {q for q, _ in self.controls}

    def with_controls(self, extra) -> "Gate":
        return self._derive(controls=self.controls + tuple(extra))

    def dagger(self) -> "Gate":
        inverse = KINDS[self.kind].inverse
        return self if inverse is None else self._derive(params=inverse(self.params))

    def _derive(self, **changes) -> "Gate":
        """This record with `changes`, its kind's check not run again: the
        params are this record's or their inverse, a unit table's conjugate."""
        gate = object.__new__(Gate)
        for name in Gate.__slots__:
            object.__setattr__(gate, name, changes.get(name, getattr(self, name)))
        return gate


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
        return CircuitOp(_inverse_gates(self.gates), f"{self.label}^-1" if self.label else "")

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

    def apply(self, state: core.StateVector, *, inplace: bool = False) -> core.StateVector:
        """Run the records in order on a copy of state's amplitudes, or,
        with inplace=True, on state.amps itself; either way the returned
        state holds the buffer that was run on."""
        n = state.n_qubits
        amps = state.amps if inplace else state.amps.copy()
        for g in self.gates:
            KINDS[g.kind].run(g, amps, n)
        return core.StateVector(n, amps)

    def primitive_count(self) -> int:
        return sum(g.primitive_count for g in self.gates)


# ---------------------------------------------------------------------------
# QFT.


def qft_op(start: int, width: int) -> CircuitOp:
    """Exact discrete Fourier transform over a register's value space, as
    one qft record.

    Maps |k> to (1/sqrt(T)) sum_b e^{2 pi i k b / T} |b> with T = 2**width.
    """
    if width < 1:
        raise RegisterError("qft needs a register of width >= 1")
    gate = Gate("qft", tuple(range(start, start + width)), (1,))
    return CircuitOp((gate,), label=f"qft[{start}:{start + width}]")


def iqft_op(start: int, width: int) -> CircuitOp:
    return qft_op(start, width).inverse()


# ---------------------------------------------------------------------------
# Fused block records.


def _roles(g) -> tuple[set, set]:
    """(wires, controls) of one gate as qubit sets. An eigenbasis record
    reads its first params.keys wires only as controls."""
    k = g.params.keys if g.kind == "eigenbasis" else 0
    return set(g.wires[k:]), set(g.wires[:k]) | {q for q, _ in g.controls}


def _key_split(gates) -> tuple[tuple, tuple]:
    """(keys, targets): the qubits the gates only ever use as controls, and
    all their other wires, each sorted."""
    wires: set = set()
    ctrls: set = set()
    for g in gates:
        gw, gc = _roles(g)
        wires |= gw
        ctrls |= gc
    return tuple(sorted(ctrls - wires)), tuple(sorted(wires))


def _materialize(gates, keys, targets) -> np.ndarray:
    """blocks[v][r, c]: amplitude of target basis state r after the gates
    act on target state c with the key qubits holding v; float64 where
    every imaginary part is exactly zero, complex128 otherwise."""
    k, w = len(keys), len(targets)
    dim, kdim = 1 << w, 1 << k
    # compact qubits: w low qubits holding the input column c, then the
    # keys, then the targets; the gates act only on the upper qubits, where
    # the single-qubit kernel is fastest
    where = {q: w + i for i, q in enumerate(keys + targets)}
    cols = np.arange(dim)[:, None]
    amps = np.zeros(dim * kdim * dim, dtype=np.complex128)
    amps[(cols * kdim + np.arange(kdim)) * dim + cols] = 1.0
    n = 2 * w + k
    for g in gates:
        local = g._derive(wires=tuple(where[q] for q in g.wires),
                          controls=tuple((where[q], v) for q, v in g.controls))
        KINDS[g.kind].run(local, amps, n)
    blocks = amps.reshape(dim, kdim, dim).transpose(1, 0, 2)
    # a table with no imaginary part at all is kept as float64, which the
    # block kernel applies in real arithmetic
    return (blocks if blocks.imag.any() else blocks.real).copy()


# Bound on a fused record's block table: keys + 2 * targets stays within
# 2 * FUSE_QUBITS, so its blocks hold at most 4^FUSE_QUBITS entries (64 KiB)
# and applying it costs about one matmul pass over the state.
FUSE_QUBITS = 6


def _table_fits(wires: set, ctrls: set) -> bool:
    return len(ctrls - wires) + 2 * len(wires) <= 2 * FUSE_QUBITS


def fuse(op: CircuitOp) -> CircuitOp:
    """Compile runs of gates into power records.

    Read left to right, a gate joins the current run while the run's block
    table stays within the FUSE_QUBITS bound (keys + 2 * targets <=
    2 * FUSE_QUBITS); otherwise the run is closed and the gate starts the
    next one. Each run becomes one power record: the run is its iterate,
    its keys are the run's control-only qubits (an eigenbasis record's key
    wires count as controls), and its blocks are the run materialized per
    key value. qft records and gates that alone exceed the bound pass
    through and close the run.
    """
    out: list = []
    run: list = []
    wires: set = set()
    ctrls: set = set()

    def flush():
        if run:
            keys, targets = _key_split(run)
            iterate = tuple(run)
            table = PowerTable(iterate, len(keys), _materialize(iterate, keys, targets))
            out.append(Gate("power", keys + targets, table, label="fused"))
        run.clear()
        wires.clear()
        ctrls.clear()

    for g in op.gates:
        gw, gc = _roles(g)
        apart = g.kind == "qft"
        if apart or not _table_fits(wires | gw, ctrls | gc):
            flush()
        if apart or not _table_fits(gw, gc):
            out.append(g)
        else:
            run.append(g)
            wires |= gw
            ctrls |= gc
    flush()
    return CircuitOp(tuple(out), op.label)


# ---------------------------------------------------------------------------
# Phase estimation.

PE_CTRL_TAG = "pe-ctrl-entry"


def phase_estimate_op(unitary: CircuitOp, regp) -> CircuitOp:
    """Textbook phase estimation: Hadamards on the phase register, then the
    unitary controlled on register bit j and repeated 2^j times, 2^t - 1
    controlled copies in all, then the inverse qft record."""
    s, t = regp
    if t < 1:
        raise RegisterError("phase register must have at least one bit")
    used = unitary.used_qubits()
    if used & set(range(s, s + t)):
        raise RegisterError("phase register collides with the unitary's qubits")
    gates: list = [Gate("h", (s + j,)) for j in range(t)]
    for j in range(t):
        gates.extend(unitary.controlled((s + j, 1)).gates * (1 << j))
    gates.extend(iqft_op(s, t).gates)
    return CircuitOp(tuple(gates), label="phase-estimate")


def spectral_record(unitary: CircuitOp, phases, regp) -> Gate:
    """Phase estimation's controlled powers of `unitary` for a state already
    in the unitary's eigenbasis, as one spectral record.

    phases[v] is the unitary's eigenphase on eigen-index v, the value of the
    register of log2(len(phases)) qubits just below the phase register regp.
    The record is the phase table e^(i phi phases[v]) over both registers,
    built in place by doubling: the rows for phi in [2^j, 2^(j+1)) are the
    rows below them times e^(i 2^j phases). It carries PE_CTRL_TAG, the
    unitary's gates and the logical count 2^t - 1 of the controlled copies
    it replaces, so primitive and controlled-unitary counts are theirs.
    """
    s, t = regp
    phases = np.asarray(phases, dtype=np.float64)
    w = phases.size.bit_length() - 1
    if t < 1:
        raise RegisterError("phase register must have at least one bit")
    if phases.size != 1 << w or w > s:
        raise RegisterError(f"{phases.size} eigenphases do not fill a register below qubit {s}")
    table = np.empty((1 << t, 1 << w), dtype=np.complex128)
    table[0] = 1.0
    for j in range(t):
        np.multiply(table[:1 << j], np.exp(1j * (1 << j) * phases), out=table[1 << j:2 << j])
    params = SpectralTable(unitary.gates, (1 << t) - 1, table.reshape(-1))
    return Gate("spectral", tuple(range(s - w, s + t)), params, tag=PE_CTRL_TAG,
                label=unitary.label)
