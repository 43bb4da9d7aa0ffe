"""Binary-fraction codecs and the classical lookup oracles used in circuits.

A codec maps real values to small integer codes (m fractional bits, optional
two's-complement sign bit); it is the one place that rounds, clamps and
wraps a code, and its encode and decode take a scalar or an array. A
FunctionOracle carries a frozen code-to-code table (table) that the
circuit-level XOR oracles consume, built through the codec: for most oracles
it is encode(fn(decode(code))) over every code at once, and fn stays on the
oracle as the double-precision scalar map; a phase-recovery oracle's table
is its recovery map encoded, with no scalar map, see _recovery_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CodecRangeError, OracleDomainError


@dataclass(frozen=True)
class FixedPointCodec:
    """Fixed-point codec with m fraction bits, round half up.

    Unsigned codes cover [0, 1 - 2^-m]; signed codes add one bit and cover
    [-1, 1 - 2^-m] in two's complement. Values up to one LSB outside the
    covered range clamp to the nearest endpoint; anything further raises.
    """

    m: int
    signed: bool = False

    def __post_init__(self):
        if self.m < 1:
            raise CodecRangeError("need at least one fraction bit")

    @property
    def width(self) -> int:
        return self.m + 1 if self.signed else self.m

    @property
    def code_min(self) -> int:
        return -(1 << self.m) if self.signed else 0

    @property
    def code_max(self) -> int:
        return (1 << self.m) - 1

    @property
    def vmin(self) -> float:
        return self.code_min / (1 << self.m)

    @property
    def vmax(self) -> float:
        return self.code_max / (1 << self.m)

    def _first_outside(self, v: np.ndarray) -> int:
        """Flat index of the first value that is not finite or lies more
        than one LSB outside [vmin, vmax], or -1 if there is none."""
        lsb = 2.0**-self.m
        bad = np.flatnonzero(~((v >= self.vmin - lsb) & (v <= self.vmax + lsb)))
        return int(bad[0]) if bad.size else -1

    def encode(self, v):
        """Value(s) -> bit pattern(s), two's complement when signed: round
        half up, then clamp into the covered range. A scalar gives an int."""
        v = np.asarray(v, dtype=np.float64)
        i = self._first_outside(v)
        if i >= 0:
            x = float(v.flat[i])
            raise CodecRangeError(
                f"{x!r} outside [{self.vmin}, {self.vmax}] by more than one LSB"
                if math.isfinite(x) else f"cannot encode {x!r}")
        k = np.clip(np.floor(v * float(1 << self.m) + 0.5), self.code_min, self.code_max)
        k = k.astype(np.int64) % (1 << self.width)
        return int(k) if k.ndim == 0 else k

    def decode(self, pattern):
        """Bit pattern(s) -> value(s). A scalar gives a float."""
        v = self.decode_array(pattern)
        return float(v) if v.ndim == 0 else v

    def decode_array(self, patterns) -> np.ndarray:
        p = np.asarray(patterns, dtype=np.int64) % (1 << self.width)
        if self.signed:
            p = np.where(p >= (1 << self.m), p - (1 << (self.m + 1)), p)
        return p / float(1 << self.m)

    def values(self) -> np.ndarray:
        """Decoded value of every pattern, in pattern order."""
        return self.decode_array(np.arange(1 << self.width))


@dataclass(frozen=True)
class FunctionOracle:
    """A named classical function with a frozen fixed-point lookup table.

    The table maps a packed input pattern (first input in the low bits) to
    an output bit pattern, and is what circuit oracles apply. fn is the
    same function in plain double precision, or None for an oracle built
    from a table.
    """

    name: str
    fn: object
    in_codecs: tuple
    out_codec: FixedPointCodec
    table: np.ndarray

    @classmethod
    def build(cls, name, fn, in_codecs, out_codec, table=None):
        in_codecs = tuple(in_codecs)
        total = sum(c.width for c in in_codecs)
        if table is None:
            # decode every packed input at once, call fn once per input as
            # the plain Python map, and encode every output at once
            packed, args = np.arange(1 << total), []
            for c in in_codecs:
                args.append(c.decode_array(packed).tolist())
                packed >>= c.width
            outs = np.array([fn(*a) for a in zip(*args)], dtype=np.float64)
            try:
                table = out_codec.encode(outs)
            except CodecRangeError as exc:
                bad = [a[out_codec._first_outside(outs)] for a in args]
                raise OracleDomainError(
                    f"oracle {name!r} leaves the output range at input {bad}: {exc}"
                ) from exc
        else:
            table = np.asarray(table, dtype=np.int64)
            if table.shape != (1 << total,):
                raise OracleDomainError(
                    f"table for {name!r} has {table.size} entries, expected {1 << total}"
                )
        return cls(name, fn, in_codecs, out_codec, table)

    @property
    def arity(self) -> int:
        return len(self.in_codecs)

    def decoded_outputs(self) -> np.ndarray:
        """Decoded output value for every packed input pattern."""
        return self.out_codec.decode_array(self.table)


# ---------------------------------------------------------------------------
# Specific oracles.


def arccos_oracle(m: int) -> FunctionOracle:
    """phi = (2/pi) arccos(d) on unsigned m-bit fractions.

    d=0 maps to phi=1, one LSB above the largest representable value, so the
    table clamps it to the top code; fn still returns 1.0.
    """
    codec = FixedPointCodec(m)

    def fn(d):
        return (2.0 / math.pi) * math.acos(min(max(d, -1.0), 1.0))

    return FunctionOracle.build("arccos", fn, (codec,), codec)


def _recovery_table(t: int, out: FixedPointCodec) -> np.ndarray:
    """Fold each t-bit phase pattern through b <-> 2^t - b, then evaluate the
    recovery map at the cell midpoint and encode it with out. The fold makes
    the table exactly symmetric between the two phase-estimation branches."""
    b = np.arange(1 << t)
    theta = (np.minimum(b, (1 << t) - b) + 0.5) / (1 << t)
    val = 2.0 * np.sin(np.pi * theta) ** 2 - 1.0
    return out.encode(val if out.signed else np.sqrt(np.clip(val, 0.0, None)))


def abs_recovery_oracle(m: int, guard_bits: int = 0) -> FunctionOracle:
    """r = sqrt(2 sin^2(pi theta) - 1) from an (m+guard_bits)-bit phase.

    The table is built midpoint-folded (see _recovery_table), which keeps
    it total and branch-symmetric: a negative radicand reads as zero.
    """
    t, out = m + guard_bits, FixedPointCodec(m)
    return FunctionOracle.build("abs-recovery", None, (FixedPointCodec(t),), out,
                                table=_recovery_table(t, out))


def real_recovery_oracle(m: int, guard_bits: int = 0) -> FunctionOracle:
    """x = 2 sin^2(pi theta) - 1 from an (m+guard_bits)-bit phase, signed out."""
    t, out = m + guard_bits, FixedPointCodec(m, signed=True)
    return FunctionOracle.build("real-recovery", None, (FixedPointCodec(t),), out,
                                table=_recovery_table(t, out))


ACTIVATIONS = {
    "identity": (lambda x: x, 1),
    "square": (lambda x: x * x, 1),
    "tanh": (math.tanh, 1),
    "relu-capped": (lambda x: min(max(x, 0.0), 1.0), 1),
    "product": (lambda x, y: x * y, 2),
}


def activation_oracle(
    f, m: int, in_signed: bool = False, out_signed: bool = False, arity: int | None = None
) -> FunctionOracle:
    """Look up (or wrap) an activation and freeze it as an oracle.

    f is a registry name or a callable. The input codec(s) are signed when
    in_signed is set, which is how recovered real parts are fed back in.
    """
    if callable(f):
        name = getattr(f, "__name__", "user")
        fn = f
        if arity is None:
            arity = 1
    else:
        if f not in ACTIVATIONS:
            raise OracleDomainError(
                f"unknown activation {f!r}; known: {sorted(ACTIVATIONS)}"
            )
        fn, reg_arity = ACTIVATIONS[f]
        name = f
        if arity is None:
            arity = reg_arity
    in_codec = FixedPointCodec(m, signed=in_signed)
    out_codec = FixedPointCodec(m, signed=out_signed)
    return FunctionOracle.build(name, fn, (in_codec,) * arity, out_codec)
