"""Flat references the tests compare the library with: the textbook QFT
gate by gate, and a lookup table built one packed input at a time."""

import math

import numpy as np

from qadconv.circuits import CircuitOp, Gate
from qadconv.errors import OracleDomainError


def textbook_qft_op(start, width):
    """The QFT on [start, start + width) gate by gate (Nielsen & Chuang
    section 5.1): a Hadamard and controlled phases per qubit, highest qubit
    first, then the swaps that reverse the bit order."""
    gates = []
    for j in range(width - 1, -1, -1):
        gates.append(Gate("h", (start + j,)))
        for i in range(j - 1, -1, -1):
            gates.append(Gate("phase", (start + j,), (math.pi / 2 ** (j - i),),
                              controls=((start + i, 1),)))
    for k in range(width // 2):
        gates.append(Gate("swap", (start + k, start + width - 1 - k)))
    return CircuitOp(tuple(gates), label=f"qft[{start}:{start + width}]")


def textbook_table(name, fn, in_codecs, out_codec):
    """encode(fn(decode(packed))) for every packed input (first input in the
    low bits), one input at a time in plain Python integers and floats:
    decode to two's complement over 2^m, round half up, clamp values within
    one LSB of the covered range. Raises OracleDomainError naming the first
    input whose output is not finite or lies further out."""
    out_m, table = out_codec.m, []
    for packed in range(1 << sum(c.width for c in in_codecs)):
        rem, vals = packed, []
        for c in in_codecs:
            k = rem % (1 << c.width)
            rem >>= c.width
            if c.signed and k >= 1 << c.m:
                k -= 1 << (c.m + 1)
            vals.append(k / (1 << c.m))
        v = float(fn(*vals))
        lsb = 2.0**-out_m
        if not (out_codec.vmin - lsb <= v <= out_codec.vmax + lsb):
            raise OracleDomainError(
                f"oracle {name!r} leaves the output range at input {vals}")
        k = min(max(math.floor(v * (1 << out_m) + 0.5), out_codec.code_min),
                out_codec.code_max)
        table.append(k % (1 << out_codec.width))
    return np.array(table, dtype=np.int64)
