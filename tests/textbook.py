"""The textbook QFT, gate by gate: the flat reference the tests compare the
library's qft record with."""

import math

from qadconv.circuits import CircuitOp, Gate


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

