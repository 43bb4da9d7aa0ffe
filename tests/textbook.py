"""Textbook circuits that the library replaces with compiled records, kept
here as the flat references the tests compare those records with."""

import math

from qadconv import qadc
from qadconv.circuits import CircuitOp, Gate, phase_estimate_op


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


def unfused_load(layout, prep, variant):
    """A readout's load without fused records: the address copy, then V or W."""
    return qadc.address_copy_op(layout) + qadc.readout_test(layout, prep, variant)


def flat_readout_block(prep, variant, n, m, g, out_start):
    """qadc.readout_block's stages as textbook phase estimation lays them
    out: the unfused load, then phase_estimate_op of the unfused iterate;
    the same recover stage; then the inverse of load and estimate."""
    layout = qadc.readout_layout(variant, n, m, g)
    load = unfused_load(layout, prep, variant)
    fwd = load + phase_estimate_op(qadc.readout_iterate(layout, load), layout.reg("regp"))
    recover = qadc.readout_block(prep, variant, n, m, g, out_start)[1]
    return [(0, fwd), recover, (0, fwd.inverse())]
