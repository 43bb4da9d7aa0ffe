"""The benchmark's workloads: seeded inputs, the timed op, and its reference check.

Every workload is a single-caller closed loop: op i+1 starts when op i has
returned and been checked. Op i's input is drawn from
``numpy.random.default_rng([seed, stream, i])``, so the same seed gives the
same inputs, and each op sees fresh data (a cache keyed on input data gets
no free hits). The warm-up op uses its own stream, at the cycle position with the largest
state, so that the allocator has seen every state size before timing starts.

``run`` is the timed region and calls only public qadconv functions, looked
up on the package at call time so that trace wrappers are seen. ``check``
runs outside the timed region and uses only the closed forms in
``qadconv.reference`` plus numpy, never the simulator.
"""

from __future__ import annotations

import math

import numpy as np

OPS_STREAM = 0
WARMUP_STREAM = 1

# Simulated values must match their closed forms this closely.
TOL = 1e-9
# Output fidelity floor for the digital-to-analog conversion.
FIDELITY_FLOOR = 1.0 - 1e-6


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _decode(code: int, m: int, signed: bool) -> float:
    """Fixed-point decode, written out here so the check does not use the codec."""
    if signed and code >= 1 << m:
        code -= 1 << (m + 1)
    return code / (1 << m)


def _mib(qubits: int) -> float:
    return 16 * 2**qubits / 2**20


class QadcReadout:
    name = "qadc-readout"
    why = (
        "Each op converts a fresh seeded complex 4-value vector (n=2, m=4, g=3), with "
        "the variant cycling abs_qadc -> real_qadc -> imag_qadc. The states are 18 "
        "qubits for abs (4 MiB) and 17 for real/imag (2 MiB), at or above a 2 MiB L2. "
        "Phase estimation with 2^7-1 controlled iterates takes >=90% of op time, so "
        "this is where compiled phase estimation and the single, swap and phase-table "
        "kernels show."
    )
    variants = ("abs", "real", "imag")
    cycle = 3
    warmup_index = 0  # abs: the largest state of the cycle
    n = 2

    def __init__(self, m: int = 4, g: int = 3):
        self.m, self.g = m, g

    def make_input(self, seed: int, stream: int, index: int) -> dict:
        rng = op_rng(seed, stream, index)
        size = 1 << self.n
        vec = rng.normal(size=size) + 1j * rng.normal(size=size)
        return {
            "index": index,
            "label": self.variants[index % 3],
            "vec": vec / np.linalg.norm(vec),
        }

    def run(self, q, inp):
        tree = q.build_tree(inp["vec"])
        readout = getattr(q, f"{inp['label']}_qadc")
        return readout(tree, self.n, self.m, self.g)

    def _true_values(self, inp) -> np.ndarray:
        c = inp["vec"]
        return {"abs": np.abs(c), "real": c.real, "imag": c.imag}[inp["label"]]

    def check(self, q, inp, res) -> list[str]:
        ref = q.reference
        m, t = self.m, self.m + self.g
        signed = inp["label"] != "abs"
        theta_of = ref.theta_from_part if signed else ref.theta_from_abs
        problems = []
        want_cu = 4 * (2**t - 1)
        if res.controlled_ua_count != want_cu:
            problems.append(f"controlled_ua_count {res.controlled_ua_count} != {want_cu}")
        dist = np.asarray(res.per_address_code_distribution)
        if dist.shape[0] != 1 << self.n:
            return problems + [f"code distribution has {dist.shape[0]} rows"]
        for k, x in enumerate(self._true_values(inp)):
            theta = theta_of(float(x))
            got: dict[float, float] = {}
            for code, p in enumerate(dist[k]):
                v = _decode(code, m, signed)
                got[v] = got.get(v, 0.0) + float(p)
            want = ref.code_distribution(theta, t, m, signed)
            dev = max(abs(got.get(v, 0.0) - want.get(v, 0.0)) for v in set(got) | set(want))
            if dev > TOL:
                problems.append(f"address {k}: code distribution off by {dev:.3e}")
            got_ps = float(res.per_address_phase_success[k])
            ps = ref.phase_success_mass(theta, t, m)
            if abs(got_ps - ps) > TOL:
                problems.append(f"address {k}: phase success {got_ps!r} != {ps!r}")
        return problems

    def sim_values(self, inp, res) -> dict:
        return {
            "estimates": [float(x) for x in res.per_address_estimates],
            "phase_success": [float(x) for x in res.per_address_phase_success],
            "readout_accuracy": float(res.readout_accuracy),
            "fidelity_vs_ideal": float(res.fidelity_vs_ideal),
            "clean_probability": float(res.clean_probability),
        }

    def sim_counts(self, inp, res) -> dict:
        return {"controlled_ua_count": int(res.controlled_ua_count)}

    def layer_values(self, inp, res) -> dict:
        return {"qadc.phase_success.mean": float(np.mean(res.per_address_phase_success))}

    def state_qubits(self) -> dict:
        n, m, t = self.n, self.m, self.m + self.g
        # abs: ad, data, mirror, b, phase register, then an m-bit value register;
        # real/imag: ad, data, b, phase register, then a signed (m+1)-bit register.
        return {"abs": 3 * n + 1 + t + m, "real": 2 * n + 1 + t + m + 1,
                "imag": 2 * n + 1 + t + m + 1}


def amplify_rounds(ref, p: float) -> int:
    """Optimal amplitude-amplification rounds from initial success probability p.

    This is ``reference.grover_optimal_rounds`` except at an exact tie such as
    p = 1/4, where pi / (4 asin sqrt p) - 1/2 is a whole number in exact
    arithmetic but lands just below it in floating point, and the reference
    floors it one round short.
    """
    x = math.pi / (4.0 * math.asin(math.sqrt(p))) - 0.5
    nearest = round(x)
    return nearest if abs(x - nearest) < 1e-9 else ref.grover_optimal_rounds(p)


_QDAC_FUNCTIONS = {
    "identity": lambda x: x,
    "square": lambda x: x * x,
    "tanh": math.tanh,
}


class QdacConvert:
    name = "qdac-convert"
    why = (
        "Each op runs one qdac_run on a fresh seeded vector of 2, 4 or 8 values at "
        "m=8. The function cycles identity -> square -> tanh and the mode alternates "
        "postselect/amplify. States are 18-20 qubits and there is no phase estimation. "
        "Cost sits in the XOR basis-oracle gather and in the 256-key multiplexed Ry, "
        "plus the repeated forward/inverse passes of amplitude_amplify. Compiled phase "
        "estimation should move nothing here, and mux-Ry or oracle kernels should move "
        "the most. Amplify reuses one circuit many times and postselect uses it once, "
        "so a circuit cache shows on one mode and not the other."
    )
    functions = ("identity", "square", "tanh")
    modes = ("postselect", "amplify")
    sizes = (2, 4, 8)
    cycle = 18
    warmup_index = 13  # square/amplify on 8 values: the largest state and most passes

    # At m=8, values drawn from [0.42, 0.47] need exactly 1 amplify round under
    # identity and tanh and 3 under square, whatever the seed, so an op's cost
    # depends on its place in the cycle and not on its data.
    lo, hi = 0.42, 0.47

    def __init__(self, m: int = 8):
        self.m = m

    def make_input(self, seed: int, stream: int, index: int) -> dict:
        rng = op_rng(seed, stream, index)
        f = self.functions[index % 3]
        mode = self.modes[index % 2]
        size = self.sizes[(index // 6) % 3]
        return {
            "index": index,
            "label": f"{f}/{mode}/{size}",
            "f": f,
            "mode": mode,
            "data": rng.uniform(self.lo, self.hi, size=size),
        }

    def run(self, q, inp):
        oracle = q.activation_oracle(inp["f"], self.m)
        state = q.make_digital_state(inp["data"], self.m)
        return q.qdac_run(state, oracle, self.m, mode=inp["mode"])

    def expected(self, q, inp) -> np.ndarray:
        """f~(d~): the quantized function of the quantized data."""
        ref = q.reference
        fn = _QDAC_FUNCTIONS[inp["f"]]
        d = ref.quantize_unsigned(inp["data"], self.m)
        return ref.quantize_unsigned([fn(float(x)) for x in d], self.m)

    def check(self, q, inp, out) -> list[str]:
        ref = q.reference
        vals = self.expected(q, inp)
        p = float(np.mean(vals**2))
        problems = []
        if inp["mode"] == "postselect":
            want = p
        else:
            # The round count comes from the closed form, not from the output,
            # so an op that amplifies less than it should fails here.
            rounds = amplify_rounds(ref, p)
            if out.attempts != 2 * rounds + 1:
                problems.append(f"amplify reports {out.attempts} attempts, "
                                f"expected {2 * rounds + 1}")
            want = ref.grover_probability(p, rounds)
        if abs(out.empirical_probability - want) > TOL:
            problems.append(f"success {out.empirical_probability!r} != {want!r}")
        amps = np.asarray(out.output.amps)
        if amps.size != vals.size:
            return problems + [f"output has {amps.size} amplitudes, expected {vals.size}"]
        fid = float(abs(np.vdot(vals / np.linalg.norm(vals), amps)))
        if fid < FIDELITY_FLOOR:
            problems.append(f"output fidelity {fid!r} below {FIDELITY_FLOOR}")
        return problems

    def sim_values(self, inp, out) -> dict:
        amps = np.asarray(out.output.amps)
        return {
            "empirical_probability": float(out.empirical_probability),
            "predicted_probability": float(out.predicted_probability),
            "residual_mass": float(out.residual_mass),
            "output_re": [float(x) for x in amps.real],
            "output_im": [float(x) for x in amps.imag],
        }

    def sim_counts(self, inp, out) -> dict:
        return {"attempts": int(out.attempts)}

    def layer_values(self, inp, out) -> dict:
        return {"qdac.attempts_per_success": out.attempts / out.empirical_probability}

    def state_qubits(self) -> dict:
        # address, m-bit value, m-bit phi register, ancilla (outputs are unsigned)
        return {f"{s}-values": s.bit_length() - 1 + 2 * self.m + 1 for s in self.sizes}


def _ry(a: float) -> np.ndarray:
    c, s = math.cos(a / 2), math.sin(a / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def _rz(a: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])


def ansatz_matrix(theta: np.ndarray) -> np.ndarray:
    """Dense matrix of the hardware-style ansatz, built from 2x2 blocks.

    Per layer: Ry then Rz on every qubit, then a ring of controlled-Z
    (qubit 0 is the least significant bit of the index). A layer whose
    angles are all zero is skipped, as in the library's convention.
    """
    layers, n, _ = theta.shape
    dim = 1 << n
    idx = np.arange(dim)
    ring = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if n > 2 else [])
    cz = np.ones(dim)
    for a, b in ring:
        cz[((idx >> a) & 1) & ((idx >> b) & 1) == 1] *= -1.0
    total = np.eye(dim, dtype=np.complex128)
    for layer in theta:
        if not layer.any():
            continue
        ry = np.ones((1, 1), dtype=np.complex128)
        rz = np.ones((1, 1), dtype=np.complex128)
        for q in range(n - 1, -1, -1):
            ry = np.kron(ry, _ry(layer[q, 0]))
            rz = np.kron(rz, _rz(layer[q, 1]))
        total = (cz[:, None] * (rz @ ry)) @ total
    return total


class PerceptronTrain:
    name = "perceptron-train"
    why = (
        "Each op is one train_demo-style loss evaluation: perceptron_run (n=2, m=3, "
        "g=2, tanh) with fresh seeded ansatz angles, then one swap_test_readout per "
        "basis index. The state is 15 qubits (512 KiB, fits in L2), and an op applies "
        "about 4.7k small gates. Per-gate Python dispatch therefore dominates over "
        "bandwidth, through the same phase-estimation path as qadc-readout. A kernel "
        "change that adds per-call set-up to save bytes costs time here."
    )
    cycle = 1
    warmup_index = 0
    n, layers, shots = 2, 2, 2048

    def __init__(self, m: int = 3, g: int = 2):
        self.m, self.g = m, g

    def make_input(self, seed: int, stream: int, index: int) -> dict:
        rng = op_rng(seed, stream, index)
        x = rng.normal(size=1 << self.n)
        return {
            "index": index,
            "label": "tanh",
            "x": x / np.linalg.norm(x),
            "theta": rng.uniform(-math.pi / 2, math.pi / 2, size=(self.layers, self.n, 2)),
            "readout_rng": np.random.default_rng(rng.integers(2**63)),
        }

    def run(self, q, inp):
        tree = q.build_tree(inp["x"])
        ansatz = q.AnsatzCircuit(self.n, self.layers, inp["theta"])
        out = q.perceptron_run(tree, ansatz, "tanh", self.m, self.g)
        readouts = [
            q.swap_test_readout(out.output, k, self.shots, inp["readout_rng"])
            for k in range(1 << self.n)
        ]
        return out, readouts

    def prediction(self, q, inp) -> dict:
        rotated = ansatz_matrix(inp["theta"]) @ inp["x"]
        return q.reference.pipeline_prediction(rotated.real, math.tanh, self.m, self.g)

    def check(self, q, inp, result) -> list[str]:
        out, readouts = result
        pred = self.prediction(q, inp)
        problems = []
        if abs(out.success_probability - pred["success_probability"]) > TOL:
            problems.append(
                f"success {out.success_probability!r} != {pred['success_probability']!r}"
            )
        if abs(out.leakage - pred["leakage"]) > TOL:
            problems.append(f"leakage {out.leakage!r} != {pred['leakage']!r}")
        if len(readouts) != 1 << self.n:
            return problems + [f"{len(readouts)} swap-test readouts"]
        for k, r in enumerate(readouts):
            want = (1.0 + float(pred["output"][k]) ** 2) / 2.0
            if abs(r.p_zero - want) > TOL:
                problems.append(f"swap test {k}: p_zero {r.p_zero!r} != {want!r}")
        return problems

    def sim_values(self, inp, result) -> dict:
        out, readouts = result
        return {
            "success_probability": float(out.success_probability),
            "predicted_probability": float(out.predicted_probability),
            "leakage": float(out.leakage),
            "fidelity": float(out.fidelity),
            "amplitudes": [float(x) for x in np.asarray(out.amplitudes).real],
            "p_zero": [float(r.p_zero) for r in readouts],
            "estimates": [float(r.estimate) for r in readouts],
        }

    def sim_counts(self, inp, result) -> dict:
        out, readouts = result
        return {"attempts": int(out.attempts), "readouts": len(readouts)}

    def layer_values(self, inp, result) -> dict:
        out, _ = result
        return {
            "nonlinear.leakage.mean": float(out.leakage),
            "nonlinear.attempts_per_success": out.attempts / out.success_probability,
        }

    def state_qubits(self) -> dict:
        t, n = self.m + self.g, self.n
        # ad, data, b, phase register, signed value register, ancilla
        return {"pipeline": 2 * n + 1 + t + self.m + 1 + 1, "swap-test": 2 * n + 1}


WORKLOADS = {w.name: w for w in (QadcReadout(), QdacConvert(), PerceptronTrain())}


def sizing(workload) -> dict:
    """State sizes of a workload, in qubits and MiB of complex128 amplitudes."""
    return {
        label: {"qubits": qubits, "mib": _mib(qubits)}
        for label, qubits in workload.state_qubits().items()
    }
