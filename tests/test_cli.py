"""Config validation, runners, JSON/CSV emission, exit codes, determinism."""

import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from qadconv import cli, core, qadc
from qadconv.errors import ConfigError, ResourceLimitError
from qadconv.fixedpoint import FunctionOracle


def write_csv(tmp_path, name, values):
    p = tmp_path / name
    p.write_text("".join(f"{v}\n" for v in values))
    return str(p)


def run_main(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_config_validation_errors():
    with pytest.raises(ConfigError) as e:
        cli.ExperimentConfig(kind="qdac", data="x.csv").validate()
    assert e.value.field == "m"
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(kind="prep", data="x.csv", random=4).validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(kind="prep", random=4).validate()  # no seed
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(kind="nonlinear", data="x.csv", m=3,
                             mode="sample").validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(kind="spectrum").validate()
    with pytest.raises(ConfigError):
        cli.ExperimentConfig(kind="frobnicate").validate()
    # a qadc sweep does not need a single m
    cli.ExperimentConfig(kind="qadc-abs", data="x.csv", sweep="3,4").validate()


def test_prep_runner_exact_loader(tmp_path):
    path = write_csv(tmp_path, "d.csv", ["0.6", "0.8"])
    record = cli.run(cli.ExperimentConfig(kind="prep", data=path))
    m = record.metrics
    assert m["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert m["n_qubits"] == 1
    assert m["input_norm"] == pytest.approx(1.0, abs=1e-12)


def test_qdac_fixture_record(tmp_path, capsys):
    path = write_csv(tmp_path, "d.csv", ["0.6", "0.8"])
    code, record = run_main(capsys, ["qdac", "--data", path, "--m", "8"])
    assert code == 0
    m = record["metrics"]
    assert m["predicted_probability"] == pytest.approx(0.50156402587890625, abs=1e-15)
    assert m["empirical_probability"] == pytest.approx(m["predicted_probability"],
                                                       abs=1e-10)
    assert m["fidelity"] >= 1.0 - 1e-6
    assert record["schema"] == "qadconv/v1"
    assert record["config"]["m"] == 8


def test_qadc_record_shape(tmp_path, capsys):
    path = write_csv(tmp_path, "d.csv", ["0.1", "0.5", "0.7", "0.5"])
    code, record = run_main(
        capsys,
        ["qadc", "--data", path, "--variant", "abs", "--m", "3", "--g", "2"],
    )
    assert code == 0
    m = record["metrics"]
    assert len(m["estimates"]) == 4
    assert m["controlled_ua_count"] == 4 * (2**5 - 1)
    assert m["true_values"] == pytest.approx([0.1, 0.5, 0.7, 0.5], abs=1e-12)
    assert 0.0 <= m["clean_probability"] <= 1.0


def test_qadc_sweep_csv_and_thread_determinism(tmp_path, capsys, monkeypatch):
    path = write_csv(tmp_path, "d.csv", ["0.6", "0.8"])
    csv_path = tmp_path / "sweep.csv"

    def sweep_once(threads):
        monkeypatch.setenv("QADCONV_THREADS", threads)
        code, record = run_main(
            capsys,
            ["qadc", "--data", path, "--variant", "real", "--sweep", "4,3",
             "--g", "2", "--csv", str(csv_path)],
        )
        assert code == 0
        return json.dumps(record["metrics"], sort_keys=True), csv_path.read_text()

    m1, c1 = sweep_once("1")
    m3, c3 = sweep_once("3")
    assert m1 == m3
    assert c1 == c3
    lines = c1.strip().splitlines()
    assert lines[0] == ("m,fidelity_vs_ideal,readout_accuracy,"
                        "clean_probability,controlled_ua_count")
    ms = [int(row.split(",")[0]) for row in lines[1:]]
    assert ms == [3, 4]
    rows = json.loads(m1)["rows"]
    assert [r["m"] for r in rows] == [3, 4]
    assert float(lines[1].split(",")[1]) == rows[0]["fidelity_vs_ideal"]


def test_nonlinear_record_and_csv(tmp_path, capsys):
    path = write_csv(tmp_path, "d.csv", ["0.6", "0.8"])
    csv_path = tmp_path / "amps.csv"
    code, record = run_main(
        capsys,
        ["nonlinear", "--data", path, "--f", "square", "--m", "3", "--g", "2",
         "--csv", str(csv_path)],
    )
    assert code == 0
    m = record["metrics"]
    assert m["success_probability"] == pytest.approx(m["predicted_probability"],
                                                     abs=1e-10)
    assert m["leakage"] < 0.1
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "index,amplitude,classical_target"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == m["amplitudes"][0]


def test_perceptron_record_with_training(capsys):
    code, record = run_main(
        capsys,
        ["perceptron", "--random", "4", "--seed", "7", "--m", "3", "--g", "2",
         "--shots", "512", "--train-budget", "3"],
    )
    assert code == 0
    m = record["metrics"]
    assert len(m["readouts"]) == 4
    for r in m["readouts"]:
        assert abs(r["estimate"] - r["exact"]) <= 4 * max(r["standard_error"], 1e-3)
    t = m["training"]
    assert t["evaluations"] == 3
    assert t["final_loss"] <= t["initial_loss"]


def test_spectrum_single_point(capsys):
    code, record = run_main(capsys, ["spectrum", "--r", "0"])
    assert code == 0
    m = record["metrics"]
    assert m["theta"] == pytest.approx(0.25, abs=1e-12)
    assert m["lambda_plus"][1] == pytest.approx(1.0, abs=1e-12)
    assert not m["degenerate"]


def test_spectrum_sweep_golden_csv(tmp_path, capsys):
    csv_path = tmp_path / "sp.csv"
    code, record = run_main(
        capsys, ["spectrum", "--sweep", "0:1:0.5", "--csv", str(csv_path)]
    )
    assert code == 0
    assert record["metrics"]["points"] == 3
    got = csv_path.read_bytes().decode()
    want = (
        "value,theta,lambda_plus_re,lambda_plus_im,lambda_minus_re,lambda_minus_im\r\n"
        "0.0,0.25000000000000006,-3.8285686989269494e-16,1.0,"
        "-3.8285686989269494e-16,-1.0\r\n"
        "0.5,0.29021531162758313,-0.2499999999999999,0.9682458365518543,"
        "-0.2499999999999999,-0.9682458365518543\r\n"
        "1.0,0.5,-1.0,1.2246467991473532e-16,-1.0,-1.2246467991473532e-16\r\n"
    )
    assert got == want


def test_default_sweep_injected(capsys):
    code, record = run_main(capsys, ["spectrum"])
    assert code == 0
    assert record["metrics"]["points"] == 101


def test_verify_all_green(capsys):
    code, record = run_main(capsys, ["verify"])
    assert code == 0
    m = record["metrics"]
    assert m["all_pass"]
    assert len(m["rows"]) == len(cli.ORACLE_CHECKS)
    for row in m["rows"]:
        assert row["max_deviation"] <= row["tolerance"]


def test_verify_scopes(capsys):
    code, record = run_main(capsys, ["verify", "--scope", "none"])
    assert code == 0
    assert record["metrics"]["rows"] == []
    assert record["metrics"]["all_pass"]

    code, record = run_main(capsys, ["verify", "--scope", "spectrum"])
    assert code == 0
    assert [r["name"] for r in record["metrics"]["rows"]] == ["spectrum"]

    code, _ = run_main(capsys, ["verify", "--scope", "nonsense"])
    assert code == 2


def test_verify_failure_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "ORACLE_CHECKS", (("always-bad", 1e-12, lambda: 1.0),)
    )
    code, record = run_main(capsys, ["verify"])
    assert code == 4
    assert record["metrics"]["rows"][0]["pass"] is False


def test_verify_fused_blocks_catches_a_broken_block_kernel(capsys, monkeypatch):
    code, record = run_main(capsys, ["verify", "--scope", "fused-blocks"])
    assert code == 0
    assert record["metrics"]["rows"][0]["max_deviation"] <= 1e-12

    good = core.apply_block_table_inplace

    def transposed(amps, n, keys, targets, blocks, controls=()):
        good(amps, n, keys, targets, blocks.transpose(0, 2, 1), controls)

    monkeypatch.setattr(core, "apply_block_table_inplace", transposed)
    code, record = run_main(capsys, ["verify", "--scope", "fused-blocks"])
    assert code == 4
    assert record["metrics"]["rows"][0]["pass"] is False


@pytest.mark.parametrize("oracle", ["abs_recovery_oracle", "real_recovery_oracle"])
def test_verify_amplitude_law_catches_a_broken_recovery_oracle(capsys, monkeypatch, oracle):
    code, record = run_main(capsys, ["verify", "--scope", "amplitude-law"])
    assert code == 0
    assert record["metrics"]["rows"][0]["max_deviation"] <= 1e-12

    good = getattr(qadc, oracle)

    def off_by_one_code(m, guard_bits=0):
        out = good(m, guard_bits)
        return replace(out, table=(out.table + 1) % (1 << out.out_codec.width))

    monkeypatch.setattr(qadc, oracle, off_by_one_code)
    code, record = run_main(capsys, ["verify", "--scope", "amplitude-law"])
    assert code == 4
    assert record["metrics"]["rows"][0]["pass"] is False


def test_verify_readout_eigenbasis_catches_a_broken_reflection_kernel(capsys, monkeypatch):
    code, record = run_main(capsys, ["verify", "--scope", "readout-eigenbasis"])
    assert code == 0
    assert record["metrics"]["rows"][0]["max_deviation"] <= 1e-12

    good = core.apply_reflection_table_inplace

    def conjugated(amps, n, keys, targets, vectors, controls=()):
        good(amps, n, keys, targets, vectors.conj(), controls)

    monkeypatch.setattr(core, "apply_reflection_table_inplace", conjugated)
    code, record = run_main(capsys, ["verify", "--scope", "readout-eigenbasis"])
    assert code == 4
    assert record["metrics"]["rows"][0]["pass"] is False


@pytest.mark.parametrize("sweep", ["0:1:1e-300", "0:1e308:1e-300", "0:1:1e-5"])
def test_oversized_sweep_exits_3_before_building_its_points(capsys, monkeypatch, sweep):
    def refuse(*args, **kwargs):
        raise AssertionError("built sweep points past the cap")

    # the point list comes from range(); the rows from the spectrum oracle
    monkeypatch.setattr(cli, "range", refuse, raising=False)
    monkeypatch.setattr(cli, "spectrum_oracle", refuse)
    assert cli.main(["spectrum", "--sweep", sweep]) == 3
    assert f"cap of {cli.SWEEP_POINT_CAP}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--sweep", "0:1:0.5"],
    ["spectrum", "--r", "0.5"],
], ids=["sweep", "single"])
@pytest.mark.parametrize("threads", ["abc", "2.5", "0"])
def test_bad_thread_count_exits_2_before_any_work(capsys, monkeypatch, argv, threads):
    monkeypatch.setenv("QADCONV_THREADS", threads)
    monkeypatch.setattr(cli, "_RUNNERS", {})  # any work past the boundary raises
    assert cli.main(argv) == 2
    assert "QADCONV_THREADS" in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys):
    path = write_csv(tmp_path, "d.csv", ["0.1", "0.5", "0.7", "0.5"])
    assert cli.main(["qdac", "--data", path]) == 2  # missing m
    capsys.readouterr()
    code = cli.main(["qadc", "--data", path, "--m", "12", "--g", "12",
                     "--cap", "20"])
    assert code == 3
    capsys.readouterr()


def test_out_file_matches_stdout(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, record = run_main(
        capsys, ["spectrum", "--r", "0.5", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text()) == record


def test_metric_bytes_identical_across_runs(tmp_path):
    path = write_csv(tmp_path, "d.csv", ["0.6", "0.8"])
    cfg = cli.ExperimentConfig(kind="nonlinear", data=path, m=3, g=2,
                               f="square", mode="sample", seed=12, shots=256)
    a = cli.run(cfg).metrics_json()
    b = cli.run(cfg).metrics_json()
    assert a.encode() == b.encode()


def test_f64_data_format(tmp_path):
    raw = tmp_path / "d.f64"
    np.array([0.6, 0.8]).tofile(raw)
    record = cli.run(cli.ExperimentConfig(kind="prep", data=str(raw), fmt="f64"))
    assert record.metrics["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "qadconv", "spectrum", "--r", "0.25"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["kind"] == "spectrum"


def test_non_finite_data_exits_2(tmp_path, capsys):
    path = write_csv(tmp_path, "d.csv", ["nan", "0.5", "0.5", "0.5"])
    assert cli.main(["prep", "--data", path]) == 2
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qadc", "--variant", "abs"],
    ["qadc", "--variant", "real"],
    ["nonlinear"],
    ["perceptron"],
    ["qdac"],
    ["qdac", "--signed"],
])
def test_huge_m_hits_the_cap_before_building_tables(capsys, argv):
    # m = 2000 makes sizes past the float range: the cap still exits 3
    for m in ("61", "2000"):
        code = cli.main(argv + ["--random", "4", "--seed", "1", "--m", m])
        assert code == 3
        assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["prep", "--random", str(1 << 40)],
    ["qadc", "--m", "2", "--random", str(1 << 40)],
    ["qadc", "--m", "2", "--random", "9", "--cap", "3"],
])
def test_random_past_the_cap_exits_3_before_drawing(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("drew values past the cap")

    monkeypatch.setattr(cli, "_load_values", refuse)
    assert cli.main(argv + ["--seed", "1"]) == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_random_fills_its_address_qubits_up_to_the_cap():
    # 2^n values need n address qubits, one more value needs n + 1
    cli.ExperimentConfig(kind="prep", random=1 << 24, seed=1).validate()
    cli.ExperimentConfig(kind="prep", random=8, seed=1, cap=3).validate()
    with pytest.raises(ResourceLimitError, match="25 qubits"):
        cli.ExperimentConfig(kind="prep", random=(1 << 24) + 1, seed=1).validate()


def test_qdac_refuses_a_two_input_activation_before_building_it(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built an activation table")

    monkeypatch.setattr(FunctionOracle, "build", refuse)
    code = cli.main(["qdac", "--random", "4", "--seed", "1", "--m", "10", "--f", "product"])
    assert code == 2
    assert "1-input oracle" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qdac", "--random", "2", "--seed", "1", "--m", "3", "--mode", "sample"],
    ["perceptron", "--random", "4", "--seed", "1", "--m", "2", "--g", "1"],
])
def test_shots_past_the_binomial_range_exit_2(capsys, argv):
    # Generator.binomial takes at most 2^63 - 1 trials
    assert cli.main(argv + ["--shots", "100000000000000000000000"]) == 2
    assert "shots" in capsys.readouterr().err


def test_huge_cap_prints_its_estimate(capsys):
    code = cli.main(["verify", "--scope", "none", "--cap", "2000"])
    assert code == 0
    assert "qubit cap 2000: a full state holds 2^1984 MiB" in capsys.readouterr().err
    assert cli.main(["qadc", "--random", "4", "--seed", "1", "--m", "2000",
                     "--cap", "2000"]) == 3
    assert "exceeds the cap of 2000" in capsys.readouterr().err


def test_huge_layer_count_hits_the_record_cap_before_building(capsys, monkeypatch):
    def built(*args, **kwargs):
        raise AssertionError("built past the boundary")

    monkeypatch.setattr(cli, "AnsatzCircuit", built)
    monkeypatch.setattr(cli, "perceptron_run", built)
    code = cli.main(["perceptron", "--random", "4", "--seed", "1", "--m", "2",
                     "--layers", "300000"])
    assert code == 3
    assert "exceeds the cap" in capsys.readouterr().err


def test_negative_layer_count_exits_2(capsys):
    code = cli.main(["perceptron", "--random", "4", "--seed", "1", "--m", "2",
                     "--layers", "-1"])
    assert code == 2
    assert "layers" in capsys.readouterr().err


_TRAIN = ["perceptron", "--random", "4", "--seed", "1", "--m", "2", "--g", "1",
          "--train-budget", "2"]


@pytest.mark.parametrize("argv,field", [
    pytest.param(_TRAIN + ["--perturb", "-1"], "perturb", id="perturb-negative"),
    pytest.param(_TRAIN + ["--perturb", "nan"], "perturb", id="perturb-nan"),
    pytest.param(["spectrum", "--sweep", "0:nan:0.1"], "sweep", id="sweep-nan-stop"),
    pytest.param(["spectrum", "--sweep", "0:1:inf"], "sweep", id="sweep-inf-step"),
    pytest.param(["spectrum", "--sweep", "a:1:0.1"], "sweep", id="sweep-word"),
    pytest.param(["qadc", "--random", "4", "--seed", "1", "--sweep", ",x"], "sweep",
                 id="sweep-token"),
    pytest.param(["prep", "--random", "-2", "--seed", "1"], "random", id="random-negative"),
])
def test_bad_numbers_exit_2_naming_the_option(capsys, argv, field):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")
    assert "Traceback" not in err


def test_qdac_state_is_address_value_and_ancilla(capsys):
    # 2 address + 8 value qubits + ancilla = 11: the cap fits the whole state
    assert cli.main(["qdac", "--random", "4", "--seed", "1", "--m", "8",
                     "--cap", "11"]) == 0
    capsys.readouterr()
    assert cli.main(["qdac", "--random", "4", "--seed", "1", "--m", "8",
                     "--cap", "10"]) == 3
    assert "exceeds the cap of 10" in capsys.readouterr().err
