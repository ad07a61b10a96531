"""Command-line behavior: outputs, determinism, and exit codes."""

import json
import math
import os
import stat
import subprocess
import sys

import pytest

from modetangle.cli import main
from modetangle.runconfig import parse_run_config

TWO_ROOT_TWO = 2.8284271247461903


def read_scan(path):
    """Split a scan CSV into (metadata dict, header list, float rows)."""
    metadata = {}
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            metadata[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(cell) for cell in line.split(",")])
    return metadata, header, rows


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestScanCommands:
    def test_chsh_values(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["chsh", "--out", str(out), "--range-min", "0",
             "--range-max", str(math.pi / 2), "--steps", "5"]
        )
        assert code == 0
        metadata, header, rows = read_scan(out)
        assert header == ["theta", "S", "entropy"]
        assert metadata["command"] == "chsh"
        assert metadata["steps"] == "5"
        assert metadata["seed"] == "0"
        assert metadata["tool"].startswith("modetangle ")
        s_column = [row[1] for row in rows]
        expected = [2.0, TWO_ROOT_TWO, 0.0, -TWO_ROOT_TWO, -2.0]
        for got, want in zip(s_column, expected):
            # file values carry 12 significant digits
            assert got == pytest.approx(want, abs=1e-11)
        assert all(row[2] == pytest.approx(1.0, abs=1e-12) for row in rows)

    def test_chsh_rerun_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        argv = ["chsh", "--range-min", "0", "--range-max", "1", "--steps", "11"]
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_entropy_rotation_landmarks(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["entropy-rotation", "--out", str(out), "--range-min", "0",
             "--range-max", str(math.pi / 4), "--steps", "5"]
        )
        assert code == 0
        _, header, rows = read_scan(out)
        assert header == ["phi", "entropy_vn", "entropy_renyi2"]
        vn = [row[1] for row in rows]
        assert vn[0] == pytest.approx(0.0, abs=1e-12)
        assert vn[2] == pytest.approx(1.5, abs=1e-10)   # phi = pi/8
        assert vn[4] == pytest.approx(1.0, abs=1e-10)   # phi = pi/4
        assert all(row[2] <= row[1] + 1e-12 for row in rows)

    def test_interferometer_landmarks(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["interferometer", "--out", str(out), "--range-min", "0",
             "--range-max", str(math.pi / 8), "--steps", "3"]
        )
        assert code == 0
        _, header, rows = read_scan(out)
        assert header == ["vartheta", "S", "entropy_in", "entropy_out"]
        s_column = [row[1] for row in rows]
        assert s_column[0] == pytest.approx(2.0, abs=1e-11)
        assert s_column[1] == pytest.approx(2.38895516517, abs=1e-9)
        assert s_column[2] == pytest.approx(TWO_ROOT_TWO, abs=1e-11)
        for row in rows:
            assert row[2] == pytest.approx(1.0, abs=1e-10)
            assert row[3] == pytest.approx(1.0, abs=1e-10)

    def test_single_step_rejected(self, tmp_path, capsys):
        code = main(["chsh", "--out", str(tmp_path / "x.csv"), "--steps", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_reversed_range_rejected(self, tmp_path):
        code = main(
            ["chsh", "--out", str(tmp_path / "x.csv"),
             "--range-min", "1.0", "--range-max", "0.5"]
        )
        assert code == 2

    def test_unwritable_output(self, tmp_path):
        code = main(["chsh", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1


class TestOscillatorCommand:
    def test_report_contents(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["oscillator", "--out", str(out), "--lambda", "0.04"])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["lambda"] == 0.04
        assert report["truncation"] == 64
        assert len(report["eigenvalues"]) == 10
        assert len(report["first_order"]) == 10
        assert len(report["overlaps"]) == 4
        assert len(report["x_squared"]) == 4
        assert report["eigenvalues"][0] == pytest.approx(0.5072562045246027, abs=1e-12)
        assert report["eigenvalues"][1] == pytest.approx(1.5356482782967726, abs=1e-12)
        assert report["first_order"][0] == pytest.approx(0.5075, abs=1e-15)
        assert 0.99 < report["overlaps"][0] < 1.0

    def test_zero_coupling_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["oscillator", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for n, energy in enumerate(report["eigenvalues"]):
            assert energy == pytest.approx(n + 0.5, abs=1e-10)
        assert report["eigenvalues"] == report["first_order"]
        assert all(s == pytest.approx(1.0, abs=1e-12) for s in report["overlaps"])

    def test_negative_coupling_rejected(self, tmp_path, capsys):
        code = main(["oscillator", "--out", str(tmp_path / "x.json"), "--lambda", "-0.1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


BASE_CONFIG = """\
# conversion campaign
trials = 2000
seed = 11
eta = 0.9
lambda = 0.1
"""


class TestProtocolCommand:
    def test_campaign_outputs(self, tmp_path, capsys):
        config = write_config(tmp_path, BASE_CONFIG)
        prefix = tmp_path / "run"
        code = main(["protocol", config, "--out", str(prefix)])
        assert code == 0

        log_lines = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(log_lines) == 2000
        first = json.loads(log_lines[0])
        assert first["trial_id"] == 0

        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["n_trials"] == 2000
        assert summary["seed"] == 11
        assert summary["eta"] == 0.9
        assert summary["delivered_rate"] == pytest.approx(0.444, abs=1e-12)
        assert summary["abort_rate"] == pytest.approx(0.556, abs=1e-12)
        assert summary["min_fidelity"] == pytest.approx(1.0, abs=1e-12)
        assert summary["mean_entropy"] == pytest.approx(6.92915498790714e-05, rel=1e-9)

        printed = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        assert set(printed) == {
            "delivered_rate", "abort_rate", "mean_entropy", "min_fidelity"
        }
        assert float(printed["delivered_rate"]) == pytest.approx(
            summary["delivered_rate"], abs=1e-12
        )

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        for prefix in ("first", "second"):
            assert main(["protocol", config, "--out", str(tmp_path / prefix)]) == 0
        assert (tmp_path / "first.jsonl").read_bytes() == (
            tmp_path / "second.jsonl"
        ).read_bytes()
        assert (tmp_path / "first.json").read_bytes() == (
            tmp_path / "second.json"
        ).read_bytes()

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        prefix = tmp_path / "over"
        code = main(
            ["protocol", config, "--out", str(prefix), "--trials", "50",
             "--seed", "3", "--eta", "1.0", "--gate", "off", "--lambda", "0.0"]
        )
        assert code == 0
        summary = json.loads((tmp_path / "over.json").read_text())
        assert summary["n_trials"] == 50
        assert summary["seed"] == 3
        assert summary["eta"] == 1.0
        assert summary["abort_gate_on"] is False
        assert summary["anharmonicity_on"] == 0.0
        assert summary["abort_rate"] == 0.0

    def test_default_output_paths(self, tmp_path, monkeypatch):
        config = write_config(
            tmp_path, "trials = 5\nseed = 1\nout_log = here.jsonl\nout_summary = here.json\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["protocol", config]) == 0
        assert (tmp_path / "here.jsonl").exists()
        assert (tmp_path / "here.json").exists()

    def test_unknown_key(self, tmp_path, capsys):
        config = write_config(tmp_path, "trails = 10\n")
        code = main(["protocol", config, "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "trails" in err and "unknown configuration key" in err

    def test_malformed_line(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials 10\n")
        code = main(["protocol", config, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        config = write_config(tmp_path, "eta = high\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
        assert "eta" in capsys.readouterr().err

    def test_out_of_range_value(self, tmp_path):
        config = write_config(tmp_path, "eta = 1.5\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2

    def test_duplicate_key(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\ntrials = 6\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
        assert "more than once" in capsys.readouterr().err

    def test_hash_is_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        config = write_config(
            tmp_path,
            "# campaign three\n"
            "trials = 5 # a comment after whitespace\n"
            "seed = 1\t# after a tab\n"
            "out_log = runs/#3/log.jsonl\n"
            "out_summary = runs/#3/summary.json#v2\n",
        )
        rc = parse_run_config(config)
        assert rc.trials == 5
        assert rc.seed == 1
        assert rc.out_log == "runs/#3/log.jsonl"
        assert rc.out_summary == "runs/#3/summary.json#v2"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["protocol", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "no such configuration file" in capsys.readouterr().err

    def test_failing_adiabatic_budget(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "trials = 5\n"
            "adiabatic_delta_e = 0.02\n"
            "adiabatic_h_tilde = 0.01\n"
            "adiabatic_t_meas = 1000\n",
        )
        code = main(["protocol", config, "--out", str(tmp_path / "x")])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_partial_adiabatic_keys(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\nadiabatic_delta_e = 1.0\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
        assert "all-or-none" in capsys.readouterr().err


@pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_output_files_follow_the_umask(tmp_path, mask, mode):
    config = write_config(tmp_path, "trials = 5\nseed = 1\n")
    old_mask = os.umask(mask)
    try:
        assert main(["chsh", "--out", str(tmp_path / "scan.csv"), "--steps", "3"]) == 0
        assert main(["oscillator", "--out", str(tmp_path / "report.json")]) == 0
        assert main(["protocol", config, "--out", str(tmp_path / "run")]) == 0
    finally:
        os.umask(old_mask)
    for name in ("scan.csv", "report.json", "run.jsonl", "run.json"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


class TestEntryPoint:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "modetangle" in capsys.readouterr().out

    def test_no_subcommand(self, capsys):
        assert main([]) == 2

    def test_module_invocation(self, tmp_path):
        out = tmp_path / "scan.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "modetangle", "chsh", "--out", str(out),
             "--range-min", "0", "--range-max", "0.5", "--steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_cli_import_leaves_scipy_out(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, modetangle.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
