"""Command-line behavior: outputs, determinism, and exit codes."""

import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

import modetangle
from modetangle.cli import main
from modetangle.oscillator import TAIL_WEIGHT_LIMIT
from modetangle.protocol import ConversionConfig
from modetangle.results import ScanResult, render_scan_csv
from modetangle.runconfig import ConfigError, parse_run_config, to_conversion_config

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

    @pytest.mark.parametrize("command", ["chsh", "entropy-rotation", "interferometer"])
    def test_range_narrower_than_steps_rejected(self, tmp_path, capsys, command):
        """Ten points in a range four ulps wide cannot all differ."""
        out = tmp_path / "x.csv"
        code = main(
            [command, "--out", str(out), "--range-min", "1",
             "--range-max", "1.0000000000000004", "--steps", "10"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: scan parameter must be strictly increasing\n"
        assert not out.exists()
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("chsh", "6caf3987e8c4901bc329f5fe1ba0e2eadad15b774333b643b7cfaa3d5b55c38c"),
            ("entropy-rotation",
             "28c68e84a04a4800649a43e02c94455347ed033396e3a6382fe8723f8fbc7e45"),
            ("interferometer",
             "acebe6ee1fc7618ea2836443be3d75af28cc60fe097c6b8efbb659bf27158217"),
        ],
    )
    def test_scan_bytes_are_pinned(self, tmp_path, command, digest):
        """Header and values of each default scan; the '#' metadata (version) is left out."""
        out = tmp_path / "scan.csv"
        assert main([command, "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        assert hashlib.sha256(body).hexdigest() == digest

    def test_csv_numbers_at_the_edges_match_format_12g(self):
        edges = [-0.0, 5e-324, 1e-320, 0.1, 123456789012.5, 1e16, math.inf, math.nan]
        result = ScanResult.from_columns(("x", "y"), (np.array(edges), np.array(edges[::-1])))
        text = render_scan_csv(result, {"seed": 0})
        expected = [f"{format(x, '.12g')},{format(y, '.12g')}" for x, y in zip(edges, edges[::-1])]
        assert text.splitlines() == ["# seed=0", "x,y", *expected]
        assert expected[0] == "-0,nan" and expected[1] == "4.94065645841e-324,inf"

    def test_unwritable_output(self, tmp_path):
        code = main(["chsh", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1


# sha256 of the oscillator report at (lambda, N), without its "tool" line;
# lambda = 0 runs the solver on diagonal blocks, and lambda = 100 at
# N = 800 solves the full blocks
OSCILLATOR_DIGESTS = {
    ("0.1", "1600"): "a8593ee83a4eca841f5f95aec707c8cd43f3b19a545340d5ba2d0954b9c229e5",
    ("0", "1600"): "01d8fdd82a38ef8454ce66789d1e56a6e0877d8dcbc696c010b8501522f068f7",
    ("100", "800"): "e1ad9ea01567f35dea41a1f105b10f5f948a6281aaa54ab776abccc8cc884cf6",
}


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
        assert report["tail_weight"] == 0.0

    def test_unconverged_truncation_warns(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["oscillator", "--out", str(out), "--lambda", "100", "--truncation", "64"])
        assert code == 0
        err = capsys.readouterr().err
        assert err.startswith("warning:")
        assert "truncation 64" in err
        assert json.loads(out.read_text())["tail_weight"] > TAIL_WEIGHT_LIMIT

    def test_zero_coupling_is_exact_at_any_truncation(self, tmp_path, capsys):
        # levels 8 and 9 are the top basis states, yet at lambda = 0 nothing
        # couples them to the states the cut removes
        out = tmp_path / "report.json"
        code = main(["oscillator", "--out", str(out), "--lambda", "0", "--truncation", "12"])
        assert code == 0
        assert capsys.readouterr().err == ""
        report = json.loads(out.read_text())
        assert report["eigenvalues"] == [n + 0.5 for n in range(10)]
        assert report["tail_weight"] == 1.0

    def test_larger_truncation_converges(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["oscillator", "--out", str(out), "--lambda", "100", "--truncation", "256"])
        assert code == 0
        assert json.loads(out.read_text())["tail_weight"] < TAIL_WEIGHT_LIMIT

    def test_report_bytes_are_pinned(self, tmp_path):
        """Every value of each report; the "tool" line (version) is left out.

        The levels are solved in plain Python, so these bytes hold on every
        CPU and Python version.
        """
        out = tmp_path / "report.json"
        for (coupling, truncation), digest in OSCILLATOR_DIGESTS.items():
            args = ["oscillator", "--out", str(out), "--lambda", coupling, "--truncation", truncation]
            assert main(args) == 0
            lines = out.read_bytes().splitlines(keepends=True)
            body = b"".join(line for line in lines if not line.startswith(b'  "tool"'))
            assert hashlib.sha256(body).hexdigest() == digest, (coupling, truncation)

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

    @pytest.mark.parametrize(
        "gate, digest",
        [
            ("on", "eaade50ac08118766ff0cded10fe170b80a95105e15a087e1c23acaaa1e3eb97"),
            ("off", "21b6417b9d13eed1d8f2d5c770ba45260e3594f899e71b4dce40dc2bba794720"),
        ],
        ids=("on", "off"),
    )
    def test_log_bytes_are_pinned(self, tmp_path, gate, digest):
        """The trial stream and the line format: a change to either moves the digest."""
        config = write_config(tmp_path, BASE_CONFIG)
        assert main(["protocol", config, "--out", str(tmp_path / "run"), "--gate", gate]) == 0
        assert hashlib.sha256((tmp_path / "run.jsonl").read_bytes()).hexdigest() == digest

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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "1e3", "trials: expected an integer"),
            ("--lambda", "nan", "lambda: expected a finite number"),
        ],
    )
    def test_flags_parse_as_their_config_keys(self, tmp_path, capsys, flag, value, message):
        config = write_config(tmp_path, BASE_CONFIG)
        assert main(["protocol", config, "--out", str(tmp_path / "x"), flag, value]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("x.*"))

    def test_default_output_paths(self, tmp_path, monkeypatch):
        config = write_config(
            tmp_path, "trials = 5\nseed = 1\nout_log = here.jsonl\nout_summary = here.json\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["protocol", config]) == 0
        assert (tmp_path / "here.jsonl").exists()
        assert (tmp_path / "here.json").exists()

    def test_one_file_for_both_outputs_refused(self, tmp_path, monkeypatch, capsys):
        config = write_config(
            tmp_path, "trials = 5\nout_log = same.json\nout_summary = ./same.json\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["protocol", config]) == 2
        err = capsys.readouterr().err
        assert "out_log" in err and "out_summary" in err
        assert not (tmp_path / "same.json").exists()

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
        assert rc["trials"] == 5
        assert rc["seed"] == 1
        assert rc["out_log"] == "runs/#3/log.jsonl"
        assert rc["out_summary"] == "runs/#3/summary.json#v2"

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["protocol", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "no such configuration file" in capsys.readouterr().err

    def test_unreadable_config_file(self, tmp_path, capsys):
        config = tmp_path / "adir"
        config.mkdir()
        assert main(["protocol", str(config), "--out", str(tmp_path / "x")]) == 2
        assert f"error: cannot read configuration file {config}: " in capsys.readouterr().err
        assert not list(tmp_path.glob("x*"))

    def test_config_file_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"trials = 5\nseed = \xff\n")
        assert main(["protocol", str(config), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {config}: line 2: not UTF-8 text\n"
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize(
        "out_log, out_summary, missing",
        [
            ("ok.jsonl", "missing/s.json", "missing/s.json"),
            ("missing/l.jsonl", "ok.json", "missing/l.jsonl"),
        ],
        ids=["summary", "log"],
    )
    def test_unwritable_output_leaves_neither_file(
        self, tmp_path, monkeypatch, capsys, out_log, out_summary, missing
    ):
        config = write_config(
            tmp_path, f"trials = 5\nout_log = {out_log}\nout_summary = {out_summary}\n"
        )
        monkeypatch.chdir(tmp_path)
        assert main(["protocol", config]) == 1
        err = capsys.readouterr().err
        assert f"'{missing}'" in err
        assert ".tmp-" not in err
        assert os.listdir(tmp_path) == ["run.cfg"]

    def test_unwritable_summary_removes_the_log_behind_a_symlink(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\n")
        (tmp_path / "real").mkdir()
        link = tmp_path / "run.jsonl"
        link.symlink_to(tmp_path / "real" / "log.jsonl")
        (tmp_path / "run.json").mkdir()  # the summary path is refused
        assert main(["protocol", config, "--out", str(tmp_path / "run")]) == 1
        assert "not a regular file" in capsys.readouterr().err
        assert os.listdir(tmp_path / "real") == []
        assert os.readlink(link) == str(tmp_path / "real" / "log.jsonl")

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

    def test_unconverged_truncation_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\nlambda = 100\ntruncation = 64\n")
        code = main(["protocol", config, "--out", str(tmp_path / "x")])
        assert code == 3
        assert "truncation" in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_zero_coupling_small_truncation_runs(self, tmp_path, capsys):
        # levels 4 and 5 sit in the top four basis states of truncation 8,
        # which at lambda = 0 leaves them exact
        config = write_config(
            tmp_path, "trials = 5\nlambda = 0\ntruncation = 8\nlevel_a = 4\nlevel_b = 5\n"
        )
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "x.jsonl").exists()
        assert json.loads((tmp_path / "x.json").read_text())["min_fidelity"] == 1.0

    def test_partial_adiabatic_keys(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\nadiabatic_delta_e = 1.0\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
        assert "all-or-none" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values",
        [
            {"adiabatic_delta_e": 1.0},
            {"adiabatic_h_tilde": 0.01, "adiabatic_t_meas": 1000.0},
            {"adiabatic_threshold": 5.0},
        ],
    )
    def test_partial_adiabatic_fields_built_in_code(self, values):
        with pytest.raises(ConfigError, match="all-or-none"):
            to_conversion_config(values)

    def test_unknown_key_built_in_code(self):
        with pytest.raises(ConfigError, match="unknown configuration key") as info:
            to_conversion_config({"bogus": 1})
        assert info.value.key == "bogus"

    @pytest.mark.parametrize(
        "text, key",
        [
            ("level_b = -1\n", "level_b"),
            ("level_a = 2\nlevel_b = 2\n", "level_a, level_b"),
            ("detect_amp = 1.5\n", "detect_amp"),
            ("eta = 2\n", "eta"),
            ("level_a = 70\n", "level_a"),
            ("truncation = 7\n", "truncation"),
        ],
        ids=["negative-level", "equal-levels", "detect_amp", "eta", "level-cut", "truncation"],
    )
    def test_library_refusal_names_the_key(self, tmp_path, capsys, text, key):
        config = write_config(tmp_path, "trials = 5\n" + text)
        with pytest.raises(ConfigError) as info:
            to_conversion_config(parse_run_config(config))
        assert info.value.key == key
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_defaults_are_the_library_defaults_with_the_file_eta(self, tmp_path):
        rc = parse_run_config(write_config(tmp_path, ""))
        built = to_conversion_config(rc)
        expected = ConversionConfig(eta=0.9)
        for field in fields(ConversionConfig):
            assert getattr(built, field.name) == getattr(expected, field.name), field.name
        config = to_conversion_config({**rc, "level_b": 4})
        assert (config.level_a, config.level_b) == (1, 4)

    def test_adiabatic_threshold_defaults_to_the_budget_default(self):
        scales = {"adiabatic_delta_e": 1.0, "adiabatic_h_tilde": 0.01, "adiabatic_t_meas": 1000.0}
        budget = to_conversion_config(scales).adiabatic_budget
        assert budget.ratio_threshold == 10.0
        assert to_conversion_config({}).adiabatic_budget is None


ADIABATIC_SCALES = {
    "adiabatic_delta_e": "100",
    "adiabatic_h_tilde": "1",
    "adiabatic_t_meas": "100",
}

# (config values over `trials = 5`, names of which stderr must contain one)
REFUSED_CONFIGS = {
    "trials": ({"trials": "0"}, ("trials", "n_trials")),
    "seed": ({"seed": "-1"}, ("seed", "rng_seed")),
    "eta": ({"eta": "1.5"}, ("eta",)),
    "lambda": ({"lambda": "-0.1"}, ("lambda",)),
    "truncation": ({"truncation": "4"}, ("truncation",)),
    "level_a": ({"level_a": "64"}, ("level_a", "level")),
    "level_b": ({"level_b": "-1"}, ("level_b", "level")),
    "equal-levels": ({"level_a": "2", "level_b": "2"}, ("level_b", "level")),
    "landing_prob": ({"landing_prob": "1.5"}, ("landing_prob",)),
    "detect_amp": ({"detect_amp": "1.5"}, ("detect_amp",)),
    "clock_period": ({"clock_period": "0"}, ("clock_period",)),
    "clock-budget": ({"clock_period": "3.5"}, ("clock_period",)),
    "travel_plus_register_time": (
        {"travel_plus_register_time": "0"}, ("travel_plus_register_time",)
    ),
    "and_gate_time": ({"and_gate_time": "-1"}, ("and_gate_time",)),
    "adiabatic_delta_e": (
        {**ADIABATIC_SCALES, "adiabatic_delta_e": "0"}, ("adiabatic_delta_e",)
    ),
    "adiabatic_h_tilde": (
        {**ADIABATIC_SCALES, "adiabatic_h_tilde": "-1"}, ("adiabatic_h_tilde",)
    ),
    "adiabatic_t_meas": (
        {**ADIABATIC_SCALES, "adiabatic_t_meas": "0"}, ("adiabatic_t_meas",)
    ),
    "adiabatic_threshold": (
        {**ADIABATIC_SCALES, "adiabatic_threshold": "0"}, ("adiabatic_threshold",)
    ),
    "adiabatic_threshold-alone": (
        {"adiabatic_threshold": "0"}, ("adiabatic_threshold",)
    ),
    "adiabatic_threshold-alone-in-range": (
        {"adiabatic_threshold": "5"}, ("adiabatic_threshold",)
    ),
    "alpha": ({"alpha": "0.6"}, ("unknown configuration key",)),
}


@pytest.mark.parametrize("values, names", REFUSED_CONFIGS.values(), ids=REFUSED_CONFIGS.keys())
def test_refused_config_exits_2_and_writes_nothing(tmp_path, capsys, values, names):
    values = {"trials": "5", **values}
    config = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
    assert not list(tmp_path.glob("*.json*"))
    err = capsys.readouterr().err
    assert any(name in err for name in names), err


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


# one scan and the oscillator: each writes through results.atomic_write_text
WRITERS = {"chsh": ["chsh", "--steps", "3"], "oscillator": ["oscillator"]}


@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS.keys())
def test_output_symlink_is_written_through(tmp_path, argv):
    (tmp_path / "real").mkdir()
    target = tmp_path / "real" / "out"
    target.write_text("stale\n")
    link = tmp_path / "link"
    link.symlink_to(target)
    assert main([*argv, "--out", str(link)]) == 0
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "plain").read_bytes()
    # the temp file went to the target's directory and was renamed there
    assert sorted(os.listdir(tmp_path)) == ["link", "plain", "real"]
    assert os.listdir(tmp_path / "real") == ["out"]


@pytest.mark.parametrize("argv", WRITERS.values(), ids=WRITERS.keys())
def test_output_fifo_is_refused_and_left_alone(tmp_path, capsys, argv):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    for path in (fifo, link):
        assert main([*argv, "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"not a regular file: '{path}'" in err
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.readlink(link) == str(fifo)
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link"]


class TestEntryPoint:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "modetangle" in capsys.readouterr().out

    def test_pyproject_version_matches_package(self):
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(pyproject, encoding="utf-8") as handle:
            match = re.search(r'^version\s*=\s*"([^"]+)"', handle.read(), re.MULTILINE)
        assert match is not None
        assert match.group(1) == modetangle.__version__

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


BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")

# Runs the CLI in a fresh interpreter, then reports which modetangle
# modules it executed: a module registered for loading on first use but
# never touched is still of the lazy module type.
LOADED_BY = """
import json, os, sys, types
from modetangle.cli import main
code = main(sys.argv[1:])
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "dataclasses": "dataclasses" in sys.modules,
    "inspect": "inspect" in sys.modules,
    "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    "registered": sorted(name for name in sys.modules if name.startswith("modetangle")),
    "executed": sorted(name for name, module in sys.modules.items()
                       if name.startswith("modetangle") and type(module) is types.ModuleType),
}))
"""


def loaded_by(*argv, env=None):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_BY, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestLoading:
    """Each command executes only the modules it uses (one fresh interpreter per case)."""

    @pytest.mark.parametrize(
        "argv", [["--version"], ["--help"], ["chsh", "--help"]],
        ids=["version", "help", "chsh-help"],
    )
    def test_version_and_help_start_without_numpy(self, argv):
        loaded = loaded_by(*argv)
        assert loaded["code"] == 0
        assert not loaded["numpy"]
        assert not loaded["dataclasses"] and not loaded["inspect"]
        assert loaded["executed"] == ["modetangle", "modetangle.cli"]

    @pytest.mark.parametrize("anharmonicity", ["0", "0.1", "100"])
    def test_oscillator_runs_without_numpy(self, tmp_path, anharmonicity):
        loaded = loaded_by(
            "oscillator", "--lambda", anharmonicity, "--out", str(tmp_path / "out")
        )
        assert loaded["code"] == 0
        assert not loaded["numpy"]
        # dataclasses imports inspect, which would cost more than build_model here
        assert not loaded["dataclasses"] and not loaded["inspect"]

    def test_protocol_loads_numpy(self, tmp_path):
        loaded = loaded_by(
            "protocol", write_config(tmp_path, BASE_CONFIG), "--out", str(tmp_path / "run")
        )
        assert loaded["code"] == 0
        assert loaded["numpy"]

    @pytest.mark.parametrize("command", ["chsh", "interferometer", "oscillator"])
    def test_only_protocol_executes_the_protocol(self, tmp_path, command):
        loaded = loaded_by(command, "--out", str(tmp_path / "out"))
        assert loaded["code"] == 0
        assert "modetangle.protocol" not in loaded["executed"]
        assert "modetangle._pcg64" not in loaded["registered"]

    def test_cli_import_registers_every_traced_layer(self):
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {BENCH!r})\n"
            "from tracing import LAYERS\n"
            "import modetangle.cli\n"
            "print(json.dumps([m for m, *_ in LAYERS if m not in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    def test_traced_run_records_the_layer_spans(self, tmp_path):
        spans_path = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "tracing.py"), str(spans_path),
             "chsh", "--out", str(tmp_path / "scan.csv"), "--steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        names = {span[2] for span in json.loads(spans_path.read_text())["spans"]}
        assert {"cli.import", "cli.chsh", "polarization.chsh_scan",
                "results.render_scan_csv", "results.atomic_write_text"} <= names


class TestBlasThreads:
    """The CLI runs BLAS on one thread unless numpy was loaded before main."""

    @pytest.mark.parametrize("command", ["chsh", "protocol"])
    def test_command_runs_one_thread_whatever_the_caller_set(self, tmp_path, command):
        # at OPENBLAS_NUM_THREADS=2 an unpinned child on a multi-core host has 2 threads;
        # the oscillator loads no numpy, so the protocol stands for the other numpy command
        argv = [command] if command == "chsh" else [command, write_config(tmp_path, BASE_CONFIG)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        loaded = loaded_by(*argv, "--out", str(tmp_path / "out"), env=env)
        if loaded["threads"] is None:
            pytest.skip("no /proc/self/task to count the threads")
        assert loaded["code"] == 0
        assert loaded["numpy"]
        assert loaded["threads"] == 1

    def test_main_leaves_the_environment_alone_once_numpy_is_loaded(self, tmp_path):
        assert "numpy" in sys.modules  # this test module imports it
        before = dict(os.environ)
        assert main(["chsh", "--out", str(tmp_path / "scan.csv"), "--steps", "3"]) == 0
        assert dict(os.environ) == before
