"""Command-line behavior: outputs, determinism, and exit codes."""

import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import modetangle
from modetangle import results
from modetangle.cli import main
from modetangle.interferometer import momentum_chsh_scan
from modetangle.oscillator import TAIL_WEIGHT_LIMIT
from modetangle.polarization import chsh_scan, mode_rotation_entropy_scan
from modetangle.protocol import ConversionConfig
from modetangle.results import render_scan_csv
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
        assert capsys.readouterr().err == "error: steps must be at least 2, got 1\n"

    def test_reversed_range_rejected(self, tmp_path, capsys):
        code = main(
            ["chsh", "--out", str(tmp_path / "x.csv"),
             "--range-min", "1.0", "--range-max", "0.5"]
        )
        assert code == 2
        # named as the flags and the CSV metadata name them
        assert capsys.readouterr().err == "error: range_max must exceed range_min\n"

    @pytest.mark.parametrize("value", ["-1e-3", "-1E-3", "-.1e-2", "-1.e-3"])
    def test_negative_exponent_form_is_a_number(self, tmp_path, value):
        out = tmp_path / "x.csv"
        code = main(["chsh", "--out", str(out), "--range-min", value, "--range-max", "1", "--steps", "5"])
        assert code == 0
        metadata, _, rows = read_scan(out)
        assert metadata["range_min"] == "-0.001"
        assert rows[0][0] == -0.001

    @pytest.mark.parametrize(
        "value, shown",
        [("-inf", "-inf"), ("-INF", "-inf"), ("-Infinity", "-inf"), ("-nan", "nan"), ("-NaN", "nan")],
    )
    def test_negative_inf_and_nan_reach_the_finite_check(self, tmp_path, capsys, value, shown):
        # argparse read these as options: "argument --range-min: expected one argument"
        out = tmp_path / "x.csv"
        assert main(["chsh", "--out", str(out), "--range-min", value]) == 2
        assert capsys.readouterr().err == f"error: range_min must be finite, got {shown}\n"
        assert not out.exists()

    def test_scan_too_large_for_memory_refused(self, tmp_path, monkeypatch, capsys):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(np, "linspace", no_memory)
        out = tmp_path / "x.csv"
        assert main(["chsh", "--out", str(out), "--steps", "100000000000"]) == 1
        err = capsys.readouterr().err
        assert err == "error: out of memory, output not written: Unable to allocate 745. GiB for an array\n"
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, range_min, range_max, steps, message",
        [
            ("chsh", "0", "1e308", "3", "range_max times 2 must be finite, got 1e+308"),
            ("entropy-rotation", "0", "1e308", "3", "range_max times 2 must be finite, got 1e+308"),
            ("interferometer", "0", "1e308", "3", "range_max times 2 must be finite, got 1e+308"),
            ("interferometer", "-1.7e308", "1.7e308", "2", "range_min times 2 must be finite, got -1.7e+308"),
            # the width fits, but linspace's last step rounds past the float range
            ("entropy-rotation", "-8.988465674311579e307", "8.988465674311579e307", "7",
             "range_max - range_min overflows, "
             "from range_min=-8.988465674311579e+307 to range_max=8.988465674311579e+307"),
        ],
        ids=["chsh", "entropy-rotation", "interferometer", "interferometer-range-min", "width"],
    )
    def test_angles_beyond_the_float_range_refused(
        self, tmp_path, capsys, command, range_min, range_max, steps, message
    ):
        """A scan whose largest angle, 2t or 2phi, would overflow prints no nan: it is refused."""
        out = tmp_path / "x.csv"
        argv = [command, "--out", str(out), "--range-min", range_min, "--range-max", range_max]
        assert main([*argv, "--steps", steps]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command, bound",
        [
            ("chsh", "5.99e307"), ("entropy-rotation", "8.98e307"), ("interferometer", "2.99e307"),
            # refused while S summed four correlations at the stations 3t and 6t
            ("chsh", "8.98e307"), ("interferometer", "8.98e307"),
        ],
    )
    def test_widest_ranges_print_numbers(self, tmp_path, command, bound):
        out = tmp_path / "x.csv"
        argv = [command, "--out", str(out), "--range-min", f"-{bound}", "--range-max", bound]
        assert main([*argv, "--steps", "9"]) == 0
        _, _, rows = read_scan(out)
        assert len(rows) == 9 and all(math.isfinite(cell) for row in rows for cell in row)

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("chsh", "a384c3292611a6cbf59c706de328c379b9f870ffed8b2a4435995ca37f7449ca"),
            ("entropy-rotation",
             "29adeecb35ed62c08e146f85f353a62d7e795a47eca6747025626969f2ca4252"),
            ("interferometer",
             "98e8582573d5ee024c40b353b6700625fc95bf2cfeb372c7bb96c3002c343456"),
        ],
        ids=["chsh", "entropy-rotation", "interferometer"],
    )
    def test_scan_bytes_are_pinned(self, tmp_path, command, digest):
        """Header and values of each default scan; the '#' metadata (version) is left out."""
        out = tmp_path / "scan.csv"
        assert main([command, "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        assert hashlib.sha256(body).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, digest",
        [
            ("chsh", "31567961cb5a67bc128ebf682956f2d7240f6b678d58711df0f1b5def9d741a9"),
            ("entropy-rotation",
             "991e1d7bdaad7da021b126186d335b282b04d1a1677d1640ff4a2ceeed2fe858"),
            ("interferometer",
             "a42beb9e8cd31bf1f80b00e1a1b7abc89b3c29310c59d082620594c06e49dcda"),
        ],
        ids=["chsh", "entropy-rotation", "interferometer"],
    )
    def test_long_scan_bytes_are_pinned(self, tmp_path, command, digest):
        """10^4 steps over [0, pi].

        The pair entropies as the SVD-based 0.24.0 printed them, S as 0.29.0,
        and the rotation entropies correctly rounded, as since 0.24.0.
        """
        out = tmp_path / "scan.csv"
        assert main([command, "--out", str(out), "--steps", "10000"]) == 0
        lines = out.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        assert hashlib.sha256(body).hexdigest() == digest

    @pytest.mark.parametrize(
        "command, columns", [("chsh", [2]), ("interferometer", [2, 3])], ids=["chsh", "interferometer"]
    )
    def test_million_steps_print_every_pair_entropy_as_1(self, tmp_path, command, columns):
        """At 10^6 steps the closed-form Schmidt kernel prints 1 in every entropy cell of every row."""
        out = tmp_path / "scan.csv"
        assert main([command, "--out", str(out), "--steps", "1000000"]) == 0
        rows, cells = 0, set()
        with out.open() as handle:
            lines = (line for line in handle if not line.startswith("#"))
            next(lines)  # the header
            for line in lines:
                row = line.rstrip("\n").split(",")
                cells.update(row[column] for column in columns)
                rows += 1
        assert rows == 1_000_000
        assert cells == {"1"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh"], ["interferometer"], ["entropy-rotation"],
            ["protocol", "CONFIG", "--gate", "on"], ["protocol", "CONFIG", "--gate", "off"],
        ],
        ids=["chsh", "interferometer", "entropy-rotation", "protocol-on", "protocol-off"],
    )
    def test_no_command_runs_a_matrix_decomposition(self, tmp_path, monkeypatch, argv):
        # every Schmidt spectrum on a command path is closed-form
        def refuse(*args, **kwargs):
            raise AssertionError("a command ran a matrix decomposition")

        for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, refuse)
        argv = [write_config(tmp_path, BASE_CONFIG) if a == "CONFIG" else a for a in argv]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0

    def test_csv_numbers_at_the_edges_match_format_12g(self):
        edges = [-0.0, 5e-324, 1e-320, 0.1, 123456789012.5, 1e16, math.inf, math.nan]
        columns = {"x": np.array(edges), "y": np.array(edges[::-1])}
        text = "".join(render_scan_csv(columns, {"seed": 0}))
        expected = [f"{format(x, '.12g')},{format(y, '.12g')}" for x, y in zip(edges, edges[::-1])]
        assert text.splitlines() == ["# seed=0", "x,y", *expected]
        assert expected[0] == "-0,nan" and expected[1] == "4.94065645841e-324,inf"

    @pytest.mark.parametrize(
        "scan", [chsh_scan, mode_rotation_entropy_scan, momentum_chsh_scan],
        ids=["chsh", "entropy-rotation", "interferometer"],
    )
    def test_render_holds_little_beyond_the_text(self, scan):
        # guards against per-cell float lists for a whole scan, which cost
        # ~250 traced bytes a row against a CSV row of 31-43 bytes
        columns = scan(np.linspace(0.0, math.pi, 10**5))
        tracemalloc.start()
        try:
            chunks = render_scan_csv(columns, {"seed": 0})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(map(len, chunks))

    def test_unwritable_output(self, tmp_path):
        code = main(["chsh", "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1


# sha256 of the oscillator report at (lambda, N), without its "tool" line;
# lambda = 0 runs the solver on diagonal blocks, lambda = 100 at N = 800
# solves the full blocks, and lambda = 5 at N = 1600 is certified after
# four block widths, 64 to 512
OSCILLATOR_DIGESTS = {
    ("0.1", "1600"): "a8593ee83a4eca841f5f95aec707c8cd43f3b19a545340d5ba2d0954b9c229e5",
    ("0", "1600"): "01d8fdd82a38ef8454ce66789d1e56a6e0877d8dcbc696c010b8501522f068f7",
    ("100", "800"): "e1ad9ea01567f35dea41a1f105b10f5f948a6281aaa54ab776abccc8cc884cf6",
    ("5", "1600"): "3a879a2ddde459c276aa6a5f3aed009bb42166d0f2c94af8997a6a966d5b920b",
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

    def test_mean_entropy_is_the_delivered_entropy(self, tmp_path):
        """With the gate on, every delivered pair has one entropy, and so has their mean."""
        config = write_config(tmp_path, BASE_CONFIG)
        assert main(["protocol", config, "--out", str(tmp_path / "run")]) == 0
        lines = (tmp_path / "run.jsonl").read_text().splitlines()
        delivered = {json.loads(line)["particle_entropy"] for line in lines} - {None}
        summary = json.loads((tmp_path / "run.json").read_text())
        assert [summary["mean_entropy"]] == list(delivered)

    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(tmp_path, BASE_CONFIG)
        # then gate off and eta 0, where every landing ships the unconverted pair
        for flags in ([], ["--gate", "off", "--eta", "0"]):
            for prefix in ("first", "second"):
                assert main(["protocol", config, "--out", str(tmp_path / prefix), *flags]) == 0
            for suffix in (".jsonl", ".json"):
                first = (tmp_path / f"first{suffix}").read_bytes()
                assert first and first == (tmp_path / f"second{suffix}").read_bytes(), (flags, suffix)

    @pytest.mark.parametrize(
        "gate, digest",
        [
            ("on", "ce2092cce5eaca89089172cfa29e5e7ffe57eaca9acf9c0708b56d8a71db0388"),
            ("off", "aa0f7628d33a4ba404b3e984c41155f2d6f7e8fb05616da4fcde2bb78269a9e2"),
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
            # the key's parser only parses: the library refuses a value that is not finite
            ("--lambda", "nan", "error: lambda: anharmonicity_on must be finite, got nan"),
            # a negative number in exponent form reaches the library's refusal
            ("--lambda", "-1e-3", "lambda: anharmonicity_on must be non-negative, got -0.001"),
            # and so do -nan and -inf, which argparse read as options
            ("--lambda", "-nan", "error: lambda: anharmonicity_on must be finite, got nan"),
            ("--lambda", "-inf", "error: lambda: anharmonicity_on must be finite, got -inf"),
            # the config key's parser is the flag's only check
            ("--gate", "maybe", "error: gate: expected 'on' or 'off', got 'maybe'"),
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
        # a line with no '=', and one with nothing before it, read the same
        for line in ("trials 10", "= 5"):
            config = write_config(tmp_path, line + "\n")
            code = main(["protocol", config, "--out", str(tmp_path / "x")])
            assert code == 2
            assert capsys.readouterr().err == f"error: line 1: expected 'key = value', got {line!r}\n"
            assert not list(tmp_path.glob("x*"))

    def test_bad_value(self, tmp_path, capsys):
        config = write_config(tmp_path, "eta = high\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
        assert "eta" in capsys.readouterr().err

    def test_out_of_range_value(self, tmp_path):
        config = write_config(tmp_path, "eta = 1.5\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2

    def test_more_trials_than_the_sampler_holds_refused(self, tmp_path, capsys):
        # refused before the kind bytes, ~1 TB here, are allocated
        config = write_config(tmp_path, "trials = 5\n")
        code = main(["protocol", config, "--out", str(tmp_path / "x"), "--trials", "1000000000000"])
        assert code == 2
        message = "trials: trials must be at most 2**32 = 4294967296, got 1000000000000"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == ["run.cfg"]

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

    def test_byte_order_mark_is_read_as_no_mark(self, tmp_path, capsys):
        text = "trials = 200\nseed = 11\n# conversion campaign\neta = 0.9\n"
        plain = write_config(tmp_path, text)
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["protocol", plain, "--out", str(tmp_path / "plain")]) == 0
        plain_out = capsys.readouterr()
        assert main(["protocol", str(marked), "--out", str(tmp_path / "marked")]) == 0
        assert capsys.readouterr() == plain_out
        for suffix in (".jsonl", ".json"):
            marked_bytes = (tmp_path / f"marked{suffix}").read_bytes()
            assert marked_bytes == (tmp_path / f"plain{suffix}").read_bytes(), suffix
        # an undecodable byte after the mark is still found on its line
        marked.write_bytes(b"\xef\xbb\xbftrials = 5\nseed = \xff\n")
        assert main(["protocol", str(marked), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {marked}: line 2: not UTF-8 text\n"

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

    def test_unwritable_summary_keeps_an_earlier_log(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\n")
        earlier = b'{"trial": 0}\n'
        (tmp_path / "run.jsonl").write_bytes(earlier)
        (tmp_path / "run.json").mkdir()  # the summary path is refused
        assert main(["protocol", config, "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert f"'{tmp_path / 'run.json'}'" in err
        assert "not a regular file" in err
        assert (tmp_path / "run.jsonl").read_bytes() == earlier
        assert not list(tmp_path.glob(".tmp-*"))

    @pytest.mark.parametrize(
        "full, named", [('"n_trials"', "run.json"), ('"trial_id"', "run.jsonl")], ids=["summary", "log"]
    )
    def test_full_disk_keeps_an_earlier_pair(self, tmp_path, monkeypatch, capsys, full, named):
        # the disk fills up during the write of the file whose text holds
        # the key full: the summary's, or the log's
        class FullDisk(io.TextIOWrapper):
            def writelines(self, chunks):
                for chunk in chunks:
                    if full in chunk:
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                    self.write(chunk)

        def fdopen(fd, mode, encoding, newline):
            return FullDisk(open(fd, "wb"), encoding=encoding, newline=newline)

        config = write_config(tmp_path, "trials = 5\n")
        earlier = {"run.jsonl": b'{"trial": 0}\n', "run.json": b'{"n_trials": 1}\n'}
        for name, data in earlier.items():
            (tmp_path / name).write_bytes(data)
        with monkeypatch.context() as patch:
            patch.setattr(os, "fdopen", fdopen)
            code = main(["protocol", config, "--out", str(tmp_path / "run")])
        assert code == 1
        message = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: '{tmp_path / named}'"
        assert capsys.readouterr().err == f"error: {message}\n"
        for name, data in earlier.items():
            assert (tmp_path / name).read_bytes() == data
        assert not list(tmp_path.glob(".tmp-*"))

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
        assert not list(tmp_path.glob("x.*"))

    def test_passing_adiabatic_budget_runs(self, tmp_path):
        config = write_config(
            tmp_path,
            "trials = 5\n"
            "adiabatic_delta_e = 1\n"
            "adiabatic_h_tilde = 0.01\n"
            "adiabatic_t_meas = 1000\n",
        )
        assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 0
        assert len((tmp_path / "x.jsonl").read_text().splitlines()) == 5

    def test_small_coupling_prints_the_delivered_entropy_to_its_last_digit(self, tmp_path, capsys):
        config = write_config(tmp_path, "trials = 5\nseed = 1\n")
        assert main(["protocol", config, "--out", str(tmp_path / "x"), "--lambda", "1e-6"]) == 0
        assert "mean_entropy=7.98394123585e-24" in capsys.readouterr().out.splitlines()

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
        with pytest.raises(ConfigError, match="all-or-none") as info:
            to_conversion_config(values)
        first = next(iter(values))  # each case lists its keys in field order
        assert info.value.key == first
        assert str(info.value).startswith(f"{first}: {first}")

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
            ("trials = 0\n", "trials"),
            ("seed = -1\n", "seed"),
        ],
        ids=[
            "negative-level", "equal-levels", "detect_amp", "eta", "level-cut", "truncation",
            "trials", "seed",
        ],
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
        assert to_conversion_config(scales).adiabatic_threshold == 10.0
        assert to_conversion_config({}).adiabatic_threshold is None


ADIABATIC_SCALES = {
    "adiabatic_delta_e": "100",
    "adiabatic_h_tilde": "1",
    "adiabatic_t_meas": "100",
}

# (config values over `trials = 5`, names of which the error line must start with one)
REFUSED_CONFIGS = {
    "trials": ({"trials": "0"}, ("trials",)),
    "trials-above-2**32": ({"trials": "4294967297"}, ("trials",)),
    "seed": ({"seed": "-1"}, ("seed",)),
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
    "alpha": ({"alpha": "0.6"}, ("alpha: unknown configuration key",)),
}


@pytest.mark.parametrize("values, names", REFUSED_CONFIGS.values(), ids=REFUSED_CONFIGS.keys())
def test_refused_config_exits_2_and_writes_nothing(tmp_path, capsys, values, names):
    values = {"trials": "5", **values}
    config = write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["protocol", config, "--out", str(tmp_path / "x")]) == 2
    assert not list(tmp_path.glob("*.json*"))
    err = capsys.readouterr().err
    assert any(err.startswith(f"error: {name}") for name in names), err


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


EARLIER_PAIR = {"run.jsonl": b'{"trial": 0}\n', "run.json": b'{"n_trials": 1}\n'}


@pytest.mark.parametrize(
    "command", ["chsh", "entropy-rotation", "interferometer", "oscillator", "protocol"]
)
def test_empty_out_refused(tmp_path, monkeypatch, capsys, command):
    """An --out whose last component is empty, . or .. names no file: exit 2, and nothing is written.

    That is '', as an unset shell variable gives, d/ with d an empty directory,
    nod/ with no nod, and ., .. and d/..; protocol does not fall back on the
    config's paths, nor write ..jsonl.
    """
    config = write_config(tmp_path, "trials = 5\nout_log = run.jsonl\nout_summary = run.json\n")
    for name, data in EARLIER_PAIR.items():
        (tmp_path / name).write_bytes(data)
    (tmp_path / "d").mkdir()
    monkeypatch.chdir(tmp_path)
    argv = [command, config] if command == "protocol" else [command]
    for out in ("", "d/", "nod/", ".", "..", "d/.."):
        assert main([*argv, "--out", out]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == [f"modetangle {command}: error: argument --out: expected a file path, got {out!r}"]
    assert sorted(os.listdir(tmp_path)) == ["d", "run.cfg", "run.json", "run.jsonl"]
    assert os.listdir(tmp_path / "d") == []
    for name, data in EARLIER_PAIR.items():
        assert (tmp_path / name).read_bytes() == data


@pytest.mark.parametrize("exists", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("key", ["out_log", "out_summary"])
def test_config_output_ending_in_a_separator_refused(tmp_path, monkeypatch, capsys, key, exists):
    """out_log = runs/ names no file: exit 1 naming it, before any trial runs, and nothing written."""
    from modetangle import protocol

    def no_campaign(config):
        raise AssertionError("the campaign ran")

    paths = {"out_log": "run.jsonl", "out_summary": "run.json", key: "runs/"}
    config = write_config(tmp_path, "trials = 5\n" + "".join(f"{k} = {v}\n" for k, v in paths.items()))
    for name, data in EARLIER_PAIR.items():
        (tmp_path / name).write_bytes(data)
    if exists:
        (tmp_path / "runs").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(protocol, "run_campaign", no_campaign)
    assert main(["protocol", config]) == 1
    message = f"[Errno {errno.EISDIR}] ends in a separator and names no file: 'runs/'"
    assert capsys.readouterr().err == f"error: {message}\n"
    expected = ["run.cfg", "run.json", "run.jsonl"] + (["runs"] if exists else [])
    assert sorted(os.listdir(tmp_path)) == expected
    if exists:
        assert os.listdir(tmp_path / "runs") == []
    for name, data in EARLIER_PAIR.items():
        assert (tmp_path / name).read_bytes() == data


def test_write_to_a_path_ending_in_a_separator_refused(tmp_path):
    target = f"{tmp_path / 'nod'}{os.sep}"
    for write in (results.check_writable, lambda path: results.atomic_write_text(path, "text\n")):
        with pytest.raises(OSError) as info:
            write(target)
        assert (info.value.errno, info.value.filename) == (errno.EISDIR, target)
    assert os.listdir(tmp_path) == []


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
        """pyproject.toml takes its version from modetangle.__version__, its one source."""
        pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(pyproject, encoding="utf-8") as handle:
            text = handle.read()
        project = text.split("[project]\n", 1)[1].split("\n[", 1)[0]
        assert re.search(r"^version\s*=", project, re.MULTILINE) is None
        assert re.search(r'^dynamic = \["version"\]$', project, re.MULTILINE)
        assert re.search(
            r'^\[tool\.setuptools\.dynamic\]\nversion = \{attr = "modetangle\.__version__"\}$',
            text, re.MULTILINE,
        )
        assert re.fullmatch(r"\d+\.\d+\.\d+", modetangle.__version__)

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

    @pytest.mark.parametrize(
        "anharmonicity, truncation",
        [("0", "64"), ("0.1", "64"), ("100", "64"), ("0", "1600"), ("0.1", "1600")],
        ids=["0", "0.1", "100", "0-1600", "0.1-1600"],
    )
    def test_oscillator_runs_without_numpy(self, tmp_path, anharmonicity, truncation):
        # at N = 1600 the levels are certified from leading blocks, at N = 64 the full blocks solved
        loaded = loaded_by(
            "oscillator", "--lambda", anharmonicity, "--truncation", truncation,
            "--out", str(tmp_path / "out"),
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
