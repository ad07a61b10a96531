"""Each benchmark check accepts a correct CLI artifact and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py -q

The artifacts are made by the CLI of the checkout's `src/` at small sizes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from modetangle.cli import main  # noqa: E402

CAMPAIGN = {"trials": 2000, "seed": 11, "eta": 0.9, "landing_prob": 0.5, "anharmonicity": 0.1, "truncation": 64}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def shift_field(line: str, index: int, delta: float) -> str:
    fields = line.split(",")
    fields[index] = repr(float(fields[index]) + delta)
    return ",".join(fields)


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    work = tmp_path_factory.mktemp("scans")
    texts = {}
    for command in ("chsh", "entropy-rotation", "interferometer"):
        path = work / f"{command}.csv"
        code, _, _ = run_cli([command, "--out", str(path), "--range-min", "0.1",
                              "--range-max", "3.0", "--steps", "60", "--seed", "5"])
        assert code == 0
        texts[command] = path.read_text()
    return texts


def scan_errors(command: str, text: str) -> list[str]:
    return checks.check_scan(command, text, lo=0.1, hi=3.0, steps=60, seed=5)


@pytest.mark.parametrize("command", ["chsh", "entropy-rotation", "interferometer"])
def test_scan_accepts_cli_output(scans, command):
    assert scan_errors(command, scans[command]) == []


@pytest.mark.parametrize(
    "command, row, column",
    [("chsh", 20, 1), ("chsh", 3, 2), ("entropy-rotation", 17, 1),
     ("entropy-rotation", 40, 2), ("interferometer", 9, 1), ("interferometer", 30, 3)],
)
def test_scan_rejects_value_shifted_by_1e_6(scans, command, row, column):
    lines = scans[command].splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[header + 1 + row] = shift_field(lines[header + 1 + row], column, 1e-6)
    assert scan_errors(command, "\n".join(lines) + "\n")


def test_scan_rejects_dropped_row_and_wrong_grid(scans):
    lines = scans["chsh"].splitlines()
    assert scan_errors("chsh", "\n".join(lines[:-1]) + "\n")
    assert checks.check_scan("chsh", scans["chsh"], lo=0.1, hi=3.0, steps=61, seed=5)
    assert checks.check_scan("chsh", scans["chsh"], lo=0.2, hi=3.0, steps=60, seed=5)


@pytest.fixture(scope="module")
def campaigns(tmp_path_factory):
    work = tmp_path_factory.mktemp("campaign")
    config = work / "run.cfg"
    config.write_text("".join(
        f"{key} = {CAMPAIGN[field]}\n"
        for key, field in (("trials", "trials"), ("seed", "seed"), ("eta", "eta"),
                           ("landing_prob", "landing_prob"), ("lambda", "anharmonicity"))
    ))
    artifacts = {}
    for gate in ("on", "off"):
        prefix = work / gate
        code, stdout, _ = run_cli(["protocol", str(config), "--out", str(prefix), "--gate", gate])
        assert code == 0
        artifacts[gate] = (prefix.with_suffix(".jsonl").read_text(), prefix.with_suffix(".json").read_text(), stdout)
    return artifacts


def campaign_errors(gate: str, jsonl: str, summary: str, stdout: str, **overrides) -> list[str]:
    params = {**CAMPAIGN, "gate_on": gate == "on", **overrides}
    return checks.check_campaign(jsonl, summary, stdout, **params)


@pytest.mark.parametrize("gate", ["on", "off"])
def test_campaign_accepts_cli_output(campaigns, gate):
    assert campaign_errors(gate, *campaigns[gate]) == []


@pytest.mark.parametrize("gate", ["on", "off"])
def test_campaign_rejects_dropped_line(campaigns, gate):
    jsonl, summary, stdout = campaigns[gate]
    lines = jsonl.splitlines()
    del lines[100]
    assert campaign_errors(gate, "\n".join(lines) + "\n", summary, stdout)


@pytest.mark.parametrize("gate", ["on", "off"])
def test_campaign_rejects_edited_summary_rate(campaigns, gate):
    jsonl, summary, stdout = campaigns[gate]
    edited = json.loads(summary)
    edited["delivered_rate"] += 0.0005
    assert campaign_errors(gate, jsonl, json.dumps(edited), stdout)


def edit_record(line: str, key: str, value) -> str:
    record = json.loads(line)
    record[key] = value
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_campaign_rejects_edited_line(campaigns):
    jsonl, summary, stdout = campaigns["off"]
    lines = jsonl.splitlines()
    records = [json.loads(line) for line in lines]
    delivered = [i for i, r in enumerate(records) if r["delivered_state"] is not None]
    unregistered = [i for i in delivered if not records[i]["registered"]]
    state = records[delivered[0]]["delivered_state"]
    stretched = {**state, "amplitudes": [[re * 1.001, im] for re, im in state["amplitudes"]]}
    for index, key, value in [
        (delivered[0], "particle_entropy", records[delivered[0]]["particle_entropy"] + 1e-7),
        (unregistered[0], "fidelity_to_target", records[unregistered[0]]["fidelity_to_target"] - 1e-7),
        (delivered[1], "registered", not records[delivered[1]]["registered"]),
        (delivered[2], "aborted", True),
        (delivered[3], "delivered_state", stretched),
        (5, "trial_id", 6),
    ]:
        corrupted = list(lines)
        corrupted[index] = edit_record(lines[index], key, value)
        assert campaign_errors("off", "\n".join(corrupted) + "\n", summary, stdout), key


def test_campaign_rejects_rates_outside_the_law(campaigns):
    jsonl, summary, stdout = campaigns["on"]
    # a detector at eta = 0.5 could not have delivered the rates of an eta = 0.9 run
    assert any("outside" in e for e in campaign_errors("on", jsonl, summary, stdout, eta=0.5))


@pytest.fixture(scope="module")
def oscillators(tmp_path_factory):
    work = tmp_path_factory.mktemp("oscillator")
    reports = {}
    for lam, n in ((0.0, 64), (0.1, 64), (0.1, 128), (100.0, 64)):
        path = work / f"{lam}-{n}.json"
        code, _, _ = run_cli(["oscillator", "--out", str(path), "--lambda", repr(lam), "--truncation", str(n)])
        assert code == 0
        reports[lam, n] = path.read_text()
    return reports


def shift_level(text: str, level: int, delta: float, field: str = "eigenvalues") -> str:
    report = json.loads(text)
    report[field][level] += delta
    return json.dumps(report)


@pytest.mark.parametrize("key", [(0.0, 64), (0.1, 64), (0.1, 128)])
def test_oscillator_accepts_cli_output(oscillators, key):
    assert checks.check_oscillator(oscillators[key], *key) == []


@pytest.mark.parametrize("key, level", [((0.0, 64), 0), ((0.0, 64), 9), ((0.1, 64), 4), ((0.1, 128), 0)])
def test_oscillator_rejects_eigenvalue_shifted_by_1e_6(oscillators, key, level):
    assert checks.check_oscillator(shift_level(oscillators[key], level, 1e-6), *key)


def test_oscillator_rejects_bad_x_squared_and_overlap(oscillators):
    assert checks.check_oscillator(shift_level(oscillators[0.0, 64], 2, 1e-6, "x_squared"), 0.0, 64)
    assert checks.check_oscillator(shift_level(oscillators[0.1, 64], 1, 0.5, "overlaps"), 0.1, 64)


def test_ladder_pair(oscillators):
    low, high = oscillators[0.1, 64], oscillators[0.1, 128]
    assert checks.check_ladder_pair(low, high) == []
    assert checks.check_ladder_pair(low, shift_level(high, 7, 1e-6))


def test_known_fault_fails_until_refused_or_converged(oscillators):
    # At lambda = 100 a 64-state basis leaves level 9 near 129.3; the converged value is near 81.42.
    assert checks.check_refusal_or_converged(0, "", oscillators[100.0, 64], 100.0, 64)
    assert checks.check_refusal_or_converged(3, "error: truncation 64 too small", None, 100.0, 64) == []
    converged = json.loads(oscillators[100.0, 64])
    converged["eigenvalues"] = list(checks.converged_levels(100.0))
    assert checks.check_refusal_or_converged(0, "", json.dumps(converged), 100.0, 64) == []
