"""Output checks for the benchmark, computed apart from modetangle.

Each check takes the text of a CLI artifact plus the inputs that produced
it and returns a list of violations (empty when the artifact is right).
The expected values come from closed forms and from an oscillator
Hamiltonian assembled here from the closed-form matrix elements of X^4,
never from modetangle itself or from a stored copy of earlier output.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

SCAN_TOL = 1e-9
ENTROPY_TOL = 1e-10
NORM_TOL = 1e-12
LEVEL_TOL = 1e-8
EXACT_TOL = 1e-10
REFERENCE_TOL = 1e-9
RATE_SIGMAS = 5.0
REPORTED_LEVELS = 10

OUTCOME_KEYS = {
    "trial_id",
    "photon_detected",
    "registered",
    "aborted",
    "particle_entropy",
    "fidelity_to_target",
    "delivered_state",
}


# ---------------------------------------------------------------- scans


def parse_scan_csv(text: str) -> tuple[dict, list[str], np.ndarray]:
    """Split a scan CSV into metadata, header and a float row array."""
    lines = text.splitlines()
    meta = {}
    while lines and lines[0].startswith("# "):
        key, _, value = lines.pop(0)[2:].partition("=")
        meta[key] = value
    header = lines.pop(0).split(",") if lines else []
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    return meta, header, rows.reshape(len(lines), len(header))


def chsh_closed_form(t: np.ndarray) -> np.ndarray:
    return 3.0 * np.cos(2.0 * t) - np.cos(6.0 * t)


def rotation_entropies(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Von Neumann and Renyi-2 entropies (bits) of {c^2, s^2/2, s^2/2}, c,s = cos,sin 2phi."""
    c2 = np.cos(2.0 * phi) ** 2
    spectrum = np.stack([c2, (1.0 - c2) / 2.0, (1.0 - c2) / 2.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(spectrum > 0.0, spectrum * np.log2(spectrum), 0.0)
    vn = np.maximum(-terms.sum(axis=0), 0.0)
    renyi2 = np.maximum(-np.log2((spectrum**2).sum(axis=0)), 0.0)
    return vn, renyi2


def _expected_scan(command: str, grid: np.ndarray) -> tuple[list[str], list[np.ndarray]]:
    ones = np.ones_like(grid)
    if command == "chsh":
        return ["theta", "S", "entropy"], [grid, chsh_closed_form(grid), ones]
    if command == "entropy-rotation":
        return ["phi", "entropy_vn", "entropy_renyi2"], [grid, *rotation_entropies(grid)]
    if command == "interferometer":
        return (
            ["vartheta", "S", "entropy_in", "entropy_out"],
            [grid, chsh_closed_form(grid), ones, ones],
        )
    raise ValueError(f"not a scan command: {command}")


def check_scan(command: str, text: str, lo: float, hi: float, steps: int, seed: int) -> list[str]:
    """Scan CSV against its closed form on the requested grid, to SCAN_TOL."""
    errors = []
    try:
        meta, header, rows = parse_scan_csv(text)
    except ValueError as exc:
        return [f"{command}: unparseable CSV ({exc})"]
    if meta.get("command") != command:
        errors.append(f"{command}: metadata command is {meta.get('command')!r}")
    for key, want in (("range_min", lo), ("range_max", hi), ("steps", steps), ("seed", seed)):
        try:
            got = float(meta[key])
        except (KeyError, ValueError):
            errors.append(f"{command}: metadata {key} missing or not a number")
            continue
        if abs(got - want) > SCAN_TOL * max(1.0, abs(want)):
            errors.append(f"{command}: metadata {key}={got}, requested {want}")
    names, columns = _expected_scan(command, np.linspace(lo, hi, steps))
    if header != names:
        return errors + [f"{command}: header {header}, expected {names}"]
    if rows.shape[0] != steps:
        return errors + [f"{command}: {rows.shape[0]} rows, requested {steps}"]
    for j, (name, want) in enumerate(zip(names, columns)):
        worst = float(np.max(np.abs(rows[:, j] - want)))
        if not worst <= SCAN_TOL:
            errors.append(f"{command}: column {name} off by {worst:.3e} (allowed {SCAN_TOL:g})")
    return errors


# ------------------------------------------------------------- campaign


def pair_entropy(amplitudes: tuple) -> tuple[float, float]:
    """Norm and one-particle entropy (bits) of a 2x2 pair, via its singular values."""
    psi = np.array([complex(re, im) for re, im in amplitudes]).reshape(2, 2)
    sigma = np.linalg.svd(psi, compute_uv=False)
    p = sigma**2
    p = p[p > 0.0]
    return float(np.sqrt(np.sum(sigma**2))), float(max(0.0, -np.sum(p * np.log2(p))))


def _overlap(a: tuple, b: tuple) -> float:
    va = np.array([complex(re, im) for re, im in a])
    vb = np.array([complex(re, im) for re, im in b])
    return float(abs(np.vdot(va, vb)) ** 2)


def _rate_band(name: str, rate: float, expected: float, n: int) -> list[str]:
    sigma = math.sqrt(max(expected * (1.0 - expected), 0.0) / n)
    if abs(rate - expected) > RATE_SIGMAS * sigma:
        return [f"campaign: {name} {rate} outside {expected:.6g} +- {RATE_SIGMAS:g} sigma ({sigma:.3g})"]
    return []


def check_campaign(
    jsonl: str,
    summary_text: str,
    stdout: str,
    *,
    trials: int,
    seed: int,
    eta: float,
    landing_prob: float,
    anharmonicity: float,
    truncation: int,
    gate_on: bool,
) -> list[str]:
    """Outcome log and summary of one `protocol` run, against the laws of the protocol."""
    lines = jsonl.splitlines()
    if len(lines) != trials:
        return [f"campaign: {len(lines)} log lines, requested {trials} trials"]
    errors: list[str] = []
    entropies: list[float] = []
    fidelities: list[float] = []
    delivered = aborted = 0
    target = unconverted = None
    state_cache: dict[tuple, tuple[float, float]] = {}
    fidelity_checks: list[tuple[int, tuple, float]] = []
    for i, line in enumerate(lines):
        if len(errors) > 5:
            break
        try:
            rec = json.loads(line)
        except ValueError:
            errors.append(f"campaign: line {i} is not JSON")
            continue
        if not isinstance(rec, dict) or set(rec) != OUTCOME_KEYS:
            errors.append(f"campaign: line {i} keys {sorted(rec) if isinstance(rec, dict) else rec}")
            continue
        landed, registered, was_aborted = rec["photon_detected"], rec["registered"], rec["aborted"]
        state = rec["delivered_state"]
        ships = registered or (landed and not gate_on)
        if rec["trial_id"] != i:
            errors.append(f"campaign: line {i} has trial_id {rec['trial_id']}")
        if registered and not landed:
            errors.append(f"campaign: trial {i} registered without a landed photon")
        if was_aborted != (gate_on and not registered):
            errors.append(f"campaign: trial {i} aborted={was_aborted} with gate {'on' if gate_on else 'off'}")
        if (state is not None) != ships:
            errors.append(f"campaign: trial {i} delivery {state is not None}, expected {ships}")
        if (rec["particle_entropy"] is None) != (state is None) or (
            rec["fidelity_to_target"] is None
        ) != (state is None):
            errors.append(f"campaign: trial {i} entropy/fidelity do not accompany the state")
            continue
        aborted += was_aborted
        if state is None:
            continue
        delivered += 1
        if state.get("factors") != ["photon_1", "photon_2"] or state.get("dims") != [2, 2]:
            errors.append(f"campaign: trial {i} state basis {state.get('factors')} {state.get('dims')}")
            continue
        amps = tuple(tuple(z) for z in state["amplitudes"])
        if amps not in state_cache:
            state_cache[amps] = pair_entropy(amps)
        norm, entropy = state_cache[amps]
        if abs(norm - 1.0) > NORM_TOL:
            errors.append(f"campaign: trial {i} state norm {norm!r}")
        if abs(entropy - rec["particle_entropy"]) > ENTROPY_TOL:
            errors.append(
                f"campaign: trial {i} particle_entropy {rec['particle_entropy']!r}, SVD gives {entropy!r}"
            )
        if registered:
            if target is None:
                target = amps
            elif amps != target:
                errors.append(f"campaign: trial {i} delivers a different registered state")
        elif unconverted is None:
            unconverted = amps
        entropies.append(rec["particle_entropy"])
        fidelities.append(rec["fidelity_to_target"])
        fidelity_checks.append((i, amps, rec["fidelity_to_target"]))
    if errors:
        return errors
    if target is None:
        return ["campaign: no registered trial, so fidelity_to_target cannot be checked"]
    if unconverted is not None and _overlap(unconverted, ((1.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 0.0))) < 1.0 - NORM_TOL:
        errors.append(f"campaign: unconverted state {unconverted} is not the product |0,0>")
    expected_fid = {amps: _overlap(amps, target) for amps in state_cache}
    for i, amps, fid in fidelity_checks:
        if abs(fid - expected_fid[amps]) > ENTROPY_TOL:
            errors.append(f"campaign: trial {i} fidelity_to_target {fid!r}, expected {expected_fid[amps]!r}")
            break

    delivered_rate = delivered / trials
    abort_rate = aborted / trials
    if gate_on:
        errors += _rate_band("delivered_rate", delivered_rate, eta * landing_prob, trials)
        errors += _rate_band("abort_rate", abort_rate, 1.0 - eta * landing_prob, trials)
    else:
        errors += _rate_band("delivered_rate", delivered_rate, landing_prob, trials)
        if aborted:
            errors.append(f"campaign: {aborted} aborted trials with the gate off")

    try:
        summary = json.loads(summary_text)
    except ValueError:
        return errors + ["campaign: summary is not JSON"]
    expected = {
        "n_trials": trials,
        "seed": seed,
        "delivered_rate": delivered_rate,
        "abort_rate": abort_rate,
        "mean_entropy": math.fsum(entropies) / len(entropies) if entropies else None,
        "min_fidelity": min(fidelities) if fidelities else None,
        "eta": eta,
        "abort_gate_on": gate_on,
        "anharmonicity_on": anharmonicity,
        "landing_prob": landing_prob,
        "truncation": truncation,
    }
    if set(summary) != set(expected):
        errors.append(f"campaign: summary keys {sorted(summary)}")
    for key, want in expected.items():
        got = summary.get(key)
        if not _close(got, want, 1e-12):
            errors.append(f"campaign: summary {key}={got!r}, recomputed {want!r}")
    printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    for key in ("delivered_rate", "abort_rate", "mean_entropy", "min_fidelity"):
        want = expected[key]
        got = printed.get(key)
        if got is None or (want is None) != (got == "none") or (
            want is not None and not _close(float(got), want, 1e-11)
        ):
            errors.append(f"campaign: printed {key}={got}, recomputed {want!r}")
    return errors


def _close(got, want, rel: float) -> bool:
    if isinstance(want, bool) or want is None or isinstance(want, int):
        return got == want and type(got) is type(want)
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return False
    return abs(got - want) <= rel * max(abs(want), 1e-300)


# ----------------------------------------------------------- oscillator


def quartic_hamiltonian(anharmonicity: float, truncation: int) -> np.ndarray:
    """diag(n + 1/2) + (g/4) X^4 from the closed-form elements of X^4 on diagonals 0, +-2, +-4."""
    n = np.arange(truncation, dtype=float)
    h = np.diag(n + 0.5 + 0.25 * anharmonicity * 0.75 * (2.0 * n * n + 2.0 * n + 1.0))
    j = n[:-2]
    off2 = 0.25 * anharmonicity * (4.0 * j + 6.0) * np.sqrt((j + 1.0) * (j + 2.0)) / 4.0
    j = n[:-4]
    off4 = 0.25 * anharmonicity * np.sqrt((j + 1.0) * (j + 2.0) * (j + 3.0) * (j + 4.0)) / 4.0
    return h + np.diag(off2, 2) + np.diag(off2, -2) + np.diag(off4, 4) + np.diag(off4, -4)


@functools.lru_cache(maxsize=8)
def converged_levels(anharmonicity: float, levels: int = REPORTED_LEVELS) -> tuple[float, ...]:
    """Lowest levels, with the truncation doubled from 128 until they move by < REFERENCE_TOL.

    Rounding in eigvalsh grows with the norm of H, about N^2 g, so the
    doubling stops at 2048 rather than chasing digits it cannot resolve.
    """
    truncation = 128
    previous = np.linalg.eigvalsh(quartic_hamiltonian(anharmonicity, truncation))[:levels]
    while truncation < 2048:
        truncation *= 2
        current = np.linalg.eigvalsh(quartic_hamiltonian(anharmonicity, truncation))[:levels]
        if np.max(np.abs(current - previous) / np.maximum(1.0, np.abs(current))) < REFERENCE_TOL:
            return tuple(float(e) for e in current)
        previous = current
    raise RuntimeError(f"reference levels at lambda={anharmonicity} do not converge by N=2048")


def first_order(n: int, anharmonicity: float) -> float:
    return n + 0.5 + (3.0 * anharmonicity / 16.0) * (2.0 * n * n + 2.0 * n + 1.0)


def _levels_match(name: str, got: list[float], want, tol: float, relative: bool = False) -> list[str]:
    if len(got) != len(want) or not got:
        return [f"{name}: {len(got)} values, expected {len(want)}"]
    diffs = [abs(a - b) / (max(1.0, abs(b)) if relative else 1.0) for a, b in zip(got, want)]
    worst = int(np.argmax(diffs))
    if not diffs[worst] <= tol:
        return [f"{name}: level {worst} reads {got[worst]!r}, expected {want[worst]!r} (tol {tol:g})"]
    return []


def check_oscillator(text: str, anharmonicity: float, truncation: int) -> list[str]:
    """One oscillator report against the laws every correct report obeys."""
    tag = f"oscillator lambda={anharmonicity} N={truncation}"
    try:
        report = json.loads(text)
        levels = [float(e) for e in report["eigenvalues"]]
        first = [float(e) for e in report["first_order"]]
        overlaps = [float(v) for v in report["overlaps"]]
        x_squared = [float(v) for v in report["x_squared"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{tag}: malformed report ({exc!r})"]
    errors = []
    if report.get("lambda") != anharmonicity or report.get("truncation") != truncation:
        errors.append(f"{tag}: report echoes lambda={report.get('lambda')} N={report.get('truncation')}")
    want_levels = min(REPORTED_LEVELS, truncation)
    if len(levels) != want_levels or len(first) != want_levels or not overlaps or len(x_squared) != len(overlaps):
        return errors + [f"{tag}: report lists {len(levels)} levels, {len(overlaps)} overlaps"]
    errors += _levels_match(f"{tag} first_order", first, [first_order(n, anharmonicity) for n in range(want_levels)], EXACT_TOL)
    if any(not 0.0 <= v <= 1.0 for v in overlaps):
        errors.append(f"{tag}: overlaps {overlaps} outside [0, 1]")
    if anharmonicity == 0.0:
        errors += _levels_match(f"{tag} eigenvalues", levels, [n + 0.5 for n in range(want_levels)], EXACT_TOL)
        errors += _levels_match(f"{tag} x_squared", x_squared, [n + 0.5 for n in range(len(x_squared))], EXACT_TOL)
    else:
        below = [n for n, e in enumerate(levels) if not e > n + 0.5]
        if below:
            errors.append(f"{tag}: levels {below} do not lie above n + 1/2")
        if levels[0] > first_order(0, anharmonicity):
            errors.append(f"{tag}: E0={levels[0]!r} exceeds the variational bound {first_order(0, anharmonicity)!r}")
        errors += _levels_match(f"{tag} eigenvalues", levels, converged_levels(anharmonicity), LEVEL_TOL, relative=True)
    return errors


def check_ladder_pair(text_n: str, text_2n: str) -> list[str]:
    """The ten levels at truncation N agree with those at 2N."""
    try:
        low = json.loads(text_n)
        high = json.loads(text_2n)
        tag = f"oscillator lambda={low['lambda']} N={low['truncation']} vs {high['truncation']}"
        return _levels_match(tag, low["eigenvalues"], high["eigenvalues"], LEVEL_TOL)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"oscillator ladder: malformed report ({exc!r})"]


def check_refusal_or_converged(
    returncode: int, stderr: str, text: str | None, anharmonicity: float, truncation: int
) -> list[str]:
    """A truncation too small for lambda: refused with exit 3 naming it, or levels converged."""
    if returncode == 3 and "truncation" in stderr:
        return []
    if returncode != 0 or text is None:
        return [f"oscillator lambda={anharmonicity} N={truncation}: exit {returncode}: {stderr.strip()}"]
    return check_oscillator(text, anharmonicity, truncation)
