"""Acceptance gate: one criterion per test, one printed verdict line each.

Run with `-s` to see the verdict lines:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import math
import time

import numpy as np
from dense_model import rotated_pair_state
from kernel_views import (
    analyzed_pairs,
    bragg_outputs,
    labeled,
    momentum_correlations,
    pair_from_overlaps,
)

from modetangle.interferometer import _INPUT_PAIR
from modetangle.oscillator import (
    build_model,
    first_order_energy,
    mode_overlap,
)
from modetangle.polarization import chsh_sum
from modetangle.protocol import (
    ConversionConfig,
    particle_entanglement_entropy,
    run_campaign,
)
from modetangle.states import partial_trace, renyi_entropy, von_neumann_entropy
from modetangle.cli import main

TWO_ROOT_TWO = 2.8284271247461903
ROOT_HALF = 1.0 / math.sqrt(2.0)


def report(name, violations):
    print(f"[acceptance] {name}: {'PASS' if not violations else 'FAIL'}")
    assert not violations, f"{name}: " + "; ".join(violations)


def brute_force_entropy(h_amp, a_amp, s1, s2, dim=16):
    """Independent oracle: embed both branches in the full level space."""
    def pair(s, home, ortho):
        original = np.zeros(dim)
        original[home] = 1.0
        other = np.zeros(dim)
        other[ortho] = 1.0
        return original, s * original + math.sqrt(max(0.0, 1.0 - s * s)) * other

    a, a_def = pair(s1, 1, 3)
    b, b_def = pair(s2, 2, 5)
    psi = h_amp * np.outer(a, b) + a_amp * np.outer(a_def, b_def)
    psi = psi / np.linalg.norm(psi)
    rho = psi @ psi.conj().T
    eigenvalues = np.linalg.eigvalsh(rho)
    positive = eigenvalues[eigenvalues > 1e-15]
    return float(-(positive * np.log2(positive)).sum())


def test_chsh_curve_and_maximum():
    violations = []
    start = time.perf_counter()
    # 1000-point grid chosen to land on the extrema k*pi/1000 exactly
    grid = np.arange(1000) * (math.pi / 1000.0)
    s_values = np.array([chsh_sum(t) for t in grid])
    closed_form = 3.0 * np.cos(2.0 * grid) - np.cos(6.0 * grid)
    elapsed = time.perf_counter() - start

    worst = float(np.max(np.abs(s_values - closed_form)))
    if worst > 1e-12:
        violations.append(f"curve deviates by {worst:.3e} (allowed 1e-12)")
    peak = float(np.max(np.abs(s_values)))
    if abs(peak - TWO_ROOT_TWO) > 1e-6:
        violations.append(f"max |S| = {peak!r}, want 2*sqrt(2) within 1e-6")
    if elapsed > 1.0:
        violations.append(f"grid took {elapsed:.2f} s (allowed 1 s)")
    report("chsh_curve_and_maximum", violations)


def test_detection_probability_law():
    violations = []
    rng = np.random.default_rng(2024)
    theta_a, theta_b = rng.uniform(-math.pi, math.pi, size=(100, 2)).T
    # joints over ++, +-, -+, --
    joint = analyzed_pairs(theta_a, theta_b) ** 2
    same = 0.5 * np.cos(theta_a - theta_b) ** 2
    cross = 0.5 * np.sin(theta_a - theta_b) ** 2
    for index, key, want in ((0, "++", same), (3, "--", same), (1, "+-", cross), (2, "-+", cross)):
        error = float(np.max(np.abs(joint[:, index] - want)))
        if error > 1e-12:
            violations.append(f"P({key}) off by {error:.3e}")
    closure = float(np.max(np.abs(np.sum(joint, axis=-1) - 1.0)))
    if closure > 1e-12:
        violations.append(f"joint probabilities miss 1 by {closure:.3e}")
    report("detection_probability_law", violations)


def test_pair_entropy_invariance():
    violations = []
    rng = np.random.default_rng(77)
    angles = [(0.0, 0.0), (math.pi / 8, 0.0), (math.pi / 4, math.pi / 3)]
    angles += [tuple(rng.uniform(-math.pi, math.pi, size=2)) for _ in range(47)]
    theta_a, theta_b = np.array(angles).T
    for angle_pair, amplitudes in zip(angles, analyzed_pairs(theta_a, theta_b)):
        rho = partial_trace(labeled(("photon_A", "photon_B"), amplitudes), "photon_A")
        vn = von_neumann_entropy(rho)
        r2 = renyi_entropy(rho, 2.0)
        if abs(vn - 1.0) > 1e-10 or abs(r2 - 1.0) > 1e-10:
            violations.append(
                f"entropy ({vn!r}, {r2!r}) at angles ({angle_pair[0]:.4f}, {angle_pair[1]:.4f})"
            )
            break
    report("pair_entropy_invariance", violations)


def test_mode_rotation_entropy_landmarks():
    violations = []
    landmarks = ((0.0, 0.0), (math.pi / 4, 1.0), (math.pi / 8, 1.5))
    states = rotated_pair_state(np.array([phi for phi, _ in landmarks]))
    for (phi, want), amplitudes in zip(landmarks, states):
        rho = partial_trace(labeled(("mode_a", "mode_b"), amplitudes, (3, 3)), "mode_a")
        got = von_neumann_entropy(rho)
        if abs(got - want) > 1e-10:
            violations.append(f"entropy {got!r} at phi={phi:.4f}, want {want}")
    report("mode_rotation_entropy_landmarks", violations)


def test_interferometer_output_laws():
    violations = []
    rng = np.random.default_rng(404)
    rho_in = partial_trace(labeled(("atom_1", "atom_2"), _INPUT_PAIR), "atom_1")
    entropy_in = von_neumann_entropy(rho_in)
    if abs(entropy_in - 1.0) > 1e-10:
        violations.append(f"input entropy {entropy_in!r}")
    phi_a, phi_b = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(100, 2)).T
    outputs = bragg_outputs(phi_a, phi_b)
    norm_error = float(np.max(np.abs(np.linalg.norm(outputs, axis=-1) - 1.0)))
    if norm_error > 1e-12:
        violations.append(f"output norm off by {norm_error:.3e}")
    e_error = float(np.max(np.abs(momentum_correlations(phi_a, phi_b) - np.cos(phi_a - phi_b))))
    if e_error > 1e-12:
        violations.append(f"E off by {e_error:.3e}")
    closure = float(np.max(np.abs(np.sum(np.abs(outputs) ** 2, axis=-1) - 1.0)))
    if closure > 1e-12:
        violations.append("joint probabilities do not close")
    for a, b, amplitudes in zip(phi_a, phi_b, outputs):
        rho = partial_trace(labeled(("station_A", "station_B"), amplitudes), "station_A")
        entropy_out = von_neumann_entropy(rho)
        if abs(entropy_out - 1.0) > 1e-10:
            violations.append(f"output entropy {entropy_out!r} at phases ({a:.4f}, {b:.4f})")
            break
    report("interferometer_output_laws", violations)


def test_oscillator_spectrum_limits():
    violations = []
    start = time.perf_counter()

    harmonic = build_model(0.0, 64, levels=64)
    drift = max(abs(harmonic.energy(n) - (n + 0.5)) for n in range(64))
    if drift > 1e-10:
        violations.append(f"harmonic spectrum off by {drift:.3e}")

    couplings = (0.01, 0.02, 0.04)
    ratios = []
    for g in couplings:
        model = build_model(g, 64, levels=1)
        deviation = abs(model.energy(0) - first_order_energy(0, g))
        ratios.append(deviation / g**2)
    if min(ratios) <= 0.0:
        violations.append("second-order deviation vanished unexpectedly")
    elif max(ratios) / min(ratios) > 2.0:
        violations.append(f"C ratio {max(ratios) / min(ratios):.3f} exceeds 2")

    coarse = build_model(0.5, 64, levels=10)
    fine = build_model(0.5, 128, levels=10)
    doubling = max(abs(coarse.energy(n) - fine.energy(n)) for n in range(10))
    if doubling > 1e-8:
        violations.append(f"truncation-doubling drift {doubling:.3e}")

    elapsed = time.perf_counter() - start
    if elapsed > 5.0:
        violations.append(f"took {elapsed:.2f} s (allowed 5 s)")
    report("oscillator_spectrum_limits", violations)


def test_conversion_entropy_oracle():
    violations = []

    harmonic = build_model(0.0, 64, levels=3)
    unconverted = pair_from_overlaps(
        ROOT_HALF, ROOT_HALF, mode_overlap(harmonic, 1), mode_overlap(harmonic, 2)
    )
    entropy = particle_entanglement_entropy(unconverted)
    if abs(entropy) > 1e-12:
        violations.append(f"zero-coupling entropy {entropy!r}")

    bell = pair_from_overlaps(ROOT_HALF, ROOT_HALF, 0.0, 0.0)
    entropy = particle_entanglement_entropy(bell)
    if abs(entropy - 1.0) > 1e-12:
        violations.append(f"orthogonal balanced entropy {entropy!r}")

    mixes = np.linspace(0.15, math.pi / 2 - 0.15, 5)
    overlaps = (0.0, 0.25, 0.5, 0.75, 0.95)
    worst = 0.0
    for t in mixes:
        h_amp, a_amp = math.cos(t), math.sin(t)
        for s1 in overlaps:
            for s2 in overlaps:
                got = particle_entanglement_entropy(
                    pair_from_overlaps(h_amp, a_amp, s1, s2)
                )
                worst = max(worst, abs(got - brute_force_entropy(h_amp, a_amp, s1, s2)))
    if worst > 1e-8:
        violations.append(f"grid deviates from the oracle by {worst:.3e}")
    report("conversion_entropy_oracle", violations)


def test_seeded_campaign_statistics():
    violations = []
    start = time.perf_counter()

    config = ConversionConfig(eta=0.9, trials=100_000, seed=42)
    result = run_campaign(config)
    expected = 0.9 * config.landing_prob
    sigma = math.sqrt(expected * (1.0 - expected) / 100_000)
    if abs(result.delivered_rate - expected) > 3.0 * sigma:
        violations.append(
            f"delivered rate {result.delivered_rate!r} outside 3 sigma of {expected}"
        )
    if abs(result.min_fidelity - 1.0) > 1e-12:
        violations.append(f"gate-on min fidelity {result.min_fidelity!r}")

    open_gate = ConversionConfig(eta=0.9, abort_gate_on=False, trials=20_000, seed=7)
    odd = run_campaign(open_gate)
    fidelities = [
        o.fidelity_to_target for o in odd.outcomes if o.fidelity_to_target is not None
    ]
    mean_fidelity = float(np.mean(fidelities))
    if not mean_fidelity < 1.0:
        violations.append(f"gate-off mean fidelity {mean_fidelity!r} not below 1")

    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        violations.append(f"took {elapsed:.2f} s (allowed 30 s)")
    report("seeded_campaign_statistics", violations)


def test_cli_byte_determinism(tmp_path):
    violations = []

    scans = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        code = main(["chsh", "--out", str(path), "--steps", "181"])
        if code != 0:
            violations.append(f"chsh exited {code}")
        scans.append(path.read_bytes())
    if scans[0] != scans[1]:
        violations.append("chsh scan reruns differ")

    config = tmp_path / "run.cfg"
    config.write_text("trials = 500\nseed = 13\neta = 0.9\nlambda = 0.1\n")
    logs, summaries = [], []
    for prefix in ("first", "second"):
        code = main(["protocol", str(config), "--out", str(tmp_path / prefix)])
        if code != 0:
            violations.append(f"protocol exited {code}")
        logs.append((tmp_path / f"{prefix}.jsonl").read_bytes())
        summaries.append((tmp_path / f"{prefix}.json").read_bytes())
    if logs[0] != logs[1]:
        violations.append("protocol outcome logs differ")
    if summaries[0] != summaries[1]:
        violations.append("protocol summaries differ")
    if json.loads(summaries[0])["n_trials"] != 500:
        violations.append("summary does not reflect the requested trial count")
    report("cli_byte_determinism", violations)
