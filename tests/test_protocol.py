"""Conversion protocol: selection, assembly, adiabatic check, trials, and campaigns."""

import json
import math
import random
import re
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from dense_model import position_operator
from kernel_views import decimal_pair_weights, fidelity, labeled, pair_from_overlaps

from modetangle.oscillator import build_model, mode_deformation, mode_overlap
from modetangle.protocol import (
    CHUNK,
    MAX_TRIALS,
    ConversionConfig,
    PhysicsPreconditionError,
    ancilla_branch_amplitudes,
    campaign_summary,
    final_state_from_overlaps,
    outcome_json_line,
    particle_entanglement_entropy,
    render_outcome_log,
    require_adiabatic,
    run_campaign,
)
from modetangle.states import partial_trace, von_neumann_entropy

LOG2_3 = 1.584962500721156
ROOT_HALF = 1.0 / math.sqrt(2.0)


def brute_force_entropy(h_amp, a_amp, s1, s2, dim=16):
    """Entropy oracle built in the full level space, from scratch.

    Each particle's original mode and deformed mode are embedded as
    explicit vectors of length dim; the pair state is formed by outer
    products, reduced by summing over the partner index, and the entropy
    taken from raw eigenvalues.
    """
    def embed(s, home, ortho):
        original = np.zeros(dim)
        original[home] = 1.0
        other = np.zeros(dim)
        other[ortho] = 1.0
        deformed = s * original + math.sqrt(max(0.0, 1.0 - s * s)) * other
        return original, deformed

    a, a_def = embed(s1, 1, 3)
    b, b_def = embed(s2, 2, 5)
    psi = h_amp * np.outer(a, b) + a_amp * np.outer(a_def, b_def)
    psi = psi / np.linalg.norm(psi)
    rho = psi @ psi.conj().T
    eigenvalues = np.linalg.eigvalsh(rho)
    positive = eigenvalues[eigenvalues > 1e-15]
    return float(-(positive * np.log2(positive)).sum())


def initial_mode_state():
    """(|2,0> + |1,1> + |0,2>)/sqrt(3) over factors mode_a, mode_b."""
    amps = np.zeros(9)
    amps[2 * 3 + 0] = amps[1 * 3 + 1] = amps[0 * 3 + 2] = 1.0 / math.sqrt(3.0)
    return labeled(("mode_a", "mode_b"), amps, (3, 3))


def middle_term(state):
    """The one-quantum-per-mode amplitude of the normalized two-mode state."""
    amps = state.amplitudes / np.linalg.norm(state.amplitudes)
    return complex(amps.reshape(state.basis.factor_dims)[1, 1])


def unconverted_delivery():
    """The pair a gate-off campaign delivers when the photon lands but does not register."""
    config = ConversionConfig(landing_prob=1.0, eta=0.0, abort_gate_on=False)
    return one_trial(config, seed=0)


class TestInitialModeState:
    def test_amplitudes(self):
        state = initial_mode_state()
        amps = state.amplitudes.reshape(3, 3)
        assert amps[2, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert amps[1, 1] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert amps[0, 2] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_mode_entropy_is_log2_3(self):
        entropy = von_neumann_entropy(partial_trace(initial_mode_state(), "mode_a"))
        assert entropy == pytest.approx(LOG2_3, abs=1e-12)


class TestSelectMiddleTerm:
    """The selection keeps the |1,1> term: the product |a>|b> with that term's phase."""

    def test_yields_the_particle_product(self):
        amp = middle_term(initial_mode_state())
        product = [amp / abs(amp), 0.0, 0.0, 0.0]
        delivered = unconverted_delivery().delivered_state
        np.testing.assert_allclose(delivered, product, atol=1e-12)
        assert particle_entanglement_entropy(delivered) == pytest.approx(0.0, abs=1e-12)

    def test_carries_the_component_phase(self):
        amp = middle_term(labeled(("mode_a", "mode_b"), [0.0, 0.0, 0.0, 1j]))
        assert amp / abs(amp) == pytest.approx(1j, abs=1e-12)

    def test_empty_projection_rejected(self):
        amps = np.zeros(9)
        amps[6] = 1.0  # |2,0> only: nothing to select
        assert abs(middle_term(labeled(("mode_a", "mode_b"), amps, (3, 3)))) < 1e-15


class TestBranchAmplitudes:
    def test_balanced_default(self):
        h_amp, a_amp = ancilla_branch_amplitudes(ConversionConfig().detect_amp)
        assert h_amp == pytest.approx(ROOT_HALF, abs=1e-12)
        assert a_amp == pytest.approx(ROOT_HALF, abs=1e-12)

    def test_extreme_settings(self):
        h_amp, a_amp = ancilla_branch_amplitudes(0.0)
        assert (h_amp, a_amp) == (1.0, 0.0)
        h_amp, a_amp = ancilla_branch_amplitudes(1.0)
        assert h_amp == pytest.approx(0.0, abs=1e-12)
        assert a_amp == pytest.approx(1.0, abs=1e-12)

    def test_unit_norm_for_any_setting(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            amp = rng.random() * np.exp(1j * rng.uniform(0, 2 * math.pi))
            h_amp, a_amp = ancilla_branch_amplitudes(amp)
            assert abs(h_amp) ** 2 + abs(a_amp) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_overlarge_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ConversionConfig(detect_amp=1.2)

    @pytest.mark.parametrize(
        "amp", [complex(math.nan, 0.0), complex(0.5, math.nan)], ids=["real", "imag"]
    )
    def test_non_finite_amplitude_rejected(self, amp):
        with pytest.raises(ValueError, match="detect_amp must be finite"):
            ConversionConfig(detect_amp=amp)


class TestFinalStateAssembly:
    def test_orthogonal_balanced_limit_is_a_bell_pair(self):
        state = pair_from_overlaps(ROOT_HALF, ROOT_HALF, 0.0, 0.0)
        np.testing.assert_allclose(state, [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-12)
        assert particle_entanglement_entropy(state) == pytest.approx(1.0, abs=1e-12)

    def test_unit_overlaps_give_a_product(self):
        state = pair_from_overlaps(ROOT_HALF, ROOT_HALF, 1.0, 1.0)
        np.testing.assert_allclose(state, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert particle_entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_partial_overlap_point(self):
        # Schmidt pair (0.9, 0.1) for balanced branches at s1 = s2 = 1/2
        state = pair_from_overlaps(ROOT_HALF, ROOT_HALF, 0.5, 0.5)
        entropy = particle_entanglement_entropy(state)
        hand = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert entropy == pytest.approx(hand, abs=1e-12)
        assert 0.0 < entropy < 1.0

    def test_norm_follows_the_gram_rule(self):
        rng = np.random.default_rng(311)
        for _ in range(40):
            t = rng.uniform(0.05, math.pi / 2 - 0.05)
            h_amp, a_amp = math.cos(t), math.sin(t)
            s1, s2 = rng.uniform(0.0, 1.0, size=2)
            raw = np.array(
                [
                    h_amp + a_amp * s1 * s2,
                    a_amp * s1 * math.sqrt(1 - s2 * s2),
                    a_amp * math.sqrt(1 - s1 * s1) * s2,
                    a_amp * math.sqrt(1 - s1 * s1) * math.sqrt(1 - s2 * s2),
                ]
            )
            want = math.sqrt(h_amp**2 + a_amp**2 + 2 * h_amp * a_amp * s1 * s2)
            assert np.linalg.norm(raw) == pytest.approx(want, abs=1e-12)
            state = pair_from_overlaps(h_amp, a_amp, s1, s2)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_cancelling_branches_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            pair_from_overlaps(ROOT_HALF, -ROOT_HALF, 1.0, 1.0)

    def test_unbalanced_branch_norm_rejected(self):
        with pytest.raises(ValueError):
            pair_from_overlaps(1.0, 1.0, 0.5, 0.5)

    @pytest.mark.parametrize(
        "h_amp, a_amp",
        [
            (complex(math.nan, 0.0), ROOT_HALF),
            (complex(ROOT_HALF, math.nan), ROOT_HALF),
            (ROOT_HALF, complex(math.nan, 0.0)),
            (ROOT_HALF, complex(ROOT_HALF, math.nan)),
        ],
        ids=["harmonic-real", "harmonic-imag", "anharmonic-real", "anharmonic-imag"],
    )
    def test_non_finite_branch_amplitudes_rejected(self, h_amp, a_amp):
        with pytest.raises(ValueError, match="branch amplitudes must be finite"):
            pair_from_overlaps(h_amp, a_amp, 0.5, 0.9)

    def test_entropy_against_brute_force_grid(self):
        mixes = np.linspace(0.15, math.pi / 2 - 0.15, 5)
        overlaps = [0.0, 0.25, 0.5, 0.75, 0.95]
        for t in mixes:
            h_amp, a_amp = math.cos(t), math.sin(t)
            for s1 in overlaps:
                for s2 in overlaps:
                    entropy = particle_entanglement_entropy(
                        pair_from_overlaps(h_amp, a_amp, s1, s2)
                    )
                    oracle = brute_force_entropy(h_amp, a_amp, s1, s2)
                    assert entropy == pytest.approx(oracle, abs=1e-8)
                    assert entropy > 0.0  # strictly entangled off the edges

    def test_more_deformation_means_more_entanglement(self):
        weaker = pair_from_overlaps(ROOT_HALF, ROOT_HALF, 0.8, 0.8)
        stronger = pair_from_overlaps(ROOT_HALF, ROOT_HALF, 0.2, 0.2)
        assert particle_entanglement_entropy(stronger) > particle_entanglement_entropy(
            weaker
        )

    def test_model_backed_assembly_matches_full_space(self):
        # same construction carried out with the model's actual level
        # vectors in the untruncated space
        model = build_model(0.8, 48, levels=3)
        state = pair_from_overlaps(
            ROOT_HALF, ROOT_HALF, mode_overlap(model, 1), mode_overlap(model, 2)
        )
        entropy = particle_entanglement_entropy(state)

        v1 = model.eigenstate(1)
        v2 = model.eigenstate(2)
        home1 = np.zeros(48)
        home1[1] = 1.0
        home2 = np.zeros(48)
        home2[2] = 1.0
        psi = ROOT_HALF * np.outer(home1, home2) + ROOT_HALF * np.outer(v1, v2)
        psi = psi / np.linalg.norm(psi)
        rho = psi @ psi.conj().T
        lam = np.linalg.eigvalsh(rho)
        lam = lam[lam > 1e-15]
        oracle = float(-(lam * np.log2(lam)).sum())
        assert entropy == pytest.approx(oracle, abs=1e-8)


class TestModeSplits:
    @pytest.mark.parametrize(
        "split, message",
        [
            ((-0.1, 0.99), "particle_2 s must lie in [0, 1], got -0.1"),
            ((0.6, -0.8), "particle_2 t must lie in [0, 1], got -0.8"),
            ((0.6, 1.25), "particle_2 t must lie in [0, 1], got 1.25"),
            ((0.6, math.nan), "particle_2 t must be finite, got nan"),
            ((0.6, 0.6), "particle_2 must satisfy s^2 + t^2 = 1, got s=0.6, t=0.6"),
        ],
    )
    def test_a_bad_split_is_refused_by_particle(self, split, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            final_state_from_overlaps(ROOT_HALF, ROOT_HALF, (0.6, 0.8), split)
        with pytest.raises(ValueError, match=f"^{re.escape(message.replace('_2', '_1'))}$"):
            final_state_from_overlaps(ROOT_HALF, ROOT_HALF, split, (0.6, 0.8))

    def test_a_split_within_1e_9_of_the_circle_is_taken(self):
        t = math.sqrt(1.0 - 0.36 + 5e-10)
        state = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, (0.6, t), (0.6, 0.8))
        assert state[3] == pytest.approx(ROOT_HALF * t * 0.8 / math.sqrt(1.0 + 0.36), rel=1e-9)

    def test_the_target_takes_t_from_the_vector(self):
        # at lambda = 1e-6, sqrt(1 - s^2) would miss t by 4e-5 relative
        config = ConversionConfig(anharmonicity_on=1e-6, landing_prob=1.0, eta=1.0)
        model = build_model(1e-6, 64, levels=3)
        splits = [(mode_overlap(model, n), mode_deformation(model, n)) for n in (1, 2)]
        want = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, *splits)
        assert one_trial(config, seed=0).delivered_state == want


def logged_pair(anharmonicity):
    """Amplitudes and particle entropy of the delivered pair, read back from its log line."""
    config = ConversionConfig(anharmonicity_on=anharmonicity, landing_prob=1.0, eta=1.0)
    record = json.loads(outcome_json_line(one_trial(config, seed=0)))
    amplitudes = [complex(*pair) for pair in record["delivered_state"]["amplitudes"]]
    return amplitudes, record["particle_entropy"]


def decimal_pair_entropy(amplitudes):
    """One particle's entropy in bits of a 2x2 pair, to 50 digits from its float amplitudes."""
    with localcontext() as ctx:
        ctx.prec = 50
        weights = decimal_pair_weights(amplitudes)
        return -sum(w * w.ln() for w in weights if w > 0) / Decimal(2).ln()


def first_order_deformation(n, g):
    """t_n to first order: (g/4) sqrt(sum_k <k|X^4|n>^2 / (n - k)^2) over k = n +- 2, n +- 4."""
    x4 = np.linalg.matrix_power(position_operator(n + 8), 4)
    ks = [k for k in (n - 4, n - 2, n + 2, n + 4) if k >= 0]
    return g / 4 * math.sqrt(sum(x4[k, n] ** 2 / (n - k) ** 2 for k in ks))


class TestDeliveredEntropy:
    """The particle entropy of the delivered pair, the number that carries the paper's claim."""

    @pytest.mark.parametrize("anharmonicity", [1e-8, 1e-6, 1e-4, 1e-2, 0.1])
    def test_right_to_4_ulps_against_a_50_digit_oracle(self, anharmonicity):
        # an SVD spectrum gave 0 at 1e-8, 3.2e-16 for 8.0e-24 at 1e-6, and
        # missed by 2.5e-2 relative at 1e-4
        amplitudes, entropy = logged_pair(anharmonicity)
        exact = decimal_pair_entropy(amplitudes)
        assert exact > 0
        assert abs(Decimal(entropy) - exact) <= 4 * Decimal(2.0**-52) * exact

    @pytest.mark.parametrize("anharmonicity", [1e-8, 1e-6, 1e-4])
    def test_follows_the_first_order_law(self, anharmonicity):
        # small weight p = |h a t1 t2|^2 / nu^2, nu = |h|^2 + |a|^2 + 2 Re(conj(h) a) s1 s2,
        # and S = p (log2(1/p) + 1/ln 2) + O(p^2); the law misses by ~12.5 lambda relative
        _, entropy = logged_pair(anharmonicity)
        t1, t2 = (first_order_deformation(n, anharmonicity) for n in (1, 2))
        s1, s2 = math.sqrt(1.0 - t1 * t1), math.sqrt(1.0 - t2 * t2)
        nu = 1.0 + 2.0 * ROOT_HALF * ROOT_HALF * s1 * s2
        p = (ROOT_HALF * ROOT_HALF * t1 * t2 / nu) ** 2
        law = p * (math.log2(1.0 / p) + 1.0 / math.log(2.0))
        assert abs(entropy - law) <= 20 * anharmonicity * law

    def test_random_states_against_a_50_digit_oracle(self):
        # generic pairs and pairs near (1, 0, 0, 0), as the protocol delivers them
        rng = random.Random(79)
        for i in range(1000):
            scale = (1.0, 1e-2, 1e-4, 1e-8)[i % 4]
            state = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) * f for f in (1.0, scale, scale, scale * scale)]
            exact = decimal_pair_entropy(state)
            assert abs(Decimal(particle_entanglement_entropy(state)) - exact) <= Decimal("1e-14") * exact

    def test_the_determinant_is_rounded_once(self):
        """math.hypot rounds |ad - bc| to the nearest double, where numpy's hypot missed by an ulp."""
        config = ConversionConfig(
            anharmonicity_on=1e-4, truncation=128, level_a=2, level_b=0,
            detect_amp=-0.8136479296104621 + 0.36379425889591477j, abort_gate_on=False,
            landing_prob=1.0, eta=1.0,
        )
        outcome = one_trial(config, seed=0)
        (ar, ai), (br, bi), (cr, ci), (dr, di) = ((z.real, z.imag) for z in outcome.delivered_state)
        re_part, im_part = ar * dr - ai * di - (br * cr - bi * ci), ar * di + ai * dr - (br * ci + bi * cr)
        det = math.hypot(re_part, im_part)
        assert det == 6.665292789275598e-09
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (Decimal(re_part) ** 2 + Decimal(im_part) ** 2).sqrt()
        assert abs(Decimal(det) - exact) < Decimal(math.ulp(det)) / 2
        assert outcome.particle_entropy == 2.477381454212703e-15

    def test_summary_prints_the_delivered_entropy(self):
        config = ConversionConfig(anharmonicity_on=1e-6, landing_prob=1.0, eta=1.0)
        result = run_campaign(replace(config, trials=3, seed=0))
        assert result.mean_entropy == logged_pair(1e-6)[1]
        assert f"{result.mean_entropy:.12g}" == "7.98394123585e-24"


class TestAssembleFromModel:
    def test_overlaps_read_off_the_model(self):
        # a certain delivery ships the campaign's target, built from the
        # overlaps of the configured levels
        config = ConversionConfig(
            anharmonicity_on=0.3, level_a=3, level_b=0, detect_amp=0.6,
            eta=1.0, landing_prob=1.0,
        )
        state = one_trial(config, seed=0).delivered_state
        model = build_model(0.3, 64, levels=4)
        s1 = mode_overlap(model, 3)
        s2 = mode_overlap(model, 0)
        direct = pair_from_overlaps(0.8, 0.6, s1, s2)
        np.testing.assert_allclose(state, direct, atol=1e-12)

    def test_zero_coupling_gives_zero_entropy(self):
        model = build_model(0.0, 64, levels=3)
        state = pair_from_overlaps(
            ROOT_HALF, ROOT_HALF, mode_overlap(model, 1), mode_overlap(model, 2)
        )
        assert particle_entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)


class TestConfigValidation:
    def test_clock_budget_enforced(self):
        with pytest.raises(ValueError, match="clock_period"):
            ConversionConfig(clock_period=3.5, travel_plus_register_time=3.0, and_gate_time=1.0)

    def test_landing_prob_range(self):
        with pytest.raises(ValueError):
            ConversionConfig(landing_prob=1.5)

    def test_eta_range(self):
        with pytest.raises(ValueError):
            ConversionConfig(eta=-0.1)

    def test_default_levels(self):
        config = ConversionConfig()
        assert (config.level_a, config.level_b) == (1, 2)

    def test_custom_levels(self):
        config = ConversionConfig(level_a=3, level_b=5)
        assert (config.level_a, config.level_b) == (3, 5)

    def test_equal_levels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ConversionConfig(level_a=2, level_b=2)

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ConversionConfig(level_a=-1)

    @pytest.mark.parametrize("name", ["truncation", "level_a", "level_b"])
    @pytest.mark.parametrize("value", [64.7, "64", None], ids=["float", "str", "none"])
    def test_non_integer_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ConversionConfig(**{name: value})

    def test_numpy_integers_admitted(self):
        config = ConversionConfig(
            truncation=np.int64(32), level_a=np.int32(3), level_b=np.uint8(0)
        )
        assert (config.truncation, config.level_a, config.level_b) == (32, 3, 0)
        assert all(type(v) is int for v in (config.truncation, config.level_a, config.level_b))

    @pytest.mark.parametrize("value", ["off", 1, None], ids=["str", "int", "none"])
    def test_non_bool_gate_refused_by_name(self, value):
        with pytest.raises(ValueError, match="^abort_gate_on must be a bool"):
            ConversionConfig(abort_gate_on=value)

    def test_numpy_bool_gate_admitted(self):
        config = ConversionConfig(abort_gate_on=np.bool_(False))
        assert config.abort_gate_on is False

    def test_campaign_size_and_seed(self):
        with pytest.raises(ValueError, match=r"^trials must be at least 1, got 0$"):
            ConversionConfig(trials=0, seed=1)
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            ConversionConfig(trials=10, seed=-1)

    @pytest.mark.parametrize(
        "trials, seed, name",
        [(10.7, 5, "trials"), ("10", 5, "trials"), (10, 5.9, "seed"), (10, "5", "seed")],
        ids=["float-trials", "str-trials", "float-seed", "str-seed"],
    )
    def test_non_integer_size_or_seed_refused_by_name(self, trials, seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ConversionConfig(trials=trials, seed=seed)

    def test_more_trials_than_spawn_ids_refused(self):
        # refused with the config, before any campaign draws; at the bound
        # the log is ~1 TB
        message = r"^trials must be at most 2\*\*32 = 4294967296, got 4294967297$"
        with pytest.raises(ValueError, match=message):
            ConversionConfig(trials=MAX_TRIALS + 1, seed=1)
        assert ConversionConfig(trials=MAX_TRIALS).trials == MAX_TRIALS

    def test_seed_of_any_size_admitted(self):
        config = ConversionConfig(trials=3, seed=2**128 + 5)
        summary = campaign_summary(run_campaign(config), config)
        assert (summary["n_trials"], summary["seed"]) == (3, 2**128 + 5)

    def test_numpy_integer_size_and_seed_admitted(self):
        config = ConversionConfig(trials=np.int64(3), seed=np.uint32(5))
        assert type(config.trials) is int and type(config.seed) is int
        result = run_campaign(config)
        assert type(result.n_trials) is int
        assert rendered(result) == rendered(run_campaign(ConversionConfig(trials=3, seed=5)))


def adiabatic(delta_e, h_tilde, t_meas, threshold=None):
    """A default config with the given adiabatic scales and threshold."""
    return ConversionConfig(
        adiabatic_delta_e=delta_e, adiabatic_h_tilde=h_tilde,
        adiabatic_t_meas=t_meas, adiabatic_threshold=threshold,
    )


ADIABATIC_FIELDS = ("adiabatic_delta_e", "adiabatic_h_tilde", "adiabatic_t_meas", "adiabatic_threshold")


class TestAdiabaticCheck:
    def test_wide_margins_pass(self):
        require_adiabatic(adiabatic(1.0, 0.01, 1000.0))
        with pytest.raises(PhysicsPreconditionError, match=r"r1=100, r2=10,"):
            require_adiabatic(adiabatic(1.0, 0.01, 1000.0, threshold=10.5))

    def test_small_gap_fails(self):
        with pytest.raises(PhysicsPreconditionError, match=r"r1=2, r2=10,"):
            require_adiabatic(adiabatic(0.02, 0.01, 1000.0))

    def test_short_measurement_fails(self):
        with pytest.raises(PhysicsPreconditionError, match=r"r1=100, r2=0\.5,"):
            require_adiabatic(adiabatic(1.0, 0.01, 50.0))

    def test_config_without_scales_passes(self):
        require_adiabatic(ConversionConfig())

    def test_threshold_is_configurable(self):
        require_adiabatic(adiabatic(1.0, 0.01, 50.0, threshold=0.25))

    def test_non_positive_scales_rejected(self):
        with pytest.raises(ValueError):
            adiabatic(0.0, 0.01, 10.0)
        with pytest.raises(ValueError):
            adiabatic(1.0, -0.01, 10.0)
        with pytest.raises(ValueError):
            adiabatic(1.0, 0.01, math.inf)

    @pytest.mark.parametrize("field", ADIABATIC_FIELDS)
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_each_refusal_names_its_field(self, field, value):
        values = dict(zip(ADIABATIC_FIELDS, (100.0, 1.0, 100.0, 10.0)), **{field: value})
        with pytest.raises(ValueError, match=rf"^{field} must be (positive|finite), got "):
            ConversionConfig(**values)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"adiabatic_delta_e": 1.0},
             "adiabatic_delta_e given without adiabatic_h_tilde, adiabatic_t_meas; "),
            ({"adiabatic_t_meas": 1000.0, "adiabatic_h_tilde": 0.01},
             "adiabatic_h_tilde, adiabatic_t_meas given without adiabatic_delta_e; "),
            ({"adiabatic_threshold": 5.0},
             "adiabatic_threshold given without adiabatic_delta_e, adiabatic_h_tilde, adiabatic_t_meas; "),
        ],
        ids=["one-scale", "two-scales", "threshold-alone"],
    )
    def test_partial_fields_refused_naming_the_missing_scales(self, values, message):
        with pytest.raises(ValueError) as info:
            ConversionConfig(**values)
        assert str(info.value) == message + "the adiabatic_* scales are all-or-none"


def one_trial(config, seed):
    """The outcome of a length-1 campaign."""
    return run_campaign(replace(config, trials=1, seed=seed)).outcomes[0]


class TestRunTrial:
    def test_certain_delivery(self):
        config = ConversionConfig(landing_prob=1.0, eta=1.0)
        outcome = one_trial(config, seed=3)
        assert outcome.photon_detected and outcome.registered
        assert not outcome.aborted
        assert outcome.fidelity_to_target == pytest.approx(1.0, abs=1e-12)

    def test_unconverted_fidelity_is_the_overlap_with_the_target(self):
        outcome = unconverted_delivery()
        target = one_trial(ConversionConfig(landing_prob=1.0), seed=0).delivered_state
        # the target is a unit vector, so |<u|t>|^2 with u = (1, 0, 0, 0) is |t[0]|^2
        assert outcome.fidelity_to_target == abs(target[0]) ** 2
        assert outcome.fidelity_to_target == pytest.approx(
            fidelity(outcome.delivered_state, target), rel=1e-15
        )
        assert outcome.fidelity_to_target < 1.0

    def test_dead_detector_always_aborts(self):
        config = ConversionConfig(eta=0.0)
        for seed in range(5):
            outcome = one_trial(config, seed=seed)
            assert outcome.aborted
            assert outcome.delivered_state is None

    def test_same_seed_same_outcome(self):
        config = ConversionConfig(eta=0.5)
        first = one_trial(config, seed=99)
        second = one_trial(config, seed=99)
        assert outcome_json_line(first) == outcome_json_line(second)

    def test_draws_are_those_of_random_random(self):
        """Trial 0 takes the first two doubles of random.Random on the seed."""
        config = ConversionConfig(eta=0.5)
        kinds = set()
        for seed in range(40):
            rand = random.Random(seed).random
            landing_draw, eta_draw = rand(), rand()
            outcome = one_trial(config, seed=seed)
            assert outcome.photon_detected == (landing_draw < 0.5)
            assert outcome.registered == (landing_draw < 0.5 and eta_draw < 0.5)
            kinds.add((outcome.photon_detected, outcome.registered))
        assert len(kinds) == 3


# the Mersenne Twister keys on the seed's 32-bit words: 2**32 - 1 and 2**32
# take one and two, 2**64 + 3 three, and 2**128 + 5 five
ORACLE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]


def kinds_one_trial_at_a_time(config):
    """The campaign's kind bytes, two doubles of a fresh random.Random(seed) per trial."""
    rand = random.Random(config.seed).random
    kinds = bytearray()
    for _ in range(config.trials):
        landing, registering = rand(), rand()
        landed = landing < config.landing_prob
        kinds.append(2 if landed and registering < config.eta else int(landed))
    return kinds


class TestMersenneStream:
    """The campaign's chunked draws against the stream drawn one trial at a time."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_kinds_across_a_chunk_boundary(self, seed):
        config = ConversionConfig(eta=0.7, trials=CHUNK + 6, seed=seed)
        kinds = run_campaign(config).outcomes.kinds
        assert kinds == kinds_one_trial_at_a_time(config)
        assert set(kinds) == {0, 1, 2}

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_campaigns_around_a_chunk_are_prefixes_of_one_another(self, seed):
        short, whole, long = (
            run_campaign(ConversionConfig(eta=0.7, trials=n, seed=seed)).outcomes.kinds
            for n in (CHUNK - 1, CHUNK, CHUNK + 1)
        )
        assert len(long) == CHUNK + 1
        assert long[:CHUNK] == whole and whole[:CHUNK - 1] == short


def rendered(result):
    """The whole outcome log of a campaign as one string."""
    return "".join(render_outcome_log(result.outcomes))


class TestRunCampaign:
    def test_gate_on_statistics(self):
        config = ConversionConfig(eta=0.9)
        result = run_campaign(replace(config, trials=20_000, seed=17))
        expected = 0.9 * 0.5
        sigma = math.sqrt(expected * (1.0 - expected) / 20_000)
        assert abs(result.delivered_rate - expected) < 3.0 * sigma
        assert result.min_fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.abort_rate == pytest.approx(1.0 - result.delivered_rate, abs=1e-12)

    def test_gate_off_lets_errors_through(self):
        config = ConversionConfig(eta=0.9, abort_gate_on=False)
        result = run_campaign(replace(config, trials=20_000, seed=19))
        landing_sigma = math.sqrt(0.25 / 20_000)
        assert abs(result.delivered_rate - 0.5) < 3.0 * landing_sigma
        assert result.abort_rate == 0.0
        assert result.min_fidelity < 1.0
        fidelities = [
            o.fidelity_to_target
            for o in result.outcomes
            if o.fidelity_to_target is not None
        ]
        assert np.mean(fidelities) < 1.0

    @pytest.mark.parametrize("gate_on", [True, False], ids=("on", "off"))
    def test_summary_is_exact_over_the_delivered_outcomes(self, gate_on):
        """The mean of every delivered entropy, rounded once; the rates and the least fidelity."""
        result = run_campaign(ConversionConfig(eta=0.9, abort_gate_on=gate_on, trials=2000, seed=11))
        delivered = [o for o in result.outcomes if o.delivered_state is not None]
        exact_mean = sum(Fraction(o.particle_entropy) for o in delivered) / len(delivered)
        assert result.mean_entropy == float(exact_mean)
        assert result.min_fidelity == min(o.fidelity_to_target for o in delivered)
        assert result.delivered_rate == len(delivered) / 2000
        assert result.abort_rate == (1.0 - len(delivered) / 2000 if gate_on else 0.0)

    def test_zero_coupling_delivers_zero_entropy(self):
        config = ConversionConfig(anharmonicity_on=0.0, eta=0.8)
        result = run_campaign(replace(config, trials=2_000, seed=23))
        for outcome in result.outcomes:
            if outcome.particle_entropy is not None:
                assert outcome.particle_entropy == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("gate_on", [True, False], ids=("on", "off"))
    def test_campaign_calls_no_blas_norm(self, monkeypatch, gate_on):
        # the delivered state is normalized in plain floats, so its bytes do
        # not rest on the summation order of a BLAS build's dot product
        def refuse(*args, **kwargs):
            raise AssertionError("the campaign called numpy.linalg.norm")

        monkeypatch.setattr(np.linalg, "norm", refuse)
        config = ConversionConfig(eta=0.9, abort_gate_on=gate_on, trials=100, seed=3)
        assert run_campaign(config).n_trials == 100

    def test_identical_seeds_reproduce_the_log(self):
        config = ConversionConfig(eta=0.7)
        first = run_campaign(replace(config, trials=500, seed=29))
        second = run_campaign(replace(config, trials=500, seed=29))
        assert rendered(first) == rendered(second)

    def test_different_seeds_differ(self):
        config = ConversionConfig(eta=0.7)
        first = run_campaign(replace(config, trials=500, seed=29))
        third = run_campaign(replace(config, trials=500, seed=31))
        assert rendered(first) != rendered(third)

    @pytest.mark.parametrize("gate_on", [True, False])
    def test_log_is_the_joined_outcome_lines(self, gate_on):
        config = ConversionConfig(eta=0.7, abort_gate_on=gate_on)
        result = run_campaign(replace(config, trials=CHUNK + 5, seed=37))
        lines = [outcome_json_line(o) for o in result.outcomes]
        assert len(lines) == CHUNK + 5
        assert rendered(result) == "\n".join(lines) + "\n"
        # each outcome is its kind's template in every field but trial_id
        templates, kinds = result.outcomes.templates, result.outcomes.kinds
        for i, outcome in enumerate(result.outcomes):
            assert outcome.trial_id == i
            assert outcome[1:] == templates[kinds[i]][1:]

    @pytest.mark.parametrize("gate_on", [True, False])
    def test_log_is_prefix_stable(self, gate_on):
        config = ConversionConfig(eta=0.7, abort_gate_on=gate_on)
        long_log = rendered(run_campaign(replace(config, trials=CHUNK + 5, seed=37)))
        short_log = rendered(run_campaign(replace(config, trials=10, seed=37)))
        assert "".join(long_log.splitlines(keepends=True)[:10]) == short_log

    def test_failing_budget_refuses_to_run(self):
        config = adiabatic(0.02, 0.01, 1000.0)
        with pytest.raises(PhysicsPreconditionError):
            run_campaign(replace(config, trials=10, seed=1))

    def test_passing_budget_runs(self):
        config = adiabatic(1.0, 0.01, 1000.0)
        result = run_campaign(replace(config, trials=10, seed=1))
        assert result.n_trials == 10

    def test_trial_count_validated(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="^trials must be at least 1"):
                ConversionConfig(trials=trials, seed=1)
        assert run_campaign(ConversionConfig(trials=1, seed=1)).n_trials == 1

    def test_outcomes_hold_about_one_byte_per_trial(self):
        # one kind byte per trial; a second byte-wide column would hold two
        n = 200_000
        config = ConversionConfig(eta=0.9)
        run_campaign(replace(config, trials=10, seed=41))
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            result = run_campaign(replace(config, trials=n, seed=41))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.outcomes) == n
        assert held - base <= 1.25 * n


class TestOutcomeSerialization:
    def test_line_schema(self):
        config = ConversionConfig(landing_prob=1.0, eta=1.0)
        outcome = one_trial(config, seed=3)
        line = outcome_json_line(outcome)
        import json

        payload = json.loads(line)
        assert payload["registered"] is True
        assert payload["delivered_state"]["factors"] == ["photon_1", "photon_2"]
        assert payload["delivered_state"]["dims"] == [2, 2]
        assert len(payload["delivered_state"]["amplitudes"]) == 4
        assert all(len(pair) == 2 for pair in payload["delivered_state"]["amplitudes"])

    def test_aborted_line_has_no_state(self):
        config = ConversionConfig(eta=0.0)
        outcome = one_trial(config, seed=3)
        import json

        payload = json.loads(outcome_json_line(outcome))
        assert payload["aborted"] is True
        assert payload["delivered_state"] is None
        assert payload["particle_entropy"] is None
