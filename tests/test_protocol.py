"""Conversion protocol: selection, assembly, adiabatic budget, trials, and campaigns."""

import math
import tracemalloc

import numpy as np
import pytest
from kernel_views import fidelity, labeled

from modetangle._pcg64 import SpawnedPCG64
from modetangle.oscillator import build_model, mode_overlap
from modetangle.protocol import (
    CHUNK,
    AdiabaticBudget,
    ConversionConfig,
    PhysicsPreconditionError,
    ancilla_branch_amplitudes,
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
    return one_trial(config, rng_seed=0)


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
        state = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, 0.0, 0.0)
        np.testing.assert_allclose(state, [ROOT_HALF, 0.0, 0.0, ROOT_HALF], atol=1e-12)
        assert particle_entanglement_entropy(state) == pytest.approx(1.0, abs=1e-12)

    def test_unit_overlaps_give_a_product(self):
        state = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, 1.0, 1.0)
        np.testing.assert_allclose(state, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        assert particle_entanglement_entropy(state) == pytest.approx(0.0, abs=1e-12)

    def test_partial_overlap_point(self):
        # Schmidt pair (0.9, 0.1) for balanced branches at s1 = s2 = 1/2
        state = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, 0.5, 0.5)
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
            state = final_state_from_overlaps(h_amp, a_amp, s1, s2)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_cancelling_branches_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            final_state_from_overlaps(ROOT_HALF, -ROOT_HALF, 1.0, 1.0)

    def test_unbalanced_branch_norm_rejected(self):
        with pytest.raises(ValueError):
            final_state_from_overlaps(1.0, 1.0, 0.5, 0.5)

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
            final_state_from_overlaps(h_amp, a_amp, 0.5, 0.9)

    def test_entropy_against_brute_force_grid(self):
        mixes = np.linspace(0.15, math.pi / 2 - 0.15, 5)
        overlaps = [0.0, 0.25, 0.5, 0.75, 0.95]
        for t in mixes:
            h_amp, a_amp = math.cos(t), math.sin(t)
            for s1 in overlaps:
                for s2 in overlaps:
                    entropy = particle_entanglement_entropy(
                        final_state_from_overlaps(h_amp, a_amp, s1, s2)
                    )
                    oracle = brute_force_entropy(h_amp, a_amp, s1, s2)
                    assert entropy == pytest.approx(oracle, abs=1e-8)
                    assert entropy > 0.0  # strictly entangled off the edges

    def test_more_deformation_means_more_entanglement(self):
        weaker = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, 0.8, 0.8)
        stronger = final_state_from_overlaps(ROOT_HALF, ROOT_HALF, 0.2, 0.2)
        assert particle_entanglement_entropy(stronger) > particle_entanglement_entropy(
            weaker
        )

    def test_model_backed_assembly_matches_full_space(self):
        # same construction carried out with the model's actual level
        # vectors in the untruncated space
        model = build_model(0.8, 48, levels=3)
        state = final_state_from_overlaps(
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


class TestAssembleFromModel:
    def test_overlaps_read_off_the_model(self):
        # a certain delivery ships the campaign's target, built from the
        # overlaps of the configured levels
        config = ConversionConfig(
            anharmonicity_on=0.3, level_a=3, level_b=0, detect_amp=0.6,
            eta=1.0, landing_prob=1.0,
        )
        state = one_trial(config, rng_seed=0).delivered_state
        model = build_model(0.3, 64, levels=4)
        s1 = mode_overlap(model, 3)
        s2 = mode_overlap(model, 0)
        direct = final_state_from_overlaps(0.8, 0.6, s1, s2)
        np.testing.assert_allclose(state, direct, atol=1e-12)

    def test_zero_coupling_gives_zero_entropy(self):
        model = build_model(0.0, 64, levels=3)
        state = final_state_from_overlaps(
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
        with pytest.raises(ValueError, match="n_trials"):
            run_campaign(ConversionConfig(), 0, rng_seed=1)
        with pytest.raises(ValueError, match="rng_seed"):
            run_campaign(ConversionConfig(), 10, rng_seed=-1)

    @pytest.mark.parametrize(
        "n_trials, rng_seed, name",
        [(10.7, 5, "n_trials"), ("10", 5, "n_trials"), (10, 5.9, "rng_seed"), (10, "5", "rng_seed")],
        ids=["float-trials", "str-trials", "float-seed", "str-seed"],
    )
    def test_non_integer_size_or_seed_refused_by_name(self, n_trials, rng_seed, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            run_campaign(ConversionConfig(), n_trials, rng_seed)

    def test_numpy_integer_size_and_seed_admitted(self):
        result = run_campaign(ConversionConfig(), np.int64(3), np.uint32(5))
        assert type(result.n_trials) is int
        assert rendered(result) == rendered(run_campaign(ConversionConfig(), 3, 5))


class TestAdiabaticCheck:
    def test_wide_margins_pass(self):
        require_adiabatic(AdiabaticBudget(1.0, 0.01, 1000.0))
        with pytest.raises(PhysicsPreconditionError, match=r"r1=100, r2=10,"):
            require_adiabatic(AdiabaticBudget(1.0, 0.01, 1000.0, ratio_threshold=10.5))

    def test_small_gap_fails(self):
        with pytest.raises(PhysicsPreconditionError, match=r"r1=2, r2=10,"):
            require_adiabatic(AdiabaticBudget(0.02, 0.01, 1000.0))

    def test_short_measurement_fails(self):
        with pytest.raises(PhysicsPreconditionError, match=r"r1=100, r2=0\.5,"):
            require_adiabatic(AdiabaticBudget(1.0, 0.01, 50.0))

    def test_threshold_is_configurable(self):
        require_adiabatic(AdiabaticBudget(1.0, 0.01, 50.0, ratio_threshold=0.25))

    def test_non_positive_scales_rejected(self):
        with pytest.raises(ValueError):
            AdiabaticBudget(0.0, 0.01, 10.0)
        with pytest.raises(ValueError):
            AdiabaticBudget(1.0, -0.01, 10.0)
        with pytest.raises(ValueError):
            AdiabaticBudget(1.0, 0.01, math.inf)


def one_trial(config, rng_seed):
    """The outcome of a length-1 campaign."""
    return run_campaign(config, 1, rng_seed).outcomes[0]


class TestRunTrial:
    def test_certain_delivery(self):
        config = ConversionConfig(landing_prob=1.0, eta=1.0)
        outcome = one_trial(config, rng_seed=3)
        assert outcome.photon_detected and outcome.registered
        assert not outcome.aborted
        assert outcome.fidelity_to_target == pytest.approx(1.0, abs=1e-12)

    def test_unconverted_fidelity_is_the_overlap_with_the_target(self):
        outcome = unconverted_delivery()
        target = one_trial(ConversionConfig(landing_prob=1.0), rng_seed=0).delivered_state
        assert outcome.fidelity_to_target == fidelity(outcome.delivered_state, target)
        assert outcome.fidelity_to_target == pytest.approx(abs(target[0]) ** 2, abs=1e-12)
        assert outcome.fidelity_to_target < 1.0

    def test_dead_detector_always_aborts(self):
        config = ConversionConfig(eta=0.0)
        for seed in range(5):
            outcome = one_trial(config, rng_seed=seed)
            assert outcome.aborted
            assert outcome.delivered_state is None

    def test_same_seed_same_outcome(self):
        config = ConversionConfig(eta=0.5)
        first = one_trial(config, rng_seed=99)
        second = one_trial(config, rng_seed=99)
        assert outcome_json_line(first) == outcome_json_line(second)

    def test_draws_are_those_of_default_rng(self):
        """Trial 0 takes the first two doubles of default_rng on the seed's first spawned child."""
        config = ConversionConfig(eta=0.5)
        kinds = set()
        for seed in range(40):
            child = np.random.SeedSequence(seed).spawn(1)[0]
            landing_draw, eta_draw = np.random.default_rng(child).random(2)
            outcome = one_trial(config, rng_seed=seed)
            assert outcome.photon_detected == (landing_draw < 0.5)
            assert outcome.registered == (landing_draw < 0.5 and eta_draw < 0.5)
            kinds.add((outcome.photon_detected, outcome.registered))
        assert len(kinds) == 3


# 2**32 - 1 and 2**32 take one and two seed words, 2**64 + 3 three, and
# 2**128 + 5 five, more than SeedSequence's pool of four
ORACLE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 5]


def numpy_raw2(seed_sequence):
    return np.random.PCG64(seed_sequence).random_raw(2)


class TestSpawnedPCG64:
    """The campaign's draw kernel against numpy's own SeedSequence and PCG64."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_children_across_a_block_boundary(self, seed):
        stream = SpawnedPCG64(seed)
        children = np.random.SeedSequence(seed).spawn(CHUNK + 6)
        expected = np.array([numpy_raw2(child) for child in children])
        drawn = [stream.raw2(range(0, CHUNK)), stream.raw2(range(CHUNK, CHUNK + 6))]
        assert np.array_equal(np.concatenate([np.stack(pair, axis=1) for pair in drawn]), expected)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_two_word_spawn_keys_from_2_to_the_32(self, seed):
        block = range(2**32, 2**32 + 8)
        expected = [numpy_raw2(np.random.SeedSequence(seed, spawn_key=(i,))) for i in block]
        assert np.array_equal(np.stack(SpawnedPCG64(seed).raw2(block), axis=1), expected)

    def test_block_straddling_2_to_the_32_refused(self):
        with pytest.raises(ValueError, match="straddle"):
            SpawnedPCG64(1).raw2(range(2**32 - 1, 2**32 + 1))


def rendered(result):
    """The whole outcome log of a campaign as one string."""
    return "".join(render_outcome_log(result.outcomes))


class TestRunCampaign:
    def test_gate_on_statistics(self):
        config = ConversionConfig(eta=0.9)
        result = run_campaign(config, 20_000, rng_seed=17)
        expected = 0.9 * 0.5
        sigma = math.sqrt(expected * (1.0 - expected) / 20_000)
        assert abs(result.delivered_rate - expected) < 3.0 * sigma
        assert result.min_fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.abort_rate == pytest.approx(1.0 - result.delivered_rate, abs=1e-12)

    def test_gate_off_lets_errors_through(self):
        config = ConversionConfig(eta=0.9, abort_gate_on=False)
        result = run_campaign(config, 20_000, rng_seed=19)
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

    def test_zero_coupling_delivers_zero_entropy(self):
        config = ConversionConfig(anharmonicity_on=0.0, eta=0.8)
        result = run_campaign(config, 2_000, rng_seed=23)
        for outcome in result.outcomes:
            if outcome.particle_entropy is not None:
                assert outcome.particle_entropy == pytest.approx(0.0, abs=1e-12)

    def test_identical_seeds_reproduce_the_log(self):
        config = ConversionConfig(eta=0.7)
        first = run_campaign(config, 500, rng_seed=29)
        second = run_campaign(config, 500, rng_seed=29)
        assert rendered(first) == rendered(second)

    def test_different_seeds_differ(self):
        config = ConversionConfig(eta=0.7)
        first = run_campaign(config, 500, rng_seed=29)
        third = run_campaign(config, 500, rng_seed=31)
        assert rendered(first) != rendered(third)

    @pytest.mark.parametrize("gate_on", [True, False])
    def test_log_is_the_joined_outcome_lines(self, gate_on):
        config = ConversionConfig(eta=0.7, abort_gate_on=gate_on)
        result = run_campaign(config, CHUNK + 5, rng_seed=37)
        lines = [outcome_json_line(o) for o in result.outcomes]
        assert len(lines) == CHUNK + 5
        assert rendered(result) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("gate_on", [True, False])
    def test_log_is_prefix_stable(self, gate_on):
        config = ConversionConfig(eta=0.7, abort_gate_on=gate_on)
        long_log = rendered(run_campaign(config, CHUNK + 5, rng_seed=37))
        short_log = rendered(run_campaign(config, 10, rng_seed=37))
        assert "".join(long_log.splitlines(keepends=True)[:10]) == short_log

    def test_failing_budget_refuses_to_run(self):
        budget = AdiabaticBudget(0.02, 0.01, 1000.0)
        config = ConversionConfig(adiabatic_budget=budget)
        with pytest.raises(PhysicsPreconditionError):
            run_campaign(config, 10, rng_seed=1)

    def test_passing_budget_runs(self):
        budget = AdiabaticBudget(1.0, 0.01, 1000.0)
        config = ConversionConfig(adiabatic_budget=budget)
        result = run_campaign(config, 10, rng_seed=1)
        assert result.n_trials == 10

    def test_trial_count_validated(self):
        with pytest.raises(ValueError):
            run_campaign(ConversionConfig(), 0, rng_seed=1)

    def test_outcomes_hold_about_one_byte_per_trial(self):
        # one kind byte per trial; a second byte-wide column would hold two
        n = 200_000
        config = ConversionConfig(eta=0.9)
        run_campaign(config, 10, rng_seed=41)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            result = run_campaign(config, n, rng_seed=41)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.outcomes) == n
        assert held - base <= 1.25 * n


class TestOutcomeSerialization:
    def test_line_schema(self):
        config = ConversionConfig(landing_prob=1.0, eta=1.0)
        outcome = one_trial(config, rng_seed=3)
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
        outcome = one_trial(config, rng_seed=3)
        import json

        payload = json.loads(outcome_json_line(outcome))
        assert payload["aborted"] is True
        assert payload["delivered_state"] is None
        assert payload["particle_entropy"] is None
