"""Heralded conversion of mode entanglement into particle entanglement.

The input is the two-mode state (|2,0> + |1,1> + |0,2>)/sqrt(3).  A
coincidence selection keeps the one-quantum-per-mode term, whose
amplitude is real and positive, leaving the particle-factored product
written |a>|b> below.  An ancilla photon then
drives a conditional switch of the confining potential: in the branch
where its detection registered, the potential turns anharmonic and the
occupied modes deform to |a'>, |b'>.  The unresolved ancilla leaves the
pair in the superposition

    psi = harmonic_amp * |a>|b> + anharmonic_amp * |a'>|b'>

Each particle needs only the plane spanned by its original mode and the
deformed one, so the pair state lives in a 2x2 frame: per particle,
basis index 0 is the original mode and index 1 the orthogonal direction
the deformed mode leans into, with overlap s = <a|a'> taken from the
oscillator model, and t = sqrt(1 - s^2) is taken from the eigenvector's
other entries (oscillator.mode_deformation), right to rounding as s nears
1.  A pair state is the tuple of its four amplitudes over (photon_1,
photon_2) in row-major order; |a>|b> is (1, 0, 0, 0).  The unnormalized
amplitudes are

    [h + a*s1*s2,  a*s1*t2,  a*t1*s2,  a*t1*t2]       (h, a = branch amps)

and norm^2 = |h|^2 + |a|^2 + 2 Re(conj(h) a) s1 s2.  How much particle
entanglement survives is set by the branch balance and the overlaps.  The
entropy comes from the small Schmidt weight, |h a t1 t2|^2 / norm^4 over
the large one, right to rounding even at lambda = 1e-8 (~1e-31 bits).

Monte-Carlo trials model the screened ancilla: the photon lands on the
retained half-screen with a configured probability, registers with
efficiency eta, and a clock-synchronized AND gate (when on) aborts every
cycle without a registration, so only faithfully converted pairs are
delivered.  With the gate off, lost-photon cycles deliver the
unconverted product and drag the mean fidelity below one.

ConversionConfig fixes a whole campaign, its trial count and seed too.
Optional adiabatic scales, four of its fields, check the separation
hbar/delta_e << hbar/h_tilde << t_meas before any trial runs.

A campaign therefore delivers one of only two pair states, and is held
as one kind byte per trial (see CampaignOutcomes) and the outcome of each
kind, sampled and rendered CHUNK trials at a time.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._common import CHUNK, PhysicsPreconditionError, require_finite, require_integer
from ._pcg64 import SpawnedPCG64
from .oscillator import MIN_TRUNCATION, build_model, mode_deformation, mode_overlap, require_converged
from .states import pair_small_weights, small_weight_entropies

__all__ = [
    "PhysicsPreconditionError",
    "require_adiabatic",
    "ConversionConfig",
    "ancilla_branch_amplitudes",
    "final_state_from_overlaps",
    "particle_entanglement_entropy",
    "run_campaign",
    "outcome_json_line",
    "render_outcome_log",
    "campaign_summary",
]

ROOT_HALF = 1.0 / math.sqrt(2.0)
AMPLITUDE_TOL = 1e-12
# a trial id must fit the one spawn word _pcg64 draws with; a log this long is ~1 TB
MAX_TRIALS = 2**32

_PAIR_FACTORS = ("photon_1", "photon_2")
_PAIR_DIMS = (2, 2)
# |a>|b>: both particles in their original mode
_UNCONVERTED = (1 + 0j, 0j, 0j, 0j)


@dataclass(frozen=True)
class ConversionConfig:
    """Full configuration of a conversion run, down to its trials and seed.

    photon_1 and photon_2 take the distinct oscillator levels level_a and
    level_b.  detect_amp, |detect_amp| <= 1, is the amplitude of the
    registration branch of the final superposition; a landed photon
    registers with probability eta.
    clock_period must exceed travel_plus_register_time + and_gate_time so
    the abort decision for one cycle lands before the next one starts.
    The truncation must reach MIN_TRUNCATION and exceed both levels.
    abort_gate_on must be a bool or a numpy bool, stored as a bool.
    The adiabatic_* fields are all-or-none: a threshold or any one scale
    needs all three scales, which then arm the campaign's adiabatic check
    (require_adiabatic), with the threshold 10.0 unless given.
    trials, 1 to MAX_TRIALS, counts the campaign's trials, spawned from
    the master seed, a non-negative integer of any size.
    """

    anharmonicity_on: float = 0.1
    truncation: int = 64
    level_a: int = 1
    level_b: int = 2
    detect_amp: complex = ROOT_HALF
    eta: float = 1.0
    clock_period: float = 10.0
    travel_plus_register_time: float = 3.0
    and_gate_time: float = 1.0
    landing_prob: float = 0.5
    abort_gate_on: bool = True
    adiabatic_delta_e: float | None = None
    adiabatic_h_tilde: float | None = None
    adiabatic_t_meas: float | None = None
    adiabatic_threshold: float | None = None
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        scales = ("adiabatic_delta_e", "adiabatic_h_tilde", "adiabatic_t_meas")
        given = [name for name in (*scales, "adiabatic_threshold") if getattr(self, name) is not None]
        missing = [name for name in scales if getattr(self, name) is None]
        if given and missing:
            raise ValueError(
                f"{', '.join(given)} given without {', '.join(missing)}; "
                "the adiabatic_* scales are all-or-none"
            )
        if given and self.adiabatic_threshold is None:
            object.__setattr__(self, "adiabatic_threshold", 10.0)
        levels = [self._integer("level_a"), self._integer("level_b")]
        if levels[0] == levels[1]:
            raise ValueError(f"levels must be distinct, got {levels}")
        if min(levels) < 0:
            raise ValueError("levels must be non-negative")
        detect = complex(self.detect_amp)
        object.__setattr__(self, "detect_amp", detect)
        if not cmath.isfinite(detect):
            raise ValueError(f"detect_amp must be finite, got {detect}")
        if abs(detect) > 1.0 + AMPLITUDE_TOL:
            raise ValueError(f"|detect_amp| must not exceed 1, got {abs(detect)}")
        object.__setattr__(self, "eta", _unit_interval("eta", self.eta))
        g = require_finite("anharmonicity_on", self.anharmonicity_on)
        if g < 0.0:
            raise ValueError(f"anharmonicity_on must be non-negative, got {g}")
        object.__setattr__(self, "anharmonicity_on", g)
        object.__setattr__(self, "landing_prob", _unit_interval("landing_prob", self.landing_prob))
        for name in ("clock_period", "travel_plus_register_time", "and_gate_time", *given):
            value = require_finite(name, getattr(self, name))
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        budget = self.travel_plus_register_time + self.and_gate_time
        if self.clock_period <= budget:
            raise ValueError(
                "clock_period must exceed travel_plus_register_time + and_gate_time "
                f"({self.clock_period} <= {budget})"
            )
        n = self._integer("truncation")
        if n < MIN_TRUNCATION:
            raise ValueError(f"truncation must be at least {MIN_TRUNCATION}, got {n}")
        if max(levels) >= n:
            raise ValueError(f"levels must lie below truncation {n}, got {levels}")
        # a string such as "off" is truthy: only a bool says which way the gate is set
        if not isinstance(self.abort_gate_on, (bool, np.bool_)):
            raise ValueError(f"abort_gate_on must be a bool, got {self.abort_gate_on!r}")
        object.__setattr__(self, "abort_gate_on", bool(self.abort_gate_on))
        trials = self._integer("trials")
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        if trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most 2**32 = {MAX_TRIALS}, got {trials}")
        if self._integer("seed") < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def _integer(self, name: str) -> int:
        """The field as an int; a value that is no integer, such as 64.7, is refused."""
        value = require_integer(name, getattr(self, name))
        object.__setattr__(self, name, value)
        return value


def require_adiabatic(config: ConversionConfig) -> None:
    """Refuses a config with adiabatic scales unless both ratios reach its threshold.

    r1 = delta_e / h_tilde (level spacing dominates the perturbation),
    r2 = t_meas * h_tilde (measurement slow against the induced dynamics),
    in hbar = 1 units.  A config without the scales passes.
    """
    if config.adiabatic_delta_e is None:
        return
    r1 = config.adiabatic_delta_e / config.adiabatic_h_tilde
    r2 = config.adiabatic_t_meas * config.adiabatic_h_tilde
    threshold = config.adiabatic_threshold
    if not (r1 >= threshold and r2 >= threshold):
        raise PhysicsPreconditionError(
            "adiabatic budget fails its separation-of-scales check "
            f"(margins r1={r1:.6g}, r2={r2:.6g}, threshold {threshold:.6g})"
        )


class ConversionOutcome(NamedTuple):
    """Record of one trial; delivered fields are None when nothing ships.

    Only a campaign builds these, each its kind's template with the
    trial's id (see CampaignOutcomes).
    """

    trial_id: int
    photon_detected: bool
    registered: bool
    aborted: bool
    delivered_state: tuple[complex, complex, complex, complex] | None
    particle_entropy: float | None
    fidelity_to_target: float | None


def ancilla_branch_amplitudes(detect_amp: complex) -> tuple[complex, complex]:
    """Amplitudes (harmonic_amp, anharmonic_amp) of the two final branches.

    The registration branch carries detect_amp; the complementary
    no-registration branch carries sqrt(1 - |detect_amp|^2) with the
    conventional zero phase.
    """
    anharmonic = complex(detect_amp)
    harmonic = complex(math.sqrt(max(0.0, 1.0 - abs(anharmonic) ** 2)))
    return harmonic, anharmonic


def final_state_from_overlaps(
    harmonic_amp: complex,
    anharmonic_amp: complex,
    particle_1: tuple[float, float],
    particle_2: tuple[float, float],
) -> tuple[complex, complex, complex, complex]:
    """Normalized pair state for given branch amplitudes and each particle's (s, t).

    s = <original|deformed> and t, the norm of the deformed mode's part off
    the original, lie in [0, 1] with s^2 + t^2 = 1 within 1e-9.  The
    degenerate case where the two branches cancel is rejected.
    """
    h = complex(harmonic_amp)
    a = complex(anharmonic_amp)
    if not (cmath.isfinite(h) and cmath.isfinite(a)):
        raise ValueError(f"branch amplitudes must be finite, got {h} and {a}")
    if abs(abs(h) ** 2 + abs(a) ** 2 - 1.0) > 1e-9:
        raise ValueError("branch amplitudes must satisfy |h|^2 + |a|^2 = 1")
    s1, t1 = _mode_split("particle_1", particle_1)
    s2, t2 = _mode_split("particle_2", particle_2)
    amps = np.array([h + a * s1 * s2, a * s1 * t2, a * t1 * s2, a * t1 * t2], dtype=complex)
    norm = np.linalg.norm(amps)
    if norm < 1e-9:
        raise ValueError("branches cancel; the final state is degenerate")
    return tuple((amps / norm).tolist())


def _mode_split(name: str, split: tuple[float, float]) -> tuple[float, float]:
    s, t = (_unit_interval(f"{name} {part}", value) for part, value in zip("st", split))
    if abs(s * s + t * t - 1.0) > 1e-9:
        raise ValueError(f"{name} must satisfy s^2 + t^2 = 1, got s={s}, t={t}")
    return s, t


def _unit_interval(name: str, value: float) -> float:
    value = require_finite(name, value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def particle_entanglement_entropy(state: Sequence[complex]) -> float:
    """Entropy (bits) of one particle of a pair state, given as its four amplitudes."""
    weights = pair_small_weights(np.array([state], dtype=complex))
    return float(small_weight_entropies(weights[:, np.newaxis])[0])


def _outcome_templates(config: ConversionConfig) -> tuple[ConversionOutcome, ...]:
    """The outcome of each kind of trial, with trial id 0."""
    levels = [config.level_a, config.level_b]
    model = build_model(config.anharmonicity_on, config.truncation, levels=max(levels) + 1)
    require_converged(model, levels)
    splits = [(mode_overlap(model, n), mode_deformation(model, n)) for n in levels]
    target = final_state_from_overlaps(*ancilla_branch_amplitudes(config.detect_amp), *splits)
    gate_on = config.abort_gate_on
    loss = (None, None, None)
    if not gate_on:
        # loss slipped through: the potential never switched.  Both states
        # are unit vectors, and |<u|t>|^2 with u = (1, 0, 0, 0) is |t[0]|^2.
        loss = (_UNCONVERTED, particle_entanglement_entropy(_UNCONVERTED), abs(target[0]) ** 2)
    return (
        ConversionOutcome(0, False, False, gate_on, None, None, None),
        ConversionOutcome(0, True, False, gate_on, *loss),
        # the target's fidelity to itself is 1
        ConversionOutcome(0, True, True, False, target, particle_entanglement_entropy(target), 1.0),
    )


def _draw(config: ConversionConfig, raw: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The kinds of trials from their raw draws.

    raw holds each trial's first two raw 64-bit PCG64 outputs as two
    columns.  They map to [0, 1) as Generator.random() maps them, so a
    trial takes the first two doubles of np.random.default_rng on its
    SeedSequence.
    """
    landing, registering = ((column >> np.uint64(11)) * 2.0**-53 for column in raw)
    landed = landing < config.landing_prob
    return landed.astype(np.uint8) + (landed & (registering < config.eta))


@dataclass(frozen=True, eq=False)
class CampaignOutcomes(Sequence[ConversionOutcome]):
    """The outcomes of a campaign, held as one kind byte per trial.

    kinds[i] is trial i's kind: 0 when nothing landed, 1 when the photon
    landed but did not register, 2 when it registered.  templates[k] is
    the outcome of a kind-k trial with trial id 0, and outcomes[i] is
    built only when asked for, as trial i's template with trial_id i.
    """

    templates: tuple[ConversionOutcome, ...]
    kinds: np.ndarray

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int) -> ConversionOutcome:
        trial_id = range(len(self))[index]
        return self.templates[self.kinds[trial_id]]._replace(trial_id=trial_id)


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Aggregate statistics plus the ordered outcomes, one kind byte per trial."""

    n_trials: int
    delivered_rate: float
    abort_rate: float
    mean_entropy: float | None
    min_fidelity: float | None
    outcomes: CampaignOutcomes


def run_campaign(config: ConversionConfig) -> CampaignResult:
    """Run the config's seeded trials and aggregate delivery statistics.

    Trial i takes the first two doubles of PCG64 seeded by the i-th
    spawned child of SeedSequence(config.seed), so an identical config
    reproduces the log exactly and the first trials do not depend on
    config.trials.  The draws of CHUNK trials at a time come from one
    vectorized pass of _pcg64.SpawnedPCG64, which reproduces numpy's
    objects bit for bit.  Memory is one byte per trial.  A truncation
    whose two levels put more than the oscillator's TAIL_WEIGHT_LIMIT in
    the top basis states refuses to run, and so do adiabatic scales that
    fail their check.
    """
    trials = config.trials
    stream = SpawnedPCG64(config.seed)
    templates = _outcome_templates(config)
    require_adiabatic(config)
    kinds = np.empty(trials, dtype=np.uint8)
    counts = np.zeros(len(templates), dtype=np.int64)  # trials of each kind
    for start in range(0, trials, CHUNK):
        stop = min(start + CHUNK, trials)
        kinds[start:stop] = _draw(config, stream.raw2(range(start, stop)))
        counts += np.bincount(kinds[start:stop], minlength=len(templates))
    # the gate ships registered trials only; without it every landing ships
    shipped = [
        (count, t) for count, t in zip(counts.tolist(), templates)
        if count and t.delivered_state is not None
    ]
    n_delivered = sum(count for count, _ in shipped)
    mean_entropy = min_fidelity = None
    if shipped:
        # exact, then rounded once, so one delivered entropy is its own mean: each
        # float is an integer over a power of two, and int division rounds correctly
        ratios = [(count, *t.particle_entropy.as_integer_ratio()) for count, t in shipped]
        scale = max(d for _, _, d in ratios)
        mean_entropy = sum(c * n * (scale // d) for c, n, d in ratios) / (scale * n_delivered)
        min_fidelity = min(t.fidelity_to_target for _, t in shipped)
    return CampaignResult(
        n_trials=trials,
        delivered_rate=n_delivered / trials,
        abort_rate=(trials - n_delivered) / trials if config.abort_gate_on else 0.0,
        mean_entropy=mean_entropy,
        min_fidelity=min_fidelity,
        outcomes=CampaignOutcomes(templates, kinds),
    )


def _state_payload(state: tuple[complex, ...] | None) -> dict | None:
    if state is None:
        return None
    return {
        "factors": list(_PAIR_FACTORS),
        "dims": list(_PAIR_DIMS),
        "amplitudes": [[z.real, z.imag] for z in state],
    }


def outcome_json_line(outcome: ConversionOutcome) -> str:
    """One-line JSON record of the outcome's fields, with sorted keys."""
    payload = outcome._asdict()
    payload["delivered_state"] = _state_payload(outcome.delivered_state)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def render_outcome_log(outcomes: CampaignOutcomes) -> Iterator[str]:
    """Yield the JSON-lines log of a campaign, CHUNK lines at a time.

    Line i is outcome_json_line(outcomes[i]) plus a newline.  The sorted
    keys put trial_id last, so each line is the serialized line of its
    kind of trial with trial_id 0, less the closing "0}", followed by the
    trial id and the brace.
    """
    prefixes = [outcome_json_line(t)[: -len("0}")] for t in outcomes.templates]
    for start in range(0, len(outcomes), CHUNK):
        kinds = outcomes.kinds[start:start + CHUNK].tolist()
        yield "".join([f"{prefixes[kind]}{i}}}\n" for i, kind in enumerate(kinds, start)])


def campaign_summary(result: CampaignResult, config: ConversionConfig) -> dict:
    """JSON-ready summary of a campaign and the knobs that produced it."""
    return {
        "n_trials": result.n_trials,
        "seed": config.seed,
        "delivered_rate": result.delivered_rate,
        "abort_rate": result.abort_rate,
        "mean_entropy": result.mean_entropy,
        "min_fidelity": result.min_fidelity,
        "eta": config.eta,
        "abort_gate_on": config.abort_gate_on,
        "anharmonicity_on": config.anharmonicity_on,
        "landing_prob": config.landing_prob,
        "truncation": config.truncation,
    }
