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
oscillator model.  A pair state is the tuple of its four amplitudes
over (photon_1, photon_2) in row-major order; |a>|b> is (1, 0, 0, 0).
With t = sqrt(1 - s^2) the unnormalized amplitudes are

    [h + a*s1*s2,  a*s1*t2,  a*t1*s2,  a*t1*t2]       (h, a = branch amps)

and norm^2 = |h|^2 + |a|^2 + 2 Re(conj(h) a) s1 s2.  How much particle
entanglement survives is set by the branch balance and the overlaps.

Monte-Carlo trials model the screened ancilla: the photon lands on the
retained half-screen with a configured probability, registers with
efficiency eta, and a clock-synchronized AND gate (when on) aborts every
cycle without a registration, so only faithfully converted pairs are
delivered.  With the gate off, lost-photon cycles deliver the
unconverted product and drag the mean fidelity below one.

An optional adiabatic budget checks the separation of scales

    hbar/delta_e  <<  hbar/h_tilde  <<  t_meas

as two ratios r1 = delta_e/h_tilde and r2 = t_meas*h_tilde/hbar, both of
which must reach the configured threshold, before any trial runs.

A campaign therefore delivers one of only two pair states, and a trial
is fixed by its kind: the photon did not land (0), landed but did not
register (1), or registered (2).  Campaigns are held as one kind byte per
trial and the outcome of each kind, sampled and rendered CHUNK trials at
a time.
"""

from __future__ import annotations

import cmath
import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ._common import PhysicsPreconditionError, require_finite, require_integer
from ._pcg64 import SpawnedPCG64
from .oscillator import MIN_TRUNCATION, build_model, mode_overlap, require_converged
from .states import reduced_spectra, von_neumann_entropies

__all__ = [
    "PhysicsPreconditionError",
    "AdiabaticBudget",
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
# trials per sampling and rendering step; it divides 2**32, so no sampling
# block straddles the trial id at which a spawn key gains a second word
CHUNK = 4096

_PAIR_FACTORS = ("photon_1", "photon_2")
_PAIR_DIMS = (2, 2)
# |a>|b>: both particles in their original mode
_UNCONVERTED = (1 + 0j, 0j, 0j, 0j)


@dataclass(frozen=True)
class AdiabaticBudget:
    """Raw scales for the separation-of-timescales check (hbar = 1 units)."""

    delta_e: float
    h_tilde: float
    t_meas: float
    ratio_threshold: float = 10.0

    def __post_init__(self) -> None:
        for name in ("delta_e", "h_tilde", "t_meas", "ratio_threshold"):
            value = require_finite(name, getattr(self, name))
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)


def require_adiabatic(budget: AdiabaticBudget) -> None:
    """Refuses a budget unless both scale ratios reach its threshold.

    r1 = delta_e / h_tilde (level spacing dominates the perturbation),
    r2 = t_meas * h_tilde (measurement slow against the induced dynamics).
    """
    r1 = budget.delta_e / budget.h_tilde
    r2 = budget.t_meas * budget.h_tilde
    if not (r1 >= budget.ratio_threshold and r2 >= budget.ratio_threshold):
        raise PhysicsPreconditionError(
            "adiabatic budget fails its separation-of-scales check "
            f"(margins r1={r1:.6g}, r2={r2:.6g}, threshold {budget.ratio_threshold:.6g})"
        )


@dataclass(frozen=True)
class ConversionConfig:
    """Full configuration of a conversion run.

    photon_1 and photon_2 take the distinct oscillator levels level_a and
    level_b.  detect_amp, |detect_amp| <= 1, is the amplitude of the
    registration branch of the final superposition; a landed photon
    registers with probability eta.
    clock_period must exceed travel_plus_register_time + and_gate_time so
    the abort decision for one cycle lands before the next one starts.
    An optional adiabatic budget gates whole campaigns.  The truncation
    must reach MIN_TRUNCATION and exceed both levels.  abort_gate_on must
    be a bool or a numpy bool, stored as a bool.
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
    adiabatic_budget: AdiabaticBudget | None = None

    def __post_init__(self) -> None:
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
        eta = require_finite("eta", self.eta)
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {eta}")
        object.__setattr__(self, "eta", eta)
        g = require_finite("anharmonicity_on", self.anharmonicity_on)
        if g < 0.0:
            raise ValueError(f"anharmonicity_on must be non-negative, got {g}")
        object.__setattr__(self, "anharmonicity_on", g)
        landing = require_finite("landing_prob", self.landing_prob)
        if not 0.0 <= landing <= 1.0:
            raise ValueError(f"landing_prob must lie in [0, 1], got {landing}")
        object.__setattr__(self, "landing_prob", landing)
        for name in ("clock_period", "travel_plus_register_time", "and_gate_time"):
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

    def _integer(self, name: str) -> int:
        """The field as an int; a value that is no integer, such as 64.7, is refused."""
        value = require_integer(name, getattr(self, name))
        object.__setattr__(self, name, value)
        return value


@dataclass(frozen=True, eq=False)
class ConversionOutcome:
    """Record of one trial; delivered fields are None when nothing ships.

    Only a campaign builds these: one template per kind of trial, and per
    trial a copy of its kind's template, so every record is consistent by
    construction.
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
    overlap_1: float,
    overlap_2: float,
) -> tuple[complex, complex, complex, complex]:
    """Normalized pair state for given branch amplitudes and mode overlaps.

    overlap_i = <original|deformed> for particle i, in [0, 1].  The
    degenerate case where the two branches cancel is rejected.
    """
    h = complex(harmonic_amp)
    a = complex(anharmonic_amp)
    if not (cmath.isfinite(h) and cmath.isfinite(a)):
        raise ValueError(f"branch amplitudes must be finite, got {h} and {a}")
    if abs(abs(h) ** 2 + abs(a) ** 2 - 1.0) > 1e-9:
        raise ValueError("branch amplitudes must satisfy |h|^2 + |a|^2 = 1")
    s1, t1 = _overlap_pair("overlap_1", overlap_1)
    s2, t2 = _overlap_pair("overlap_2", overlap_2)
    amps = np.array(
        [h + a * s1 * s2, a * s1 * t2, a * t1 * s2, a * t1 * t2], dtype=complex
    )
    norm = np.linalg.norm(amps)
    if norm < 1e-9:
        raise ValueError("branches cancel; the final state is degenerate")
    return tuple((amps / norm).tolist())


def _overlap_pair(name: str, s: float) -> tuple[float, float]:
    s = require_finite(name, s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {s}")
    return s, math.sqrt(max(0.0, 1.0 - s * s))


def particle_entanglement_entropy(state: Sequence[complex]) -> float:
    """Entropy (bits) of one particle of a pair state, given as its four amplitudes."""
    spectra = reduced_spectra(np.array([state]), _PAIR_DIMS, 0)
    return float(von_neumann_entropies(spectra)[0])


def _outcome_templates(config: ConversionConfig) -> tuple[ConversionOutcome, ...]:
    """The outcome of each kind of trial, with trial id 0."""
    levels = [config.level_a, config.level_b]
    model = build_model(config.anharmonicity_on, config.truncation, levels=max(levels) + 1)
    require_converged(model, levels)
    harmonic_amp, anharmonic_amp = ancilla_branch_amplitudes(config.detect_amp)
    target = final_state_from_overlaps(
        harmonic_amp,
        anharmonic_amp,
        mode_overlap(model, config.level_a),
        mode_overlap(model, config.level_b),
    )
    gate_on = config.abort_gate_on
    loss = (None, None, None)
    if not gate_on:
        # loss slipped through: the potential never switched.  The fidelity
        # is |<u|t>|^2 of the unit vectors; _UNCONVERTED is one already.
        unit_target = np.array(target) / np.linalg.norm(target)
        fidelity = float(np.abs(np.vdot(_UNCONVERTED, unit_target)) ** 2)
        loss = (_UNCONVERTED, particle_entanglement_entropy(_UNCONVERTED), fidelity)
    entropy = particle_entanglement_entropy(target)
    return (
        ConversionOutcome(0, False, False, gate_on, None, None, None),
        ConversionOutcome(0, True, False, gate_on, *loss),
        # the target's fidelity to itself is 1
        ConversionOutcome(0, True, True, False, target, entropy, 1.0),
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
    the outcome of a kind-k trial with trial id 0, so each
    ConversionOutcome is built only when asked for.
    """

    templates: tuple[ConversionOutcome, ...]
    kinds: np.ndarray

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int) -> ConversionOutcome:
        trial_id = range(len(self))[index]
        t = self.templates[self.kinds[trial_id]]
        return ConversionOutcome(
            trial_id, t.photon_detected, t.registered, t.aborted,
            t.delivered_state, t.particle_entropy, t.fidelity_to_target,
        )


@dataclass(frozen=True, eq=False)
class CampaignResult:
    """Aggregate statistics plus the ordered outcomes, one kind byte per trial."""

    n_trials: int
    delivered_rate: float
    abort_rate: float
    mean_entropy: float | None
    min_fidelity: float | None
    outcomes: CampaignOutcomes


def run_campaign(
    config: ConversionConfig, n_trials: int, rng_seed: int
) -> CampaignResult:
    """Run seeded trials and aggregate delivery statistics.

    Trial i takes the first two doubles of PCG64 seeded by the i-th
    spawned child of SeedSequence(rng_seed), so identical (config,
    rng_seed) reproduce the log exactly and the first trials do not
    depend on n_trials.  The draws of CHUNK trials at a time come from
    one vectorized pass of _pcg64.SpawnedPCG64, which reproduces numpy's
    objects bit for bit.  Memory is one byte per trial.  A truncation
    whose two levels put more than the oscillator's
    TAIL_WEIGHT_LIMIT in the top basis states refuses to run, and so does
    a configured adiabatic budget that fails its check.
    """
    n_trials = require_integer("n_trials", n_trials)
    if n_trials < 1:
        raise ValueError(f"n_trials must be at least 1, got {n_trials}")
    stream = SpawnedPCG64(rng_seed)
    templates = _outcome_templates(config)
    if config.adiabatic_budget is not None:
        require_adiabatic(config.adiabatic_budget)
    kinds = np.empty(n_trials, dtype=np.uint8)
    for start in range(0, n_trials, CHUNK):
        stop = min(start + CHUNK, n_trials)
        kinds[start:stop] = _draw(config, stream.raw2(range(start, stop)))
    # the gate ships registered trials only; without it every landing ships
    ships = np.array([t.delivered_state is not None for t in templates])
    shipped = kinds[ships[kinds]]
    n_delivered = len(shipped)
    mean_entropy = min_fidelity = None
    if n_delivered:
        # per kind; the None of a kind that ships nothing reads as NaN, never indexed
        entropies = np.array([t.particle_entropy for t in templates], dtype=float)
        fidelities = np.array([t.fidelity_to_target for t in templates], dtype=float)
        mean_entropy = float(np.mean(entropies[shipped]))
        min_fidelity = float(fidelities[shipped].min())
    return CampaignResult(
        n_trials=n_trials,
        delivered_rate=n_delivered / n_trials,
        abort_rate=(n_trials - n_delivered) / n_trials if config.abort_gate_on else 0.0,
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
    """One-line JSON record with a stable key order."""
    payload = {
        "trial_id": outcome.trial_id,
        "photon_detected": outcome.photon_detected,
        "registered": outcome.registered,
        "aborted": outcome.aborted,
        "particle_entropy": outcome.particle_entropy,
        "fidelity_to_target": outcome.fidelity_to_target,
        "delivered_state": _state_payload(outcome.delivered_state),
    }
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


def campaign_summary(result: CampaignResult, config: ConversionConfig, seed: int) -> dict:
    """JSON-ready summary of a campaign and the knobs that produced it."""
    return {
        "n_trials": result.n_trials,
        "seed": int(seed),
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
