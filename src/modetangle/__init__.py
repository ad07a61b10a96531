"""Mode vs. particle entanglement toolkit.

Labeled pure states with exact partial traces, polarization and
momentum-mode Bell statistics, a quartic-anharmonic oscillator model,
and a seeded Monte-Carlo harness for a heralded conversion of mode
entanglement into particle entanglement.
"""

__version__ = "0.2.0"

from .states import (
    BasisLabel,
    BasisMismatchError,
    LabelingError,
    PureState,
    ReducedDensityMatrix,
    apply_local_unitary,
    fidelity,
    partial_trace,
    renyi_entropy,
    tensor,
    von_neumann_entropy,
)
from .polarization import (
    AnalyzerSettings,
    ChshSettings,
    analyzer_basis,
    analyzer_matrix,
    chsh_scan,
    chsh_sum,
    chsh_sum_general,
    correlation,
    detection_probabilities,
    epr_state,
    mode_rotation_entropy_scan,
    mode_rotation_state,
    transformed_epr_state,
)
from .interferometer import (
    BraggPhases,
    bragg_output,
    interferometer_input,
    joint_probabilities,
    momentum_chsh_scan,
    momentum_correlation,
)
from .oscillator import (
    AdiabaticBudget,
    AdiabaticCheck,
    ModeAssignment,
    OscillatorModel,
    adiabatic_check,
    budget_from_model,
    build_model,
    default_mode_assignment,
    first_order_energy,
    map_modes_to_eigenfunctions,
    mode_overlap,
    perturbation_strength,
    position_operator,
)
from .protocol import (
    AncillaConfig,
    CampaignResult,
    ConversionConfig,
    ConversionOutcome,
    PhysicsPreconditionError,
    ProjectionError,
    ancilla_branch_amplitudes,
    assemble_final_state,
    campaign_summary,
    final_state_from_overlaps,
    initial_mode_state,
    outcome_json_line,
    particle_entanglement_entropy,
    render_outcome_log,
    run_campaign,
    run_trial,
    select_middle_term,
)
from .results import ScanResult, write_scan_csv
from .runconfig import ConfigError, RunConfig, parse_run_config, to_conversion_config
