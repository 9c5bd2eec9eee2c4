"""Simulation and numerical certification of time-varying consensus coupling.

The package splits into a validation core (Metzler matrices with zero row
sums, schedules, window integrals), a graph layer (threshold digraphs,
roots, window connectivity), integrators for the plain and delayed
dynamics, monotone-functional audits, contraction certificates, a spectral
cross-check for constant coupling, and the YAML scenario runner behind the
``consensus-lab`` command.
"""

from .errors import (
    AmbiguousSpectrum,
    BalanceViolated,
    ConsensusLabError,
    DegenerateSeries,
    EmptyVector,
    HistoryGap,
    HypothesisUnverified,
    InvalidPartition,
    InvalidSpec,
    NegativeOffDiagonal,
    NegativeThreshold,
    NegativeWeight,
    NoConvergence,
    NodeOutOfRange,
    NonFiniteEntry,
    NormTooLarge,
    NotSymmetric,
    NoTrappedComponent,
    OrderingViolated,
    OutOfHorizon,
    ParseError,
    RowSumViolation,
    ScheduleError,
    StepTooLargeWarning,
    UnknownFunction,
    UnknownFunctional,
    ValidationError,
    WindowNotCovered,
)
from .metzler_core import (
    CouplingMatrix,
    CouplingSchedule,
    IntegratedCoupling,
    SinusoidalCoupling,
    build_schedule,
    constant_schedule,
    coupling_entries,
    evaluate_schedule,
    from_offdiagonal,
    integrate_schedule,
    integrate_windows,
    validate_coupling_matrix,
)
from .digraph import (
    WindowConnectivityReport,
    root_masks,
    window_connectivity_report,
)
from .dynamics import (
    DelayHistory,
    Trajectory,
    delayed_functional_series,
    interpolate_state,
    simulate_dde,
    simulate_ode,
    spread_series,
)
from .lyapunov import (
    AUDITS,
    CONVEX_REGISTRY,
    MonotonicityReport,
    audit_monotonicity,
    check_hypotheses,
    column_sums_zero,
    matrix_exponential,
    monotonicity_from_series,
    symmetric_part_nsd,
)
from .certify import (
    CertificateReport,
    LemmaReport,
    PartitionCoupling,
    StageReport,
    beta_factor,
    contraction_certificate,
    coupling_numbers,
    estimate_decay_rate,
    lemma_intervals,
    verify_lemma_on_trajectory,
)
from .spectral import (
    SpectralGraphReport,
    SpectrumVerdict,
    consensus_spectrum_verdict,
    eigenvalues,
    spectral_graph_equivalence,
)
from .scenario_cli import (
    ScenarioConfig,
    generate_topology,
    load_config,
    parse_config,
    resolve_initial_state,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
