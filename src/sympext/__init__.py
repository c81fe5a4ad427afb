"""Explicit symplectic integration of nonseparable Hamiltonians.

The method binds two mixed copies of the original system in a doubled
phase space; all substeps have exact explicit flows, compose to any even
order, and stay symplectic, giving bounded long-time energy behavior
where a classical Runge-Kutta scheme drifts.
"""

__version__ = "0.1.0"

from .analysis import (
    EnergyDrift,
    ErgodicAverages,
    PoincareSection,
    PolarErrorSeries,
    chaos_statistic,
    classify_section,
    energy_drift,
    ergodic_averages,
    fit_loglog_slope,
    poincare_section,
    polar_errors,
    rotation_averaged_matrix,
    scaled_running_max_errors,
    schwarzschild_scalings,
)
from .config import ExperimentConfig, config_presets, dump_config, load_config, parse_config_text
from .errors import (
    AdmissibilityError,
    ConfigError,
    DomainError,
    EvaluationError,
    PhaseUndefinedError,
    ReferenceConvergenceError,
    SympextError,
    TrajectoryEscapedError,
)
from .integrator import (
    CompositionScheme,
    IntegratorConfig,
    apply_scheme,
    build_scheme,
    flow_a,
    flow_b,
    flow_c,
    integrate,
    integrate_batch,
    linear_drag,
    triple_jump_gamma,
)
from .models import (
    HamiltonianModel,
    NlsObservables,
    default_initial_condition,
    extended_energy,
    extended_model,
    extended_vector_field,
    get_model,
    nls_hamiltonian,
    nls_masses,
    product_hamiltonian,
    schwarzschild_hamiltonian,
    schwarzschild_initial,
)
from .oracles import (
    complete_elliptic_k,
    exact_series,
    half_period,
    jacobi_elliptic,
    reference_flow,
    rk4_trajectory,
)
from .state import ExtendedState, Trajectory, canonical_j, embed, state_from_array
