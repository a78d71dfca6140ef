"""Graded-operator spectral analysis of noisy flows on periodic meshes.

The package builds the evolution generator of a stochastic flow as a graded
operator on discrete differential forms, extracts its spectrum, classifies
the long-time dynamics, ties zero-mode counts to the topology of the
underlying mesh, and cross-checks everything against exactly solvable models
and direct path sampling.
"""

from types import ModuleType as _ModuleType

from ._version import __version__
from .exceptions import (
    CapacityError,
    DegreeError,
    DeterministicLimitError,
    EigensolverError,
    FlowspecError,
    GapAmbiguityWarning,
    GeometryWarning,
    IndeterminateIndexError,
    InsufficientSamplesError,
    InvalidNoiseError,
    InvalidResolutionError,
    NoInstantonError,
    NotPotentialError,
    NumericalError,
    ResolutionWarning,
    StabilityWarning,
    TopologyError,
    UnfittableDecayError,
    UnknownModelError,
    UnsupportedMeshError,
    ValidationError,
)
from .mesh import (
    MeshComplex,
    NoiseSpec,
    build_circle_grid,
    build_torus_grid,
    build_triangulated_surface,
    hodge_star,
    icosahedron,
    icosphere,
    load_off,
)
from .fields import (
    FlowField,
    flow_from_vertex_samples,
    langevin_flow,
    with_tilt,
    zero_flow,
)
from .operators import (
    codifferential,
    exterior_derivative,
    inner_product_matrix,
    interior_product,
    lie_derivative,
    normalize_backend,
)
from .hamiltonian import (
    GradedOperator,
    assemble_hamiltonian,
    conventional_fp_operator,
)
from .spectral import (
    PairingReport,
    PhaseClassification,
    SpectrumReport,
    classify_phase,
    eigenvalue_spectrum,
    full_spectrum,
    susy_pairing_check,
    synthetic_spectrum,
    witten_index,
    zero_mode_counts,
)
from .morse import (
    CriticalPoint,
    OneLoopState,
    SplittingScan,
    find_critical_points,
    instanton_splitting_scan,
    one_loop_ground_state,
    poincare_hopf_sum,
)
from .models import (
    ModelSpec,
    build_model,
    constant_drive_circle,
    langevin_double_well_circle,
    list_models,
    oracle_spectrum_residual,
    tilted_langevin_circle,
    torus_shear_model,
)
from .trajectories import (
    DecayFit,
    HistogramResult,
    TrajectoryEnsemble,
    autocorrelation_decay,
    simulate_sde,
    stationary_histogram,
    tv_distance_to_density,
)
from .reporting import (
    ReportDocument,
    RunConfig,
    canonical_json,
    export_spectrum_csv,
    format_float,
    run,
    sweep_epsilon,
)

# the imported names, not the submodules that importing them binds here
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
