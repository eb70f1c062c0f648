"""dissipctl: ground-state stability certification and dissipative coupling
synthesis for finite-level open quantum systems."""

__version__ = "0.1.0"

from .linalg import (  # noqa: F401
    DEFAULT_TOL,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    Spectrum,
    TensorStructure,
    commutator,
    embed,
    expm,
    hermitian_eig,
    is_hermitian,
    is_projection,
    is_psd,
    is_unitary,
    kron,
    pauli_string,
    pinv,
    unvec,
    vec,
)
from .lindblad import (  # noqa: F401
    AdiabaticReport,
    LindbladModel,
    Trajectory,
    adiabatic_limit_check,
    dissipation_functional,
    evolve,
    expectation,
    generator,
    generator_single_channel,
    liouvillian,
    maximally_mixed,
    trace_distance,
)
from .stability import (  # noqa: F401
    GroundSpace,
    StabilityReport,
    certify_ground_state_stability,
    check_condition_ds,
    check_condition_es,
    check_dissipation_square,
    frustration_free_check,
    ground_space,
    is_lyapunov_operator,
)
from .synthesis import (  # noqa: F401
    BilinearSystem,
    FactorizationCheck,
    SynthesisResult,
    assemble_bilinear_system,
    check_factorizable,
    solve_bilinear,
    synthesize,
    synthesize_closed_form,
    synthesize_pinv,
    verify_v2_dominated,
)
from .scalability import (  # noqa: F401
    AggregateReport,
    AggregateSpec,
    check_corollary_commuting,
    check_corollary_d_free,
    check_incremental_ds,
    check_incremental_es,
    check_scalability_condition,
    check_theorem_ds_aggregation,
    check_theorem_es_aggregation,
    dissipation_cross_term,
    simulate_aggregate,
)
from .models import REGISTRY, NamedModel, build  # noqa: F401
