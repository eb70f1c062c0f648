"""dissipctl: ground-state stability certification and dissipative coupling
synthesis for finite-level open quantum systems.

The names below are the public API that the README lists; every other
function is reached through its module.
"""

__version__ = "0.1.0"

from .linalg import (
    DEFAULT_TOL, PAULI_X, PAULI_Y, PAULI_Z, SIGMA_MINUS, SIGMA_PLUS, LocalOperator,
    TensorStructure, embed, expm,
)
from .lindblad import (
    LindbladModel, Trajectory, dissipation_functional, evolve, generator,
    generator_single_channel,
)
from .stability import (
    StabilityReport, certify_ground_state_stability, check_condition_ds, check_condition_es,
    largest_constant,
)
from .synthesis import SynthesisResult, synthesize, synthesize_closed_form
from .scalability import (
    AggregateReport, AggregateSpec, check_corollary_commuting, check_incremental,
    check_theorem_ds_aggregation, check_theorem_es_aggregation, simulate_aggregate,
)
from .models import (
    REGISTRY, NamedModel, build, cluster_chain, complementary_witnesses, three_level_example,
    toric_patch, two_level_example, two_qubit_aggregation_example,
)

__all__ = [
    "DEFAULT_TOL", "PAULI_X", "PAULI_Y", "PAULI_Z", "SIGMA_MINUS", "SIGMA_PLUS", "LocalOperator",
    "TensorStructure", "embed", "expm",
    "LindbladModel", "Trajectory", "dissipation_functional", "evolve", "generator",
    "generator_single_channel",
    "StabilityReport", "certify_ground_state_stability", "check_condition_ds",
    "check_condition_es", "largest_constant",
    "SynthesisResult", "synthesize", "synthesize_closed_form",
    "AggregateReport", "AggregateSpec", "check_corollary_commuting", "check_incremental",
    "check_theorem_ds_aggregation", "check_theorem_es_aggregation", "simulate_aggregate",
    "REGISTRY", "NamedModel", "build", "cluster_chain", "complementary_witnesses",
    "three_level_example", "toric_patch", "two_level_example", "two_qubit_aggregation_example",
]
