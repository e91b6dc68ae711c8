"""Probability bounds and Monte Carlo verification for random gate-set
approximate unitary t-designs."""

from .bounds import (
    BoundQuery,
    BoundResult,
    BoundUnavailableError,
    GateSetKind,
    Method,
    bernstein_bound,
    concentration_bound_beamsplitter,
    concentration_bound_lambda,
    concentration_bound_t,
    equivalent_plain_size,
    master_bound_plain,
    master_bound_symmetric,
    master_bound_symmetric_simplified,
    methods_for_kind,
    total_bound,
    total_master_plain_factored,
)
from .montecarlo import (
    GateSetSample,
    HaarProjector,
    MomentOperator,
    PowerIterationError,
    TailEstimate,
    empirical_tail,
    estimate_delta,
    estimate_fs_indicator_mc,
    sample_gate_set,
    sample_haar,
    su2_irrep_matrix,
)
from .repcore import (
    BlockSpectrum,
    DynkinLabel,
    HighestWeight,
    WeightVector,
    block_spectrum,
    count_irreps_by_norm,
    enumerate_lambda_set,
    freudenthal_multiplicity,
    fs_indicator,
    gamma_coefficients,
    kostant_partition,
    partition_count,
    sum_dimensions,
    to_dynkin,
    to_u_weight,
    weight_multiplicity,
    weyl_dimension,
    zero_weight_multiplicity,
)
from .solver import (
    MinSizeResult,
    clifford_cardinality,
    clifford_random_set_size,
    clifford_random_set_size_exact,
    clifford_ratio,
    depth_for_target,
    min_size_closed_form,
    min_size_scaling,
    min_size_search,
    table2_cells,
)
from .specfun import bessel_ratio_bounds, log_bessel_i

__version__ = "0.1.0"
