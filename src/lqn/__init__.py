"""Lattice partitions from linear codes with shaped quantization noise.

Build lattices of the form code + p.Z^n over a prime modulus, carve Z_p^n
into coset-representative cells chosen against a target distribution, and
report exact divergences alongside the matching probabilistic bounds, for
both pmfs on Z_p and piecewise-linear densities on an interval.
"""

from .analysis import (
    AnalysisReport,
    MatchabilityEstimate,
    analyze_region,
    estimate_match_probability,
    eps_star,
    kl_region_vs_product,
    lemma1_bound,
    marginals,
    sum_marginal_kl,
)
from .cases import BuiltinCase, builtin_cases, continuous_builtins
from .codes import (
    LinearCode,
    enumerate_codewords,
    lattice_contains,
    make_code,
    rate,
    sample_generator,
    select_k,
)
from .continuous import (
    BinnedDensity,
    ContinuousConstruction,
    ContinuousReport,
    LiftedCell,
    bin_density,
    build_continuous,
    continuous_divergence,
    lift_region,
)
from .distributions import (
    ContinuousTarget,
    DiscreteTarget,
    TypicalityParams,
    alpha,
    is_typical,
    log2_likelihoods,
    parse_distribution,
    typical_pair,
    uniform_target,
    validate_continuous,
    validate_discrete,
)
from .errors import (
    DimensionMismatchError,
    LqnError,
    NoFeasibleRateError,
    NotNormalizedError,
    NotPermissibleError,
    RankDeficientError,
    TooLargeError,
)
from .partition import (
    FundamentalRegion,
    QuantizationResult,
    RegionCheck,
    build_ml_partition,
    build_region,
    build_typicality_partition,
    coset_id,
    coset_ids,
    quantize,
    validate_region,
)
from .zplinalg import (
    RrefResult,
    ensure_prime,
    is_prime,
    mod_reduce,
    rref,
)

__version__ = "0.1.0"
