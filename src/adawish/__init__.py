"""Discrete integration of weighted binary models via adaptive quantile queries."""

from .errors import (
    InvalidSize,
    ParseError,
    StructuralError,
    TooLarge,
    UnsupportedCardinality,
)
from .estimator import (
    EstimateResult,
    Guarantee,
    adawish_estimate,
    adawish_from_oracle,
    assemble_log_estimate,
    sandwich_bounds,
    search,
    wish_estimate,
    wish_from_oracle,
)
from .gf2 import Gf2System, ReducedSystem, evaluate, row_reduce
from .model import (
    Factor,
    QuantileCurve,
    WeightedModel,
    exact_log_partition,
    exact_quantiles,
    gen_clique_ising,
    gen_grid_ising,
    log_weight,
    parse_uai,
    serialize_uai,
)
from .optbench import (
    AdversarialPair,
    OptResult,
    compute_opt,
    gen_adversarial_pair,
    gen_geometric_curve,
    gen_kvalued_curve,
    regret_bound,
    segment_bounds,
    synthetic_oracle,
)
from .oracle import (
    MapResult,
    MapSolver,
    OracleConfig,
    QueryLedger,
    make_oracle,
    map_solve,
    sample_parity_system,
)

__version__ = "0.1.0"
