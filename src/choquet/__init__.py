"""Choquet boundaries, trace-convex hulls and maximum principles on finite
point spaces, computed by dense linear programming and certified by
witnesses checked by evaluation."""

from .convexify import (
    ConvexTraceSpec,
    biconjugate,
    convexity_gap,
    hat_positive,
    hat_signed,
    is_choquet_convex,
    phi_conjugate,
    realize_convex_trace,
    sup_family,
)
from .errors import ConsistencyError, IterationLimitError, ValidationError
from .generators import (
    GeneratedInstance,
    gen_cantor,
    gen_disk,
    gen_interval_affine,
    gen_naturals,
    gen_random,
)
from .lp import LinearProgram, LPOutcome, solve
from .maxprinciple import (
    GenericityReport,
    MaxReport,
    argmax_set,
    bauer_verify,
    boundary_characterization,
    expose,
    genericity_experiment,
    multi_max_verify,
)
from .measures import (
    BoundaryReport,
    KeyInterval,
    choquet_boundary,
    is_boundary,
    key_interval,
    min_self_mass,
    representing_measure,
)
from .sets import (
    SeparationResult,
    as_point_set,
    in_hull,
    is_trace_convex,
    krein_milman_verify,
    kyfan_extreme_points,
    kyfan_segment,
    phi_extreme_points,
    separate,
    trace_hull,
)
from .space import (
    FiniteSpace,
    FunctionSystem,
    Measure,
    PhiFunction,
    as_field,
    embed,
    evaluate,
    pair,
)

__version__ = "0.1.0"
