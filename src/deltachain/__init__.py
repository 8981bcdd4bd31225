"""Symbolic and exact-numeric engine for higher-order finite differences of
composed maps: multi-index combinatorics, cuboid calculus, expansion
formulas, and rational verification suites.  An argument of the wrong kind
or out of its bounds raises ``ValueError`` from ``combinatorics.check_type``
or ``check_int``, as the README's "Arguments" rule lists."""

__version__ = "0.1.0"

from .combinatorics import (
    MultiIndex,
    Partition,
    bell_number,
    enumerate_partitions,
    refine,
)
from .cuboid import (
    Cuboid,
    PointedDirections,
    delta,
    delta_inv,
    discrete_tangent,
    inject,
    pair,
    pointwise,
    split,
    vector_add,
    vector_sub,
)
from .asets import ASetFamily, build_asets, validate
from .symbolic import (
    App,
    ComponentSym,
    DeltaTerm,
    PointSym,
    Sum,
    VecSym,
    canonicalize,
    expand_chain,
    expand_tangent,
    main_part,
    order_of,
    parse,
    render,
    sort_key,
)
from .polynomials import (
    Poly,
    PolynomialMap,
    compose,
    d_alpha,
    directional_derivative,
    iterated_tangent_lift,
    random_polynomial_map,
    tangent_lift,
)
from .numeric import (
    EvaluationError,
    RandomRationalMap,
    VerificationReport,
    derive_seed,
    eval_expr,
    evaluate_delta,
    identity_suite,
    run_suite,
    scaling_slope,
    verify_chain_expansion,
    verify_scaling,
    verify_smooth_chain,
    verify_tangent_expansion,
)

__all__ = [name for name in dir() if not name.startswith("_")]
