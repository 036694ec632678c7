"""Exact local zeta functions of univariate polynomials with rational roots.

For a polynomial f over Q whose roots are all rational and a prime p, this
package computes the local zeta function Z(t, f) (t = p**(-s)) as an exact
rational function, the Poincare series H(t, f), the exact coefficient and
solution-count streams c_m and N_m, and an LFSR layer — every
result cross-checkable against a brute-force counting oracle.
"""

from .counting import (
    DEFAULT_CAP,
    brute_counts_upto,
    coeff_stream,
    counts_from_coeffs,
    solution_counts,
)
from .errors import (
    CapExceeded,
    ConstantPolynomial,
    DegenerateTaps,
    DegreeViolation,
    IntegralityError,
    InvariantViolation,
    InvalidPrime,
    LocalZetaError,
    MalformedDocument,
    NegativeShift,
    NegativeValuation,
    NonIntegralCount,
    ParseError,
    PoleAtPoint,
    RecursionDepthExceeded,
    SplittingFieldNotQ,
    ZeroPolynomial,
)
from .lfsr import (
    Lfsr,
    lfsr_from_rational,
    lfsr_generating_function,
    lfsr_run,
    period_of,
    series_mod_p,
)
from .padic import (
    INFINITY,
    PAdicContext,
    is_prime,
    vp,
)
from .polynomials import (
    DensePoly,
    FactoredPoly,
    ReducedInput,
    as_integer_poly,
    compute_lf,
    find_rational_roots,
    parse_poly,
    reduce_to_integral_roots,
)
from .ratfunc import (
    RF_ONE,
    RationalFunctionT,
    make_ratfunc,
    rf_add,
    rf_equal,
    rf_eval,
    rf_format,
    rf_from_poly,
    rf_mul,
    rf_series,
)
from .tree import (
    Vertex,
    WeightedTree,
    build_tree,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    tree_to_text,
)
from .zeta import (
    ZetaFunction,
    ZetaTerm,
    compute_zeta,
    generating_function,
    normalize,
    poincare,
    spf_eval,
    zeta_from_json,
    zeta_text,
    zeta_to_json,
)

__version__ = "0.1.0"
