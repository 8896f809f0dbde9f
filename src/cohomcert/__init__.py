"""cohomcert: exact verification of local-cohomology constructions.

Sparse exact polynomial arithmetic, a Buchberger engine with the ideal
calculus on top (membership, colon, elimination, bracket powers), the
tridiagonal determinant family Q_n, direct-limit cohomology classes with
zero / torsion certificates, and a registry of runnable named scenarios
whose reports re-verify offline.
"""

from .polyring import (
    ANY_DEGREE,
    BlockElimination,
    CoefficientDomain,
    GF,
    GrevLex,
    Lex,
    Multigrading,
    NonDivisibleError,
    ParseError,
    Polynomial,
    PolyRing,
    QQ,
    RingMismatchError,
    ZZ,
    convert,
    divide_exact_by_integer,
    domain_from_string,
    format_polynomial,
    multidegree,
    parse_polynomial,
    reduce_mod_p,
)
from .groebner import (
    DegreeGuard,
    Diagnostics,
    DomainNotSupportedError,
    GroebnerBasis,
    GuardExceededError,
    Ideal,
    QuotientRing,
    buchberger,
    colon,
    eliminate,
    exact_divide,
    frobenius_power,
    ideal_equal,
    intersect,
    membership,
    membership_monomial_plus_p,
    normal_form,
)
from .toeplitz import (
    FactorCensus,
    QnPolynomial,
    ToeplitzMatrix,
    build_matrix,
    chebyshev_identity_check,
    det_oracle,
    factor_census,
    factor_univariate_fp,
    generating_check,
    irreducibility_certified,
    qn_dehomogenized,
    qn_recursive,
)
from .cohomology import (
    CechClass,
    IllFormedSyzygyError,
    NonzeroCertified,
    PipelineStepError,
    TorsionCertificate,
    UnknownUpTo,
    ZeroAt,
    annihilator_in_subring,
    conjecture_membership_check,
    eta_torsion_check,
    is_zero_up_to,
    lambda_q,
    push_forward,
    torsion_ring,
    verify_zero_at,
    weight_reduction_nonvanishing,
)
from .scenarios import (
    BadParametersError,
    MalformedReportError,
    Report,
    UnknownScenarioError,
    list_scenarios,
    reverify,
    run_scenario,
)

__version__ = "0.1.0"
