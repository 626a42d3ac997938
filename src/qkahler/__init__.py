"""Exact engine for the quantum projective space fiber calculus."""

from .scalars import (
    GaussianRational, LaurentPoly, Scalar, HodgeMode, H_EQ_Q, H_EQ_ONE,
    PoleError, qint, qint_signed, qfact, parse_scalar, render_scalar,
)
from .fiber import (
    BasisMonomial, FiberForm, e_plus, e_minus, basis_degree, basis_bidegree,
    weight,
)
from .linalg import ScalarMatrix, LDLCertificate
from .lefschetz import (
    kappa, kappa_power, L, L_power, primitive_basis, lefschetz_decompose,
    lambda_string_factor,
)
from .hodge import (
    vol, hodge, hodge_inverse, lambda_apply, metric, gram, gram_to_json,
    certify_posdef, serre_pairing, GradedOperator, hodge_operator,
    l_operator, lambda_operator,
)
from .uqsl2 import sl2_relations
from .su2 import (
    SU2Element, u_entry, antipode_u_entry, projective_coordinate,
    laplacian0_cp1, verify_cp1_laplacian,
)
from .verify import run_suites, SUITES

__all__ = [
    "GaussianRational", "LaurentPoly", "Scalar", "HodgeMode",
    "H_EQ_Q", "H_EQ_ONE", "PoleError",
    "qint", "qint_signed", "qfact", "parse_scalar", "render_scalar",
    "BasisMonomial", "FiberForm", "e_plus", "e_minus",
    "basis_degree", "basis_bidegree", "weight",
    "ScalarMatrix", "LDLCertificate",
    "kappa", "kappa_power", "L", "L_power", "primitive_basis",
    "lefschetz_decompose", "lambda_string_factor",
    "vol", "hodge", "hodge_inverse", "lambda_apply", "metric", "gram",
    "gram_to_json", "certify_posdef", "serre_pairing", "GradedOperator",
    "hodge_operator", "l_operator", "lambda_operator",
    "sl2_relations",
    "SU2Element", "u_entry", "antipode_u_entry", "projective_coordinate",
    "laplacian0_cp1", "verify_cp1_laplacian",
    "run_suites", "SUITES",
]
