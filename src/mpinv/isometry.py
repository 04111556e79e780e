"""Conorm, partial isometries, and the classification report.

A partial isometry is a matrix whose pseudoinverse is its adjoint;
equivalently all its singular values lie in {0, 1}, or its Gram
products a*a and aa* are orthogonal projections.  The conorm (reduced
minimum modulus) of a nonzero matrix is its smallest nonzero singular
value and equals ``1 / ||a^+||``.  A nonzero matrix is a partial
isometry exactly when conorm and operator norm are both 1, and it is
normal and Moore-Penrose hermitian exactly when it is a hermitian
partial isometry.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConditionReport,
    Tolerance,
    adjoint,
    approx_eq,
    as_matrix,
    as_rng,
    as_square,
    frobenius_norm,
    haar_unitary,
    numerical_rank,
    operator_norm,
    ratio,
    residual,
    svd,
)
from .pinv import pinv

__all__ = [
    "CONORM_UNDEFINED",
    "ClassificationReport",
    "conorm",
    "is_partial_isometry",
    "gram_projection_residual",
    "hermitian_residual",
    "normality_residual",
    "norm_conorm_check",
    "normal_mph_check",
    "classify",
    "random_partial_isometry",
    "random_hermitian_partial_isometry",
    "matrix_with_singular_values",
    "generate_special",
    "SPECIAL_KINDS",
]


@dataclass(frozen=True)
class ClassificationReport:
    """One-stop structural summary of a single matrix.

    ``regular`` is always true for finite matrices and exists to record
    the rank next to it.  ``conorm`` is None for the zero matrix, whose
    conorm is undefined (it is still a partial isometry by convention:
    0^+ = 0 = 0*).
    """

    regular: bool
    hermitian: bool
    normal: bool
    partial_isometry: bool
    mp_hermitian: bool
    op_norm: float
    pinv_norm: float
    conorm: float | None
    rank: int

    def as_dict(self) -> dict:
        return asdict(self)


# The refusal of ``conorm`` (and of ``mpinv conorm``) for the zero matrix.
CONORM_UNDEFINED = "conorm undefined for the zero element"


def conorm(a, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest singular value above the rank cutoff (= 1 / ||a^+||).

    Undefined for the zero matrix: the infimum defining it runs over an
    empty set, so that case raises instead of returning 0 or inf.
    """
    f = svd(as_matrix(a, "a"))
    r = numerical_rank(f, tol)
    if r == 0:
        raise ValueError(CONORM_UNDEFINED)
    return float(f.sigma[r - 1])


def is_partial_isometry(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the pseudoinverse of ``a`` equals its adjoint."""
    m = as_matrix(a, "a")
    return approx_eq(pinv(m, tol).pinv, adjoint(m), tol)


def gram_projection_residual(a, side: str = "left") -> float:
    """How far a*a (side="left") or aa* (side="right") is from being a
    hermitian idempotent.  Vanishes exactly for partial isometries."""
    m = as_matrix(a, "a")
    if side == "left":
        g = adjoint(m) @ m
    elif side == "right":
        g = m @ adjoint(m)
    else:
        raise ValueError("side must be 'left' or 'right'")
    ng = frobenius_norm(g)
    return max(residual(g @ g - g, ng**2, ng), residual(adjoint(g) - g, ng))


def hermitian_residual(a) -> float:
    """Relative distance from ``a`` to its adjoint (square input); ``inf``
    if a norm overflows."""
    m = as_square(a)
    na = frobenius_norm(m)
    if na == 0.0:
        return 0.0
    return ratio(frobenius_norm(m - adjoint(m)), na)


def normality_residual(a) -> float:
    """``||a a* - a* a||_F / ||a||_F^2``; scale-stable normality measure,
    ``inf`` if a norm overflows."""
    m = as_square(a)
    na = frobenius_norm(m)
    if na == 0.0:
        return 0.0
    ah = adjoint(m)
    return ratio(frobenius_norm(m @ ah - ah @ m), na * na)


def norm_conorm_check(a, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Partial isometry <=> conorm = operator norm = 1, for nonzero input.

    Verdicts: ``partial_isometry`` (the definition via a^+ = a*),
    ``unit_norm_and_conorm`` (the metric side), and ``consistent``
    (the two agree, which is the point being checked).
    """
    m = as_matrix(a, "a")
    result = pinv(m, tol)
    f, r, x = result.factorization, result.rank, result.pinv
    if r == 0:
        raise ValueError("check undefined for the zero element")
    report = ConditionReport(tolerance_used=tol)

    lhs = approx_eq(x, adjoint(m), tol)
    pi_res = residual(x - adjoint(m), frobenius_norm(m))
    report.add("partial_isometry", pi_res, verdict=lhs)

    c = float(f.sigma[r - 1])
    nrm = float(f.sigma[0])
    metric_res = max(abs(c - 1.0), abs(nrm - 1.0))
    rhs = metric_res <= tol.eq_tol
    report.add("unit_norm_and_conorm", metric_res, verdict=rhs)

    report.add("consistent", 0.0 if lhs == rhs else 1.0, verdict=lhs == rhs)
    return report


def normal_mph_check(a, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Normal MPH matrix <=> hermitian partial isometry, for square input.

    Verdicts: ``normal_mp_hermitian`` (normality residual within
    tolerance and a^+ = a), ``hermitian_partial_isometry`` (hermitian
    residual within tolerance and a^+ = a*), and ``consistent``.  The
    pseudoinverse is computed once, and only for normal or hermitian
    input.
    """
    m = as_square(a)
    report = ConditionReport(tolerance_used=tol)

    norm_res = normality_residual(m)
    herm_res = hermitian_residual(m)
    normal = norm_res <= tol.eq_tol
    hermitian = herm_res <= tol.eq_tol
    x = pinv(m, tol).pinv if normal or hermitian else None

    lhs = normal and approx_eq(x, m, tol)
    report.add("normal_mp_hermitian", norm_res, verdict=lhs)
    rhs = hermitian and approx_eq(x, adjoint(m), tol)
    report.add("hermitian_partial_isometry", herm_res, verdict=rhs)

    report.add("consistent", 0.0 if lhs == rhs else 1.0, verdict=lhs == rhs)
    return report


def classify(a, tol: Tolerance = DEFAULT_TOL) -> ClassificationReport:
    """Structural flags plus norm, pinv norm, conorm and rank.

    The conorm comes straight off the spectrum of ``a`` while
    ``pinv_norm`` is measured on the computed pseudoinverse, so the
    reciprocal identity between them is a genuine cross-check rather
    than one number echoed twice.
    """
    m = as_matrix(a, "a")
    result = pinv(m, tol)
    f, rank, x = result.factorization, result.rank, result.pinv
    op = float(f.sigma[0])
    pinv_norm = operator_norm(x)
    square = m.shape[0] == m.shape[1]
    return ClassificationReport(
        regular=True,
        hermitian=bool(square and hermitian_residual(m) <= tol.eq_tol),
        normal=bool(square and normality_residual(m) <= tol.eq_tol),
        partial_isometry=approx_eq(x, adjoint(m), tol),
        mp_hermitian=bool(square and approx_eq(x, m, tol)),
        op_norm=op,
        pinv_norm=pinv_norm,
        conorm=float(f.sigma[rank - 1]) if rank > 0 else None,
        rank=rank,
    )


def random_partial_isometry(n: int, rank: int, seed) -> np.ndarray:
    """Seeded n-by-n partial isometry of the given rank (U_r V_r*)."""
    if not (0 <= rank <= n):
        raise ValueError(f"rank={rank} must be in [0, {n}]")
    return matrix_with_singular_values(np.ones(rank), (n, n), seed)


def random_hermitian_partial_isometry(n: int, inertia, seed) -> np.ndarray:
    """Seeded Q diag(+1.., -1.., 0..) Q* with the prescribed inertia.

    ``inertia`` is (plus, minus, zero) and must sum to n.
    """
    plus, minus, zero = (int(v) for v in inertia)
    if min(plus, minus, zero) < 0 or plus + minus + zero != n:
        raise ValueError(f"inertia {inertia} must be non-negative and sum to {n}")
    d = np.concatenate([np.ones(plus), -np.ones(minus), np.zeros(zero)])
    q = haar_unitary(n, as_rng(seed))
    return (q * d) @ adjoint(q)


def matrix_with_singular_values(singular_values, shape, seed) -> np.ndarray:
    """Seeded matrix with exactly the prescribed singular values.

    ``shape`` is (rows, cols); values beyond the list are zero.  The
    result is ``U_r diag(sv) V_r*`` with U_r, V_r the leading columns of
    two Haar unitaries drawn in that order; the package's other
    rank-and-spectrum generators delegate here.
    """
    m, n = int(shape[0]), int(shape[1])
    if m < 1 or n < 1:
        raise ValueError(f"shape {(m, n)} must have positive dimensions")
    sv = np.asarray(singular_values, dtype=np.float64)
    if sv.ndim != 1 or len(sv) > min(m, n):
        raise ValueError(f"need at most min{m, n} singular values, got {sv.shape}")
    # A Python loop: for the short lists used here it costs a fraction of
    # two numpy reductions, and every generator of regular matrices calls it.
    if not all(0.0 <= v < math.inf for v in sv.tolist()):
        raise ValueError("singular values must be finite and non-negative")
    sv = np.sort(sv)[::-1]
    rng = as_rng(seed)
    if len(sv) == 0:
        return np.zeros((m, n), dtype=np.complex128)
    u = haar_unitary(m, rng)[:, : len(sv)]
    v = haar_unitary(n, rng)[:, : len(sv)]
    return (u * sv) @ adjoint(v)


SPECIAL_KINDS = ("partial_isometry", "hermitian_partial_isometry", "prescribed_singular_values")


def generate_special(kind: str, n: int, seed, rank=None, inertia=None, singular_values=None, rows=None):
    """Dispatch to the fixture generators by kind name.

    partial_isometry needs ``rank``; hermitian_partial_isometry needs
    ``inertia``; prescribed_singular_values needs ``singular_values``
    (optionally ``rows`` for a rectangular rows-by-n result).
    """
    if kind == "partial_isometry":
        if rank is None:
            raise ValueError("partial_isometry needs rank")
        return random_partial_isometry(n, rank, seed)
    if kind == "hermitian_partial_isometry":
        if inertia is None:
            raise ValueError("hermitian_partial_isometry needs inertia")
        return random_hermitian_partial_isometry(n, inertia, seed)
    if kind == "prescribed_singular_values":
        if singular_values is None:
            raise ValueError("prescribed_singular_values needs singular_values")
        return matrix_with_singular_values(
            singular_values, (n if rows is None else rows, n), seed
        )
    raise ValueError(f"unknown kind {kind!r}; expected one of {SPECIAL_KINDS}")
