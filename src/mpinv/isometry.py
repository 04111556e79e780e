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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConditionReport,
    Tolerance,
    adjoint,
    as_matrix,
    as_square,
    frobenius_norm,
    haar_unitary,
    numerical_rank,
    ratio,
    residual,
    residual_scale,
    _close,
    _factor,
    _haar_columns,
    _Report,
    _svd,
    _verify,
)
from .pinv import _certified

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
class ClassificationReport(_Report):
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


# The refusal of ``conorm`` (and of ``mpinv conorm``) for the zero matrix.
CONORM_UNDEFINED = "conorm undefined for the zero element"


def conorm(a, tol: Tolerance = DEFAULT_TOL) -> float:
    """Smallest singular value above the rank cutoff (= 1 / ||a^+||).

    Undefined for the zero matrix: the infimum defining it runs over an
    empty set, so that case raises instead of returning 0 or inf.
    """
    analysis = _Analysis(as_matrix(a, "a"), tol)
    analysis.checked  # the answer is a singular value, so the factors are checked
    if analysis.conorm is None:
        raise ValueError(CONORM_UNDEFINED)
    return analysis.conorm


def is_partial_isometry(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the pseudoinverse of ``a`` equals its adjoint."""
    return _Analysis(as_matrix(a, "a"), tol).partial_isometry


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
    return _Analysis(as_square(a), DEFAULT_TOL).hermitian


def normality_residual(a) -> float:
    """``||a a* - a* a||_F / ||a||_F^2``; scale-stable normality measure,
    ``inf`` if a norm overflows."""
    return _Analysis(as_square(a), DEFAULT_TOL).normality


def norm_conorm_check(a, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Partial isometry <=> conorm = operator norm = 1, for nonzero input.

    Verdicts: ``partial_isometry`` (the definition via a^+ = a*),
    ``unit_norm_and_conorm`` (the metric side), and ``consistent``
    (the two agree, which is the point being checked).
    """
    return _Analysis(as_matrix(a, "a"), tol).norm_conorm()


def normal_mph_check(a, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Normal MPH matrix <=> hermitian partial isometry, for square input.

    Verdicts: ``normal_mp_hermitian`` (normality residual within
    tolerance and a^+ = a), ``hermitian_partial_isometry`` (hermitian
    residual within tolerance and a^+ = a*), and ``consistent``.  The
    pseudoinverse is computed once, and only for normal or hermitian
    input.
    """
    return _Analysis(as_square(a), tol).normal_mph()


def classify(a, tol: Tolerance = DEFAULT_TOL) -> ClassificationReport:
    """Structural flags plus norm, pinv norm, conorm and rank.

    The conorm comes straight off the spectrum of ``a`` while
    ``pinv_norm`` is measured on the computed pseudoinverse, so the
    reciprocal identity between them is a genuine cross-check rather
    than one number echoed twice.
    """
    return _Analysis(as_matrix(a, "a"), tol).classification()


@dataclass
class _Analysis:
    """A validated ``m`` and all that this module and ``mp_hermitian`` read off it, each
    computed on first read: its SVD, the ``pinv`` result built from it, those factors
    checked as ``svd`` checks them, and the predicates and norms below.  ``checked``
    and ``rank`` read the SVD, not the result, so they answer where ``pinv`` refuses."""

    m: np.ndarray
    tol: Tolerance
    factorization = functools.cached_property(lambda self: _factor(self.m))
    result = functools.cached_property(
        lambda self: _certified(self.m, self.factorization, self.tol))
    checked = functools.cached_property(lambda self: _verify(self.m, self.factorization))
    rank = functools.cached_property(lambda self: numerical_rank(self.factorization, self.tol))
    mh = functools.cached_property(lambda self: adjoint(self.m))
    norm = functools.cached_property(lambda self: frobenius_norm(self.m))
    # The structure residuals; both are 0.0 for the zero matrix.
    hermitian = functools.cached_property(lambda self: ratio(
        frobenius_norm(self.m - self.mh), self.norm) if self.norm else 0.0)
    normality = functools.cached_property(lambda self: ratio(frobenius_norm(
        self.m @ self.mh - self.mh @ self.m), self.norm * self.norm) if self.norm else 0.0)
    # ||a^+ - a*||_F and ||a^+ - a||_F, and a^+ = a* and a^+ = a as approx_eq decides
    # them, on the certificate's norms (||a||_F, ||a^+||_F): ||a*||_F is ||a||_F bit for bit.
    pi_gap = functools.cached_property(lambda self: frobenius_norm(self.result.pinv - self.mh))
    mph_gap = functools.cached_property(lambda self: frobenius_norm(self.result.pinv - self.m))
    partial_isometry = functools.cached_property(
        lambda self: _close(self.pi_gap, self.result.residuals.norms, self.tol))
    mp_hermitian = functools.cached_property(
        lambda self: _close(self.mph_gap, self.result.residuals.norms, self.tol))
    pinv_norm = functools.cached_property(  # operator_norm(a^+), on checked factors
        lambda self: float(_svd(self.result.pinv).sigma[0]))
    op_norm = functools.cached_property(lambda self: float(self.factorization.sigma[0]))
    # The smallest singular value above the rank cutoff; None for the zero matrix.
    conorm = functools.cached_property(
        lambda self: float(self.factorization.sigma[self.rank - 1]) if self.rank else None)

    @classmethod
    def stack(cls, ms: np.ndarray, tol: Tolerance) -> list:
        """The analysis of each slice of a validated ``(N, n, n)`` stack, with
        ``factorization`` and ``result`` set from one ``_factor`` and one ``_certified``
        call, as many numpy calls as one slice takes, bit for bit each slice's alone;
        a refused stack raises the first refusal met, and its callers attribute it."""
        analyses = []
        for m, result in zip(ms, _certified(ms, _factor(ms), tol)):
            analysis = cls(m, tol)
            analysis.factorization, analysis.result = result.factorization, result
            analyses.append(analysis)
        return analyses

    def norm_conorm(self) -> ConditionReport:
        if self.rank == 0:
            raise ValueError("check undefined for the zero element")
        report = ConditionReport(tolerance_used=self.tol)

        lhs = self.partial_isometry
        report.add("partial_isometry", ratio(self.pi_gap, residual_scale(self.norm)), verdict=lhs)

        metric_res = max(abs(self.conorm - 1.0), abs(self.op_norm - 1.0))
        rhs = metric_res <= self.tol.eq_tol
        report.add("unit_norm_and_conorm", metric_res, verdict=rhs)

        report.add("consistent", 0.0 if lhs == rhs else 1.0, verdict=lhs == rhs)
        return report

    def normal_mph(self) -> ConditionReport:
        report = ConditionReport(tolerance_used=self.tol)

        normal = self.normality <= self.tol.eq_tol
        hermitian = self.hermitian <= self.tol.eq_tol

        lhs = normal and self.mp_hermitian
        report.add("normal_mp_hermitian", self.normality, verdict=lhs)
        rhs = hermitian and self.partial_isometry
        report.add("hermitian_partial_isometry", self.hermitian, verdict=rhs)

        report.add("consistent", 0.0 if lhs == rhs else 1.0, verdict=lhs == rhs)
        return report

    def classification(self) -> ClassificationReport:
        square = self.m.shape[0] == self.m.shape[1]
        return ClassificationReport(
            pinv_norm=self.pinv_norm,  # first, so that a refusal by pinv comes first
            hermitian=bool(square and self.hermitian <= self.tol.eq_tol),
            normal=bool(square and self.normality <= self.tol.eq_tol),
            partial_isometry=self.partial_isometry,
            mp_hermitian=bool(square and self.mp_hermitian),
            regular=True,
            op_norm=self.op_norm,
            conorm=self.conorm,
            rank=self.rank,
        )


def random_partial_isometry(n: int, rank: int, seed) -> np.ndarray:
    """Seeded n-by-n partial isometry of the given rank (U_r V_r*)."""
    if not (0 <= rank <= n):
        raise ValueError(f"rank={rank} must be in [0, {n}]")
    return matrix_with_singular_values(np.ones(rank), (n, n), seed)


def random_hermitian_partial_isometry(n: int, inertia, seed) -> np.ndarray:
    """Seeded n-by-n Q diag(+1.., -1.., 0..) Q*, n >= 1, with the prescribed inertia
    ``(plus, minus, zero)``, which must sum to n."""
    plus, minus, zero = (int(v) for v in inertia)
    if n < 1:
        raise ValueError(f"shape {(n, n)} must have positive dimensions")
    if min(plus, minus, zero) < 0 or plus + minus + zero != n:
        raise ValueError(f"inertia {inertia} must be non-negative and sum to {n}")
    d = np.concatenate([np.ones(plus), -np.ones(minus), np.zeros(zero)])
    q = haar_unitary(n, seed)
    return (q * d) @ adjoint(q)


def matrix_with_singular_values(singular_values, shape, seed) -> np.ndarray:
    """Seeded matrix with exactly the prescribed singular values.

    ``shape`` is (rows, cols); values beyond the list are zero.  The result
    is ``U_r diag(sv) V_r*``, U_r and V_r the leading r columns of two Haar
    unitaries drawn in that order (full Gaussians; only r columns factored
    to n = 64).  The package's other rank-and-spectrum generators call it.
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
    rng = np.random.default_rng(seed)
    if len(sv) == 0:
        return np.zeros((m, n), dtype=np.complex128)
    u, v = _haar_columns(m, len(sv), rng, 2) if m == n else (
        _haar_columns(m, len(sv), rng), _haar_columns(n, len(sv), rng))
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
