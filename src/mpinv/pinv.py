"""Moore-Penrose inverse and its equivalent single-sided formulations.

The pseudoinverse of ``a`` is the unique ``x`` with

    a = a x a,   x = x a x,   (a x)* = a x,   (x a)* = x a.

Beyond solving that system via the SVD, this module scores how well an
arbitrary candidate ``x`` satisfies it (``penrose_residuals``) and
evaluates the catalog of twelve equivalent reformulations that trade
the four equations for one or two involution-flavored identities such
as ``a = x* a* a`` or ``a* = x a a*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConditionReport,
    SvdFactorization,
    Tolerance,
    adjoint,
    as_matrix,
    distance,
    frobenius_norm,
    numerical_rank,
    ratio,
    residual,
    residual_scale,
    slicewise_errors,
    svd,
)
from .matrix_io import matrix_to_dict

__all__ = [
    "PenroseResiduals",
    "PinvResult",
    "PenroseResidualError",
    "FormulationId",
    "pinv",
    "pinv_matrix",
    "penrose_residuals",
    "formulation_residual",
    "formulation_holds",
    "involution_laws_check",
]


class PenroseResidualError(RuntimeError):
    """The SVD-built pseudoinverse failed its own defining equations."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = residuals


@dataclass(frozen=True)
class PenroseResiduals:
    """Relative residuals of the four defining equations.

    r1..r4 are divided by ``residual_scale(||a||_F, ||x||_F)``, and are
    ``inf`` where a norm is not finite; ``absolute`` keeps the raw
    Frobenius norms for diagnostics, and ``norms`` is ``(||a||_F,
    ||x||_F)``.
    """

    r1: float
    r2: float
    r3: float
    r4: float
    absolute: tuple = ()
    norms: tuple = ()

    def max(self) -> float:
        """The largest residual, or NaN if any is NaN, so that it fails ``within``."""
        rs = (self.r1, self.r2, self.r3, self.r4)
        return math.nan if any(map(math.isnan, rs)) else max(rs)

    def within(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return self.max() <= tol.eq_tol

    def as_dict(self) -> dict:
        return {
            "r1": self.r1,
            "r2": self.r2,
            "r3": self.r3,
            "r4": self.r4,
            "absolute": list(self.absolute),
        }


@dataclass(frozen=True)
class PinvResult:
    """``factorization`` is the SVD of ``a``, kept so callers need not redo it."""

    pinv: np.ndarray
    rank: int
    residuals: PenroseResiduals
    factorization: SvdFactorization

    def as_dict(self) -> dict:
        return {
            "pinv": matrix_to_dict(self.pinv),
            "rank": self.rank,
            "residuals": self.residuals.as_dict(),
        }


def _operands(a, x):
    """``a`` and ``x`` as matrices, refusing an ``x`` not shaped like ``a*``."""
    am = as_matrix(a, "a")
    xm = as_matrix(x, "x")
    if xm.shape != am.shape[::-1]:
        raise ValueError(f"x must have shape {am.shape[::-1]}, got {xm.shape}")
    return am, xm


def penrose_residuals(a, x) -> PenroseResiduals:
    """Score an (a, x) pair against the four defining equations.

    ``x`` must be n-by-m for an m-by-n ``a``.  The caller decides
    pass/fail against its own tolerance.
    """
    return _penrose(*_operands(a, x))


def _penrose(am, xm) -> PenroseResiduals:
    """``penrose_residuals`` of two matrices that are already validated."""
    ax = am @ xm
    xa = xm @ am
    abs_res = (
        frobenius_norm(ax @ am - am),
        frobenius_norm(xa @ xm - xm),
        frobenius_norm(adjoint(ax) - ax),
        frobenius_norm(adjoint(xa) - xa),
    )
    norms = (frobenius_norm(am), frobenius_norm(xm))
    scale = residual_scale(*norms)
    r = tuple(ratio(v, scale) for v in abs_res)
    return PenroseResiduals(r[0], r[1], r[2], r[3], absolute=abs_res, norms=norms)


@slicewise_errors
def pinv(a, tol: Tolerance = DEFAULT_TOL):
    """Moore-Penrose inverse via the SVD: ``V Sigma^+ U*``.

    Singular values above the rank cutoff are reciprocated, the rest
    are zeroed; the zero matrix maps to the zero matrix of transposed
    shape.  Construction fails if any Penrose residual of the result
    exceeds ``tol.eq_tol``.

    An ``(N, m, n)`` stack is factored in one SVD call and gives a list of
    N results, each bit for bit the ``PinvResult`` of its slice alone; the
    first slice that fails raises the error it raises alone.
    """
    am = as_matrix(a, "a", stack=True)
    f = svd(am)
    if am.ndim == 3:
        return [_certified(am[i], f[i], tol) for i in range(len(am))]
    return _certified(am, f, tol)


def _certified(am, f: SvdFactorization, tol: Tolerance) -> PinvResult:
    """The pseudoinverse of ``am`` from its factorization ``f``, if its
    Penrose residuals are within ``tol.eq_tol``."""
    r = numerical_rank(f, tol)
    if r == 0:
        x = np.zeros((am.shape[1], am.shape[0]), dtype=np.complex128)
    else:
        # Unit rows of u and v bound every |x_ij| by (1 + O(n eps)) / sigma_r,
        # so a finite 2 / sigma_r keeps x finite.
        sigma_r = float(f.sigma[r - 1])
        if not math.isfinite(2.0 / sigma_r):
            raise PenroseResidualError(
                f"pseudoinverse overflows float64 (smallest kept singular value {sigma_r!r})",
                PenroseResiduals(math.inf, math.inf, math.inf, math.inf),
            )
        x = (f.v[:, :r] / f.sigma[:r]) @ adjoint(f.u[:, :r])
    res = _penrose(am, x)
    if not res.within(tol):
        raise PenroseResidualError(
            f"pseudoinverse residuals {res.as_dict()} exceed eq_tol={tol.eq_tol}",
            res,
        )
    return PinvResult(pinv=x, rank=r, residuals=res, factorization=f)


def pinv_matrix(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Shorthand for ``pinv(a, tol).pinv``, for one matrix."""
    return pinv(as_matrix(a, "a"), tol).pinv


class FormulationId(str, Enum):
    """Tags for the twelve equivalent reformulations of the Penrose system."""

    P21_I = "P21_I"
    P21_II = "P21_II"
    P21_III = "P21_III"
    P21_IV = "P21_IV"
    P22_II = "P22_II"
    P22_III = "P22_III"
    R23_II = "R23_II"
    R23_III = "R23_III"
    P24_II = "P24_II"
    P24_III = "P24_III"
    P24_IV = "P24_IV"
    P24_V = "P24_V"


# The eight distinct defining equations of the catalog, as (lhs, rhs)
# builders over (a, x, a*, x*).
_EQUATIONS = (
    lambda a, x, ah, xh: (a, xh @ ah @ a),
    lambda a, x, ah, xh: (a, a @ ah @ xh),
    lambda a, x, ah, xh: (x, x @ xh @ ah),
    lambda a, x, ah, xh: (x, ah @ xh @ x),
    lambda a, x, ah, xh: (ah, ah @ a @ x),
    lambda a, x, ah, xh: (xh, xh @ x @ a),
    lambda a, x, ah, xh: (ah, x @ a @ ah),
    lambda a, x, ah, xh: (xh, a @ x @ xh),
)

# Each formulation is one equation or the conjunction of two, named by
# their indices into _EQUATIONS.
_FORMULATION_EQUATIONS = {
    FormulationId.P21_I: (0,),
    FormulationId.P21_II: (1,),
    FormulationId.P21_III: (2,),
    FormulationId.P21_IV: (3,),
    FormulationId.P22_II: (0, 3),
    FormulationId.P22_III: (1, 2),
    FormulationId.R23_II: (4, 5),
    FormulationId.R23_III: (6, 7),
    FormulationId.P24_II: (6, 2),
    FormulationId.P24_III: (1, 7),
    FormulationId.P24_IV: (4, 3),
    FormulationId.P24_V: (0, 5),
}


def formulation_residual(a, x, formulation: FormulationId) -> float:
    """Worst relative residual over the formulation's equation(s).

    Scaled by ``residual_scale(||a||_F, ||x||_F)``, matching penrose_residuals.
    """
    am, xm = _operands(a, x)
    ah = adjoint(am)
    xh = adjoint(xm)
    na, nx = frobenius_norm(am), frobenius_norm(xm)
    worst = 0.0
    for index in _FORMULATION_EQUATIONS[FormulationId(formulation)]:
        lhs, rhs = _EQUATIONS[index](am, xm, ah, xh)
        worst = max(worst, residual(lhs - rhs, na, nx))
    return worst


def formulation_holds(a, x, formulation: FormulationId, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff every equation of the formulation holds to ``tol.eq_tol``."""
    return formulation_residual(a, x, formulation) <= tol.eq_tol


def involution_laws_check(a, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Check ``(a*)^+ = (a^+)*`` and ``(a^+)^+ = a`` for one matrix.

    Both identities hold for every matrix; the report exists to expose
    the residuals.
    """
    am = as_matrix(a, "a")
    x = pinv(am, tol).pinv
    report = ConditionReport(tolerance_used=tol)

    report.add("adjoint_pinv_commute", distance(pinv(adjoint(am), tol).pinv, adjoint(x)))
    report.add("double_pinv_identity", distance(pinv(x, tol).pinv, am))
    return report
