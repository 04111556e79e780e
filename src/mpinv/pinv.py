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

import itertools
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
    frobenius_norms,
    ratio,
    residual_scale,
    slicewise_errors,
    _cutoff,
    _factor,
    _Report,
    _width,
)
from .program import _Program

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
class PenroseResiduals(_Report):
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

    def report(self) -> dict:
        return {
            "r1": self.r1,
            "r2": self.r2,
            "r3": self.r3,
            "r4": self.r4,
            "absolute": list(self.absolute),
        }


@dataclass(frozen=True, eq=False)
class PinvResult(_Report):
    """``pinv``, certified by its Penrose ``residuals``, and the SVD of ``a`` it was
    built from, kept so callers need not redo it.  Construction checks nothing; sigma
    is ordered, but a caller reading u and v as bases checks them as ``svd`` does."""

    pinv: np.ndarray
    rank: int
    residuals: PenroseResiduals
    factorization: SvdFactorization

    def report(self) -> dict:
        """The wire report, holding the matrix as an array for ``matrix_io.dumps``."""
        return {
            "pinv": self.pinv,
            "rank": self.rank,
            "residuals": self.residuals.report(),
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
    return _penrose(*_operands(a, x))[0]


def _penrose(am, xm) -> list:
    """``penrose_residuals`` of two validated matrices, as a batch of one, or of each slice
    of an ``(N, m, n)`` and a C-ordered ``(N, n, m)`` stack.  A square stack of C-ordered
    slices writes ``a``, ``x`` and the four differences, in the order ``frobenius_norm``
    reads each alone, into one buffer for one ``frobenius_norms`` call; any other stack is
    certified slice by slice, each by the call it makes alone."""
    if am.ndim == 3 and am.shape[1] == am.shape[2] and am[0].flags.c_contiguous:
        d = np.empty((6, *am.shape), np.complex128)  # a, x, then the four differences
        d[0], d[1] = am, xm
        p = np.matmul(d[:2], d[1::-1])  # ax, xa
        np.subtract(np.matmul(p, d[:2], out=d[2:4]), d[:2], out=d[2:4])
        # (ax)* - ax is anti-hermitian, so its C and F orders hold the same squares.
        np.subtract(np.conj(p.swapaxes(2, 3), out=d[4:]), p, out=d[4:])
        norms = frobenius_norms(d.reshape(-1, *am.shape[1:]))
        return [_residuals(*norms[i::len(am)]) for i in range(len(am))]
    checked = []
    for a, x in zip(am, xm) if am.ndim == 3 else [(am, xm)]:
        ax, xa = a @ x, x @ a
        parts = (a, x, ax @ a - a, xa @ x - x, adjoint(ax) - ax, adjoint(xa) - xa)
        checked.append(_residuals(*map(frobenius_norm, parts)))
    return checked


def _residuals(na, nx, r1, r2, r3, r4) -> PenroseResiduals:
    """The residuals of four equations' difference norms, scaled by ``||a||`` and ``||x||``."""
    scale = residual_scale(na, nx)
    return PenroseResiduals(ratio(r1, scale), ratio(r2, scale), ratio(r3, scale),
                            ratio(r4, scale), absolute=(r1, r2, r3, r4), norms=(na, nx))


@slicewise_errors
def pinv(a, tol: Tolerance = DEFAULT_TOL):
    """Moore-Penrose inverse via the SVD: ``V Sigma^+ U*``.

    Singular values above the rank cutoff are reciprocated, the rest
    are zeroed; the zero matrix maps to the zero matrix of transposed
    shape.  Construction fails if any Penrose residual of the result
    exceeds ``tol.eq_tol``.  As ``a^+`` is the only solution of the four
    equations, that is its one certificate: the SVD is not checked again.

    An ``(N, m, n)`` stack is factored in one SVD call and gives a list of
    N results, each bit for bit the ``PinvResult`` of its slice alone, and
    raises what N calls in a row would raise (``core.slicewise_errors``); their
    ``pinv`` arrays are views of one ``(N, n, m)`` array, each one's ``base``.
    """
    am = as_matrix(a, "a", stack=True)
    return _certified(am, _factor(am), tol)


def _certified(am, f: SvdFactorization, tol: Tolerance):
    """``V Sigma^+ U*`` from the factorization ``f`` of ``am``, if its Penrose residuals are
    within ``tol.eq_tol``; for an ``(N, m, n)`` stack, each slice's, from one ``tolist`` of
    sigma, one stacked inverse per run of equal ranks into one ``(N, n, m)`` array, and a
    certificate per ``_width`` slices; the first refusal met is raised."""
    size = max(am.shape[-2:])
    if am.ndim == 2:
        r = _rank(f.sigma.tolist(), size, tol)
        # Rank 0 gives the n-by-m zero matrix, a product over an empty inner axis.
        x = (f.v[:, :r] / f.sigma[:r]) @ adjoint(f.u[:, :r])
        return _accepted(x, r, _penrose(am, x)[0], f, tol)
    ranks = [_rank(sigma, size, tol) for sigma in f.sigma.tolist()]
    x, lo = np.empty((len(am), am.shape[2], am.shape[1]), np.complex128), 0
    for r, run in itertools.groupby(ranks):
        k = slice(lo, lo := lo + len(list(run)))  # basic slices keep each slice's layout
        np.matmul(f.v[k, :, :r] / f.sigma[k, None, :r], adjoint(f.u[k, :, :r]), out=x[k])
    width = _width(size)
    checked = [res for lo in range(0, len(am), width)
               for res in _penrose(am[lo:lo + width], x[lo:lo + width])]
    return [_accepted(x[i], r, res, f[i], tol) for i, (r, res) in enumerate(zip(ranks, checked))]


def _rank(sigma: list, size: int, tol: Tolerance) -> int:
    """``numerical_rank`` from singular values as floats, refusing an overflowing inverse."""
    cut = _cutoff(sigma[0], size, tol)
    r = sum(map(cut.__lt__, sigma))  # s > cut, and False for NaN
    # Unit rows of u and v bound every |x_ij| by (1 + O(n eps)) / sigma_r,
    # so a finite 2 / sigma_r keeps x finite.
    if r and not math.isfinite(2.0 / sigma[r - 1]):
        raise PenroseResidualError(
            "pseudoinverse overflows float64 (smallest kept singular value "
            f"{sigma[r - 1]!r})", PenroseResiduals(*[math.inf] * 4))
    return r


def _accepted(x, r: int, res: PenroseResiduals, f: SvdFactorization, tol: Tolerance):
    """The result, if its Penrose residuals ``res`` are within ``tol.eq_tol``."""
    if not res.within(tol):
        raise PenroseResidualError(
            f"pseudoinverse residuals {res.report()} exceed eq_tol={tol.eq_tol}", res)
    return PinvResult(pinv=x, rank=r, residuals=res, factorization=f)


def pinv_matrix(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Shorthand for ``pinv(a, tol).pinv``, for one matrix."""
    am = as_matrix(a, "a")
    return _certified(am, _factor(am), tol).pinv


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


# The catalog's eight distinct equations over a, x, a* and x*, each scored as
# the Penrose equations are: by residual_scale(||a||_F, ||x||_F).
_AX = (("a",), ("x",))
_IDENTITIES = (
    (("a",), ("xh", "ah", "a"), _AX),
    (("a",), ("a", "ah", "xh"), _AX),
    (("x",), ("x", "xh", "ah"), _AX),
    (("x",), ("ah", "xh", "x"), _AX),
    (("ah",), ("ah", "a", "x"), _AX),
    (("xh",), ("xh", "x", "a"), _AX),
    (("ah",), ("x", "a", "ah"), _AX),
    (("xh",), ("a", "x", "xh"), _AX),
)

# Each formulation is one equation or the conjunction of two, named by
# their indices into _IDENTITIES.
_FORMULATION_EQUATIONS = {
    FormulationId.P21_I: (0,), FormulationId.P21_II: (1,),
    FormulationId.P21_III: (2,), FormulationId.P21_IV: (3,),
    FormulationId.P22_II: (0, 3), FormulationId.P22_III: (1, 2),
    FormulationId.R23_II: (4, 5), FormulationId.R23_III: (6, 7),
    FormulationId.P24_II: (6, 2), FormulationId.P24_III: (1, 7),
    FormulationId.P24_IV: (4, 3), FormulationId.P24_V: (0, 5),
}
_FORMULATIONS = {f: tuple(map(_IDENTITIES.__getitem__, eqs))
                 for f, eqs in _FORMULATION_EQUATIONS.items()}
_PROGRAM = _Program(_FORMULATIONS)
_ONE_PROGRAMS = {f: _Program({f: row}) for f, row in _FORMULATIONS.items()}


def formulation_residual(a, x, formulation: FormulationId) -> float:
    """Worst relative residual over the formulation's equation(s).

    Scaled by ``residual_scale(||a||_F, ||x||_F)``, matching penrose_residuals.
    """
    am, xm = _operands(a, x)
    formulation = FormulationId(formulation)
    return _formulation_residuals(am, xm, _ONE_PROGRAMS[formulation])[formulation]


def _formulation_residuals(am, xm, program: _Program = _PROGRAM) -> dict:
    """``{formulation: formulation_residual}`` of each row of ``program`` (all twelve by
    default) for validated matrices, in one run that forms each product once."""
    na, nx = frobenius_norm(am), frobenius_norm(xm)
    mats = {"a": am, "x": xm, "ah": adjoint(am), "xh": adjoint(xm)}
    norms = {"a": na, "x": nx, "ah": na, "xh": nx}  # an adjoint has its matrix's norm
    return program.run([mats.pop(n) for n in program.leaves], [norms[n] for n in program.leaves])


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
