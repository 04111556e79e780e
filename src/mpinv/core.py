"""Dense complex matrix substrate: adjoints, SVD, numerical rank, norms.

Every higher-level identity in this package is evaluated on plain 2-D
``complex128`` arrays.  This module owns input validation, the SVD
factorization, which also factors an ``(N, m, n)`` stack in one LAPACK
call, the rank threshold, and the one residual-normalization rule
behind every verdict: a Frobenius residual divided by
``residual_scale`` of the norms it is measured against.
``frobenius_norms`` takes the norm of each slice of a stack, bit for bit
the norm of that slice alone, and a stacked call holds at most
``_STACK_BYTES`` of slices.  Each answer has one certificate: ``svd``
checks the factors it answers with, while ``pinv`` factors through
``_factor`` and its Penrose residuals certify it.  ``SvdFactorization``
checks nothing when built; ``_factor`` and ``_verify`` do.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "EPS",
    "DEFAULT_TOL",
    "Tolerance",
    "SvdFactorization",
    "SvdConvergenceError",
    "ConditionReport",
    "as_matrix",
    "as_square",
    "adjoint",
    "frobenius_norm",
    "frobenius_norms",
    "svd",
    "numerical_rank",
    "operator_norm",
    "residual_scale",
    "ratio",
    "residual",
    "distance",
    "approx_eq",
    "haar_unitary",
]


class SvdConvergenceError(RuntimeError):
    """The SVD iteration did not converge for the given matrix."""


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every predicate in the package.

    rank_tol_factor scales the standard rank cutoff
    ``sigma_max * max(m, n) * eps``; eq_tol is the relative Frobenius
    threshold under which two matrices (or a residual) count as equal.
    """

    rank_tol_factor: float = 1.0
    eq_tol: float = 1e-9

    def __post_init__(self):
        if not (self.rank_tol_factor > 0):
            raise ValueError("rank_tol_factor must be positive")
        if not (self.eq_tol >= EPS):
            raise ValueError(f"eq_tol must be at least machine epsilon ({EPS:.3e})")


DEFAULT_TOL = Tolerance()


def as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    """Coerce input to a 2-D complex128 array with finite entries, or,
    with ``stack``, also to an ``(N, m, n)`` stack of them."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stack and m.ndim == 3):
        raise ValueError(f"{name} must be 2-D{' or 3-D' if stack else ''}, got ndim={m.ndim}")
    if 0 in m.shape:
        raise ValueError(f"{name} must have positive dimensions, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_square(a, name: str = "a") -> np.ndarray:
    """``as_matrix``, refusing a non-square shape."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each slice of a stack.  Applying it twice
    restores the input bit-for-bit."""
    m = np.asarray(m)
    return np.conj(m.swapaxes(-1, -2) if m.ndim > 2 else m.T)


def frobenius_norm(m: np.ndarray) -> float:
    """``float(np.linalg.norm(m))`` bit for bit; for float64 and complex128
    arrays it runs that function's own kernel without its dispatch."""
    if type(m) is np.ndarray and m.dtype.char in ("d", "D"):
        x = m.ravel(order="K")
        if x.dtype.char == "d":
            return math.sqrt(x.dot(x))
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return float(np.linalg.norm(m))


def frobenius_norms(stack: np.ndarray) -> list:
    """``frobenius_norm`` of each slice of an ``(N, m, n)`` stack, or of a matrix as a
    batch of one, bit for bit: a C- or F-ordered slice is read in its memory order and
    summed by the same BLAS dot, one per slice of a stacked ``matmul``; others alone."""
    if stack.ndim == 2:
        return [frobenius_norm(stack)]
    first = stack[0].flags
    if len(stack) == 1 or not (first.c_contiguous or first.f_contiguous):
        return [frobenius_norm(m) for m in stack]
    if stack.strides[-1] > stack.strides[-2]:
        stack = stack.swapaxes(-1, -2)
    x = stack.reshape(len(stack), 1, -1)
    re, im = x.real, x.imag
    sq = np.matmul(re, re.swapaxes(1, 2))
    sq += np.matmul(im, im.swapaxes(1, 2))
    return np.sqrt(sq, out=sq).ravel().tolist()


# A stacked call holds at most this many bytes of n-by-n complex128 slices,
# so that its copies stay small next to the matrices themselves.
_STACK_BYTES = 64 * 1024


def _width(n: int) -> int:
    """Slices of n-by-n complex128 per stacked call: 28 at n = 12, one from n = 46."""
    return max(1, _STACK_BYTES // (16 * n * n))


def _stack(ms) -> np.ndarray:
    """Matrices of one shape as an ``(N, m, n)`` stack; a single one is read in place."""
    return ms[0][None] if len(ms) == 1 else np.array(ms)


def slicewise_errors(fn):
    """Decorate ``fn(m, ...)``, which also takes an ``(N, m, n)`` array: when
    a stack raises ``ValueError`` or ``SvdConvergenceError``, ``fn`` runs on
    each slice in turn, so that the first failing slice raises the error and
    message it raises alone (LAPACK does not say which slice failed)."""

    @functools.wraps(fn)
    def wrapper(m, *args, **kwargs):
        try:
            return fn(m, *args, **kwargs)
        except (ValueError, SvdConvergenceError):
            if getattr(m, "ndim", None) == 3:
                for part in m:
                    fn(part, *args, **kwargs)
            raise

    return wrapper


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD ``A = U @ diag(sigma) @ V*`` with descending singular values.

    u is m-by-m unitary, v is n-by-n unitary, sigma has length min(m, n);
    the factorization of an ``(N, m, n)`` stack gives each a leading axis,
    and ``f[i]`` is the factorization of slice i.  Construction checks
    nothing: ``svd`` returns checked factors (ordering, unitarity and
    reconstruction), while ``_factor`` (behind ``pinv``, whose Penrose
    residuals certify it) checks only the ordering.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __getitem__(self, i) -> "SvdFactorization":
        """The factorization of slice ``i`` of a stack, checked with the stack."""
        if self.u.ndim != 3:
            raise TypeError("only the factorization of a stack has slices")
        return SvdFactorization(self.u[i], self.sigma[i], self.v[i])

    @property
    def rows(self) -> int:
        return self.u.shape[-1]

    @property
    def cols(self) -> int:
        return self.v.shape[-1]

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together."""
        return _reconstruct(self.u, self.sigma, self.v)


def _check_order(sigma):
    # NaN passes both tests, as it passes ``np.diff(s) > 0``
    if (sigma < 0).any() or (sigma[..., 1:] > sigma[..., :-1]).any():
        raise ValueError("sigma must be non-negative and non-increasing")


def _check_unitary(u, v):
    for w, name in ((u, "u"), (v, "v")):
        g = adjoint(w) @ w
        g.ravel()[:: len(g) + 1] -= 1  # g - I; g is fresh and C-ordered, ravel is a view
        if frobenius_norm(g) > 1e-12 * len(g):
            raise ValueError(f"{name} is not unitary to working precision")


def _reconstruct(u, sigma, v) -> np.ndarray:
    """``u diag(sigma) v*`` from the leading columns, of each slice of a stack."""
    k = sigma.shape[-1]
    return (u[..., :k] * sigma[..., None, :]) @ adjoint(v[..., :k])


def _factor(a) -> SvdFactorization:
    """The full SVD of a validated matrix or stack in one LAPACK call, with
    sigma's ordering checked but not ``_verify``'s unitarity and reconstruction."""
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD did not converge for a {a.shape[-2]}x{a.shape[-1]} matrix: {exc}"
        ) from exc
    _check_order(s)
    return SvdFactorization(u, s, adjoint(vh))


def _verify(a, f: SvdFactorization) -> SvdFactorization:
    """``f`` once each slice's factors are unitary and reproduce ``a``."""
    # Slice by slice, so that no stack of temporaries is alive at once.
    for ai, ui, si, vi in zip(a, f.u, f.sigma, f.v) if a.ndim == 3 else [(a, f.u, f.sigma, f.v)]:
        _check_unitary(ui, vi)
        recon_err = frobenius_norm(_reconstruct(ui, si, vi) - ai)
        if recon_err > 1e-12 * residual_scale(frobenius_norm(ai)):
            raise SvdConvergenceError(
                f"SVD reconstruction residual {recon_err:.3e} exceeds tolerance"
            )
    return f


def _svd(a) -> SvdFactorization:
    """``svd`` of a validated matrix or stack."""
    return _verify(a, _factor(a))


@slicewise_errors
def svd(m) -> SvdFactorization:
    """Compute the full SVD of a complex matrix, or of each slice of an
    ``(N, m, n)`` stack in one LAPACK call.

    Deterministic for a fixed input bit pattern; a slice of a stack
    factors bit for bit as it does alone.  Raises SvdConvergenceError if
    the underlying iteration fails or the factorization does not
    reproduce the input to ``1e-12 * max(1, ||A||_F)``, and ValueError if
    a factor fails its check; a failing stack raises the error of its
    first failing slice.
    """
    return _svd(as_matrix(m, stack=True))


def rank_threshold(f: SvdFactorization, tol: Tolerance = DEFAULT_TOL) -> float:
    """Cutoff below which singular values count as zero, for one matrix."""
    if f.sigma.ndim != 1:
        raise ValueError("a stack's factorization f has one rank per slice; index it as f[i]")
    sigma_max = float(f.sigma[0]) if len(f.sigma) else 0.0
    return sigma_max * max(f.rows, f.cols) * EPS * tol.rank_tol_factor


def numerical_rank(f: SvdFactorization, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the scale-aware cutoff."""
    return int(np.count_nonzero(f.sigma > rank_threshold(f, tol)))


def operator_norm(m) -> float:
    """Largest singular value; 0 for the zero matrix."""
    return float(_svd(as_matrix(m)).sigma[0])


def residual_scale(*norms) -> float:
    """The one residual normalizer: the largest of ``norms``, at least 1."""
    return max((1.0, *norms))


def ratio(d: float, scale: float) -> float:
    """``d / scale``, or ``inf`` if either is not finite: an overflowed
    norm would otherwise read as 0 or NaN, and either as a pass."""
    return d / scale if math.isfinite(d) and math.isfinite(scale) else math.inf


def _all_finite(*values) -> bool:
    return all(map(math.isfinite, values))


def residual(diff, *norms) -> float:
    """``||diff||_F / residual_scale(*norms)``, or ``inf`` if a value is not finite.

    An overflowed norm would otherwise scale the residual to 0 or NaN,
    and either reads as a pass.
    """
    return _scaled(frobenius_norm(diff), *norms)


def _scaled(d: float, *norms) -> float:
    """``residual`` of a difference whose norm ``d`` is already taken."""
    if not _all_finite(d, *norms):
        return math.inf
    return d / residual_scale(*norms)


def distance(x, y) -> float:
    """Relative distance ``residual(x - y, ||x||_F, ||y||_F)``."""
    return residual(x - y, frobenius_norm(x), frobenius_norm(y))


def approx_eq(x, y, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``||x - y||_F <= eq_tol * residual_scale(||x||_F, ||y||_F)``
    and all three norms are finite."""
    xm = as_matrix(x, "x")
    ym = as_matrix(y, "y")
    if xm.shape != ym.shape:
        raise ValueError(f"shape mismatch: {xm.shape} vs {ym.shape}")
    return _close(frobenius_norm(xm - ym), (frobenius_norm(xm), frobenius_norm(ym)), tol)


def _close(d: float, norms, tol: Tolerance) -> bool:
    """``approx_eq``'s rule, given ``d = ||x - y||_F`` and ``norms = (||x||_F, ||y||_F)``."""
    return _all_finite(d, *norms) and bool(d <= tol.eq_tol * residual_scale(*norms))


@dataclass
class ConditionReport:
    """Named boolean verdicts with the residual magnitude behind each one."""

    verdicts: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    tolerance_used: Tolerance = DEFAULT_TOL
    ranks: dict | None = None

    def add(self, name: str, residual: float, verdict: bool | None = None):
        if verdict is None:
            verdict = residual <= self.tolerance_used.eq_tol
        self.verdicts[name] = bool(verdict)
        self.residuals[name] = float(residual)

    def all_true(self) -> bool:
        return all(self.verdicts.values())

    def as_dict(self) -> dict:
        out = {
            "verdicts": dict(self.verdicts),
            "residuals": dict(self.residuals),
            "eq_tol": self.tolerance_used.eq_tol,
            "rank_tol_factor": self.tolerance_used.rank_tol_factor,
        }
        if self.ranks is not None:
            out["ranks"] = dict(self.ranks)
        return out


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n-by-n unitary via QR of a complex Gaussian matrix.

    The R-diagonal phase correction makes the distribution exactly
    Haar and the output a pure function of the generator state.
    """
    rng = np.random.default_rng(rng)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))
