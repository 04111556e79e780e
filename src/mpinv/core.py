"""Dense complex matrix substrate: adjoints, SVD, numerical rank, norms.

Every higher-level identity in this package is evaluated on plain 2-D
``complex128`` arrays.  This module owns input validation, the SVD
factorization (with its unitarity/ordering/reconstruction guarantees),
the rank threshold, and the one residual-normalization rule behind
every verdict: a Frobenius residual divided by ``residual_scale`` of
the norms it is measured against.
"""

from __future__ import annotations

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
    "adjoint",
    "frobenius_norm",
    "svd",
    "numerical_rank",
    "operator_norm",
    "residual_scale",
    "residual",
    "distance",
    "approx_eq",
    "haar_unitary",
    "as_rng",
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


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-D complex128 array with finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  Applying it twice restores the input bit-for-bit."""
    return np.conj(np.asarray(m).T)


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


@dataclass(frozen=True)
class SvdFactorization:
    """Full SVD ``A = U @ diag(sigma) @ V*`` with descending singular values.

    u is m-by-m unitary, v is n-by-n unitary, sigma has length min(m, n).
    Construction re-checks unitarity and ordering so downstream rank,
    norm and subspace logic can rely on them.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        m = self.u.shape[0]
        n = self.v.shape[0]
        k = min(m, n)
        if self.u.shape != (m, m) or self.v.shape != (n, n):
            raise ValueError("u and v must be square")
        if self.sigma.shape != (k,):
            raise ValueError(f"sigma must have length min(m, n) = {k}")
        s = self.sigma  # NaN passes both tests, as it passes ``np.diff(s) > 0``
        if (s < 0).any() or (s[1:] > s[:-1]).any():
            raise ValueError("sigma must be non-negative and non-increasing")
        for w, name in ((self.u, "u"), (self.v, "v")):
            g = adjoint(w) @ w
            g.ravel()[:: len(g) + 1] -= 1  # g - I; g is fresh and C-ordered, ravel is a view
            if frobenius_norm(g) > 1e-12 * len(g):
                raise ValueError(f"{name} is not unitary to working precision")

    @property
    def rows(self) -> int:
        return self.u.shape[0]

    @property
    def cols(self) -> int:
        return self.v.shape[0]

    def reconstruct(self) -> np.ndarray:
        """Multiply the factors back together."""
        k = len(self.sigma)
        return (self.u[:, :k] * self.sigma) @ adjoint(self.v[:, :k])


def svd(m) -> SvdFactorization:
    """Compute the full SVD of a complex matrix.

    Deterministic for a fixed input bit pattern.  Raises
    SvdConvergenceError if the underlying iteration fails, and
    ValueError if the factorization does not reproduce the input to
    ``1e-12 * max(1, ||A||_F)``.
    """
    a = as_matrix(m)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise SvdConvergenceError(
            f"SVD did not converge for a {a.shape[0]}x{a.shape[1]} matrix: {exc}"
        ) from exc
    f = SvdFactorization(u=u, sigma=s, v=adjoint(vh))
    recon_err = frobenius_norm(f.reconstruct() - a)
    if recon_err > 1e-12 * residual_scale(frobenius_norm(a)):
        raise SvdConvergenceError(
            f"SVD reconstruction residual {recon_err:.3e} exceeds tolerance"
        )
    return f


def rank_threshold(f: SvdFactorization, tol: Tolerance = DEFAULT_TOL) -> float:
    """Cutoff below which singular values count as zero."""
    sigma_max = float(f.sigma[0]) if len(f.sigma) else 0.0
    return sigma_max * max(f.rows, f.cols) * EPS * tol.rank_tol_factor


def numerical_rank(f: SvdFactorization, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values above the scale-aware cutoff."""
    return int(np.count_nonzero(f.sigma > rank_threshold(f, tol)))


def operator_norm(m) -> float:
    """Largest singular value; 0 for the zero matrix."""
    return float(svd(m).sigma[0])


def residual_scale(*norms) -> float:
    """The one residual normalizer: the largest of ``norms``, at least 1."""
    return max((1.0, *norms))


def _all_finite(*values) -> bool:
    return all(map(math.isfinite, values))


def residual(diff, *norms) -> float:
    """``||diff||_F / residual_scale(*norms)``, or ``inf`` if a value is not finite.

    An overflowed norm would otherwise scale the residual to 0 or NaN,
    and either reads as a pass.
    """
    d = frobenius_norm(diff)
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
    norms = (frobenius_norm(xm), frobenius_norm(ym))
    d = frobenius_norm(xm - ym)
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


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or an existing Generator."""
    return np.random.default_rng(seed)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n-by-n unitary via QR of a complex Gaussian matrix.

    The R-diagonal phase correction makes the distribution exactly
    Haar and the output a pure function of the generator state.
    """
    rng = as_rng(rng)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))
