"""Moore-Penrose hermitian matrices: detection, structure, generation.

A square matrix is Moore-Penrose hermitian (MPH) when it equals its own
pseudoinverse, ``a^+ = a``.  Equivalently ``a = a^3`` with ``a^2``
hermitian, which makes ``a^2`` the orthogonal projection onto the
column space and forces every eigenvalue into {0, -1, 1}.  Such a
matrix vanishes on its null space and restricts to an involution
(``t2^2 = I``) on its column space; this module checks both the
algebraic and the subspace characterizations, extracts the
null/range/involution decomposition, and manufactures seeded MPH
fixtures of any rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    ConditionReport,
    Tolerance,
    adjoint,
    approx_eq,
    as_rng,
    as_square,
    distance,
    frobenius_norm,
    haar_unitary,
    numerical_rank,
    residual,
    svd,
)
from .matrix_io import matrix_to_dict
from .pinv import pinv

__all__ = [
    "SubspaceBasis",
    "MphDecomposition",
    "NotMpHermitianError",
    "is_mp_hermitian",
    "algebraic_mph_check",
    "annihilator_spectrum_check",
    "mph_subspace_check",
    "mph_decompose",
    "generate_mp_hermitian",
]


class NotMpHermitianError(ValueError):
    """Raised when a decomposition is requested for a non-MPH matrix."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SubspaceBasis:
    """Orthonormal columns spanning a subspace of C^n."""

    columns: np.ndarray

    def __post_init__(self):
        k = self.columns.shape[1]
        err = frobenius_norm(adjoint(self.columns) @ self.columns - np.eye(k))
        if err > 1e-10:
            raise ValueError(f"basis columns are not orthonormal ({err:.3e})")

    @property
    def dim(self) -> int:
        return self.columns.shape[1]

    def projector(self) -> np.ndarray:
        return self.columns @ adjoint(self.columns)


@dataclass(frozen=True)
class MphDecomposition:
    """Null/range split of an MPH matrix with its involutive core.

    h1 spans the null space, h2 the column space (mutually orthogonal),
    and t2 = h2* a h2 satisfies t2 @ t2 = I.  Reconstruction is
    ``a = h2 @ t2 @ h2*``.
    """

    h1: SubspaceBasis
    h2: SubspaceBasis
    t2: np.ndarray
    orthogonality_residual: float
    involution_residual: float
    reconstruction_residual: float

    def __post_init__(self):
        if self.orthogonality_residual > 1e-9:
            raise ValueError(
                f"null/range bases not orthogonal ({self.orthogonality_residual:.3e})"
            )
        if self.involution_residual > 1e-9:
            raise ValueError(
                f"restriction is not an involution ({self.involution_residual:.3e})"
            )

    def as_dict(self) -> dict:
        def maybe_empty(m):
            # Empty factors (rank 0 or full rank) still serialize.
            if m.size == 0:
                return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": []}
            return matrix_to_dict(m)

        return {
            "h1": maybe_empty(self.h1.columns),
            "h2": maybe_empty(self.h2.columns),
            "t2": maybe_empty(self.t2),
            "orthogonality_residual": self.orthogonality_residual,
            "involution_residual": self.involution_residual,
            "reconstruction_residual": self.reconstruction_residual,
        }


def is_mp_hermitian(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the pseudoinverse of ``a`` equals ``a`` itself."""
    m = as_square(a)
    return approx_eq(pinv(m, tol).pinv, m, tol)


def algebraic_mph_check(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Pseudoinverse-free MPH test: ``a = a^3`` and ``a^2`` hermitian."""
    m = as_square(a)
    a2 = m @ m
    res_cube = distance(m, a2 @ m)
    res_herm = residual(adjoint(a2) - a2, frobenius_norm(a2))
    return res_cube <= tol.eq_tol and res_herm <= tol.eq_tol


def annihilator_spectrum_check(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Spectral containment in {0, -1, 1} via the annihilating polynomial.

    ``||a^3 - a|| = 0`` means x^3 - x annihilates ``a``, which confines
    the spectrum to the roots {0, -1, 1} without any eigensolve.
    """
    m = as_square(a)
    return distance(m @ m @ m, m) <= tol.eq_tol


def _split_bases(f, r):
    """Column-space and null-space bases of m and m*, read off the SVD
    ``f`` of m at numerical rank ``r``."""
    return {
        "range": f.u[:, :r],       # col(m)
        "corange": f.v[:, :r],     # col(m*) = row space of m
        "null": f.v[:, r:],        # null(m)
        "conull": f.u[:, r:],      # null(m*)
    }


def mph_subspace_check(a, tol: Tolerance = DEFAULT_TOL) -> ConditionReport:
    """Subspace characterization of MPH matrices, as four verdicts.

    1. ``range_equal``: col(a) = col(a*) (projector difference ~ zero,
       i.e. all principal angles vanish).
    2. ``null_equal``: null(a) = null(a*).
    3. ``direct_sum``: C^n = col(a) (+) null(a); the stacked basis
       [col | null] must have smallest singular value > 1e-6, which is
       what the reported number is for this verdict.
    4. ``restriction_involutive``: a^2 and (a*)^2 act as the identity
       on col(a).

    The conjunction of all four is equivalent to ``is_mp_hermitian``.
    """
    m = as_square(a)
    f = svd(m)
    bases = _split_bases(f, numerical_rank(f, tol))
    report = ConditionReport(tolerance_used=tol)

    p_range = bases["range"] @ adjoint(bases["range"])
    p_corange = bases["corange"] @ adjoint(bases["corange"])
    report.add("range_equal", distance(p_range, p_corange))

    p_null = bases["null"] @ adjoint(bases["null"])
    p_conull = bases["conull"] @ adjoint(bases["conull"])
    report.add("null_equal", distance(p_null, p_conull))

    stacked = np.hstack([bases["range"], bases["null"]])
    smin = float(np.linalg.svd(stacked, compute_uv=False)[-1]) if stacked.size else 0.0
    report.add("direct_sum", smin, verdict=smin > 1e-6)

    b = bases["range"]
    if b.shape[1] == 0:
        report.add("restriction_involutive", 0.0)
    else:
        ah = adjoint(m)
        e1 = distance(m @ (m @ b), b)
        e2 = distance(ah @ (ah @ b), b)
        report.add("restriction_involutive", max(e1, e2))
    return report


def mph_decompose(a, tol: Tolerance = DEFAULT_TOL) -> MphDecomposition:
    """Split an MPH matrix into null space, column space, and involution.

    Raises NotMpHermitianError (carrying the pinv-vs-a residual) when
    the input is not MPH to tolerance.
    """
    m = as_square(a)
    result = pinv(m, tol)
    gap = distance(result.pinv, m)
    if gap > tol.eq_tol:
        raise NotMpHermitianError(
            f"matrix is not Moore-Penrose hermitian: ||a^+ - a|| residual {gap:.3e}",
            gap,
        )
    bases = _split_bases(result.factorization, result.rank)
    h2_cols = bases["range"]
    h1_cols = bases["null"]
    r = result.rank
    t2 = adjoint(h2_cols) @ m @ h2_cols
    orth = frobenius_norm(adjoint(h1_cols) @ h2_cols)
    invol = frobenius_norm(t2 @ t2 - np.eye(r))
    recon = residual(h2_cols @ t2 @ adjoint(h2_cols) - m, frobenius_norm(m))
    return MphDecomposition(
        h1=SubspaceBasis(h1_cols),
        h2=SubspaceBasis(h2_cols),
        t2=t2,
        orthogonality_residual=float(orth),
        involution_residual=float(invol),
        reconstruction_residual=float(recon),
    )


def generate_mp_hermitian(
    n: int,
    k: int,
    seed,
    plus_count: int | None = None,
    cond_cap: float = 10.0,
) -> np.ndarray:
    """Seeded random MPH matrix of size n and rank k.

    The rank-k core is ``S D S^-1`` with D diagonal of +/-1 entries (at
    least one of each when k >= 2, unless plus_count pins the inertia)
    and S a random matrix with condition number at most cond_cap, so
    the result is similar to an involution on its column space but in
    general neither hermitian nor normal.  The core is embedded by a
    Haar unitary.  Deterministic per (n, k, seed, plus_count, cond_cap).
    """
    if not (0 <= k <= n):
        raise ValueError(f"rank k={k} must satisfy 0 <= k <= n={n}")
    if cond_cap < 1.0:
        raise ValueError("cond_cap must be at least 1")
    rng = as_rng(seed)
    if k == 0:
        return np.zeros((n, n), dtype=np.complex128)

    if plus_count is None:
        signs = np.where(rng.random(k) < 0.5, 1.0, -1.0)
        if k >= 2 and np.all(signs == signs[0]):
            signs[-1] = -signs[-1]
    else:
        if not (0 <= plus_count <= k):
            raise ValueError(f"plus_count={plus_count} must be in [0, {k}]")
        signs = np.concatenate([np.ones(plus_count), -np.ones(k - plus_count)])

    lo, hi = 1.0 / np.sqrt(cond_cap), np.sqrt(cond_cap)
    sv = rng.uniform(lo, hi, size=k)
    s_mat = (haar_unitary(k, rng) * sv) @ adjoint(haar_unitary(k, rng))
    t2 = (s_mat * signs) @ np.linalg.inv(s_mat)

    q = haar_unitary(n, rng)
    qk = q[:, :k]
    return qk @ t2 @ adjoint(qk)
