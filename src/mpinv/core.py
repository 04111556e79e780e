"""Dense complex matrix substrate: adjoints, SVD, numerical rank, norms.

Every higher-level identity in this package is evaluated on plain 2-D
``complex128`` arrays.  This module owns input validation, the SVD
factorization, which also factors an ``(N, m, n)`` stack in one LAPACK
call, the rank threshold, and the one residual-normalization rule
behind every verdict: a Frobenius residual divided by
``residual_scale`` of the norms it is measured against, for scalars
(``_scaled``) and, bit for bit alike, for arrays (``_scaled_array``).
``_Program`` is the one identity compiler: it compiles a table of
equations over named leaves and defined products once, each equation with
its scale (the norm products it is divided by, or None for its sides' own
norms), and its ``run(leaves, norms)`` scores them, given both in its leaf
order, by a plan it reads off the leaves' shapes.  ``frobenius_norms`` takes the
norm of each slice of one or more stacks, bit for bit the norm of that
slice alone, and a stacked call copies at most ``_STACK_BYTES`` of
slices.  Each answer has one certificate: ``svd`` checks the factors it
answers with, while ``pinv`` factors through ``_factor`` and its Penrose
residuals certify it.  ``SvdFactorization`` checks nothing when built;
``_factor`` and ``_verify`` do.  The ``_lapack_*`` kernels are the package's
one LAPACK boundary: every SVD, QR and inverse goes through one of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

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


def as_square(a, name: str = "a", stack: bool = False) -> np.ndarray:
    """``as_matrix``, refusing a non-square shape."""
    m = as_matrix(a, name, stack)
    if m.shape[-2] != m.shape[-1]:
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


def frobenius_norms(*stacks) -> list:
    """``frobenius_norm`` of each slice of each ``(N, m, n)`` stack in turn, a matrix
    being a batch of one, bit for bit: a C- or F-ordered slice is read in its memory
    order and summed by the same BLAS dot, one per slice of a stacked ``matmul``, which
    joins consecutive such stacks of one flat slice length while the copy holds at most
    ``_STACK_BYTES``; a stack of one slice, or of another layout, is read slice by slice."""
    norms, run, size = [], [], 0
    for stack in stacks:
        stack = stack[None] if stack.ndim == 2 else stack
        first = stack[0].flags
        x = None
        if len(stack) > 1 and (first.c_contiguous or first.f_contiguous):
            if stack.strides[-1] > stack.strides[-2]:
                stack = stack.swapaxes(-1, -2)
            x = stack.reshape(len(stack), -1)
        if run and (x is None or x.shape[1] != run[0].shape[1] or size + x.nbytes > _STACK_BYTES):
            norms += _dot_norms(run)
            run, size = [], 0
        if x is None:
            norms += [frobenius_norm(m) for m in stack]
        else:
            run.append(x)
            size += x.nbytes
    return norms + _dot_norms(run) if run else norms


def _dot_norms(run) -> list:
    """The norm of each row of the ``(N, L)`` complex arrays ``run``, in one stacked call."""
    x = run[0] if len(run) == 1 else np.concatenate(run)
    re, im = x.real[:, None], x.imag[:, None]
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
    """Decorate ``fn(m, ...)``, which also takes an ``(N, m, n)`` stack, as an array or
    nested lists, with the one rule for what a refused stack raises: when a stack raises
    ``ValueError`` or ``RuntimeError``, ``fn`` runs on each slice in turn, so that the
    first failing slice raises the error and message it raises alone (LAPACK does not
    say which slice failed, and ``fn`` raises the first refusal it meets)."""

    @functools.wraps(fn)
    def wrapper(m, *args, **kwargs):
        m = np.asarray(m, dtype=np.complex128)
        try:
            return fn(m, *args, **kwargs)
        except (ValueError, RuntimeError):
            if m.ndim == 3:
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


# The LAPACK boundary: every SVD, QR and inverse in the package is one of these
# kernels.  Each calls the gufunc behind a public numpy function under the same
# error state, raises the same LinAlgError, and returns that function's result
# bit for bit on a complex128 operand; it skips the wrapper's dtype promotion,
# copies, ``triu`` and named tuple, which at n <= 8 cost about as much as LAPACK
# itself.  Every operand is complex128 already: ``as_matrix``'s output, a
# Gaussian draw, or arithmetic on them.  Callers look a kernel up in this module
# when they call it, so a test that patches it here reaches every call.
def _lapack(message: str):
    """Decorate a kernel to run under numpy's error state for its gufunc, where
    a LAPACK failure, flagged as an invalid value, raises ``LinAlgError(message)``."""

    def fail(err, flag):
        raise LinAlgError(message)

    return np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


@_lapack("SVD did not converge")
def _lapack_svd(a):
    """``np.linalg.svd(a)``: ``(u, s, vh)`` with full u and vh."""
    return _umath_linalg.svd_f(a, signature="D->DdD")


@_lapack("SVD did not converge")
def _lapack_svdvals(a):
    """``np.linalg.svd(a, compute_uv=False)``."""
    return _umath_linalg.svd(a, signature="D->d")


@_lapack("Incorrect argument found while performing QR factorization")
def _lapack_qr(a):
    """``np.linalg.qr(a)``'s reduced q and a copy of r's diagonal; overwrites ``a``
    with LAPACK's raw factor, whose diagonal is r's."""
    tau = _umath_linalg.qr_r_raw(a, signature="D->D")
    q = _umath_linalg.qr_reduced(a, tau, signature="DD->D")
    return q, np.diagonal(a, axis1=-2, axis2=-1).copy()


@_lapack("Singular matrix")
def _lapack_inv(a):
    """``np.linalg.inv(a)``."""
    return _umath_linalg.inv(a, signature="D->D")


def _factor(a) -> SvdFactorization:
    """The full SVD of a validated matrix or stack in one LAPACK call, with
    sigma's ordering checked but not ``_verify``'s unitarity and reconstruction."""
    try:
        u, s, vh = _lapack_svd(a)
    except LinAlgError as exc:
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


def _scaled_array(d, s1, s2) -> np.ndarray:
    """``_scaled(d, s1, s2)`` of each element of three float64 arrays, bit for bit."""
    finite = np.isfinite(d) & np.isfinite(s1) & np.isfinite(s2)
    scale = np.maximum(np.maximum(s1, s2), 1.0)
    return np.divide(d, scale, out=np.full(d.shape, math.inf), where=finite)


class _Comm(NamedTuple):
    """The commutator ``x y - y x``, used as one factor of a product."""

    x: str
    y: str


def _flat(factors) -> tuple:
    """The leaf names in a product or equation, left to right."""
    return tuple(n for f in factors for n in ((f,) if isinstance(f, str) else _flat(f)))


# A program whose widest level holds at most _WALK_WIDEST steps walks; any other
# runs in the arena on square leaves up to n = _ARENA_N, where _width(n) >= 18
# slices hold the catalog's widest level.  Given one block of leaves, ``run`` on the
# catalog rows of widest 4 read 0.90-0.96x the walk's time up to n = 14, 1.06-1.20x
# at n 20-32, and 1.2-1.5x on rows of widest 1 and 2 (BENCH_leaf_block.json).
_WALK_WIDEST = 2
_ARENA_N = 15


class _Program:
    """Rows of equations ``(lhs, rhs[, scale])`` compiled to two plans of plain data.

    Each side is a product of factors: a name, a ``_Comm``, or a tuple of
    factors; ``rhs`` () means ``lhs = 0``.  ``scale`` holds one tuple of
    names per side, whose norm product scales the residual (by default the
    side's operand names), or None for the sides' own norms.  A name in
    ``defs`` stands for its product of other names, compiled where it is first
    read, its norm taken where a scale first reads it.  The leaves are the
    names read that ``defs`` does not define, in ``order`` if given, else as
    first read, in slots ``0 .. len(leaves) - 1``; instruction ``i`` of
    ``code``, ``(op, x, y, factors, level)``, fills slot ``len(leaves) + i``.
    A step (``op`` a matmul or a commutator's subtraction) holds ``op(slot x,
    slot y)``; no two steps are alike, so each product is formed once, left to
    right with nested factors first.  An equation (``op`` None) scores ``x -
    y`` (``x`` if ``y`` is None) against its scale ``factors``.  Leaves are on
    level 0, an instruction one level above its highest operand.

    ``run(leaves, norms)`` takes both in ``leaves`` order.  A program whose
    widest level holds more than ``_WALK_WIDEST`` steps runs leaves of one
    n-by-n shape, n <= ``_ARENA_N``, in the arena: one stack of every matrix,
    whose head is the leaves, copied in one assignment, each level and kind of
    step one stacked call (``_levels``) on operands gathered with ``take``, and
    the norms ``frobenius_norms`` calls of at most ``_width(n)`` slices.  Any
    other run takes ``_walk``, one instruction at a time in the table's order,
    dropping each matrix after its last reader.  Both fill one list of norms,
    which ``run`` scores through index arrays: the side products (``_sides``),
    if any, one ``_scaled_array`` call for every equation (``_scores``) and,
    where a row has two equations, one ``np.maximum.reduce`` for every row's
    worst (``_worst``).
    """

    def __init__(self, rows: dict, defs: dict | None = None, order: tuple = ()):
        defs = defs or {}
        rows = {key: [(lhs, rhs, *scale) if scale else (lhs, rhs, (_flat(lhs), _flat(rhs)))
                      for lhs, rhs, *scale in row] for key, row in rows.items()}

        def reads(factors):  # the leaf names behind factors, through the definitions
            return [n for f in _flat(factors) for n in (reads(defs[f]) if f in defs else [f])]

        self.leaves = list(dict.fromkeys(n for row in rows.values() for lhs, rhs, scale in row
                                         for n in reads((lhs, rhs, scale or ()))))
        self.leaves.sort(key=(order or tuple(self.leaves)).index)  # first read by default
        slot = {name: i for i, name in enumerate(self.leaves)}
        code = []

        def emit(op, x, y, factors=None):
            key = (op, x, y, factors)  # a tuple, so never equal to a name
            if key not in slot:
                slot[key] = len(self.leaves) + len(code)
                code.append(key)
            return slot[key]

        def ref(name):  # a definition is compiled where it is first read
            return slot[name] if name in slot else slot.setdefault(name, side(defs[name]))

        def side(factors):
            out = None
            for f in factors:
                if isinstance(f, _Comm):
                    x, y = ref(f.x), ref(f.y)
                    f = emit(operator.sub, emit(operator.matmul, x, y),
                             emit(operator.matmul, y, x))
                else:
                    f = ref(f) if isinstance(f, str) else side(f)
                out = f if out is None else emit(operator.matmul, out, f)
            return out

        self.rows = {key: tuple(emit(None, side(lhs), side(rhs), scale) for lhs, rhs, scale in row)
                     for key, row in rows.items()}
        level = [0] * len(self.leaves)
        for _, x, y, _ in code:
            level.append(1 + max(level[s] for s in (x, y) if s is not None))
        self.code = [(*c, lv) for c, lv in zip(code, level[len(self.leaves):])]
        self.widest = max(Counter((op, lv) for op, *_, lv in self.code).values())
        self._plan(slot)

    def _plan(self, slot: dict):
        """Build the arena plan (``_levels``, ``_gather``, ``_minus``), the plan
        of one instruction at a time (``_walk``) and the scoring both share."""
        base, code = len(self.leaves), dict(enumerate(self.code, len(self.leaves)))
        equations = {i: c[1:4] for i, c in code.items() if c[0] is None}  # (x, y, factors)
        # The norms each equation takes first, as (x, y) with y None for x alone: its
        # own, its sides' for scale None, and those of the definitions its scale reads;
        # and their places in the list of norms: after the leaves', the differences first.
        takes, taken = {}, set()
        for i, (x, y, factors) in equations.items():
            jobs = [(x, y), *([(x, None), (y, None)] if factors is None else
                              [(slot[n], None) for n in _flat(factors) if slot[n] >= base])]
            takes[i] = [job for job in dict.fromkeys(jobs) if job not in taken]
            taken.update(takes[i])
        at = {job: base + k for k, job in enumerate(sorted(
            (job for jobs in takes.values() for job in jobs), key=lambda job: job[1] is None))}
        steps = sorted((lv, op is operator.sub, i, x, y)
                       for i, (op, x, y, _, lv) in code.items() if op is not None)
        pos = np.arange(base + len(code), dtype=np.intp)  # each slot's arena slice, once filled
        self._levels, self._size = [], base
        for (_, sub), group in itertools.groupby(steps, key=lambda step: step[:2]):
            *_, out, xs, ys = map(list, zip(*group))
            lo = self._size
            self._size += len(out)
            pos[out] = range(lo, self._size)
            self._levels.append((np.subtract if sub else np.matmul, pos[xs], pos[ys],
                                 lo, self._size))
        self._gather = pos[[x for x, _ in at]]
        self._minus = pos[[y for _, y in at if y is not None]]
        walk = [entry for i, (op, x, y, *_) in code.items() for entry in (
            [(op, x, y, i)] if op is not None else [(None, *job, at[job]) for job in takes[i]])]
        last = {s: k for k, (_, x, y, _) in enumerate(walk) for s in (x, y)}
        self._walk = [(op, x, y, out, tuple(s for s in sorted({x, y} - {None}) if last[s] == k))
                      for k, (op, x, y, out) in enumerate(walk)]
        one, products = base + len(at), {}  # one array: the norms, 1.0 at one, side products

        def scale(names):  # the place of a side's norm product
            places = tuple(slot[n] if slot[n] < base else at[(slot[n], None)] for n in names)
            return places[0] if len(places) == 1 else products.setdefault(
                places, one + 1 + len(products))

        scores = []
        for x, y, factors in equations.values():
            # () is the side of x = 0, and reads 1.0.
            sides = ([scale(f) for f in factors if f] if factors is not None
                     else [at[(x, None)], at[(y, None)]])
            scores.append([at[(x, y)], *sides, *[one] * (2 - len(sides))])
        self._scores = np.array(scores, np.intp).T  # the rows d, s1, s2 of _scaled_array
        # Each side's factors, left to right, padded to the widest with the exact 1.0.
        self._sides = np.full((max(map(len, products), default=1), len(products)), one, np.intp)
        for k, places in enumerate(products):
            self._sides[:len(places), k] = places
        place, most = {i: k for k, i in enumerate(equations)}, max(map(len, self.rows.values()))
        self._worst = np.array([[place[i] for i in (eqs * most)[:most]]  # rows padded by repeats
                                for eqs in self.rows.values()], np.intp).T

    def run(self, leaves, norms) -> dict:
        """Each row's worst residual, from the leaves and their norms in ``self.leaves``
        order: an ``(N, n, n)`` block, or a list that ``run`` empties, to free each leaf."""
        base, n, norms = len(self.leaves), len(leaves[0]), [*norms]
        # Leaves that are not all of one square shape have products that differ in shape,
        # or have a dimension 1, where numpy's BLAS vector kernels round by the layout
        # that a stack copy changes; a 1-by-1 slice has one layout.  A block is square.
        if self.widest > _WALK_WIDEST and n <= _ARENA_N and (
                type(leaves) is not list or all(m.shape == (n, n) for m in leaves)):
            width = _width(n)
            arena = np.empty((self._size, n, n), np.complex128)
            arena[:base] = leaves
            # Every gather is a take: it copies the same slices, C-ordered, as arena[idx],
            # in 0.9-2.1 us against 2.7-3.7 us (n 2-12), where a small pair's 12 level
            # gathers cost about as much as its 64 stacked products.
            for ufunc, x, y, lo, hi in self._levels:
                ufunc(arena.take(x, axis=0), arena.take(y, axis=0), out=arena[lo:hi])
            for lo in range(0, len(self._gather), width):
                stack = arena.take(self._gather[lo:lo + width], axis=0)
                minus = arena.take(self._minus[lo:lo + width], axis=0)
                np.subtract(stack[:len(minus)], minus, out=stack[:len(minus)])
                norms += frobenius_norms(stack)
        else:
            v = [*leaves, *[None] * len(self.code)]
            if type(leaves) is list:
                leaves.clear()
            norms += [None] * len(self._gather)
            for op, x, y, out, dead in self._walk:
                if op is None:
                    norms[out] = frobenius_norm(v[x] if y is None else v[x] - v[y])
                else:
                    v[out] = op(v[x], v[y])
                for s in dead:
                    v[s] = None
        norms = np.array(norms + [1.0])
        if self._sides.shape[1]:  # each side's factors multiplied left to right, as math.prod
            with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf nan
                norms = np.concatenate((norms, np.multiply.reduce(norms[self._sides])))
        scores = _scaled_array(*norms[self._scores])[self._worst]
        worst = np.maximum.reduce(scores) if len(scores) > 1 else scores[0]
        return dict(zip(self.rows, worst.tolist()))


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


class _Report:
    """An answer that describes itself once, in ``report()``: its matrices as
    arrays, the rest as plain floats, bools and ints; by default, the fields of
    a dataclass.  Two answers of one type are equal when their ``as_dict()``
    are, so an answer holding arrays compares without asking an array for a
    truth value; it is not hashable."""

    def report(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_dict(self) -> dict:
        """``report()``, JSON-ready: each array in its ``matrix_to_dict`` form."""
        from .matrix_io import _json_ready  # at call time: matrix_io imports core

        return _json_ready(self.report())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.as_dict() == other.as_dict()


@dataclass
class ConditionReport(_Report):
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

    def report(self) -> dict:
        out = {
            "verdicts": dict(self.verdicts),
            "residuals": dict(self.residuals),
            "eq_tol": self.tolerance_used.eq_tol,
            "rank_tol_factor": self.tolerance_used.rank_tol_factor,
        }
        if self.ranks is not None:
            out["ranks"] = dict(self.ranks)
        return out


def haar_unitary(n: int, rng, count: int | None = None) -> np.ndarray:
    """Haar-distributed n-by-n unitary via QR of a complex Gaussian matrix.

    The R-diagonal phase correction makes the distribution exactly
    Haar and the output a pure function of the generator state.  With
    ``count``, a ``(count, n, n)`` stack of the unitaries that ``count``
    calls in a row draw, bit for bit and leaving the generator in the same
    state, from one Gaussian draw and one stacked QR call.  ``_haar_columns``
    draws the same Gaussian but factors only the k leading columns it returns
    when k < n <= ``_THIN_HAAR_MAX_N``.
    """
    return _haar_columns(n, n, rng, count)


_THIN_HAAR_MAX_N = 64  # thin QR = full QR, bit for bit, to n = 128 on 1 BLAS thread, 96 on 2


def _haar_columns(n: int, k: int, rng, count: int | None = None) -> np.ndarray:
    """The leading k columns of ``haar_unitary(n, rng, count)``, bit for bit."""
    rng = np.random.default_rng(rng)
    g = rng.standard_normal((1 if count is None else count, 2, n, n))  # real, then imaginary part
    cols = k if n <= _THIN_HAAR_MAX_N else n
    q, d = _lapack_qr(g[:, 0, :, :cols] + 1j * g[:, 1, :, :cols])
    d[d == 0] = 1.0
    q = (q * (d / np.abs(d))[:, None, :])[..., :k]
    return q[0] if count is None else q
