"""An exact pseudoinverse over the Gaussian rationals Q(i), with no tolerance.

A matrix with entries in Q(i) has its pseudoinverse in Q(i) too.  A rank
factorization ``a = F G``, with ``F`` the pivot columns of ``a`` and ``G`` the
nonzero rows of its reduced row echelon form, gives

    a⁺ = G* (G G*)⁻¹ (F* F)⁻¹ F*

by field operations alone (Ben-Israel and Greville, *Generalized Inverses*,
2nd ed., 2003, Ch. 1), so a verdict that is an identity in ``a``, ``a*`` and
``a⁺`` is decided exactly.  Matrices are lists of rows of ``Q``.
"""

from fractions import Fraction

import numpy as np


class Q:
    """The Gaussian rational ``re + im i``, with ``Fraction`` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, other):
        return Q(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return Q(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return Q(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        return Q((self.re * other.re + self.im * other.im) / d,
                 (self.im * other.re - self.re * other.im) / d)

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __bool__(self):
        return bool(self.re or self.im)

    def conj(self):
        return Q(self.re, -self.im)


ZERO, ONE = Q(0), Q(1)


def matrix(a) -> list:
    """A Gaussian-integer numpy matrix as exact rows."""
    return [[Q(int(z.real), int(z.imag)) for z in row] for row in np.asarray(a, complex)]


def zeros(m: int, n: int) -> list:
    return [[ZERO] * n for _ in range(m)]


def matmul(x, y) -> list:
    cols = list(zip(*y))
    return [[sum((p * q for p, q in zip(row, col)), ZERO) for col in cols] for row in x]


def adjoint(x) -> list:
    return [[z.conj() for z in col] for col in zip(*x)]


def rref(x) -> tuple:
    """The reduced row echelon form of ``x`` and its pivot columns."""
    r, pivots = [list(row) for row in x], []
    for j in range(len(r[0])):
        k = len(pivots)
        i = next((i for i in range(k, len(r)) if r[i][j]), None)
        if i is None:
            continue
        r[k], r[i] = r[i], r[k]
        r[k] = [z / r[k][j] for z in r[k]]
        for i, row in enumerate(r):
            if i != k and row[j]:
                r[i] = [u - row[j] * v for u, v in zip(row, r[k])]
        pivots.append(j)
    return r, pivots


def rank(a) -> int:
    return len(rref(a)[1])


def inverse(x) -> list:
    """The inverse of an invertible square ``x``, by Gauss-Jordan on ``[x | I]``."""
    n = len(x)
    r, pivots = rref([row + [ONE if i == j else ZERO for j in range(n)]
                      for i, row in enumerate(x)])
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in r]


def pinv(a) -> list:
    """The Moore-Penrose inverse of ``a``, through its rank factorization."""
    r, pivots = rref(a)
    if not pivots:
        return zeros(len(a[0]), len(a))
    f = [[row[j] for j in pivots] for row in a]
    g = r[:len(pivots)]
    fh, gh = adjoint(f), adjoint(g)
    return matmul(matmul(gh, inverse(matmul(g, gh))), matmul(inverse(matmul(fh, f)), fh))


def reverse_order_law(a, b) -> bool:
    """Whether ``(a b)⁺ = b⁺ a⁺`` holds exactly."""
    return pinv(matmul(a, b)) == matmul(pinv(b), pinv(a))
