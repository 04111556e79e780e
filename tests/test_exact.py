"""Float answers against the exact oracle of ``exact.py``, on Gaussian-integer pairs.

The pairs are drawn with parts in [-2, 2], dimensions 2-4 and rank-deficient
factors, an axis on which every float rank and ``ROL_DIRECT`` verdict is the
exact one.
"""

import numpy as np

import exact
from mpinv import full_report, pinv

UNITS = np.array([1, -1, 1j, -1j])


def _draw(rng, m: int, n: int) -> np.ndarray:
    """An m-by-n Gaussian-integer matrix of rank at most r, r = m half the time:
    rows beyond the first r are unit multiples of those (zero for r = 0), shuffled."""
    a = rng.integers(-2, 3, (m, n)) + 1j * rng.integers(-2, 3, (m, n))
    r = m if rng.random() < 0.5 else int(rng.integers(0, m))
    for i in range(r, m):
        a[i] = UNITS[rng.integers(4)] * a[rng.integers(r)] if r else 0
    return a[rng.permutation(m)]


def _pairs(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m, k, p = (int(v) for v in rng.integers(2, 5, size=3))
        yield _draw(rng, m, k), _draw(rng, k, p)


def _as_complex(x) -> np.ndarray:
    return np.array([[complex(z.re, z.im) for z in row] for row in x])


def test_oracle_solves_the_four_penrose_equations_exactly():
    for a, _ in _pairs(20, 5):
        a = exact.matrix(a)
        x = exact.pinv(a)
        ax, xa = exact.matmul(a, x), exact.matmul(x, a)
        assert exact.matmul(ax, a) == a and exact.matmul(xa, x) == x
        assert exact.adjoint(ax) == ax and exact.adjoint(xa) == xa


def test_float_ranks_and_reverse_order_verdicts_are_the_exact_ones():
    ranks, verdicts = set(), []
    for a, b in _pairs(120, 3):
        ea, eb = exact.matrix(a), exact.matrix(b)
        result = pinv(a)
        assert result.rank == exact.rank(ea)
        assert np.allclose(result.pinv, _as_complex(exact.pinv(ea)), rtol=0, atol=1e-12)
        report = full_report(a, b)
        assert report.ranks == {"a": result.rank, "b": exact.rank(eb),
                                "ab": exact.rank(exact.matmul(ea, eb))}
        holds = exact.reverse_order_law(ea, eb)
        assert report.verdicts["ROL_DIRECT"] == holds
        ranks.add((result.rank, min(a.shape)))
        verdicts.append(holds)
    # The axis covers rank 0, deficient and full ranks, and both verdicts.
    assert {r for r, _ in ranks} >= {0, 1, 2, 3} and any(r == n for r, n in ranks)
    assert 10 < sum(verdicts) < len(verdicts) - 10
