"""``classify`` respects the symmetries of the theorems it decides.

Being hermitian, normal, a partial isometry or Moore-Penrose hermitian,
and the rank, are each preserved by taking the adjoint and by a unitary
similarity ``q a q*``.  Hypothesis draws the parameters of a seeded
generator (kind, n, rank, seed), not raw entries, so a failing example
names a matrix that ``mpinv gen`` can rebuild.  Verdicts are compared
only on kinds whose singular values sit at 0, at 1 or in [0.25, 4], far
from every threshold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinv import (
    adjoint,
    classify,
    generate_mp_hermitian,
    generate_regular,
    haar_unitary,
    nonhermitian_partial_isometry_fixture,
    nonnormal_mph_fixture,
    random_hermitian_partial_isometry,
    random_partial_isometry,
)

# kind -> builder(n, rank, seed)
KINDS = {
    "mph": generate_mp_hermitian,
    "hermitian_partial_isometry": lambda n, r, seed: random_hermitian_partial_isometry(
        n, (r - r // 2, r // 2, n - r), seed),
    "partial_isometry": random_partial_isometry,
    "regular": lambda n, r, seed: generate_regular(n, n, r, sv_low=0.25, sv_high=4.0, seed=seed),
    "nonnormal_mph": lambda n, r, seed: nonnormal_mph_fixture(n, seed),
    "nonhermitian_partial_isometry": lambda n, r, seed: nonhermitian_partial_isometry_fixture(
        n, seed),
}

FLAGS = ("hermitian", "normal", "partial_isometry", "mp_hermitian", "rank")


@st.composite
def generator_parameters(draw):
    n = draw(st.integers(2, 8))
    return (draw(st.sampled_from(sorted(KINDS))), n, draw(st.integers(0, n)),
            draw(st.integers(0, 2**32 - 1)))


def _flags(a):
    report = classify(a).as_dict()
    return {name: report[name] for name in FLAGS}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(params=generator_parameters())
def test_classify_is_invariant_under_adjoint_and_unitary_similarity(params):
    kind, n, rank, seed = params
    a = KINDS[kind](n, rank, seed)
    q = haar_unitary(n, np.random.default_rng([seed, 1]))
    flags = _flags(a)
    assert _flags(adjoint(a)) == flags
    assert _flags(q @ a @ adjoint(q)) == flags
