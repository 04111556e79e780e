"""``classify`` and the Penrose and formulation checks respect the
symmetries of the theorems they decide.

Being hermitian, normal, a partial isometry or Moore-Penrose hermitian,
and the rank, are each preserved by taking the adjoint and by a unitary
similarity ``q a q*``.  ``x = a^+`` exactly when ``x* = (a*)^+``, and
exactly when ``v x u* = (u a v*)^+`` for unitary ``u`` and ``v``, so the
four Penrose equations and the twelve formulations give one verdict for
the three pairs.  Hypothesis draws the parameters of a seeded generator
(kind, n, rank, seed), not raw entries, so a failing example names a
matrix that ``mpinv gen`` can rebuild.  Verdicts are compared only on
kinds whose singular values sit at 0, at 1 or in [0.25, 4], far from
every threshold, and candidates ``x`` at ``a^+`` or ``(1 + 1e-3) a^+``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinv import (
    FormulationId,
    adjoint,
    classify,
    formulation_holds,
    generate_mp_hermitian,
    generate_regular,
    haar_unitary,
    nonhermitian_partial_isometry_fixture,
    nonnormal_mph_fixture,
    penrose_residuals,
    pinv_matrix,
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


@st.composite
def regular_parameters(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return m, n, draw(st.integers(1, min(m, n))), draw(st.integers(0, 2**32 - 1))


def _verdicts(a, x):
    """The Penrose verdict and the twelve formulation verdicts of ``(a, x)``."""
    return [penrose_residuals(a, x).within()] + [formulation_holds(a, x, fid)
                                                 for fid in FormulationId]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(params=regular_parameters())
def test_penrose_and_formulations_are_invariant_under_adjoint_and_unitary_equivalence(params):
    m, n, rank, seed = params
    a = generate_regular(m, n, rank, sv_low=0.25, sv_high=4.0, seed=seed)
    u = haar_unitary(m, np.random.default_rng([seed, 1]))
    v = haar_unitary(n, np.random.default_rng([seed, 2]))
    for scale, holds in ((1.0, True), (1.0 + 1e-3, False)):
        x = scale * pinv_matrix(a)
        for pair in ((a, x), (adjoint(a), adjoint(x)), (u @ a @ adjoint(v), v @ x @ adjoint(u))):
            assert _verdicts(*pair) == [holds] * 13
