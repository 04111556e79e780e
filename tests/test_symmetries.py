"""``classify``, the Penrose and formulation checks and the reverse-order
catalog respect the symmetries of the theorems they decide.

Being hermitian, normal, a partial isometry or Moore-Penrose hermitian,
and the rank, are each preserved by taking the adjoint and by a unitary
similarity ``q a q*``.  ``x = a^+`` exactly when ``x* = (a*)^+``, and
exactly when ``v x u* = (u a v*)^+`` for unitary ``u`` and ``v``, so the
four Penrose equations and the twelve formulations give one verdict for
the three pairs.  Each of the nineteen reverse-order conditions on
``(a, b)`` is a statement about ``(ab)^+``, ``a^+``, ``b^+`` and their
products, so it holds exactly when it holds on ``(b*, a*)``, whose
product is ``(ab)*``, and on ``(u a v*, v b w*)``, whose product is
``u ab w*``.  Hypothesis draws the parameters of a seeded generator
(kind, n, rank, seed), not raw entries, so a failing example names a
matrix that ``mpinv gen`` can rebuild.  Verdicts are compared only on
kinds whose singular values sit at 0, at 1 or in [0.25, 4], far from
every threshold, candidates ``x`` at ``a^+`` or ``(1 + 1e-3) a^+``, and
pairs from the five sources of the ``rol`` fuzz suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mpinv import (
    FormulationId,
    adjoint,
    classify,
    formulation_holds,
    full_report,
    generate_mp_hermitian,
    generate_regular,
    generate_rol_pair,
    haar_unitary,
    mbekhta_gap_pair,
    nonhermitian_partial_isometry_fixture,
    nonnormal_mph_fixture,
    penrose_residuals,
    pinv_matrix,
    random_hermitian_partial_isometry,
    random_partial_isometry,
    rol_negative_pair,
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


@settings(max_examples=300)
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


@settings(max_examples=300)
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


# source -> pair builder(n, seed), the sources the rol fuzz suite draws from
ROL_SOURCES = {
    "random": lambda n, seed: generate_rol_pair(n, "random", seed),
    "forced_unitary": lambda n, seed: generate_rol_pair(n, "forced_unitary", seed),
    "forced_pinv": lambda n, seed: generate_rol_pair(n, "forced_pinv", seed),
    "negative": rol_negative_pair,
    "mbekhta_gap": mbekhta_gap_pair,
}


@settings(max_examples=300)
@given(params=st.tuples(st.sampled_from(sorted(ROL_SOURCES)), st.integers(2, 8),
                        st.integers(0, 2**32 - 1)))
def test_reverse_order_catalog_is_invariant_under_adjoint_swap_and_unitary_equivalence(params):
    source, n, seed = params
    a, b = ROL_SOURCES[source](n, seed)
    u, v, w = (haar_unitary(n, np.random.default_rng([seed, i])) for i in (1, 2, 3))
    verdicts = full_report(a, b).verdicts
    assert len(verdicts) == 19
    assert full_report(adjoint(b), adjoint(a)).verdicts == verdicts
    assert full_report(u @ a @ adjoint(v), v @ b @ adjoint(w)).verdicts == verdicts
