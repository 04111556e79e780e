"""Pin the residual floats of the checks no golden file covers.

Each check runs over a small seeded grid of matrices, including
rescaled copies on both sides of the ``max(1, ...)`` floor; the SHA-256
digest of its JSON-encoded outputs (``repr`` of every float, in grid
order) must match the value recorded below.  A refactor of the
residual normalization has to keep these floats bit-identical; a
deliberate change of the rule updates the digests here and says why in
CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from mpinv import (
    FormulationId,
    algebraic_mph_check,
    annihilator_spectrum_check,
    classify,
    formulation_residual,
    generate_mp_hermitian,
    generate_regular,
    gram_projection_residual,
    involution_laws_check,
    mph_decompose,
    mph_subspace_check,
    norm_conorm_check,
    normal_mph_check,
    nonnormal_mph_fixture,
    pinv,
    random_partial_isometry,
)

SEEDS = (0, 1, 7)
SCALES = (1.0, 2.0**-20, 3e5)


def _regular():
    for seed in SEEDS:
        for m, n in ((1, 1), (3, 2), (2, 4), (4, 4), (5, 5)):
            for r in range(1, min(m, n) + 1):
                for scale in SCALES:
                    yield scale * generate_regular(m, n, r, sv_low=0.25, sv_high=4.0, seed=seed)


def _square():
    for seed in SEEDS:
        for n in (1, 3, 5):
            for k in range(n + 1):
                yield generate_mp_hermitian(n, k, seed)
                yield random_partial_isometry(n, k, seed)
                if k:
                    yield generate_regular(n, n, k, seed=seed)
                    yield 1e3 * generate_regular(n, n, k, seed=seed)
        mph = nonnormal_mph_fixture(4, seed)
        for eps in (0.0, 1e-12, 1e-10, 1e-9, 1e-8):
            yield (1.0 + eps) * mph


def _mph():
    for seed in SEEDS:
        for n in (1, 3, 5):
            for k in range(n + 1):
                yield generate_mp_hermitian(n, k, seed)
        yield nonnormal_mph_fixture(4, seed)


def _nonzero_square():
    for a in _square():
        if np.any(a):
            yield a


def _norm_conorm():
    for a in list(_regular()) + list(_nonzero_square()):
        yield norm_conorm_check(a).as_dict()


def _involution():
    for a in _regular():
        yield involution_laws_check(a).as_dict()


def _gram():
    for a in list(_regular()) + list(_square()):
        yield [gram_projection_residual(a, "left"), gram_projection_residual(a, "right")]


def _formulation():
    for a in _regular():
        x = pinv(a).pinv
        for candidate in (x, (1.0 + 1e-3) * x, (1.0 + 1e-10) * x):
            yield [formulation_residual(a, candidate, fid) for fid in FormulationId]


def _algebraic():
    for a in _square():
        yield [algebraic_mph_check(a), annihilator_spectrum_check(a)]


def _subspace():
    for a in _square():
        yield mph_subspace_check(a).as_dict()


def _decompose():
    for a in _mph():
        yield mph_decompose(a).as_dict()


def _classify():
    for a in _square():
        yield [classify(a).as_dict(), normal_mph_check(a).as_dict()]


CHECKS = {
    "norm_conorm_check": _norm_conorm,
    "involution_laws_check": _involution,
    "gram_projection_residual": _gram,
    "formulation_residual": _formulation,
    "algebraic_and_annihilator": _algebraic,
    "mph_subspace_check": _subspace,
    "mph_decompose": _decompose,
    "classify_and_normal_mph": _classify,
}

DIGESTS = {
    "algebraic_and_annihilator": "4bcf92dd2b13034dddb3bd9ddb5f0fc073d58abc33e89f571d203372fcf51442",
    "classify_and_normal_mph": "e04d343a443518b1b32d58d09bb3dcc573d42ee4ec1dd316194ce0e32f4c3474",
    "formulation_residual": "016df9a7e0b3f699f37c411d842b95f1ea11ebde5571ef7325b4e0b2b5c255b3",
    "gram_projection_residual": "cf48a4929af9e082f2a546faf7742dc1536930048aa8bfb7f66bae67252796be",
    "involution_laws_check": "2da6eaf6cd5dacca56fae39065274e879832c84155cd8e962eb894afd64b1581",
    "mph_decompose": "13969411ea57a2fb8a68cbbfe564b39ddc0749a8d7ab339297551c3af6d0d703",
    "mph_subspace_check": "7d0ce5c0ac97c25b3fe331049eab1e4120edfb04f64ea0d4b0cf88090bee686d",
    "norm_conorm_check": "c33475bed7c05e4caeeff1ca0722f78b2be3a870843dd172b5508c2f5cd2cea7",
}


def output_digest(outputs) -> str:
    h = hashlib.sha256()
    for out in outputs():
        h.update(json.dumps(out).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_residual_digest(name):
    assert output_digest(CHECKS[name]) == DIGESTS[name]
