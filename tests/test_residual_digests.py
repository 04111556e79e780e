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
    ConditionId,
    FormulationId,
    algebraic_mph_check,
    annihilator_spectrum_check,
    classify,
    formulation_residual,
    full_report,
    generate_mp_hermitian,
    generate_regular,
    generate_rol_pair,
    gram_projection_residual,
    involution_laws_check,
    mbekhta_gap_pair,
    mph_decompose,
    mph_subspace_check,
    norm_conorm_check,
    normal_mph_check,
    nonnormal_mph_fixture,
    pinv,
    random_partial_isometry,
    rol_negative_pair,
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


# The conditions built from q^+ or r^+, whose residuals this digest leaves
# out: it was recorded when q^+ and r^+ were still SVD-built pseudoinverses.
# Their closed forms (reverse_order._DEFS) have been pinned since by
# ``full_report_square``, with every other row.
_READS_DAG = {
    ConditionId.T33_II, ConditionId.T33_III, ConditionId.T34_II, ConditionId.T34_III,
    ConditionId.R35_DAG_COMM,
}


def _rol_pairs():
    for seed in SEEDS:
        for m, n, k in ((2, 2, 2), (3, 3, 3), (4, 2, 3), (2, 4, 3)):
            for ra in range(min(m, n) + 1):
                for rb in range(min(n, k) + 1):
                    a = generate_regular(m, n, ra, sv_low=0.25, sv_high=4.0, seed=seed)
                    b = generate_regular(n, k, rb, sv_low=0.25, sv_high=4.0, seed=seed + 100)
                    yield a, b
                    for scale in SCALES[1:]:
                        yield scale * a, b
                        yield a, scale * b


def _full_report():
    for a, b in _rol_pairs():
        report = full_report(a, b)
        yield {
            "verdicts": report.verdicts,
            "ranks": report.ranks,
            "residuals": {c.value: report.residuals[c.value]
                          for c in ConditionId if c not in _READS_DAG},
        }


def _square_rol_pairs():
    """Square pairs, n = 1 .. 15, of each family of the benchmark's reverse-order
    corpus, each also scaled by 2^k on both sides."""
    rng = np.random.default_rng(29)
    for n in range(1, 16):
        for family in ("random", "forced_unitary", "forced_pinv", "diagonal",
                       "negative", "mbekhta_gap"):
            if family == "diagonal":
                d = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                d[rng.random(n) < 0.3] = 0.0
                a, b = np.diag(d), np.diag(d[::-1].copy())
            elif family in ("negative", "mbekhta_gap"):
                if n == 1:
                    continue
                a, b = (rol_negative_pair if family == "negative" else mbekhta_gap_pair)(n, rng)
            else:
                a, b = generate_rol_pair(n, family, rng)
            yield a, b
            k = int(rng.integers(-40, 41))
            yield 2.0**k * a, 2.0**k * b


def _full_report_square():
    for a, b in _square_rol_pairs():
        report = full_report(a, b)
        yield {"verdicts": report.verdicts, "ranks": report.ranks,
               "residuals": report.residuals}


CHECKS = {
    "norm_conorm_check": _norm_conorm,
    "involution_laws_check": _involution,
    "gram_projection_residual": _gram,
    "formulation_residual": _formulation,
    "algebraic_and_annihilator": _algebraic,
    "mph_subspace_check": _subspace,
    "mph_decompose": _decompose,
    "classify_and_normal_mph": _classify,
    "full_report": _full_report,
    "full_report_square": _full_report_square,
}

DIGESTS = {
    "algebraic_and_annihilator": "4bcf92dd2b13034dddb3bd9ddb5f0fc073d58abc33e89f571d203372fcf51442",
    "classify_and_normal_mph": "e04d343a443518b1b32d58d09bb3dcc573d42ee4ec1dd316194ce0e32f4c3474",
    "formulation_residual": "016df9a7e0b3f699f37c411d842b95f1ea11ebde5571ef7325b4e0b2b5c255b3",
    "full_report": "0174a6cceb550ff504dcbd5de442434d781faf0f49324059dbcb4f9d490791b2",
    "full_report_square": "3226e8a2682b32ba235af192c1784762f5a127ef8060bfa6b37b8e83e8bae15b",
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
