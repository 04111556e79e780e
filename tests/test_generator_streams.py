"""Pin the seeded output of every public generator.

Each generator runs over a small grid of seeds and shapes; the
SHA-256 digest of all its outputs (dtype, shape and raw bytes, in grid
order) must match the value recorded below.  A refactor of the
generators has to keep these streams bit-identical; a deliberate
change to a stream updates its digest here and says why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from mpinv import (
    generate_mp_hermitian,
    generate_regular,
    generate_rol_pair,
    generate_special,
    matrix_with_singular_values,
    mbekhta_gap_pair,
    nonhermitian_partial_isometry_fixture,
    nonnormal_mph_fixture,
    random_hermitian_partial_isometry,
    random_partial_isometry,
    rol_negative_pair,
)

SEEDS = (0, 1, 7)


def _regular():
    for seed in SEEDS:
        for m, n in ((1, 1), (3, 2), (2, 5), (4, 4)):
            for r in range(min(m, n) + 1):
                yield generate_regular(m, n, r, seed=seed)
                yield generate_regular(m, n, r, sv_low=0.25, sv_high=4.0, seed=seed)


def _rol_pair(mode):
    def cases():
        for seed in SEEDS + (11, 12):
            for n in (1, 2, 4, 6):
                yield from generate_rol_pair(n, mode, seed)

    return cases


def _sized_pair(generator):
    def cases():
        for seed in SEEDS:
            for n in (2, 3, 5):
                out = generator(n, seed)
                yield from (out if isinstance(out, tuple) else (out,))

    return cases


def _partial_isometry():
    for seed in SEEDS:
        for n in (1, 3, 5):
            for rank in range(n + 1):
                yield random_partial_isometry(n, rank, seed)


def _hermitian_partial_isometry():
    for seed in SEEDS:
        yield random_hermitian_partial_isometry(1, (1, 0, 0), seed)
        for inertia in ((4, 0, 0), (2, 1, 1), (0, 0, 4), (1, 3, 0)):
            yield random_hermitian_partial_isometry(4, inertia, seed)


def _singular_values():
    for seed in SEEDS:
        for sv, shape in (
            ([], (3, 3)),
            ([1.0], (1, 1)),
            ([3.0, 1.0, 2.0], (3, 3)),
            ([0.5, 0.5], (4, 2)),
            ([2.0, 0.0], (2, 5)),
        ):
            yield matrix_with_singular_values(sv, shape, seed)


def _special():
    for seed in SEEDS:
        yield generate_special("partial_isometry", 4, seed, rank=2)
        yield generate_special("hermitian_partial_isometry", 3, seed, inertia=(1, 1, 1))
        yield generate_special("prescribed_singular_values", 3, seed, singular_values=[2.0, 1.0])
        yield generate_special(
            "prescribed_singular_values", 3, seed, singular_values=[1.5], rows=5
        )


def _mp_hermitian():
    for seed in SEEDS:
        for n in range(1, 6):
            for k in range(n + 1):
                yield generate_mp_hermitian(n, k, seed)
        yield generate_mp_hermitian(4, 3, seed, plus_count=1, cond_cap=4.0)


def _large_singular_values():
    # Sizes up to n = 64, where the Haar draw factors only the columns it
    # returns, and one dimension above it.
    for seed in SEEDS:
        for r in (1, 5, 32, 33, 64):
            yield matrix_with_singular_values(1.0 + np.arange(r), (64, 64), seed)
        for shape in ((64, 17), (17, 64), (40, 64), (65, 40)):
            yield matrix_with_singular_values([3.0, 2.0, 1.0], shape, seed)


def _large(generator, *arg_tuples):
    def cases():
        for seed in SEEDS:
            for args in arg_tuples:
                yield generator(*args, seed=seed)

    return cases


STREAMS = {
    "generate_regular": _regular,
    "generate_rol_pair:forced_unitary": _rol_pair("forced_unitary"),
    "generate_rol_pair:forced_pinv": _rol_pair("forced_pinv"),
    "generate_rol_pair:random": _rol_pair("random"),
    "rol_negative_pair": _sized_pair(rol_negative_pair),
    "mbekhta_gap_pair": _sized_pair(mbekhta_gap_pair),
    "nonnormal_mph_fixture": _sized_pair(nonnormal_mph_fixture),
    "nonhermitian_partial_isometry_fixture": _sized_pair(nonhermitian_partial_isometry_fixture),
    "random_partial_isometry": _partial_isometry,
    "random_hermitian_partial_isometry": _hermitian_partial_isometry,
    "matrix_with_singular_values": _singular_values,
    "generate_special": _special,
    "generate_mp_hermitian": _mp_hermitian,
    "matrix_with_singular_values:large": _large_singular_values,
    "generate_regular:large": _large(generate_regular, (64, 48, 20)),
    "random_partial_isometry:large": _large(random_partial_isometry, (48, 7)),
    "generate_mp_hermitian:large": _large(generate_mp_hermitian, (48, 5), (64, 33)),
}

DIGESTS = {
    "generate_regular": "ad678d181a3280524b5d0523b39b9ae60e397e40db2b757cc0e7ac215ec831fe",
    "generate_rol_pair:forced_unitary": "f8b455cd27906bfa27a1b3465952825e05263c8b201012c1353127debfe588d0",
    "generate_rol_pair:forced_pinv": "2e75896f96a692a2143593558fc00008bfe7261651858e8b3f83c956336ed26a",
    "generate_rol_pair:random": "3e187bc7b743bc1d29cb6a7e88b676f33202f69afbe241f1cfd7cc9ee923411f",
    "rol_negative_pair": "962ce876de60e5caea1cd22be7301693257a1fa3d73255111635436ea29cb2a6",
    "mbekhta_gap_pair": "d343265c1f49516358895d3ae4be1c5eebedadb1a8b3bb7961e3082e5caf8071",
    "nonnormal_mph_fixture": "8b67bc767ea5e04e516f6055890e8aa2fb889b1cd8fec99d4fbd65f812f8d62c",
    "nonhermitian_partial_isometry_fixture": "c8f5ff79798fa152477ded8ad81f80dcb1cbd8d4152b80f9cbf0a1bee39366a2",
    "random_partial_isometry": "13fe719b484fdfa441655a6fcc407f8f2a3d0cd951435c29257c9282031f43e8",
    "random_hermitian_partial_isometry": "6660ef35142b040c1781324f0a5f37f7b921c9bd2bce9bb05a67dc5429de5ec6",
    "matrix_with_singular_values": "1c25549dff256390e859561a7608132140d52fc25af8a7e9962ef719afb8b46d",
    "generate_special": "344189aeb20cc7eeb10578b1b2294ba2531008957c7e4bc39d7b768b3f941273",
    "generate_mp_hermitian": "a146b24156eecf4c46f58f5c269d13b5ce83aa910e1d938c00af6e51cb8ad433",
    "matrix_with_singular_values:large": "7f419f1cb77a88b76d37babd0d65d07d0a5d71e1be04222523297f2dc3461193",
    "generate_regular:large": "50455e8af8ab1844519a0e1b4a4cd7cb4d22e146303790b8d347dcf61238ec0f",
    "random_partial_isometry:large": "4837b38cc3fea1fb685ce9493b16face66ec6d6d03cc6608165b12809072089d",
    "generate_mp_hermitian:large": "806a7932515984d7e73266e547cb9b41d52fee436468622504baebeea19fd6dc",
}


def stream_digest(cases) -> str:
    h = hashlib.sha256()
    for m in cases():
        a = np.ascontiguousarray(m)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_digest(name):
    assert stream_digest(STREAMS[name]) == DIGESTS[name]
