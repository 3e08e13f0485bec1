"""CoverMatrix kernels vs the scalar Cube/Cover reference.

Property tests on seeded random covers: every batched primitive must
compute *exactly* the relation its scalar counterpart defines — the
bit-identity contract the ``kernels-vs-scalar`` fuzz oracle enforces on
whole flows, pinned here primitive by primitive.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.expr.cover import Cover
from repro.expr.cube import Cube
from repro.expr.kernels import CoverMatrix, popcount_words, scc_cover


def random_cover(rng: random.Random, n: int, k: int) -> Cover:
    """A seeded random cover: each variable pos/neg/absent per cube."""
    cubes = []
    for _ in range(k):
        pos = neg = 0
        for var in range(n):
            state = rng.randrange(3)
            if state == 1:
                pos |= 1 << var
            elif state == 2:
                neg |= 1 << var
        cubes.append(Cube(n, pos, neg))
    return Cover(n, tuple(cubes))


def esop_diff(a: Cube, b: Cube) -> int:
    return ((a.pos ^ b.pos) | (a.neg ^ b.neg)).bit_count()


def unpack(row: np.ndarray) -> int:
    """A packed ``uint64`` word row back to its python-int mask."""
    return sum(int(word) << (64 * i) for i, word in enumerate(row))


# Widths straddle the 64-bit word boundary so multi-word packing is hit.
CASES = [(seed, n, k) for seed in (0, 1, 2) for n in (4, 9, 63, 70)
         for k in (0, 1, 7, 20)]


@pytest.mark.parametrize("seed,n,k", CASES)
def test_roundtrip_and_literal_counts(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    matrix = CoverMatrix.from_cover(cover)
    assert len(matrix) == k
    assert [unpack(row) for row in matrix.pos] == [c.pos for c in cover.cubes]
    assert [unpack(row) for row in matrix.neg] == [c.neg for c in cover.cubes]
    expected = [cube.num_literals for cube in cover.cubes]
    assert matrix.literal_counts().tolist() == expected


@pytest.mark.parametrize("seed,n,k", CASES)
def test_pairwise_matrices_match_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = random_cover(rng, n, k).cubes
    matrix = CoverMatrix.from_cubes(n, list(cubes))
    contain = matrix.containment_matrix()
    esop = matrix.esop_distance_matrix()
    for i, a in enumerate(cubes):
        for j, b in enumerate(cubes):
            assert bool(contain[i, j]) == a.covers(b), (i, j)
            assert int(esop[i, j]) == esop_diff(a, b), (i, j)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_single_cube_queries_match_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    matrix = CoverMatrix.from_cover(cover)
    probe = random_cover(rng, n, 1).cubes[0] if n else Cube.universe(n)
    near = matrix.esop_distance_to(probe.pos, probe.neg)
    for i, cube in enumerate(cover.cubes):
        assert int(near[i]) == esop_diff(cube, probe), i


@pytest.mark.parametrize("seed,n,k", CASES)
def test_intersection_with_matches_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    a = random_cover(rng, n, k)
    b = random_cover(rng, n, max(1, k // 2))
    meets = CoverMatrix.from_cover(a).intersection_with(
        CoverMatrix.from_cover(b)
    )
    for i, ca in enumerate(a.cubes):
        for j, cb in enumerate(b.cubes):
            assert bool(meets[i, j]) == ca.intersects(cb), (i, j)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_scc_matches_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    reference = cover.scalar_scc()
    assert scc_cover(cover).cubes == reference.cubes
    # The size-dispatched method agrees with both whichever path it takes.
    assert cover.single_cube_containment().cubes == reference.cubes


@pytest.mark.parametrize("seed,n,k", CASES)
def test_exorlink_pairs_match_scalar_scan(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = random_cover(rng, n, k).cubes
    expected = [
        (i, j)
        for i in range(len(cubes))
        for j in range(i + 1, len(cubes))
        if esop_diff(cubes[i], cubes[j]) == 2
    ]
    matrix = CoverMatrix.from_cubes(n, list(cubes))
    assert matrix.exorlink_pairs(distance=2) == expected


def test_scc_drops_duplicates_and_contained_cubes():
    cover = Cover.from_strings(["1---", "11--", "1---", "--0-", "--01"])
    got = scc_cover(cover)
    assert got.cubes == (
        Cube.from_string("1---"),
        Cube.from_string("--0-"),
    )


def test_popcount_words_matches_bit_count():
    rng = random.Random(7)
    values = [rng.getrandbits(64) for _ in range(64)] + [0, 2**64 - 1]
    words = np.array(values, dtype=np.uint64).reshape(11, 6)
    expected = [v.bit_count() for v in values]
    assert popcount_words(words).ravel().tolist() == expected
