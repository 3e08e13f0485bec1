"""Cube-algebra primitives of the ESOP and SCC scans vs a per-position reference.

``minimize_esop`` and ``Cover.single_cube_containment`` are quadratic
pair scans built on a few bit-mask primitives: containment, literal
counts, the ESOP difference set and the exorlink-2 rewrite.  Each is
checked here on seeded random covers against a reference that reads the
PLA strings one position at a time.  Widths straddle the 64-bit word
boundary so masks wider than one machine word are exercised.
"""

from __future__ import annotations

import random

import pytest

from repro.esopmin.exorcism import (
    _difference_vars,
    _merge_state,
    _state,
    _with_state,
)
from repro.expr.cover import Cover
from repro.expr.cube import Cube
from repro.utils.bitops import popcount


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


def ref_literals(a: str) -> int:
    return sum(ch != "-" for ch in a)


def ref_covers(a: str, b: str) -> bool:
    """Every literal of ``a`` appears in ``b``."""
    return all(x == "-" or x == y for x, y in zip(a, b))


def ref_intersects(a: str, b: str) -> bool:
    return not any({x, y} == {"0", "1"} for x, y in zip(a, b))


def ref_esop_diff(a: str, b: str) -> list[int]:
    """Positions whose pos/neg/absent state differs."""
    return [i for i, (x, y) in enumerate(zip(a, b)) if x != y]


def ref_scc(rows: list[str]) -> list[str]:
    """Stable by literal count; keep a row no earlier kept row covers."""
    kept: list[str] = []
    for row in sorted(rows, key=ref_literals):
        if not any(ref_covers(other, row) for other in kept):
            kept.append(row)
    return kept


CASES = [(seed, n, k) for seed in (0, 1, 2) for n in (4, 9, 63, 70)
         for k in (0, 1, 7, 20)]


@pytest.mark.parametrize("seed,n,k", CASES)
def test_roundtrip_and_literal_counts(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    rows = [cube.to_string() for cube in cover.cubes]
    assert len(rows) == k
    assert all(len(row) == n for row in rows)
    assert tuple(Cube.from_string(row) for row in rows) == cover.cubes
    expected = [ref_literals(row) for row in rows]
    assert [cube.num_literals for cube in cover.cubes] == expected
    assert cover.num_literals == sum(expected)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_pairwise_matrices_match_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = random_cover(rng, n, k).cubes
    rows = [cube.to_string() for cube in cubes]
    for i, a in enumerate(cubes):
        for j, b in enumerate(cubes):
            assert a.covers(b) == ref_covers(rows[i], rows[j]), (i, j)
            assert _difference_vars(a, b) == ref_esop_diff(rows[i], rows[j]), (i, j)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_single_cube_queries_match_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    probe = random_cover(rng, n, 1).cubes[0]
    probe_row = probe.to_string()
    for i, cube in enumerate(cover.cubes):
        row = cube.to_string()
        assert _difference_vars(cube, probe) == ref_esop_diff(row, probe_row), i
        assert cube.intersects(probe) == ref_intersects(row, probe_row), i
        assert probe.covers(cube) == ref_covers(probe_row, row), i


@pytest.mark.parametrize("seed,n,k", CASES)
def test_scc_matches_scalar(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cover = random_cover(rng, n, k)
    got = cover.single_cube_containment()
    rows = [cube.to_string() for cube in cover.cubes]
    assert [cube.to_string() for cube in got.cubes] == ref_scc(rows)
    # Nothing is lost: every input cube lies in some kept cube, and no
    # kept cube lies in another.
    for cube in cover.cubes:
        assert any(kept.covers(cube) for kept in got.cubes)
    for i, a in enumerate(got.cubes):
        for j, b in enumerate(got.cubes):
            assert i == j or not a.covers(b), (i, j)


@pytest.mark.parametrize("seed,n,k", CASES)
def test_exorlink_pairs_match_scalar_scan(seed, n, k):
    rng = random.Random(seed * 1000 + n * 10 + k)
    cubes = random_cover(rng, n, k).cubes
    rows = [cube.to_string() for cube in cubes]
    expected = [
        (i, j)
        for i in range(len(cubes))
        for j in range(i + 1, len(cubes))
        if len(ref_esop_diff(rows[i], rows[j])) == 2
    ]
    pairs = [
        (i, j)
        for i in range(len(cubes))
        for j in range(i + 1, len(cubes))
        if len(_difference_vars(cubes[i], cubes[j])) == 2
    ]
    assert pairs == expected
    # Both exorlink-2 rewrites of each pair keep a ⊕ b.  The four cubes
    # share every position but u and v, so it suffices to set the shared
    # literals and try the four values of (u, v).
    for i, j in pairs:
        a, b = cubes[i], cubes[j]
        u, v = _difference_vars(a, b)
        base = (a.pos & b.pos) & ~((1 << u) | (1 << v))
        for first, second in ((u, v), (v, u)):
            new_a = _with_state(
                a, second, _merge_state(_state(a, second), _state(b, second))
            )
            new_b = _with_state(
                b, first, _merge_state(_state(a, first), _state(b, first))
            )
            for bits in range(4):
                minterm = base | ((bits & 1) << u) | ((bits >> 1) << v)
                before = a.contains_minterm(minterm) ^ b.contains_minterm(minterm)
                after = (new_a.contains_minterm(minterm)
                         ^ new_b.contains_minterm(minterm))
                assert before == after, (i, j, first, bits)


def test_scc_drops_duplicates_and_contained_cubes():
    cover = Cover.from_strings(["1---", "11--", "1---", "--0-", "--01"])
    got = cover.single_cube_containment()
    assert got.cubes == (
        Cube.from_string("1---"),
        Cube.from_string("--0-"),
    )


def test_popcount_words_matches_bit_count():
    rng = random.Random(7)
    values = [rng.getrandbits(64) for _ in range(64)] + [0, 2**64 - 1]
    assert [popcount(v) for v in values] == [v.bit_count() for v in values]
    # Rows of six 64-bit words packed into one 384-bit mask, as a cube
    # over 384 variables stores them.
    for row in range(11):
        words = values[6 * row:6 * row + 6]
        mask = sum(word << (64 * i) for i, word in enumerate(words))
        assert popcount(mask) == sum(word.bit_count() for word in words)
        assert Cube(384, pos=mask).num_literals == popcount(mask)
