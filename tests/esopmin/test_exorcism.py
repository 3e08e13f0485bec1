"""ESOP minimization: semantics preserved, sizes shrink, outputs pinned."""

import hashlib
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_esop_ablation import CIRCUITS
from repro.esopmin import esop_from_fprm, minimize_esop
from repro.expr.cube import Cube
from repro.expr.esop import EsopCover
from repro.resilience.budget import Budget, install_budget

ABLATION_RESULT = (Path(__file__).resolve().parents[2]
                   / "results" / "ablation_esop.txt")

N = 5


@st.composite
def esops(draw, n=N, max_cubes=8):
    count = draw(st.integers(0, max_cubes))
    cubes = []
    for _ in range(count):
        pos = draw(st.integers(0, (1 << n) - 1))
        neg = draw(st.integers(0, (1 << n) - 1)) & ~pos
        cubes.append(Cube(n, pos, neg))
    return EsopCover(n, tuple(cubes))


@given(esops())
@settings(max_examples=150, deadline=None)
def test_minimization_preserves_function(cover):
    minimized = minimize_esop(cover)
    for m in range(1 << N):
        assert minimized.evaluate(m) == cover.evaluate(m)


@given(esops())
@settings(max_examples=100, deadline=None)
def test_minimization_never_grows(cover):
    minimized = minimize_esop(cover)
    assert minimized.num_cubes <= cover.num_cubes


def test_distance0_cancellation():
    cube = Cube(3, 0b001, 0b010)
    cover = EsopCover(3, (cube, cube))
    assert minimize_esop(cover).num_cubes == 0


def test_distance1_merges():
    # x·C ⊕ x̄·C = C
    a = Cube(3, 0b011, 0)
    b = Cube(3, 0b010, 0b001)
    merged = minimize_esop(EsopCover(3, (a, b)))
    assert merged.num_cubes == 1
    assert merged.cubes[0] == Cube(3, 0b010, 0)
    # x·C ⊕ C = x̄·C
    c = Cube(3, 0b010, 0)
    merged2 = minimize_esop(EsopCover(3, (a, c)))
    assert merged2.num_cubes == 1
    assert merged2.cubes[0] == Cube(3, 0b010, 0b001)


def test_exorlink_unlocks_reduction():
    # x⊕y⊕(x·y) = x + y = 1 ⊕ x̄·ȳ: exorcism should reach 2 cubes.
    cover = EsopCover(2, (
        Cube(2, 0b01, 0), Cube(2, 0b10, 0), Cube(2, 0b11, 0),
    ))
    minimized = minimize_esop(cover)
    assert minimized.num_cubes <= 2
    for m in range(4):
        assert minimized.evaluate(m) == cover.evaluate(m)


def test_esop_beats_or_ties_fprm_on_mixed_function():
    # A function whose best FPRM needs more cubes than its best ESOP.
    from repro.fprm.polarity import best_polarity_exhaustive
    from repro.truth.spectra import fprm_from_table
    from repro.truth.table import TruthTable

    table = TruthTable.from_function(
        4, lambda m: int(m in (0b0001, 0b0010, 0b0100, 0b1000, 0b1111))
    )
    polarity = best_polarity_exhaustive(table)
    form = fprm_from_table(table, polarity)
    esop = minimize_esop(esop_from_fprm(form))
    assert esop.num_cubes <= form.num_cubes
    for m in range(16):
        assert esop.evaluate(m) == table[m]


def test_ablation_cube_counts_match_committed_result():
    """The six ablation circuits reproduce results/ablation_esop.txt."""
    from repro.circuits import get
    from repro.fprm.polarity import choose_polarity
    from repro.truth.spectra import fprm_from_table

    expected = {}
    for line in ABLATION_RESULT.read_text().splitlines()[2:]:
        name, fprm_cubes, esop_cubes = line.split()
        expected[name] = (int(fprm_cubes), int(esop_cubes))
    assert sorted(expected) == sorted(CIRCUITS)
    for name in CIRCUITS:
        fprm_total = esop_total = 0
        for output in get(name).outputs:
            table = output.local_table()
            form = fprm_from_table(table, choose_polarity(table))
            fprm_total += form.num_cubes
            esop_total += minimize_esop(esop_from_fprm(form)).num_cubes
        assert (fprm_total, esop_total) == expected[name], name


def _random_covers(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(4, 9)
        cubes = []
        for _ in range(rng.randrange(8, 41)):
            pos = rng.getrandbits(n)
            neg = rng.getrandbits(n) & ~pos
            cubes.append(Cube(n, pos, neg))
        yield EsopCover(n, tuple(cubes))


def test_minimized_cubes_match_pinned_digest():
    """Exact cube tuples, in order, on covers of 8-40 cubes."""
    digest = hashlib.sha256()
    for cover in _random_covers(seed=2015, count=30):
        minimized = minimize_esop(cover)
        digest.update(repr([(c.n, c.pos, c.neg)
                            for c in minimized.cubes]).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == (
        "8997d580da8b3171349f40a59bdccbdfddd9579f6e4be8c503908edfdef9320b"
    )


class _ExpiresAfterEntryCheck(Budget):
    """Passes the entry ``check``, then reports expiry on every read."""

    def __init__(self):
        super().__init__(seconds=None, deadline=float("inf"))
        self.reads = 0

    def expired(self) -> bool:
        self.reads += 1
        return self.reads > 1


def test_budget_expiry_inside_the_loops_keeps_the_function():
    rng = random.Random(7)
    cubes = []
    for _ in range(40):
        pos = rng.getrandbits(8)
        cubes.append(Cube(8, pos, rng.getrandbits(8) & ~pos))
    cover = EsopCover(8, tuple(cubes))
    budget = _ExpiresAfterEntryCheck()
    previous = install_budget(budget)
    try:
        minimized = minimize_esop(cover)
    finally:
        install_budget(previous)
    assert budget.reads > 1  # a strided in-loop check fired
    assert minimized.num_cubes <= cover.num_cubes
    for m in range(1 << cover.n):
        assert minimized.evaluate(m) == cover.evaluate(m)
    assert [(r.stage, r.fallback) for r in budget.drain_degradations()] == \
        [("esop-minimize", "partial-minimization")]
