"""Iterative ESOP minimization by cube-pair transformations.

Cube state per variable: positive literal, negative literal, or absent.
For two cubes at distance d (number of variables whose states differ):

* d = 0 — identical cubes cancel (``C ⊕ C = 0``);
* d = 1 — the pair merges into one cube whose differing variable takes
  the *merge state*: ``{pos,neg} → absent``, ``{pos,absent} → neg``,
  ``{neg,absent} → pos`` (e.g. ``x·C ⊕ C = x̄·C``);
* d = 2 — exorlink-2 rewrites the pair into another pair of the same
  total size, which can unlock further d ≤ 1 reductions:

      A ⊕ B = [aᵤ, m(a_v,b_v), R] ⊕ [m(aᵤ,bᵤ), b_v, R]

  (derived from ``a_u a_v ⊕ b_u b_v = a_u(a_v ⊕ b_v) ⊕ (a_u ⊕ b_u)b_v``).

The minimizer applies d ≤ 1 reductions to a fixpoint, then greedily
accepts exorlink-2 rewrites that enable an immediate reduction, for a
bounded number of rounds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BudgetExceededError
from repro.expr.cube import Cube
from repro.expr.esop import EsopCover, FprmForm
from repro.expr.kernels import CoverMatrix
from repro.obs.spans import span as obs_span
from repro.resilience.budget import (
    budget_tick,
    budget_tick_many,
    current_budget,
    note_degradation,
)
from repro.utils.bitops import bit_indices

_MAX_ROUNDS = 12

#: Below this cover size the numpy setup cost of the matrix scans beats
#: their win; the scalar loops stay in charge.  Pure perf cutoff — both
#: paths are bit-identical, so the threshold never changes results.
_KERNEL_MIN_CUBES = 8


def esop_from_fprm(form: FprmForm) -> EsopCover:
    """An FPRM form as a general (mixed-polarity) ESOP."""
    return EsopCover(form.n, form.cube_objects())


def minimize_esop(cover: EsopCover, rounds: int = _MAX_ROUNDS) -> EsopCover:
    """Minimize cube count (then literal count) of an ESOP.

    The quadratic pair scans check the ambient run budget cooperatively;
    on exhaustion the cover minimized *so far* is returned (every
    intermediate state of the reduce/exorlink rewrites represents the
    same function, so a truncated run is correct — just larger).  Exact
    AND-XOR minimization is known to blow up on adversarial instances,
    which is precisely why this loop must be interruptible.
    """
    return _minimize_esop(cover, _KERNEL_MIN_CUBES, rounds)


def _minimize_esop(cover: EsopCover, kernel_min_cubes: float,
                   rounds: int = _MAX_ROUNDS) -> EsopCover:
    """:func:`minimize_esop` with the kernel cutoff as a parameter.

    Passes over covers of at least ``kernel_min_cubes`` cubes take the
    matrix path: ``math.inf`` runs all-scalar, ``2`` all-kernel.  The
    differential checks compare those two arms call by call.
    """
    cubes = list(cover.cubes)
    trajectory = [len(cubes)]
    degraded = False
    with obs_span("esop-minimize", category="algo") as node:
        try:
            budget = current_budget()
            if budget is not None:
                # Entry check: small covers finish under the tick stride,
                # so an exhausted budget must degrade here, not in-loop.
                budget.check("esop-minimize")
            for _ in range(rounds):
                cubes, changed_merge = _reduce_pass(cover.n, cubes,
                                                    kernel_min_cubes)
                changed_link = _exorlink_pass(cover.n, cubes,
                                              kernel_min_cubes)
                trajectory.append(len(cubes))
                if not changed_merge and not changed_link:
                    break
        except BudgetExceededError as err:
            degraded = True
            note_degradation("esop-minimize", "partial-minimization",
                             err.where)
            trajectory.append(len(cubes))
        if node is not None:
            node.set(
                cubes_in=trajectory[0],
                cubes_out=len(cubes),
                rounds=len(trajectory) - 1,
                trajectory=trajectory,
                degraded=degraded,
            )
    return EsopCover(cover.n, tuple(cubes))


def _state(cube: Cube, var: int) -> int:
    bit = 1 << var
    if cube.pos & bit:
        return 1
    if cube.neg & bit:
        return 2
    return 0


def _with_state(cube: Cube, var: int, state: int) -> Cube:
    bit = 1 << var
    pos = cube.pos & ~bit
    neg = cube.neg & ~bit
    if state == 1:
        pos |= bit
    elif state == 2:
        neg |= bit
    return Cube(cube.n, pos, neg)


def _merge_state(a: int, b: int) -> int:
    # XOR of the per-variable state functions: {x, x̄, 1}.
    return {frozenset({1, 2}): 0, frozenset({1, 0}): 2,
            frozenset({2, 0}): 1}[frozenset({a, b})]


def _difference_vars(a: Cube, b: Cube) -> list[int]:
    mask = (a.pos ^ b.pos) | (a.neg ^ b.neg)
    return list(bit_indices(mask))


def _lex_pair_rank(k: int, i: int, j: int) -> int:
    """1-based position of ``(i, j)`` in the upper-triangle scan order —
    how many pairs the scalar loops visit up to and including the hit."""
    return i * (2 * k - i - 1) // 2 + (j - i)


def _first_reducible_pair(cubes: list[Cube]) -> tuple[int, int] | None:
    """Lexicographically first pair at ESOP distance ≤ 1, via one matrix
    scan (the selection the scalar ``_reduce_pass`` loops perform)."""
    k = len(cubes)
    matrix = CoverMatrix.from_cubes(cubes[0].n, cubes)
    hits = matrix.esop_distance_matrix() <= 1
    hits[np.tril_indices(k)] = False
    flat = np.flatnonzero(hits.ravel())
    if flat.size == 0:
        return None
    return divmod(int(flat[0]), k)


def _reduce_pair(cubes: list[Cube], i: int, j: int) -> None:
    """Apply the scalar d ≤ 1 rewrite to the pair ``(i, j)`` in place."""
    diff = _difference_vars(cubes[i], cubes[j])
    if len(diff) == 0:
        del cubes[j], cubes[i]
    else:
        var = diff[0]
        merged = _with_state(
            cubes[i], var,
            _merge_state(_state(cubes[i], var), _state(cubes[j], var)),
        )
        del cubes[j], cubes[i]
        cubes.append(merged)


def _reduce_pass(n: int, cubes: list[Cube],
                 kernel_min_cubes: float) -> tuple[list[Cube], bool]:
    """Cancel d=0 pairs and merge d=1 pairs until no pair qualifies."""
    if len(cubes) >= kernel_min_cubes:
        return _reduce_pass_kernel(n, cubes)
    changed = False
    progress = True
    while progress:
        progress = False
        for i in range(len(cubes)):
            for j in range(i + 1, len(cubes)):
                # Checked before any rewrite, so an interrupt always
                # leaves a function-preserving intermediate cover.
                budget_tick("esop-reduce")
                diff = _difference_vars(cubes[i], cubes[j])
                if len(diff) == 0:
                    del cubes[j], cubes[i]
                    progress = changed = True
                    break
                if len(diff) == 1:
                    var = diff[0]
                    merged = _with_state(
                        cubes[i], var,
                        _merge_state(_state(cubes[i], var),
                                     _state(cubes[j], var)),
                    )
                    del cubes[j], cubes[i]
                    cubes.append(merged)
                    progress = changed = True
                    break
            if progress:
                break
    return cubes, changed


def _reduce_pass_kernel(n: int, cubes: list[Cube]) -> tuple[list[Cube], bool]:
    """Matrix-selected :func:`_reduce_pass` (bit-identical rewrites).

    Each iteration finds the same pair the scalar scan would act on —
    the lexicographically first at distance ≤ 1 — then applies the
    scalar rewrite.  Budget accounting matches the pairs the scalar
    loops would have visited.
    """
    changed = False
    while len(cubes) >= 2:
        hit = _first_reducible_pair(cubes)
        k = len(cubes)
        if hit is None:
            budget_tick_many("esop-reduce", k * (k - 1) // 2)
            break
        i, j = hit
        budget_tick_many("esop-reduce", _lex_pair_rank(k, i, j))
        _reduce_pair(cubes, i, j)
        changed = True
    return cubes, changed


def _exorlink_pass(n: int, cubes: list[Cube],
                   kernel_min_cubes: float) -> bool:
    """Greedy exorlink-2: accept a rewrite if it enables a d≤1 reduction."""
    if len(cubes) >= kernel_min_cubes:
        return _exorlink_pass_kernel(n, cubes)
    for i in range(len(cubes)):
        for j in range(i + 1, len(cubes)):
            budget_tick("esop-exorlink")
            diff = _difference_vars(cubes[i], cubes[j])
            if len(diff) != 2:
                continue
            u, v = diff
            for first, second in ((u, v), (v, u)):
                a, b = cubes[i], cubes[j]
                new_a = _with_state(
                    a, second,
                    _merge_state(_state(a, second), _state(b, second)),
                )
                new_b = _with_state(
                    b, first,
                    _merge_state(_state(a, first), _state(b, first)),
                )
                if _enables_reduction(cubes, i, j, new_a, new_b):
                    cubes[i] = new_a
                    cubes[j] = new_b
                    return True
    return False


def _exorlink_pass_kernel(n: int, cubes: list[Cube]) -> bool:
    """Matrix-selected :func:`_exorlink_pass` (bit-identical rewrites).

    One distance matrix yields the d=2 candidate pairs in the scalar
    scan order; the exorlink rewrite and its acceptance test keep the
    scalar cube algebra, with the enables-a-reduction probe batched as
    two distance-to-cube sweeps.
    """
    k = len(cubes)
    matrix = CoverMatrix.from_cubes(n, cubes)
    accounted = 0
    for i, j in matrix.exorlink_pairs(distance=2):
        rank = _lex_pair_rank(k, i, j)
        budget_tick_many("esop-exorlink", rank - accounted)
        accounted = rank
        a, b = cubes[i], cubes[j]
        u, v = _difference_vars(a, b)
        for first, second in ((u, v), (v, u)):
            new_a = _with_state(
                a, second,
                _merge_state(_state(a, second), _state(b, second)),
            )
            new_b = _with_state(
                b, first,
                _merge_state(_state(a, first), _state(b, first)),
            )
            if _enables_reduction_kernel(matrix, i, j, new_a, new_b):
                cubes[i] = new_a
                cubes[j] = new_b
                return True
    budget_tick_many("esop-exorlink", k * (k - 1) // 2 - accounted)
    return False


def _enables_reduction_kernel(matrix: CoverMatrix, i: int, j: int,
                              new_a: Cube, new_b: Cube) -> bool:
    """Vectorized :func:`_enables_reduction` over the pass matrix."""
    near = (matrix.esop_distance_to(new_a.pos, new_a.neg) <= 1) | (
        matrix.esop_distance_to(new_b.pos, new_b.neg) <= 1
    )
    near[i] = near[j] = False
    if bool(near.any()):
        return True
    return _cube_esop_distance(new_a, new_b) <= 1


def _cube_esop_distance(a: Cube, b: Cube) -> int:
    return (((a.pos ^ b.pos) | (a.neg ^ b.neg))).bit_count()


def _enables_reduction(cubes: list[Cube], i: int, j: int,
                       new_a: Cube, new_b: Cube) -> bool:
    for index, other in enumerate(cubes):
        if index in (i, j):
            continue
        for candidate in (new_a, new_b):
            if len(_difference_vars(candidate, other)) <= 1:
                return True
    return len(_difference_vars(new_a, new_b)) <= 1
