"""Vectorized cube-algebra kernels: matrix covers over numpy bitmasks.

The scalar :class:`~repro.expr.cube.Cube`/:class:`~repro.expr.cover.Cover`
algebra is the semantic reference of the whole flow, but its pairwise
inner loops (single-cube containment, ESOP distance scans, exorlink
candidate enumeration) are O(k²) Python — the confirmed hot paths of
FPRM extraction and exorcism-style minimization.  This module holds the
batched counterparts: a :class:`CoverMatrix` stores a cover's pos/neg
literal masks as ``uint64`` word arrays (shape ``(k, words)``), and every
primitive is one broadcastable numpy expression over those words.

Semantics guarantee: every kernel computes *exactly* the relation its
scalar counterpart defines (containment as :meth:`Cube.covers`, ESOP
difference as the exorcism ``_difference_vars`` count, …).  Callers that
rewrite covers keep the scalar rewrite rules and use the kernels only to
*select* work, so a kernel-accelerated pass is bit-identical to the
scalar pass — the property the ``kernels-vs-scalar`` fuzz oracle
enforces.

Cover size alone selects the path: call sites take the kernel path at
or above their ``_KERNEL_MIN_CUBES`` cutoff and the scalar loop below
it.  There is no switch to flip; the cutoffs never change results, only
which implementation computes them.  Differential checks call both paths
side by side (:func:`scc_cover` beside :meth:`Cover.scalar_scc`).
"""

from __future__ import annotations

import numpy as np

from repro.expr.cover import Cover
from repro.expr.cube import Cube

__all__ = [
    "CoverMatrix",
    "popcount_words",
    "scc_cover",
]

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1

def _num_words(n: int) -> int:
    return max(1, (n + _WORD_BITS - 1) // _WORD_BITS)


def _masks_to_words(masks: list[int], words: int) -> np.ndarray:
    """Pack python-int literal masks into a ``(k, words)`` uint64 array."""
    out = np.zeros((len(masks), words), dtype=np.uint64)
    for row, mask in enumerate(masks):
        for word in range(words):
            chunk = (mask >> (word * _WORD_BITS)) & _WORD_MASK
            if chunk:
                out[row, word] = chunk
        # Wider masks than the universe are a caller bug; Cube validated.
    return out


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount of a uint64 array (any shape)."""
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0

    def popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element popcount via byte-table lookup (numpy < 2.0)."""
        table = np.array([bin(i).count("1") for i in range(256)],
                         dtype=np.uint8)
        as_bytes = words.astype(np.uint64).view(np.uint8)
        return table[as_bytes].reshape(*words.shape, 8).sum(
            axis=-1, dtype=np.int64
        )


class CoverMatrix:
    """A cover as two ``(k, words)`` uint64 literal-mask matrices.

    ``pos[i]``/``neg[i]`` are the packed positive/negative literal masks
    of cube ``i``; row order is the cover's cube order, which the batched
    primitives preserve so their answers map 1:1 onto the scalar loops
    they replace.
    """

    __slots__ = ("n", "words", "pos", "neg")

    def __init__(self, n: int, pos: np.ndarray, neg: np.ndarray):
        self.n = n
        self.words = pos.shape[1] if pos.ndim == 2 else _num_words(n)
        self.pos = pos
        self.neg = neg

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_cubes(cls, n: int, cubes: list[Cube] | tuple[Cube, ...]) -> "CoverMatrix":
        words = _num_words(n)
        pos = _masks_to_words([c.pos for c in cubes], words)
        neg = _masks_to_words([c.neg for c in cubes], words)
        return cls(n, pos, neg)

    @classmethod
    def from_cover(cls, cover: Cover) -> "CoverMatrix":
        return cls.from_cubes(cover.n, cover.cubes)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return self.pos.shape[0]

    def literal_counts(self) -> np.ndarray:
        """Per-cube literal count — matches :attr:`Cube.num_literals`."""
        return popcount_words(self.pos | self.neg).sum(axis=1)

    # -- pairwise relations ------------------------------------------------

    def containment_matrix(self) -> np.ndarray:
        """Boolean ``C[i, j]`` = cube ``i`` covers cube ``j``.

        The broadcast form of :meth:`Cube.covers`: ``i`` covers ``j``
        iff ``pos_i ⊆ pos_j`` and ``neg_i ⊆ neg_j`` (fewer literals =
        bigger cube).  Diagonal is True (every cube covers itself).
        """
        pos_i = self.pos[:, None, :]
        pos_j = self.pos[None, :, :]
        neg_i = self.neg[:, None, :]
        neg_j = self.neg[None, :, :]
        return (
            ((pos_i & pos_j) == pos_i).all(axis=2)
            & ((neg_i & neg_j) == neg_i).all(axis=2)
        )

    def esop_distance_matrix(self) -> np.ndarray:
        """``D[i, j]`` = variables whose 3-valued state differs.

        The exorcism metric: ``popcount((pos_i ^ pos_j) | (neg_i ^
        neg_j))`` — the length of ``_difference_vars`` in
        :mod:`repro.esopmin.exorcism`.
        """
        diff = (self.pos[:, None, :] ^ self.pos[None, :, :]) | (
            self.neg[:, None, :] ^ self.neg[None, :, :]
        )
        return popcount_words(diff).sum(axis=2)

    def esop_distance_to(self, pos_mask: int, neg_mask: int) -> np.ndarray:
        """ESOP difference count of every row against one cube."""
        words = self.words
        pos = _masks_to_words([pos_mask], words)[0]
        neg = _masks_to_words([neg_mask], words)[0]
        diff = (self.pos ^ pos) | (self.neg ^ neg)
        return popcount_words(diff).sum(axis=1)

    def intersection_with(self, other: "CoverMatrix") -> np.ndarray:
        """Boolean ``M[i, j]`` = row ``i`` of self intersects row ``j``
        of ``other`` (share at least one minterm)."""
        conflict = (self.pos[:, None, :] & other.neg[None, :, :]) | (
            self.neg[:, None, :] & other.pos[None, :, :]
        )
        return ~(conflict.any(axis=2))

    # -- batched cover algebra ---------------------------------------------

    def scc_keep_order(self) -> list[int]:
        """Indices surviving single-cube containment, in the scalar order.

        Replays :meth:`Cover.single_cube_containment` exactly: visit
        cubes by ascending literal count (stable), keep a cube unless an
        already-kept cube covers it.  Returns *original* indices in the
        kept (sorted) order, so ``[cubes[i] for i in keep]`` equals the
        scalar result's cube tuple.
        """
        k = len(self)
        if k == 0:
            return []
        covers = self.containment_matrix()
        np.fill_diagonal(covers, False)
        order = np.argsort(self.literal_counts(), kind="stable")
        dropped = np.zeros(k, dtype=bool)
        keep: list[int] = []
        for j in order:
            if dropped[j]:
                continue
            keep.append(int(j))
            # Everything this cube covers can never be kept later.
            dropped |= covers[j]
        return keep

    def exorlink_pairs(self, distance: int = 2) -> list[tuple[int, int]]:
        """Upper-triangle ``(i, j)`` pairs at the given ESOP difference,
        in lexicographic scan order — the exorcism candidate set."""
        dist = self.esop_distance_matrix()
        upper = np.triu_indices(len(self), k=1)
        hits = dist[upper] == distance
        return list(zip(upper[0][hits].tolist(), upper[1][hits].tolist()))


def scc_cover(cover: Cover) -> Cover:
    """Vectorized :meth:`Cover.single_cube_containment` (bit-identical)."""
    matrix = CoverMatrix.from_cover(cover)
    keep = matrix.scc_keep_order()
    return Cover(cover.n, tuple(cover.cubes[i] for i in keep))
