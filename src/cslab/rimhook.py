"""Special rim hook tabloids and the combinatorial Schur-coefficient rule.

A special rim hook of a Young diagram is an edgewise-connected strip of
cells containing no 2x2 square and at least one cell in column 1.  A
special rim hook tabloid of shape lam tiles the whole diagram with such
hooks.  Reading the hook sizes by the topmost column-1 row of each hook
gives the content composition; the sign is (-1) to the number of hooks
spanning an even number of rows.

The Schur coefficient of a graph's CSF is the signed sum, over tabloids of
that shape, of the semi-ordered stable-partition counts of the content
types.  This gives single coefficients without a full expansion and is
cross-checked against the linear-algebra route (full expansion plus basis
change), which shares no code with it.
"""

from __future__ import annotations

from functools import lru_cache

from .csf import compute_csf
from .errors import DegreeMismatch, TooLarge
from .graphs import _TYPES_KEPT, Graph, _check_blocks, count_stable_partitions
from .partitions import Partition, _Record, enumerate_partitions, sort_to_partition
from .symfunc import SymFunc


class SpecialRimHookTabloid(_Record):
    """One tiling of the diagram of ``shape`` by special rim hooks.

    ``hooks`` holds the cell sets ordered by each hook's topmost column-1
    row (top of the diagram first); ``content`` lists the hook sizes in the
    same order; ``sign_exponent`` counts hooks spanning an even number of
    rows.  Cells are (row, column) pairs, both 1-indexed.
    """

    shape: Partition
    hooks: tuple
    content: tuple
    sign_exponent: int

    @property
    def sign(self) -> int:
        return -1 if self.sign_exponent % 2 else 1

    @property
    def content_type(self) -> Partition:
        return sort_to_partition(self.content)


class SchurCoefficientTrace(_Record):
    """Audit record for one Schur coefficient: the shape, one row per
    tabloid (content composition, sign, semi-ordered count), and the
    signed total.  Unrealizable contents appear with count 0."""

    shape: Partition
    tabloids: tuple
    total: int

    def __post_init__(self) -> None:
        checked = sum(sign * count for _, sign, count in self.tabloids)
        if checked != self.total:
            raise ValueError(f"trace total {self.total} != row sum {checked}")


@lru_cache(maxsize=None)
def _peelings(shape: Partition) -> tuple:
    """All hook sequences for the shape, each in content order (top hook
    first).

    The recursion peels the hook through the bottom row's column-1 cell:
    ending at row r, the hook takes all of the bottom row and, in each row
    i from r to the second-to-bottom, the columns from the next row's
    width up to row i's width; what remains is again a partition shape in
    the same row coordinates, so peeled hooks carry absolute cells.
    """
    if not shape:
        return ((),)
    ell = shape.length
    widths = tuple(shape)
    out = []
    for r in range(1, ell + 1):
        cells = {(ell, c) for c in range(1, widths[ell - 1] + 1)}
        for i in range(r, ell):
            # Row i contributes the columns between the widths of row i+1
            # and row i (widths is 0-indexed, rows are 1-indexed).
            cells.update((i, c) for c in range(widths[i], widths[i - 1] + 1))
        remaining = list(widths[: r - 1])
        remaining.extend(w - 1 for w in widths[r:])
        rest_shape = Partition([w for w in remaining if w > 0])
        hook = frozenset(cells)
        for rest in _peelings(rest_shape):
            out.append(rest + (hook,))
    return tuple(out)


def enumerate_srht(
    shape, max_size: int = 30, max_rows: int = 12
) -> tuple:
    """All special rim hook tabloids of the shape, in a deterministic order.

    The caps bound the recursion (tabloid counts grow with both size and
    row count); raise them deliberately for larger experiments.
    """
    shape = Partition(shape)
    if shape.n > max_size:
        raise TooLarge(f"shape size {shape.n} exceeds the cap {max_size}")
    if shape.length > max_rows:
        raise TooLarge(f"shape has {shape.length} rows, cap is {max_rows}")
    tabloids = []
    for hooks in _peelings(shape):
        spans = [
            max(r for r, _ in cells) - min(r for r, _ in cells) + 1
            for cells in hooks
        ]
        tabloids.append(
            SpecialRimHookTabloid(
                shape=shape,
                hooks=hooks,
                content=tuple(len(cells) for cells in hooks),
                sign_exponent=sum(1 for s in spans if s % 2 == 0),
            )
        )
    return tuple(tabloids)


# Bounded like the per-graph memos: Schur questions past 12 vertices meet new graphs without end.
@lru_cache(maxsize=_TYPES_KEPT)
def _semi_ordered_count(G: Graph, type_: Partition) -> int:
    return count_stable_partitions(G, type_).semi_ordered_count


def schur_coefficient(G: Graph, lam):
    """The coefficient of s_lam in the graph's CSF, with its audit trace.

    Each tabloid of shape lam contributes its sign times the semi-ordered
    count of stable partitions whose type is the tabloid's content.  Up to
    12 vertices each count is the m-coefficient of the graph's stable-m
    expansion (a_lam times the multiplicity factorial), computed once per
    graph by ``compute_csf``; beyond that each content type is counted on
    demand by ``count_stable_partitions``, which keeps long thin trees
    reachable.  The contents of the broom shapes (p+1, p+1, 1) and
    (p+3, p+1, 1) have the types (s1), (s1, s2) or (s1, s2, 1), which a
    forest counts from its 2-colouring without backtracking: about 0.2 ms
    per coefficient on 29-vertex spiders and double brooms, against
    1.5-1.8 ms by backtracking.  Other contents and graphs backtrack.
    """
    lam = Partition(lam)
    if lam.n != G.n:
        raise DegreeMismatch(
            f"partition sums to {lam.n} but the graph has {G.n} vertices"
        )
    # Kept: counting every content instead took path:10's shapes from 0.05 s to 7.6 s.
    fm = compute_csf(G, "stable-m") if G.n <= 12 else None
    tabloids = enumerate_srht(lam)
    if fm is None:
        # A content over the block cap refuses the question, so refuse it
        # before counting the others, which can take minutes.
        for T in tabloids:
            _check_blocks(T.content_type)
    rows = []
    total = 0
    for T in tabloids:
        t = T.content_type
        semi = fm.coefficient(t) if fm is not None else _semi_ordered_count(G, t)
        rows.append((T.content, T.sign, semi))
        total += T.sign * semi
    return total, SchurCoefficientTrace(shape=lam, tabloids=tuple(rows), total=total)


def schur_expansion_solve(G: Graph, cap: int = 12) -> SymFunc:
    """Full Schur expansion by the linear-algebra route: ``compute_csf``
    with the s target, whose route and expansion are shared with every
    other question about G, followed by its basis change, refused past
    ``cap`` vertices.  Independent of the tabloid rule, so agreement
    between the two is a real cross-check."""
    return compute_csf(G, basis="s", cap=cap).value


def inverse_kostka_matrix(n: int):
    """(partitions, matrix): signed tabloid counts with matrix[i][j] the
    coefficient of the monomial basis element at partitions[i] in the Schur
    function at partitions[j], inverted — i.e. the two-sided inverse of the
    Kostka matrix.  Partitions are listed in reverse-lexicographic
    descending order."""
    parts = list(enumerate_partitions(n))
    index = {lam: i for i, lam in enumerate(parts)}
    matrix = [[0] * len(parts) for _ in parts]
    for j, lam in enumerate(parts):
        for T in enumerate_srht(lam):
            matrix[index[T.content_type]][j] += T.sign
    return parts, matrix
