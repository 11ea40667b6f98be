"""Integer partitions, compositions, and multiplicity forms.

A partition is a weakly decreasing tuple of positive integers; the empty
partition () is the unique partition of 0.  Enumeration and term ordering
throughout the toolkit use reverse-lexicographic order on part tuples, so
partitions of n run from (n) down to (1,)*n.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterable, Iterator


class Partition(tuple):
    """Weakly decreasing tuple of positive integers."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        pts = tuple(map(int, parts))
        # One check in C passes every valid tuple; the scan only runs to
        # name the first offending part.
        if pts and (pts[-1] <= 0 or list(pts) != sorted(pts, reverse=True)):
            for i, p in enumerate(pts):
                if p <= 0:
                    raise ValueError(f"partition parts must be positive, got {pts}")
                if i and pts[i - 1] < p:
                    raise ValueError(f"partition parts must be weakly decreasing, got {pts}")
        return tuple.__new__(cls, pts)

    @property
    def n(self) -> int:
        """Size: sum of the parts."""
        return sum(self)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: column lengths become row lengths."""
        if not self:
            return self
        return Partition(sum(1 for p in self if p >= col) for col in range(1, self[0] + 1))

    def multiplicities(self) -> "MultiplicityForm":
        return MultiplicityForm.from_parts(self)

    def multiplicity_factorial(self) -> int:
        """Product of the factorials of the part multiplicities.

        This is the scale factor between the monomial symmetric function
        m_lam and its augmented companion, and between unordered and
        semi-ordered stable partition counts.
        """
        out = 1
        run = 1
        for i in range(1, len(self)):
            if self[i] == self[i - 1]:
                run += 1
            else:
                out *= factorial(run)
                run = 1
        if self:
            out *= factorial(run)
        return out

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"


@dataclass(frozen=True)
class MultiplicityForm:
    """A partition as (part, multiplicity) pairs with parts strictly decreasing."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def from_parts(cls, parts: Iterable[int]) -> "MultiplicityForm":
        pairs: list[tuple[int, int]] = []
        for p in sorted(parts, reverse=True):
            if pairs and pairs[-1][0] == p:
                pairs[-1] = (p, pairs[-1][1] + 1)
            else:
                pairs.append((p, 1))
        return cls(tuple(pairs))


def sort_to_partition(parts: Iterable[int]) -> Partition:
    """Sort a composition (any order, zeros allowed) into a partition."""
    return Partition(sorted((p for p in parts if p != 0), reverse=True))


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order."""
    if n < 0:
        raise ValueError("cannot partition a negative integer")
    for parts in _part_tuples(n, n):
        yield Partition(parts)


def _part_tuples(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``remaining`` with parts at most ``cap``, as plain
    tuples in reverse-lexicographic order."""
    if remaining == 0:
        yield ()
        return
    for first in range(min(cap, remaining), 0, -1):
        for rest in _part_tuples(remaining - first, first):
            yield (first, *rest)


def numerical_semigroup_gap(k: int, n: int) -> bool:
    """True iff n = x*k + y*(k+1) for some nonnegative integers x and y.

    Closed form: writing n = q*k + r with 0 <= r < k, a representation
    exists iff r <= q, which for n < k*(k-1) forces 1 <= q <= k-2; every
    n >= k*(k-1) is representable.  Requires k >= 2 and n >= 1.
    """
    if k < 2:
        raise ValueError(f"semigroup generator must satisfy k >= 2, got {k}")
    if n < 1:
        raise ValueError(f"membership is defined for positive n, got {n}")
    if n >= k * (k - 1):
        return True
    q, r = divmod(n, k)
    return 1 <= q <= k - 2 and r <= q


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition such as "4,2,1".

    Whitespace around parts is tolerated; the empty string denotes the
    empty partition.  Parts must be positive and weakly decreasing.
    """
    text = text.strip()
    if not text:
        return Partition()
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return Partition(parts)
