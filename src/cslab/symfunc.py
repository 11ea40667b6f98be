"""Homogeneous symmetric functions with exact coefficients.

A SymFunc is a finite formal combination of basis elements indexed by
partitions of a fixed degree, in one of four classical bases:

- ``m``: monomial
- ``e``: elementary
- ``p``: power sum
- ``s``: Schur

Coefficients are exact (int, promoted to Fraction only when division
occurs).  Basis changes never solve a dense linear system; p is the hub
that all but s->m pass through.  Into p and out of it, e->p, p->e,
p->s and p->m share one engine: Horner's rule over the parts of the whole
function, so terms that share parts share the products of the parts they
have in common.  Only its step differs by pair: multiplying by one e_k in
p or one p_k in e (Newton's identities; indices concatenate, since both
bases are multiplicative), by one p_k in s (signed border strips, the
Murnaghan-Nakayama rule), or by one p_k in m.  m->p peels the
reverse-lexicographically least term of the residual, subtracting its p
row in m, which is valid because that transition matrix is triangular
with respect to dominance order and reverse-lexicographic order refines
dominance.  s->m goes term by term through Kostka numbers, since s is not
multiplicative, and s reaches p through m.  Between those ends every term
is an integer key, in one format for e, p and m and as a beta-set for s:
a SymFunc is encoded once on the way in, and a packed result decoded
once on the way out, or read one key at a time.  Inside p->s a shape is
its rank among the shapes of its degree met so far, so the steps add into
lists by index, and the result is keyed by beta-sets once at the end.
"""

from __future__ import annotations

import json
from _thread import allocate_lock
from bisect import bisect_right
from collections.abc import Iterator, Mapping
from functools import lru_cache, partial
from itertools import chain, repeat
from math import comb, perm, prod
from types import MappingProxyType

from .errors import BasisMismatch, DegreeMismatch, EmptyFunction, SingularSystem, TooLarge
from .partitions import Partition, _Record, enumerate_partitions, sort_to_partition

BASES = ("m", "e", "p", "s")

#: Largest degree change_basis will expand by default; full-basis work above
#: this should go through targeted-coefficient routes instead.
DEFAULT_DEGREE_CAP = 24

#: An exact coefficient: an int, or a ``fractions.Fraction`` once a division
#: or a parse makes one.  Only annotations name it, so ``fractions`` is
#: imported where a Fraction is built or tested for, not with the module.
Coeff = "int | Fraction"


def _normalize_coeff(c: Coeff) -> Coeff:
    if type(c) is int:
        return c
    from fractions import Fraction

    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _exact_div(c: Coeff, d: Coeff) -> Coeff:
    if type(c) is int and type(d) is int and c % d == 0:
        return c // d
    from fractions import Fraction

    return _normalize_coeff(Fraction(c) / Fraction(d))


def _is_scalar(x) -> bool:
    """True for the coefficients a SymFunc can be scaled by."""
    if isinstance(x, int):
        return True
    from fractions import Fraction

    return isinstance(x, Fraction)


class SymFunc(_Record):
    """A homogeneous symmetric function in a single basis.

    ``terms`` maps partitions of ``degree`` to nonzero coefficients; zero
    coefficients are dropped on construction and integral Fractions are
    demoted to int.  It is read-only, so a memoised result can be handed
    to every caller: copy it with ``.copy()`` to build on it.
    """

    basis: str
    degree: int
    terms: Mapping[Partition, Coeff]

    def __post_init__(self) -> None:
        if self.basis not in BASES:
            raise BasisMismatch(f"unknown basis {self.basis!r}; expected one of {BASES}")
        if self.degree < 0:
            raise DegreeMismatch(f"degree must be nonnegative, got {self.degree}")
        clean: dict[Partition, Coeff] = {}
        degree = self.degree
        for lam, c in self.terms.items():
            if not isinstance(lam, Partition):
                lam = Partition(lam)
            if sum(lam) != degree:
                raise DegreeMismatch(
                    f"term {tuple(lam)} has size {lam.n}, not the declared degree {degree}"
                )
            if type(c) is not int:
                c = _normalize_coeff(c)
            if c:
                clean[lam] = c
        object.__setattr__(self, "terms", MappingProxyType(clean))

    def __reduce__(self):
        # A mapping proxy cannot be pickled; rebuild from a plain dict.
        return (SymFunc, (self.basis, self.degree, self.terms.copy()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, basis: str, degree: int) -> "SymFunc":
        return cls(basis, degree, {})

    @classmethod
    def one(cls, basis: str) -> "SymFunc":
        """The multiplicative unit: the empty-partition term in degree 0."""
        return cls(basis, 0, {Partition(): 1})

    @classmethod
    def single(cls, basis: str, lam: Partition, coeff: Coeff = 1) -> "SymFunc":
        lam = lam if isinstance(lam, Partition) else Partition(lam)
        return cls(basis, lam.n, {lam: coeff})

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, lam) -> Coeff:
        lam = lam if isinstance(lam, Partition) else Partition(lam)
        return self.terms.get(lam, 0)

    def terms_sorted(self) -> list[tuple[Partition, Coeff]]:
        """Terms in reverse-lexicographic descending order of partition."""
        return [(lam, self.terms[lam]) for lam in sorted(self.terms, reverse=True)]

    def min_coefficient(self) -> tuple[Partition, Coeff]:
        """The smallest coefficient and its partition.

        Ties break toward the reverse-lexicographically smallest partition.
        Raises EmptyFunction on the zero function, which has no coefficients
        to compare.
        """
        if not self.terms:
            raise EmptyFunction("the zero function has no minimum coefficient")
        return min(self.terms.items(), key=lambda t: (t[1], t[0]))

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "SymFunc") -> None:
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot combine bases {self.basis!r} and {other.basis!r}")
        if self.degree != other.degree:
            raise DegreeMismatch(
                f"cannot add degree {self.degree} to degree {other.degree}"
            )

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        self._check_compatible(other)
        out = self.terms.copy()
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return SymFunc(self.basis, self.degree, out)

    def __neg__(self) -> "SymFunc":
        return SymFunc(self.basis, self.degree, {lam: -c for lam, c in self.terms.items()})

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        return self + (-other)

    def scale(self, c: Coeff) -> "SymFunc":
        if not c:
            return SymFunc.zero(self.basis, self.degree)
        return SymFunc(self.basis, self.degree, {lam: v * c for lam, v in self.terms.items()})

    def __mul__(self, other) -> "SymFunc":
        if not isinstance(other, SymFunc):
            return self.scale(other) if _is_scalar(other) else NotImplemented
        if self.basis != other.basis:
            raise BasisMismatch(f"cannot multiply bases {self.basis!r} and {other.basis!r}")
        if self.basis in ("e", "p"):
            # Multiplicative bases: indices concatenate.
            out: dict[Partition, Coeff] = {}
            for lam, a in self.terms.items():
                for mu, b in other.terms.items():
                    key = sort_to_partition(tuple(lam) + tuple(mu))
                    out[key] = out.get(key, 0) + a * b
            return SymFunc(self.basis, self.degree + other.degree, out)
        raise BasisMismatch(
            f"products in the {self.basis!r} basis are not supported; convert to e or p first"
        )

    def __rmul__(self, other) -> "SymFunc":
        return self.scale(other) if _is_scalar(other) else NotImplemented


# -- single-basis-element expansions into the monomial basis -----------------


def _horizontal_strip_predecessors(shape: Partition, size: int) -> Iterator[Partition]:
    """Partitions nu inside shape with shape/nu a horizontal strip of the size.

    Row bounds: shape[i+1] <= nu[i] <= shape[i], which forbids two removed
    cells in one column and keeps nu weakly decreasing.
    """
    rows = len(shape)

    def go(i: int, left: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if i == rows:
            if left == 0:
                yield tuple(prefix)
            return
        lo = shape[i + 1] if i + 1 < rows else 0
        hi = shape[i]
        # nu[i] = shape[i] - removed; removed between 0 and hi - lo.
        for nu_i in range(max(lo, hi - left), hi + 1):
            prefix.append(nu_i)
            yield from go(i + 1, left - (hi - nu_i), prefix)
            prefix.pop()

    for parts in go(0, size, []):
        yield Partition(p for p in parts if p)


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: Partition) -> int:
    """Count semistandard tableaux of the shape with the given content.

    Peels the cells holding the largest entry, which form a horizontal
    strip, and recurses on the remaining shape and content prefix.
    """
    if shape.n != content.n:
        return 0
    if not shape:
        return 1
    total = 0
    prefix = Partition(content[:-1])
    for nu in _horizontal_strip_predecessors(shape, content[-1]):
        total += kostka_number(nu, prefix)
    return total


@lru_cache(maxsize=None)
def _s_to_m_terms(lam: Partition) -> tuple[tuple[Partition, Coeff], ...]:
    return tuple((mu, k) for mu in enumerate_partitions(lam.n) if (k := kostka_number(lam, mu)))


# -- the integer keys of every change of basis -------------------------------
#
# The e, p and m keys, in tree-p, the conversions and the family
# recurrences of ``cslab.csf`` alike, are mixed-radix integers: in tier N
# (64, else 255, else the degree itself) the multiplicity of part k, at most
# N // k, is the digit of radix N // k + 1 at place B[k] = prod_{j<k} (N // j
# + 1).  No digit carries, so a product of two terms is one integer
# addition, and descending keys are reverse-lexicographic order.  The s keys
# are beta-sets with one bead per row, bitmasks with the bead of row
# i = 0..l-1 at bit lam_i - i + l - 1, so a shape has the same key at every
# degree and the empty shape is 0; adding a k-strip moves one bead k places
# up (the abacus form of Murnaghan-Nakayama).  Partitions become keys only
# on the way in (``_encoded``) and keys become Partitions only in answers,
# each through a memo.

_TIER_SIZES = (64, 255)


def _tier_size(n: int) -> int:
    """N for the keys of degree n: the smallest tier that holds n, else n."""
    return next((size for size in _TIER_SIZES if n <= size), n)


@lru_cache(maxsize=None)
def _places(size: int) -> list:
    """The place values B[0..size + 1] of tier ``size``: B[0] = 0, and
    B[size + 1] exceeds every key of degree at most size."""
    places = [0, 1]
    for k in range(1, size + 1):
        places.append(places[-1] * (size // k + 1))
    return places


# Kept: tree-expand's 21 trees, in e and s, read it 3,067 times for 486
# misses, all for the answers' keys.  Bounded, since decoding a whole
# recurrence misses on every key: spider:30,15,8's 146,212 took 0.63 s so,
# and 0.85 s with no bound.
@lru_cache(maxsize=1 << 13)
def _decode(size: int, key: int) -> Partition:
    """The Partition of a key of tier ``size``, peeled from its top digit
    down, so the parts come out in decreasing order."""
    places = _places(size)
    parts: list = []
    while key:
        part = bisect_right(places, key) - 1
        count, key = divmod(key, places[part])
        parts += [part] * count
    return Partition._unchecked(parts)


# Kept: tree-expand's 21 trees, in e and s, read it 2,149 times for 16 misses.
@lru_cache(maxsize=None)
def _power_in_e(k: int, size: int) -> tuple[tuple[int, int], ...]:
    """p_k in the e basis, keyed in tier ``size``, in descending order, by
    Newton's identity over the memoised rows of smaller k:
    p_k = sum over i < k of (-1)^(i - 1) e_i p_(k - i), plus (-1)^(k - 1) k e_k."""
    places = _places(size)
    out = {places[k]: k if k % 2 else -k}
    get = out.get
    for i in range(1, k):
        e_i = places[i]
        for key, c in _power_in_e(k - i, size):
            key += e_i
            out[key] = get(key, 0) + (c if i % 2 else -c)
    return tuple(sorted(out.items(), reverse=True))


@lru_cache(maxsize=None)
def _elementary_in_p(k: int, size: int) -> tuple[tuple[int, Coeff], ...]:
    """e_k in the p basis, keyed in tier ``size``, in descending order, by
    Newton's identity over the memoised rows of smaller k:
    k e_k = sum over i < k of (-1)^(i - 1) p_i e_(k - i), plus (-1)^(k - 1) p_k."""
    places = _places(size)
    out = {places[k]: 1 if k % 2 else -1}
    get = out.get
    for i in range(1, k):
        p_i = places[i]
        for key, c in _elementary_in_p(k - i, size):
            key += p_i
            out[key] = get(key, 0) + (c if i % 2 else -c)
    return tuple(sorted(((key, _exact_div(c, k)) for key, c in out.items()), reverse=True))


def _times_packed(table, terms: Mapping[int, Coeff], k: int, size: int, out: dict) -> None:
    """Add the packed terms times the k-th generator, whose packed row in
    the terms' basis is ``table(k, size)``, into ``out``."""
    row = table(k, size)
    get = out.get
    for lam, c in terms.items():
        for nu, d in row:
            key = lam + nu
            out[key] = get(key, 0) + c * d


# Kept: tree-expand's 21 trees, in e and s, read it 3,320 times for 499 misses.
@lru_cache(maxsize=None)
def _beads_shape(beads: int) -> Partition:
    """The Partition of a beta-set: the bead of row i of l sits at bit
    lam_i - i + l - 1, so the beads read from the top give the rows in order."""
    bits = [i for i in range(beads.bit_length()) if beads >> i & 1][::-1]
    return Partition._unchecked(bit + i + 1 - len(bits) for i, bit in enumerate(bits))


def _times_power(terms: Mapping[int, Coeff], k: int, size: int, out: dict) -> None:
    """Add the m-terms, keyed in tier ``size``, times p_k into ``out``.

    The single power either lands on a fresh variable (part 0 becomes k) or
    raises one existing part v to v + k, which moves one count from digit v
    to digit v + k; the coefficient is the new part's multiplicity, the
    positions of the product monomial that could have received it.
    """
    places = _places(size)
    get = out.get
    for key, c in terms.items():
        for v in {0, *_decode(size, key)}:
            new = key - places[v] + places[v + k]
            count = new % places[v + k + 1] // places[v + k]
            out[new] = get(new, 0) + c * count


# -- Horner's rule over the parts --------------------------------------------
#
# A function in a multiplicative basis is f = sum over k of g_k times the
# k-th generator (p_k or e_k), where g_k holds f's terms whose largest part
# is k, with that part taken out.  Each g_k is converted the same way and
# multiplied by the generator once, so terms that share parts share the
# work of converting them.  The keys are sorted once, descending, so the
# terms that share their first d parts are one contiguous run, and each
# level works on index ranges of that list.  A run of a single term reads
# that term's memoised row instead; only such lone terms are memoised, and
# small functions consist mostly of them.
#
# Only the step differs from one pair of bases to the next.  For e->p, p->e
# and p->m, step(terms, k, size, out) adds the target-basis terms times the
# k-th generator into the dict out, and ``size`` is the tier of the keys on
# both sides.  p->s adds into lists by shape rank instead (see below).

_STEPS = {
    ("p", "e"): partial(_times_packed, _power_in_e),
    ("e", "p"): partial(_times_packed, _elementary_in_p),
    ("p", "m"): _times_power,
}


# Kept: tree-expand's 21 trees, in e and s, read it 3,448 times for 47
# misses, all p->e rows.
@lru_cache(maxsize=None)
def _row(pair: tuple[str, str], size: int, key: int) -> tuple[tuple[int, Coeff], ...]:
    """The basis element of ``pair``'s source keyed by ``key`` in tier
    ``size``, in its target: the row of the key without its largest part,
    times that part's generator."""
    if not key:
        # The constant 1: the empty partition's key is 0.
        return ((0, 1),)
    places = _places(size)
    part = bisect_right(places, key) - 1
    out: dict = {}
    _STEPS[pair](dict(_row(pair, size, key - places[part])), part, size, out)
    return tuple((key, c) for key, c in out.items() if c)


def _horner(pair: tuple[str, str], size: int, terms: Mapping[int, Coeff]) -> dict:
    """The terms of ``pair``'s source, keyed in tier ``size``, in its
    target, keyed in the same tier."""
    items = sorted(terms.items(), reverse=True)
    step = _STEPS[pair]
    places = _places(size)

    def convert(lo: int, hi: int, done: int) -> dict:
        # items[lo:hi] share their first parts, whose keys sum to done.
        # Split them into runs that also share the next part, convert each
        # run's remainders past it, and take one step by it per run.
        out: dict = {}
        get = out.get
        while lo < hi:
            key, c = items[lo]
            part = bisect_right(places, key - done) - 1
            # The run's keys lie in [shared, done + B[part + 1]), and none
            # of items[lo:hi] is larger than the first.
            shared = done + places[part]
            end = lo + 1
            while end < hi and items[end][0] >= shared:
                end += 1
            if end == lo + 1:
                for target, e in _row(pair, size, key - done):
                    out[target] = get(target, 0) + c * e
            else:
                step(convert(lo, end, shared), part, size, out)
            lo = end
        return out

    return convert(0, len(items), 0)


# -- p->s on shape ranks -------------------------------------------------------
#
# p->s is Horner's rule with the Murnaghan-Nakayama rule as its step: p_k
# s_nu is the signed sum of s_lam over the k-strips lam/nu.  On the way its
# terms are keyed not by beta-sets but by ranks: a shape gets the next free
# rank of its degree d when it is first seen, so the ranks of degree d lie
# below p(d), and a function of degree d in s is a list of p(d)
# coefficients that a step adds into by index.  The strip tables and the
# memoised rows hold ranks too, and the finished function is keyed by
# beta-sets once, in ascending order.  Ranks depend on the order in which
# shapes were met, so none leaves this section.


#: The most shapes a degree may have for p->s: a list of that many
#: coefficients takes 128 MiB.  p(80) is below it, p(81) above.
_MAX_SHAPES = 1 << 24


class _Shapes:
    """The shape ranks of p->s and their strip tables.

    ``beads[d]`` lists the beta-sets of degree d met so far, by rank, and
    ``ranks`` maps each of them to its rank (a beta-set fixes its degree).
    ``counts[d]`` is p(d), the length of a list of degree d.
    ``tables[k, d]`` lists, by rank of degree d, the k-strips of that
    shape: the ranks in degree d + k of the shapes that add a k-strip to
    it, a tuple of sign +1 and a tuple of sign -1, or None until first read.
    New ranks and degrees are stored under ``lock``, a rank's beta-set
    before the rank, so concurrent fillers agree on every rank.
    """

    def __init__(self) -> None:
        self.ranks, self.beads, self.counts, self.tables = {0: 0}, [[0]], [1], {}
        self.lock = allocate_lock()

    def count(self, d: int) -> int:
        """p(d), storing the degrees up to d first, by Euler's pentagonal
        recurrence: p(n) = sum over j >= 1 of (-1)^(j - 1) (p(n - g_j) +
        p(n - g_j - j)), with g_j = j(3j - 1)/2.  Refuses a degree with
        more than ``_MAX_SHAPES`` shapes, whose lists would not fit."""
        counts = self.counts
        if d >= len(counts):
            with self.lock:
                for n in range(len(counts), d + 1):
                    total, j = 0, 1
                    while (g := j * (3 * j - 1) // 2) <= n:
                        term = counts[n - g] + (counts[n - g - j] if g + j <= n else 0)
                        total += term if j & 1 else -term
                        j += 1
                    if total > _MAX_SHAPES:
                        raise TooLarge(f"p->s keeps lists of the {total} shapes of degree {n}; "
                                       f"the limit is {_MAX_SHAPES}")
                    self.beads.append([])
                    counts.append(total)
        return counts[d]

    def rank(self, beads: int, d: int) -> int:
        """The rank of a beta-set of degree d, a degree ``count`` has
        stored: on first sight, the next free rank of that degree."""
        rank = self.ranks.get(beads)
        if rank is None:
            with self.lock:
                rank = self.ranks.get(beads)
                if rank is None:
                    shapes = self.beads[d]
                    rank = len(shapes)
                    shapes.append(beads)
                    self.ranks[beads] = rank
        return rank

    def table(self, k: int, d: int) -> list:
        """The table of k-strips on the shapes of degree d."""
        table = self.tables.get((k, d))
        if table is None:
            self.count(d + k)
            table = self.tables.setdefault((k, d), [None] * self.count(d))
        return table


# Kept, for the whole process: tree-expand's 21 trees, in e and s, rank
# 915 shapes and read its strip tables 23,209 times for 2,285 misses.  The
# Schur verdict on spider:36,2,1 ranks 215,308 shapes (23.9 MiB under
# tracemalloc) and fills 610,313 entries (109 MiB).
_SHAPES = _Shapes()


def _strip_entry(shapes: _Shapes, table: list, k: int, d: int, rank: int) -> tuple:
    """Fill the entry of ``table``, the k-strips on degree d, for the shape
    of that rank.

    A k-strip adds at most k rows, so k beads for empty rows go in below
    first.  Adding the strip moves one bead k places up to a free position;
    the strip's rows are that bead's row and the rows of the beads it
    jumps, and its sign is (-1)^(rows - 1).  The beads of rows left empty,
    the trailing ones, drop again.
    """
    padded = shapes.beads[d][rank] << k | (1 << k) - 1
    movable = padded & ~padded >> k
    plus: list = []
    minus: list = []
    rank_of, up = shapes.rank, d + k
    while movable:
        low = movable & -movable
        movable ^= low
        jumped = (padded & (low << k) - (low << 1)).bit_count()
        moved = padded ^ low ^ low << k
        (minus if jumped & 1 else plus).append(rank_of(moved >> (~moved & moved + 1).bit_length() - 1, up))
    entry = table[rank] = (tuple(plus), tuple(minus))
    return entry


def _add_strips(shapes: _Shapes, terms: list, k: int, d: int, out: list) -> None:
    """Add the s-terms of degree d, a list by rank, times p_k into ``out``,
    a list by rank of degree d + k."""
    table = shapes.table(k, d)
    for rank, c in enumerate(terms):
        if c:
            plus, minus = table[rank] or _strip_entry(shapes, table, k, d, rank)
            for lam in plus:
                out[lam] += c
            for lam in minus:
                out[lam] -= c


# Kept: tree-expand's 21 trees, in e and s, read it 3,448 times for 47
# misses.  Unbounded: after the Schur verdict on spider:36,2,1 it holds 80
# rows, 20.9 MiB under tracemalloc.
@lru_cache(maxsize=None)
def _s_row(shapes: _Shapes, size: int, key: int, degree: int) -> tuple[tuple[int, Coeff], ...]:
    """p_mu in s, for mu of the given degree keyed by ``key`` in tier
    ``size``: (rank, coefficient) per nonzero term, the row of mu without
    its largest part times that part's p_k."""
    if not key:
        # The constant 1: the empty shape, rank 0 of degree 0.
        return ((0, 1),)
    places = _places(size)
    part = bisect_right(places, key) - 1
    low = degree - part
    terms = [0] * shapes.count(low)
    for rank, c in _s_row(shapes, size, key - places[part], low):
        terms[rank] = c
    out = [0] * shapes.count(degree)
    _add_strips(shapes, terms, part, low, out)
    # The registry's own rank ints, not enumerate's fresh ones, are kept.
    beads, ranks = shapes.beads[degree], shapes.ranks
    return tuple((ranks[beads[rank]], c) for rank, c in enumerate(out) if c)


def _p_to_s(terms: Mapping[int, Coeff], size: int, degree: int, shapes: _Shapes = _SHAPES) -> dict:
    """The p-terms of the given degree, keyed in tier ``size``, in s, keyed
    by beta-sets in ascending order: ``_horner`` on lists by rank."""
    items = sorted(terms.items(), reverse=True)
    places = _places(size)

    def convert(lo: int, hi: int, done: int, d: int) -> list:
        # As in _horner, for remainders of degree d.
        out = [0] * shapes.count(d)
        while lo < hi:
            key, c = items[lo]
            part = bisect_right(places, key - done) - 1
            shared = done + places[part]
            end = lo + 1
            while end < hi and items[end][0] >= shared:
                end += 1
            if end == lo + 1:
                for rank, e in _s_row(shapes, size, key - done, d):
                    out[rank] += c * e
            else:
                _add_strips(shapes, convert(lo, end, shared, d - part), part, d - part, out)
            lo = end
        return out

    out = convert(0, len(items), 0, degree)
    beads = shapes.beads[degree]
    return dict(sorted((beads[rank], c) for rank, c in enumerate(out) if c))


def _peel_from_m(terms: Mapping[int, Coeff], size: int) -> dict:
    """m-terms keyed in tier ``size`` in the p basis, by triangular peeling:
    p_lam in m is a multiple of m_lam plus the monomials of coarser
    partitions, which are reverse-lexicographically greater, so the
    residual's least key is peeled by its p row.  A row that misses its
    diagonal, or a peel that does not move up, is a bug and raises
    SingularSystem rather than returning a wrong answer."""
    residual = {key: c for key, c in terms.items() if c}
    out: dict = {}
    prev = -1
    while residual:
        lead = min(residual)
        if lead <= prev:
            raise SingularSystem(f"peeling did not make progress at {tuple(_decode(size, lead))}")
        prev = lead
        row = _row(("p", "m"), size, lead)
        diag = dict(row).get(lead, 0)
        if not diag:
            raise SingularSystem(f"pivot {tuple(_decode(size, lead))} does not reach its own monomial")
        coeff = out[lead] = _exact_div(residual[lead], diag)
        for key, d in row:
            val = residual.get(key, 0) - coeff * d
            if val:
                residual[key] = val
            else:
                residual.pop(key, None)
    return out


# -- packed results ------------------------------------------------------------
#
# A packed result is (basis, degree, layers, size): layer j maps integer
# keys to coefficients, and the term of key k in layer j is the partition
# of key k + j, a beta-set when ``size`` is 0 and a key of tier ``size``
# otherwise.  Encoded functions and conversions hand over one layer; the
# family recurrences of ``cslab.csf`` hold one layer per number of parts
# 1, whose key adds 1 (B[1] = 1), over keys with no part 1, so no two
# layers hold the same partition.  Zero coefficients may stay in the
# layers.


def _encoded(f: SymFunc) -> tuple:
    """The packed result of f in e, p or m, keyed in the tier of its degree."""
    size = _tier_size(f.degree)
    places = _places(size)
    return f.basis, f.degree, ({sum(map(places.__getitem__, lam)): c for lam, c in f.terms.items()},), size


def _decoded(basis: str, degree: int, layers, size: int) -> SymFunc:
    """The SymFunc of a packed result, every nonzero key decoded."""
    decode = partial(_decode, size) if size else _beads_shape
    return SymFunc(basis, degree, {decode(key + j): c for j, layer in enumerate(layers)
                                   for key, c in layer.items() if c})


def _packed_min(basis: str, degree: int, layers, size: int) -> tuple[Partition, Coeff]:
    """``_decoded(...).min_coefficient()``, decoding only the keys that hold
    the smallest nonzero coefficient, so ties break as there.  The minimum
    is taken per layer at C speed, and only the layers that can hold it
    are searched, by ``list.count`` and ``list.index``."""
    values = [layer.values() for layer in layers]
    mins = [min(column, default=0) for column in values]
    low = min(mins, default=0) or min(filter(None, chain(*values)), default=0)
    decode = partial(_decode, size) if size else _beads_shape
    terms: dict = {}
    for j, layer in enumerate(layers):
        if low and mins[j] <= low:
            keys, column, i = list(layer), list(values[j]), -1
            for _ in range(column.count(low)):
                i = column.index(low, i + 1)
                terms[decode(keys[i] + j)] = low
    return SymFunc(basis, degree, terms).min_coefficient()


def _packed_coefficient(basis: str, degree: int, layers, size: int, lam: Partition) -> Coeff:
    """``_decoded(...).coefficient(lam)``, reading the one key that lam packs
    to, in the layer of its number of parts 1, and decoding nothing."""
    if lam.n != degree:
        return 0
    if size:
        key = sum(map(_places(size).__getitem__, lam))
    else:
        key = sum(1 << part - i + len(lam) - 1 for i, part in enumerate(lam))
    ones = min(lam.count(1), len(layers) - 1)
    return layers[ones].get(key - ones, 0)


# -- change of basis ---------------------------------------------------------


def _convert(packed: tuple, target: str) -> tuple:
    """A packed result in e, p or m, in the target basis, through the hub
    p: into p from e by Horner's rule (Newton's identity) and from m by the
    peel, out of p to e, s and m by Horner's rule."""
    basis, degree, layers, size = packed
    if basis == target:
        return packed
    terms = {key + j: c for j, layer in enumerate(layers) for key, c in layer.items() if c}
    if basis == "e":
        # Newton's rows divide; demote the integral quotients before any
        # further step multiplies them.
        terms = {key: _normalize_coeff(c) for key, c in _horner(("e", "p"), size, terms).items()}
    elif basis == "m":
        terms = _peel_from_m(terms, size)
    if target == "s":
        return target, degree, (_p_to_s(terms, size, degree),), 0
    if target != "p":
        terms = _horner(("p", target), size, terms)
    return target, degree, (terms,), size


def change_basis(f: SymFunc, target: str, cap: int = DEFAULT_DEGREE_CAP) -> SymFunc:
    """Rewrite f in the target basis, exactly, through the hub basis p.

    s goes to m first, term by term through Kostka numbers, since s is not
    multiplicative; s->m stops there.  Into p: from e by Horner's rule over
    f's parts (Newton's identity), from m by triangular peeling.  Out of p:
    to e, s and m by Horner's rule.  Refuses degrees above ``cap``: the
    number of partitions, and with it the implicit transition system, grows
    too fast for a full expansion to be a sensible default there.
    """
    if target not in BASES:
        raise BasisMismatch(f"unknown basis {target!r}; expected one of {BASES}")
    if f.degree > cap:
        raise TooLarge(f"degree {f.degree} exceeds the basis-change cap {cap}")
    if target == f.basis:
        return f
    if f.basis == "s":
        out: dict[Partition, Coeff] = {}
        for lam, c in f.terms.items():
            for mu, d in _s_to_m_terms(lam):
                out[mu] = out.get(mu, 0) + c * d
        f = SymFunc("m", f.degree, out)
    return _decoded(*_convert(_encoded(f), target))


# -- evaluation --------------------------------------------------------------


def _schur_at_ones(lam: Partition, k: int) -> int:
    """s_lam(1^k) by the hook-content formula: the product over the cells u
    of lam of (k + c(u)) / h(u), with c the content and h the hook length.
    The quotient is exact, since it counts tableaux."""
    num = den = 1
    cols = lam.conjugate()
    for i, row in enumerate(lam):
        for j in range(row):
            num *= k + j - i
            den *= row - j + cols[j] - i - 1
    return num // den


def specialize_ones(f: SymFunc, k: int) -> Coeff:
    """Evaluate f at x_1 = ... = x_k = 1 and all other variables 0.

    Closed forms per basis: a monomial term contributes the number of ways
    to place its distinct exponents on k variables, an elementary term a
    product of binomials, a power-sum term k to the number of parts, and a
    Schur term the hook-content formula.
    """
    if k < 0:
        raise ValueError(f"cannot specialize to {k} variables")
    total: Coeff = 0
    for lam, c in f.terms.items():
        if f.basis == "m":
            # A multinomial coefficient, so the division is exact.
            val = perm(k, lam.length) // lam.multiplicity_factorial()
        elif f.basis == "e":
            val = prod(map(comb, repeat(k), lam))
        elif f.basis == "s":
            val = _schur_at_ones(lam, k)
        else:  # p
            val = k ** lam.length
        total += c * val
    return _normalize_coeff(total)


# -- serialization ------------------------------------------------------------


def to_json_dict(f: SymFunc) -> dict:
    """Stable JSON form: terms sorted descending, coefficients as strings."""
    return {
        "basis": f.basis,
        "degree": f.degree,
        "terms": [
            {"partition": list(lam), "coeff": str(c)} for lam, c in f.terms_sorted()
        ],
    }


# One element of to_json_dict's "terms" as json.dumps(indent=2) lays it out
# in a top-level payload: the term at depth two, its parts one to a line at
# depth four.  A coefficient's str holds only digits, "-" and "/", so
# quoting it equals json.dumps(str(c)).
_JSON_TERM = '    {\n      "partition": [\n        %s\n      ],\n      "coeff": "%s"\n    }'
_JSON_TERM_NO_PARTS = '    {\n      "partition": [],\n      "coeff": "%s"\n    }'


def _json_text(head: dict, f: SymFunc) -> str:
    """``json.dumps(head | to_json_dict(f), indent=2)`` byte for byte.
    With any indent json falls back to its pure-Python encoder, one
    generator step per token; here each term of f fills one fixed template,
    straight from its partition and coefficient, and each field of ``head``
    is indented one level by shifting its own lines."""
    fields = [
        f"  {json.dumps(key)}: " + json.dumps(value, indent=2).replace("\n", "\n  ")
        for key, value in head.items()
    ]
    fields.append(f'  "basis": {json.dumps(f.basis)}')
    fields.append(f'  "degree": {f.degree}')
    terms = [
        _JSON_TERM % (",\n        ".join(map(str, lam)), c) if lam else _JSON_TERM_NO_PARTS % c
        for lam, c in sorted(f.terms.items(), reverse=True)
    ]
    fields.append('  "terms": ' + ("[\n" + ",\n".join(terms) + "\n  ]" if terms else "[]"))
    return "{\n" + ",\n".join(fields) + "\n}"


def from_json_dict(d: dict) -> SymFunc:
    from fractions import Fraction

    terms: dict[Partition, Coeff] = {}
    for t in d["terms"]:
        lam = Partition(t["partition"])
        c = _normalize_coeff(Fraction(t["coeff"]))
        terms[lam] = terms.get(lam, 0) + c
    return SymFunc(d["basis"], d["degree"], terms)
