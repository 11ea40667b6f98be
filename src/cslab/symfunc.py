"""Homogeneous symmetric functions with exact coefficients.

A SymFunc is a finite formal combination of basis elements indexed by
partitions of a fixed degree, in one of four classical bases:

- ``m``: monomial
- ``e``: elementary
- ``p``: power sum
- ``s``: Schur

Coefficients are exact (int, promoted to Fraction only when division
occurs).  Basis changes never solve a dense linear system.  A power-sum
function goes straight to e or s: p_mu is a product of power sums, each p_k
is written in the e basis by Newton's identity (indices concatenate, since
e is multiplicative), and multiplying a Schur function by p_k adds signed
border strips (the Murnaghan-Nakayama rule).  The whole function is
converted at once, by Horner's rule over its parts, so its terms share the
products of the parts they have in common.  On one core of a shared 2-core
host (CPython 3.11, raw times, cold memos) p->e and p->s took 0.14 s and
0.20 s with a peak RSS of 31 MB on the 24-vertex tree dbroom:2,18,3
(1,558 power-sum terms), where converting term by term took 2.8 s and
8.5 s and 701 MB.  Every other change of basis goes through m and then
peels the reverse-lexicographically extreme term of the residual,
subtracting the matching pivot expansion, which is valid because the
transition matrices are triangular with respect to dominance order and
reverse-lexicographic order refines dominance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, perm
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .errors import BasisMismatch, DegreeMismatch, EmptyFunction, SingularSystem, TooLarge
from .partitions import Partition, enumerate_partitions, sort_to_partition

BASES = ("m", "e", "p", "s")

#: Largest degree change_basis will expand by default; full-basis work above
#: this should go through targeted-coefficient routes instead.
DEFAULT_DEGREE_CAP = 24

Coeff = Union[int, Fraction]


def _normalize_coeff(c: Coeff) -> Coeff:
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


def _exact_div(c: Coeff, d: Coeff) -> Coeff:
    return _normalize_coeff(Fraction(c) / Fraction(d))


@dataclass(frozen=True)
class SymFunc:
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
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
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
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented


# -- multiplying m-basis term dicts by one e_k or p_k -------------------------


def _times_elementary(terms: Mapping[Partition, Coeff], k: int) -> dict[Partition, Coeff]:
    """Multiply an m-basis term dict by e_k (= the squarefree monomial sum).

    Multiplying a fixed monomial by k distinct variables bumps some existing
    exponents by one and introduces the rest as new exponent-1 variables.
    The choice is a bump count per exponent value; the resulting coefficient
    counts which variables of the product monomial were bumped.
    """
    out: dict[Partition, Coeff] = {}
    for rho, c in terms.items():
        vals = rho.multiplicities().pairs
        stack: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [(0, k, ())]
        while stack:
            i, left, chosen = stack.pop()
            if i == len(vals):
                bumps = dict(chosen)
                bumps[0] = left
                counts = dict(vals)
                for v, u in bumps.items():
                    if not u:
                        continue
                    if v:
                        counts[v] -= u
                    counts[v + 1] = counts.get(v + 1, 0) + u
                weight = 1
                for v, u in bumps.items():
                    if u:
                        weight *= comb(counts[v + 1], u)
                parts: list[int] = []
                for v, m in counts.items():
                    if m:
                        parts.extend([v] * m)
                mu = Partition(sorted(parts, reverse=True))
                out[mu] = out.get(mu, 0) + c * weight
                continue
            v, mult = vals[i]
            for u in range(0, min(left, mult) + 1):
                stack.append((i + 1, left - u, chosen + ((v, u),)))
    return out


def _times_power(terms: Mapping[Partition, Coeff], k: int) -> dict[Partition, Coeff]:
    """Multiply an m-basis term dict by p_k (= the k-th power sum).

    The single power either lands on a fresh variable or raises one existing
    exponent value by k; the coefficient counts the positions of the product
    monomial that could have received it.
    """
    out: dict[Partition, Coeff] = {}
    for rho, c in terms.items():
        values = sorted(set(rho)) + [0]
        seen: set[Partition] = set()
        for v in values:
            if v in seen:
                continue
            parts = list(rho)
            if v:
                parts.remove(v)
            parts.append(v + k)
            mu = Partition(sorted(parts, reverse=True))
            weight = sum(1 for p in mu if p == v + k)
            out[mu] = out.get(mu, 0) + c * weight
            seen.add(v)
    return out


# -- single-basis-element expansions into the monomial basis -----------------


@lru_cache(maxsize=None)
def _e_to_m_terms(lam: Partition) -> tuple[tuple[Partition, Coeff], ...]:
    if not lam:
        return ((Partition(), 1),)
    base = dict(_e_to_m_terms(Partition(lam[:-1])))
    return tuple(sorted(_times_elementary(base, lam[-1]).items(), reverse=True))


@lru_cache(maxsize=None)
def _p_to_m_terms(lam: Partition) -> tuple[tuple[Partition, Coeff], ...]:
    if not lam:
        return ((Partition(), 1),)
    base = dict(_p_to_m_terms(Partition(lam[:-1])))
    return tuple(sorted(_times_power(base, lam[-1]).items(), reverse=True))


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
    out = []
    for mu in enumerate_partitions(lam.n):
        k = kostka_number(lam, mu)
        if k:
            out.append((mu, k))
    return tuple(sorted(out, reverse=True))


_EXPANSIONS = {
    "e": _e_to_m_terms,
    "p": _p_to_m_terms,
    "s": _s_to_m_terms,
}


# -- power sums straight into the e and s bases ------------------------------
#
# Both conversions run Horner's rule over the parts of the whole function:
# f = sum over k of p_k g_k, where g_k holds f's terms whose largest part
# is k, with that part taken out.  Each g_k is converted the same way and
# multiplied by p_k once, so terms that share parts share the work of
# converting them.  A group holding a single term takes that term's
# memoised row instead; only such lone terms are memoised, and small
# functions consist mostly of them.  The s tables key shapes by degree-n
# beta-sets, bitmasks with the bead of row i at bit lam_i - i + n, so adding
# a k-strip moves one bead k places up (the abacus form of
# Murnaghan-Nakayama); the e tables key terms by packed multiplicity
# integers, so a product of two terms is one integer addition.  The keys of
# the result become Partitions only at the end, each through a memo.


@lru_cache(maxsize=None)
def _power_in_e(k: int, width: int) -> tuple[tuple[int, int], ...]:
    """p_k in the e basis by Newton's identity, with packed keys (the
    multiplicity of part j takes the ``width`` bits at offset j * width):
    the coefficient of e_lam, for lam a partition of k, is
    (-1)^(k - l) k (l - 1)! / prod_i m_i(lam)! with l the length of lam and
    m_i its part multiplicities."""
    out = []
    for lam in enumerate_partitions(k):
        ell = lam.length
        coeff = k * factorial(ell - 1) // lam.multiplicity_factorial()
        key = sum(1 << width * part for part in lam)
        out.append((key, -coeff if (k - ell) % 2 else coeff))
    return tuple(out)


@lru_cache(maxsize=None)
def _p_to_e_row(mu: tuple, width: int) -> tuple[tuple[int, Coeff], ...]:
    """p_mu in the e basis, packed: the row of mu without its largest part
    times the Newton expansion of that part."""
    if not mu:
        return ((0, 1),)
    out: dict[int, Coeff] = {}
    get = out.get
    power = _power_in_e(mu[0], width)
    for lam, c in _p_to_e_row(mu[1:], width):
        for nu, d in power:
            key = lam + nu
            out[key] = get(key, 0) + c * d
    return tuple((key, c) for key, c in out.items() if c)


def _p_to_e(terms: Mapping[tuple, Coeff], width: int) -> dict[int, Coeff]:
    """The packed e-terms of the p-terms ``terms``: group them by their
    largest part k, convert each group's remainder the same way, and
    multiply it by Newton's p_k once per group."""
    groups: dict[tuple, dict[tuple, Coeff]] = {}
    for mu, c in terms.items():
        groups.setdefault(mu[:1], {})[mu] = c
    out: dict[int, Coeff] = {}
    get = out.get
    for first, group in groups.items():
        if len(group) == 1:
            [(mu, c)] = group.items()
            for key, d in _p_to_e_row(mu, width):
                out[key] = get(key, 0) + c * d
            continue
        power = _power_in_e(first[0], width)
        for lam, c in _p_to_e({mu[1:]: c for mu, c in group.items()}, width).items():
            if c:
                for nu, d in power:
                    key = lam + nu
                    out[key] = get(key, 0) + c * d
    return out


@lru_cache(maxsize=None)
def _unpack(key: int, width: int) -> Partition:
    """The Partition of a packed e key, peeled from its top field down, so
    the parts come out in decreasing order."""
    parts: list = []
    while key:
        part = (key.bit_length() - 1) // width
        count = key >> part * width
        parts += [part] * count
        key -= count << part * width
    return Partition(parts)


@lru_cache(maxsize=None)
def _beads_shape(beads: int, n: int) -> Partition:
    """The Partition of a degree-n beta-set: the bead of row i sits at bit
    lam_i - i + n, so the beads read from the top give the rows in order."""
    bits = [i for i in range(beads.bit_length()) if beads >> i & 1][::-1]
    return Partition(bit + i - n for i, bit in enumerate(bits) if bit + i > n)


@lru_cache(maxsize=None)
def _add_strips(beads: int, k: int) -> tuple[tuple[int, int], ...]:
    """Each beta-set whose shape adds a border strip of k cells to the shape
    of ``beads``, with the sign (-1)^(rows of the strip - 1).

    Adding a k-strip moves one bead k places up to a free position; the
    strip's rows are that bead's row and the rows of the beads it jumps.
    """
    movable = beads & ~beads >> k
    out = []
    while movable:
        low = movable & -movable
        movable ^= low
        jumped = (beads & (low << k) - (low << 1)).bit_count()
        out.append((beads ^ low ^ low << k, -1 if jumped & 1 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _p_to_s_row(mu: tuple, n: int) -> tuple[tuple[int, Coeff], ...]:
    """p_mu in the s basis, as degree-n beta-sets; the coefficient of s_lam
    is the character chi^lam(mu).  The row of mu without its largest part
    k gains the border strips of size k: p_k s_nu is the signed sum of
    s_lam over the strips lam/nu (Murnaghan-Nakayama)."""
    if not mu:
        # The empty shape: its n beads fill bits 1..n.
        return (((1 << n + 1) - 2, 1),)
    out: dict[int, Coeff] = {}
    get = out.get
    k = mu[0]
    for nu, c in _p_to_s_row(mu[1:], n):
        for lam, sign in _add_strips(nu, k):
            out[lam] = get(lam, 0) + sign * c
    return tuple((lam, c) for lam, c in out.items() if c)


def _p_to_s(terms: Mapping[tuple, Coeff], n: int) -> dict[int, Coeff]:
    """The s-terms of the p-terms ``terms``, keyed by degree-n beta-sets:
    group them by their largest part k, convert each group's remainder the
    same way, and add the k-border strips once per group."""
    groups: dict[tuple, dict[tuple, Coeff]] = {}
    for mu, c in terms.items():
        groups.setdefault(mu[:1], {})[mu] = c
    out: dict[int, Coeff] = {}
    get = out.get
    for first, group in groups.items():
        if len(group) == 1:
            [(mu, c)] = group.items()
            for lam, d in _p_to_s_row(mu, n):
                out[lam] = get(lam, 0) + c * d
            continue
        k = first[0]
        for nu, c in _p_to_s({mu[1:]: c for mu, c in group.items()}, n).items():
            if c:
                for lam, sign in _add_strips(nu, k):
                    out[lam] = get(lam, 0) + sign * c
    return out


def _from_p(f: SymFunc, target: str) -> SymFunc:
    """The power-sum function f in the e or s basis."""
    if target == "s":
        n = f.degree
        return SymFunc("s", n, {_beads_shape(lam, n): c for lam, c in _p_to_s(f.terms, n).items() if c})
    # Bits per part multiplicity: a byte, as in the family recurrences,
    # unless a multiplicity could overflow it.
    width = max(8, f.degree.bit_length())
    packed = _p_to_e(f.terms, width)
    return SymFunc("e", f.degree, {_unpack(key, width): c for key, c in packed.items() if c})


# -- change of basis ---------------------------------------------------------


def _expand(f: SymFunc, expand, basis: str) -> SymFunc:
    """Sum the basis expansions ``expand(lam)`` of f's terms, in ``basis``."""
    out: dict[Partition, Coeff] = {}
    for lam, c in f.terms.items():
        for mu, d in expand(lam):
            val = out.get(mu, 0) + c * d
            if val:
                out[mu] = val
            else:
                out.pop(mu, None)
    return SymFunc(basis, f.degree, out)


def _to_m(f: SymFunc) -> SymFunc:
    if f.basis == "m":
        return f
    return _expand(f, _EXPANSIONS[f.basis], "m")


def _peel_from_m(fm: SymFunc, target: str) -> SymFunc:
    """Express an m-basis function in the target basis by triangular peeling.

    For e and s the pivot expansion's reverse-lexicographically greatest
    monomial term is the residual's greatest term with a unit diagonal
    (conjugate pivot for e); for p the pivot expansion's least term is the
    residual's least term.  Any failure to cancel means the triangularity
    assumption was violated, which indicates a bug, and raises
    SingularSystem rather than returning a wrong answer.
    """
    expand = _EXPANSIONS[target]
    take_greatest = target in ("e", "s")
    residual: dict[Partition, Coeff] = fm.terms.copy()
    out: dict[Partition, Coeff] = {}
    prev: Partition | None = None
    while residual:
        lead = max(residual) if take_greatest else min(residual)
        if prev is not None and not (lead < prev if take_greatest else lead > prev):
            raise SingularSystem(f"peeling did not make progress at {tuple(lead)}")
        prev = lead
        pivot = lead.conjugate() if target == "e" else lead
        exp = expand(pivot)
        diag = dict(exp).get(lead, 0)
        if not diag:
            raise SingularSystem(
                f"pivot {tuple(pivot)} does not reach the leading term {tuple(lead)}"
            )
        coeff = _exact_div(residual[lead], diag)
        out[pivot] = out.get(pivot, 0) + coeff
        for mu, d in exp:
            val = residual.get(mu, 0) - coeff * d
            if val:
                residual[mu] = val
            else:
                residual.pop(mu, None)
        if lead in residual:
            raise SingularSystem(f"leading term {tuple(lead)} failed to cancel")
    return SymFunc(target, fm.degree, out)


def change_basis(f: SymFunc, target: str, cap: int = DEFAULT_DEGREE_CAP) -> SymFunc:
    """Rewrite f in the target basis, exactly.

    A power-sum f goes straight to e (Newton's identity) or s (border
    strips), by Horner's rule over its parts: at 24 vertices a tree's
    p->e and p->s take about 0.14 s and 0.2 s.  Every other pair goes
    through the monomial basis and, unless m is the target, triangular
    peeling from there.  Refuses degrees above ``cap``: the number of
    partitions, and with it the implicit transition system, grows too
    fast for a full expansion to be a sensible default there.
    """
    if target not in BASES:
        raise BasisMismatch(f"unknown basis {target!r}; expected one of {BASES}")
    if f.degree > cap:
        raise TooLarge(f"degree {f.degree} exceeds the basis-change cap {cap}")
    if target == f.basis:
        return f
    if f.basis == "p" and target in ("e", "s"):
        return _from_p(f, target)
    fm = _to_m(f)
    if target == "m":
        return fm
    return _peel_from_m(fm, target)


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
    total: Coeff = Fraction(0)
    for lam, c in f.terms.items():
        if f.basis == "m":
            val: Coeff = Fraction(perm(k, lam.length), lam.multiplicity_factorial())
        elif f.basis == "e":
            val = 1
            for part in lam:
                val *= comb(k, part)
        elif f.basis == "s":
            val = _schur_at_ones(lam, k)
        else:  # p
            val = k ** lam.length
        total += c * val
    return _normalize_coeff(Fraction(total))


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


def from_json_dict(d: dict) -> SymFunc:
    terms: dict[Partition, Coeff] = {}
    for t in d["terms"]:
        lam = Partition(t["partition"])
        c = _normalize_coeff(Fraction(t["coeff"]))
        terms[lam] = terms.get(lam, 0) + c
    return SymFunc(d["basis"], d["degree"], terms)
