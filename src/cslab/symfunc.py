"""Homogeneous symmetric functions with exact coefficients.

A SymFunc is a finite formal combination of basis elements indexed by
partitions of a fixed degree, in one of four classical bases:

- ``m``: monomial
- ``e``: elementary
- ``p``: power sum
- ``s``: Schur

Coefficients are exact (int, promoted to Fraction only when division
occurs).  Basis changes never solve a dense linear system.  p->e, p->s,
p->m and e->m share one engine: Horner's rule over the parts of the whole
function, so terms that share parts share the products of the parts they
have in common.  Only its step differs by pair: multiplying by one p_k in
e (Newton's identity; indices concatenate, since e is multiplicative), by
one p_k in s (signed border strips, the Murnaghan-Nakayama rule), or by
one p_k or e_k in m.  s->m goes term by term through Kostka numbers,
since s is not multiplicative.  Every other change of basis goes through m
and then peels the reverse-lexicographically extreme term of the
residual, subtracting the matching pivot expansion, which is valid
because the transition matrices are triangular with respect to dominance
order and reverse-lexicographic order refines dominance.
"""

from __future__ import annotations

import json
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


def _times_elementary(terms: Mapping[Partition, Coeff], k: int, size: int, out: dict) -> None:
    """Add the m-basis terms times e_k (= the squarefree monomial sum) into
    ``out``.

    Multiplying a fixed monomial by k distinct variables bumps some existing
    exponents by one and introduces the rest as new exponent-1 variables.
    The choice is a bump count per exponent value; the resulting coefficient
    counts which variables of the product monomial were bumped.
    """
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


def _times_power(terms: Mapping[Partition, Coeff], k: int, size: int, out: dict) -> None:
    """Add the m-basis terms times p_k (= the k-th power sum) into ``out``.

    The single power either lands on a fresh variable or raises one existing
    exponent value by k; the coefficient counts the positions of the product
    monomial that could have received it.
    """
    for rho, c in terms.items():
        for v in {0, *rho}:
            parts = list(rho)
            if v:
                parts.remove(v)
            parts.append(v + k)
            mu = Partition(sorted(parts, reverse=True))
            out[mu] = out.get(mu, 0) + c * mu.count(v + k)


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
    out = []
    for mu in enumerate_partitions(lam.n):
        k = kostka_number(lam, mu)
        if k:
            out.append((mu, k))
    return tuple(sorted(out, reverse=True))


# -- power sums into the e and s bases, on integer keys ---------------------
#
# The e keys are packed multiplicity integers, so a product of two terms is
# one integer addition.  The s keys are degree-n beta-sets, bitmasks with
# the bead of row i at bit lam_i - i + n, so adding a k-strip moves one bead
# k places up (the abacus form of Murnaghan-Nakayama).  The keys of a
# result become Partitions only at the end, each through a memo.


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


def _times_newton(terms: Mapping[int, Coeff], k: int, width: int, out: dict) -> None:
    """Add the packed e-terms times p_k, in Newton's expansion, into ``out``."""
    power = _power_in_e(k, width)
    get = out.get
    for lam, c in terms.items():
        for nu, d in power:
            key = lam + nu
            out[key] = get(key, 0) + c * d


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


def _times_strips(terms: Mapping[int, Coeff], k: int, n: int, out: dict) -> None:
    """Add the s-terms, keyed by degree-n beta-sets, times p_k into ``out``:
    p_k s_nu is the signed sum of s_lam over the k-strips lam/nu."""
    get = out.get
    for nu, c in terms.items():
        for lam, sign in _add_strips(nu, k):
            out[lam] = get(lam, 0) + sign * c


# -- Horner's rule over the parts --------------------------------------------
#
# A function in a multiplicative basis is f = sum over k of g_k times the
# k-th generator (p_k or e_k), where g_k holds f's terms whose largest part
# is k, with that part taken out.  Each g_k is converted the same way and
# multiplied by the generator once, so terms that share parts share the
# work of converting them.  A group holding a single term reads that term's
# memoised row instead; only such lone terms are memoised, and small
# functions consist mostly of them.
#
# Only the step differs from one pair of bases to the next: step(terms, k,
# size, out) adds the target-basis terms times the k-th generator into
# out.  ``size`` is what the target's keys need beyond themselves, and all
# that a row depends on beyond its index: the field width of packed e keys
# (bits per part multiplicity), the degree of s beta-sets, and 0 for m.

_STEPS = {
    ("p", "e"): _times_newton,
    ("p", "s"): _times_strips,
    ("p", "m"): _times_power,
    ("e", "m"): _times_elementary,
}


@lru_cache(maxsize=None)
def _row(pair: tuple[str, str], size: int, mu: tuple) -> tuple[tuple[object, Coeff], ...]:
    """The basis element of ``pair``'s source indexed by mu, in its target:
    the row of mu without its largest part, times that part's generator."""
    if not mu:
        # The constant 1; the empty shape's n beads fill bits 1..n.
        return (({"m": Partition(), "e": 0, "s": (1 << size + 1) - 2}[pair[1]], 1),)
    out: dict = {}
    _STEPS[pair](dict(_row(pair, size, mu[1:])), mu[0], size, out)
    return tuple((key, c) for key, c in out.items() if c)


def _horner(pair: tuple[str, str], size: int, terms: Mapping[tuple, Coeff]) -> dict:
    """The terms of ``pair``'s source in its target, keyed as its step keys
    them: group them by their largest part k, convert each group's
    remainder the same way, and take one step by k per group."""
    groups: dict[tuple, dict[tuple, Coeff]] = {}
    for mu, c in terms.items():
        groups.setdefault(mu[:1], {})[mu] = c
    out: dict = {}
    get = out.get
    for first, group in groups.items():
        if len(group) == 1:
            [(mu, c)] = group.items()
            for key, d in _row(pair, size, mu):
                out[key] = get(key, 0) + c * d
            continue
        rest = _horner(pair, size, {mu[1:]: c for mu, c in group.items()})
        _STEPS[pair](rest, first[0], size, out)
    return out


def _from_p(f: SymFunc, target: str) -> SymFunc:
    """The power-sum function f in the e or s basis."""
    if target == "s":
        n = f.degree
        terms = _horner(("p", "s"), n, f.terms)
        return SymFunc("s", n, {_beads_shape(lam, n): c for lam, c in terms.items() if c})
    # Bits per part multiplicity: a byte, as in the family recurrences,
    # unless a multiplicity could overflow it.
    width = max(8, f.degree.bit_length())
    packed = _horner(("p", "e"), width, f.terms)
    return SymFunc("e", f.degree, {_unpack(key, width): c for key, c in packed.items() if c})


# -- change of basis ---------------------------------------------------------


def _to_m(f: SymFunc) -> SymFunc:
    """f in the m basis: by Horner's rule from e and p, and term by term
    through Kostka numbers from s, which is not multiplicative."""
    if f.basis in ("e", "p"):
        return SymFunc("m", f.degree, _horner((f.basis, "m"), 0, f.terms))
    if f.basis == "m":
        return f
    out: dict[Partition, Coeff] = {}
    for lam, c in f.terms.items():
        for mu, d in _s_to_m_terms(lam):
            out[mu] = out.get(mu, 0) + c * d
    return SymFunc("m", f.degree, out)


def _peel_from_m(fm: SymFunc, target: str) -> SymFunc:
    """Express an m-basis function in the target basis by triangular peeling.

    For e and s the pivot expansion's reverse-lexicographically greatest
    monomial term is the residual's greatest term with a unit diagonal
    (conjugate pivot for e); for p the pivot expansion's least term is the
    residual's least term.  Any failure to cancel means the triangularity
    assumption was violated, which indicates a bug, and raises
    SingularSystem rather than returning a wrong answer.
    """
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
        exp = _s_to_m_terms(pivot) if target == "s" else _row((target, "m"), 0, pivot)
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

    p->e, p->s, p->m and e->m run Horner's rule over f's parts.  s->m goes
    term by term through Kostka numbers, and every other pair goes through
    m and, unless m is the target, triangular peeling from there.  Refuses
    degrees above ``cap``: the number of partitions, and with it the
    implicit transition system, grows too fast for a full expansion to be
    a sensible default there.
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


# One element of to_json_dict's "terms" as json.dumps(indent=2) lays it out
# in a top-level payload: the term at depth two, its parts one to a line at
# depth four.
_JSON_TERM = '    {\n      "partition": [\n        %s\n      ],\n      "coeff": %s\n    }'
_JSON_TERM_NO_PARTS = '    {\n      "partition": [],\n      "coeff": %s\n    }'


def _json_term(term: dict) -> str:
    coeff = json.dumps(term["coeff"])
    if not term["partition"]:
        return _JSON_TERM_NO_PARTS % coeff
    return _JSON_TERM % (",\n        ".join(map(str, term["partition"])), coeff)


def _json_text(payload: dict) -> str:
    """``json.dumps(payload, indent=2)`` byte for byte, for the form of
    ``to_json_dict`` with any further fields, in the payload's key order.
    With any indent json falls back to its pure-Python encoder, one
    generator step per token; here each term fills one fixed template, and
    every other field is indented one level by shifting its own lines."""
    fields = []
    for key, value in payload.items():
        if key == "terms" and value:
            text = "[\n" + ",\n".join(map(_json_term, value)) + "\n  ]"
        else:
            text = json.dumps(value, indent=2).replace("\n", "\n  ")
        fields.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}"


def from_json_dict(d: dict) -> SymFunc:
    terms: dict[Partition, Coeff] = {}
    for t in d["terms"]:
        lam = Partition(t["partition"])
        c = _normalize_coeff(Fraction(t["coeff"]))
        terms[lam] = terms.get(lam, 0) + c
    return SymFunc(d["basis"], d["degree"], terms)
