"""Brute-force oracles for the test suite.

Each oracle recomputes a quantity straight from its combinatorial
definition — colorings enumerated one at a time, tableaux filled cell by
cell, set partitions walked as restricted-growth strings — sharing no
code with the library, so agreement is a genuine cross-check rather than
the same formula evaluated twice.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod

from cslab import Partition, SymFunc

# -- exact polynomials in a fixed number of variables --------------------------
# A polynomial is a dict mapping exponent vectors (tuples of fixed length)
# to integer coefficients; zero coefficients are dropped.


def poly_one(nv: int) -> dict:
    return {(0,) * nv: 1}


def poly_add_into(total: dict, block: dict, scale: int) -> None:
    for expo, coeff in block.items():
        value = total.get(expo, 0) + scale * coeff
        if value:
            total[expo] = value
        else:
            total.pop(expo, None)


def poly_mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for ea, ca in f.items():
        for eb, cb in g.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            value = out.get(key, 0) + ca * cb
            if value:
                out[key] = value
            else:
                out.pop(key, None)
    return out


def distinct_permutations(pool):
    """Distinct rearrangements of a multiset, without generating duplicates."""
    pool = sorted(pool)
    n = len(pool)
    remaining = {}
    for item in pool:
        remaining[item] = remaining.get(item, 0) + 1
    prefix: list = []

    def rec():
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for item in sorted(remaining):
            if remaining[item]:
                remaining[item] -= 1
                prefix.append(item)
                yield from rec()
                prefix.pop()
                remaining[item] += 1

    yield from rec()


def monomial_poly(lam, nv: int) -> dict:
    """m_lam in nv variables: one monomial per distinct rearrangement."""
    if len(lam) > nv:
        return {}
    padded = tuple(lam) + (0,) * (nv - len(lam))
    return {expo: 1 for expo in distinct_permutations(padded)}


def elementary_poly(k: int, nv: int) -> dict:
    """e_k in nv variables: squarefree monomials over k-subsets."""
    if k == 0:
        return poly_one(nv)
    out = {}
    for subset in combinations(range(nv), k):
        expo = [0] * nv
        for i in subset:
            expo[i] = 1
        out[tuple(expo)] = 1
    return out


def power_poly(k: int, nv: int) -> dict:
    """p_k in nv variables: k-th powers of single variables."""
    out = {}
    for i in range(nv):
        expo = [0] * nv
        expo[i] = k
        out[tuple(expo)] = 1
    return out


def ssyt_contents(shape, nv: int):
    """Content vectors of all semistandard fillings of the shape with
    entries in 1..nv: rows weakly increase, columns strictly increase."""
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    grid: dict = {}

    def rec(i):
        if i == len(cells):
            content = [0] * nv
            for value in grid.values():
                content[value - 1] += 1
            yield tuple(content)
            return
        r, c = cells[i]
        lo = 1
        if c:
            lo = max(lo, grid[(r, c - 1)])
        if r:
            lo = max(lo, grid[(r - 1, c)] + 1)
        for value in range(lo, nv + 1):
            grid[(r, c)] = value
            yield from rec(i + 1)
            del grid[(r, c)]

    yield from rec(0)


def schur_poly(lam, nv: int) -> dict:
    out: dict = {}
    for content in ssyt_contents(lam, nv):
        out[content] = out.get(content, 0) + 1
    return out


def brute_kostka(shape, content) -> int:
    """Number of semistandard fillings of the shape with the given content."""
    content = tuple(content)
    return sum(1 for c in ssyt_contents(shape, len(content)) if c == content)


def brute_border_strips(nu, k: int) -> dict:
    """Every shape lam containing nu with k more cells whose skew cells are
    edge-connected and hold no 2x2 square, mapped to (-1)^(rows - 1)."""
    nu = tuple(nu)
    rows = len(nu) + k
    bound = list(nu) + [0] * k
    out: dict = {}

    def shapes(i, left, prev):
        if i == rows:
            if not left:
                yield ()
            return
        for width in range(bound[i], min(prev, bound[i] + left) + 1):
            for rest in shapes(i + 1, left - (width - bound[i]), width):
                yield (width,) + rest

    for widths in shapes(0, k, (nu[0] if nu else 0) + k):
        cells = {(r, c) for r, w in enumerate(widths) for c in range(bound[r], w)}
        start = next(iter(cells))
        seen, stack = {start}, [start]
        while stack:
            r, c = stack.pop()
            for cell in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if cell in cells and cell not in seen:
                    seen.add(cell)
                    stack.append(cell)
        square = any(
            {(r + 1, c), (r, c + 1), (r + 1, c + 1)} <= cells for r, c in cells
        )
        if seen == cells and not square:
            lam = tuple(w for w in widths if w)
            out[lam] = (-1) ** (len({r for r, _ in cells}) - 1)
    return out


def expand_symfunc(f: SymFunc, nv: int) -> dict:
    """The polynomial a symmetric function restricts to in nv variables."""
    total: dict = {}
    for lam, coeff in f.terms.items():
        if f.basis == "m":
            block = monomial_poly(lam, nv)
        elif f.basis == "e":
            block = poly_one(nv)
            for part in lam:
                block = poly_mul(block, elementary_poly(part, nv))
        elif f.basis == "p":
            block = poly_one(nv)
            for part in lam:
                block = poly_mul(block, power_poly(part, nv))
        elif f.basis == "s":
            block = schur_poly(lam, nv)
        else:
            raise ValueError(f"unknown basis {f.basis!r}")
        poly_add_into(total, block, coeff)
    return total


# -- graph-side oracles --------------------------------------------------------


def csf_by_colorings(G, nv: int) -> dict:
    """The CSF restricted to nv variables, one proper coloring at a time."""
    out: dict = {}
    for coloring in product(range(nv), repeat=G.n):
        if any(coloring[u] == coloring[v] for u, v in G.edges):
            continue
        expo = [0] * nv
        for color in coloring:
            expo[color] += 1
        key = tuple(expo)
        out[key] = out.get(key, 0) + 1
    return out


def chromatic_by_colorings(G, k: int) -> int:
    count = 0
    for coloring in product(range(k), repeat=G.n):
        if all(coloring[u] != coloring[v] for u, v in G.edges):
            count += 1
    return count


def set_partitions(n: int):
    """All set partitions of {0..n-1} as restricted-growth strings."""
    assign = [0] * n

    def rec(i, used):
        if i == n:
            yield tuple(assign)
            return
        for block in range(used + 1):
            assign[i] = block
            yield from rec(i + 1, used + 1 if block == used else used)

    if n == 0:
        yield ()
        return
    yield from rec(1, 1)


def brute_stable_type_counts(G) -> dict:
    """Stable-partition counts by type, checking block independence edge
    by edge over every set partition of the vertices."""
    out: dict = {}
    for assign in set_partitions(G.n):
        if any(assign[u] == assign[v] for u, v in G.edges):
            continue
        sizes = [0] * (max(assign) + 1 if assign else 0)
        for block in assign:
            sizes[block] += 1
        lam = Partition(sorted(sizes, reverse=True))
        out[lam] = out.get(lam, 0) + 1
    return out


def brute_connected_partition(G) -> set:
    """The types lam for which G has a connected partition of type lam:
    every set partition of the vertices whose blocks each induce a
    connected subgraph, with connectivity checked by a walk inside the
    block."""
    neighbours = {v: set() for v in range(G.n)}
    for u, v in G.edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    connected: dict = {}

    def is_connected(block: frozenset) -> bool:
        if block not in connected:
            start = next(iter(block))
            seen, stack = {start}, [start]
            while stack:
                for w in neighbours[stack.pop()] & block - seen:
                    seen.add(w)
                    stack.append(w)
            connected[block] = seen == block
        return connected[block]

    types = set()
    for assign in set_partitions(G.n):
        blocks = [set() for _ in range(max(assign) + 1 if assign else 0)]
        for v, block in enumerate(assign):
            blocks[block].add(v)
        if all(is_connected(frozenset(block)) for block in blocks):
            types.add(Partition(sorted(map(len, blocks), reverse=True)))
    return types


# -- family-recurrence oracles --------------------------------------------------
# Elementary-basis CSFs of two small tree families by their one-step
# edge-addition identities, built from a path series computed here from
# its recurrence.  Terms are dicts from descending part tuples to integers.


def _e_product(f: dict, g: dict) -> dict:
    out: dict = {}
    for lam, a in f.items():
        for mu, b in g.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return out


def _e_combine(*scaled) -> dict:
    out: dict = {}
    for scale, f in scaled:
        for lam, c in f.items():
            out[lam] = out.get(lam, 0) + scale * c
    return {lam: c for lam, c in out.items() if c}


def path_e_terms(n: int) -> dict:
    """X(P_n) = e_n + sum over k in 2..n of (k-1) e_k X(P_{n-k})."""
    series = [{(): 1}]
    for m in range(1, n + 1):
        terms = {(m,): 1}
        for k in range(2, m + 1):
            for lam, c in _e_product({(k,): k - 1}, series[m - k]).items():
                terms[lam] = terms.get(lam, 0) + c
        series.append(terms)
    return series[n]


def pendant_spider_e(a: int, b: int) -> SymFunc:
    """The spider S(a, b, 1), a >= b >= 1, as
    e_1 X(P_{N-1}) + X(P_N) - X(P_{a+1}) X(P_{b+1}) with N = a+b+2."""
    N = a + b + 2
    terms = _e_combine(
        (1, _e_product({(1,): 1}, path_e_terms(N - 1))),
        (1, path_e_terms(N)),
        (-1, _e_product(path_e_terms(a + 1), path_e_terms(b + 1))),
    )
    return SymFunc("e", N, {Partition(lam): c for lam, c in terms.items()})


def odd_broom_e(handle: int) -> SymFunc:
    """The broom br(handle, 2) with odd handle 2a-1, as
    e_1 X(P_{2a+1}) + X(P_{2a+2}) - 2 e_2 X(P_{2a})."""
    a = (handle + 1) // 2
    terms = _e_combine(
        (1, _e_product({(1,): 1}, path_e_terms(2 * a + 1))),
        (1, path_e_terms(2 * a + 2)),
        (-2, _e_product({(2,): 1}, path_e_terms(2 * a))),
    )
    return SymFunc("e", handle + 3, {Partition(lam): c for lam, c in terms.items()})


# -- orientations of forests --------------------------------------------------
# Polynomials in the number of sinks are lists of integer coefficients.


def _sink_add(f: list, g: list) -> list:
    if len(f) < len(g):
        f, g = g, f
    return [a + b for a, b in zip(f, g)] + f[len(g):]


def _sink_mul(f: list, g: list) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def orientations_by_sinks(G) -> list:
    """Entry j counts the orientations of the forest G with j sinks, for
    j in 0..n.  Every orientation of a forest is acyclic, so by Stanley's
    sink theorem (Adv. Math. 111, 1995, Thm 3.3) entry j is also the sum of
    X_G's e-coefficients over the partitions with j parts.

    Each component is rooted and walked leaves first.  A vertex keeps two
    polynomials that count the sinks strictly below it: orientations of
    its subtree in which it has an edge out to a child, and those in which
    it has none.  Whether it is a sink itself is settled by the edge to its
    parent (or, at the root, by the second polynomial alone)."""
    neighbours = {v: [] for v in range(G.n)}
    for u, v in G.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    total, seen = [1], set()
    for root in range(G.n):
        if root in seen:
            continue
        seen.add(root)
        order, children = [root], {}
        for v in order:
            children[v] = [w for w in neighbours[v] if w not in seen]
            seen.update(children[v])
            order.extend(children[v])
        states = {}
        for v in reversed(order):
            none, any_way = [1], [1]
            for w in children[v]:
                out, sink = states.pop(w)
                # w -> v: w has an edge out, so it is no sink.
                towards = _sink_add(out, sink)
                # v -> w: w is a sink when it has no edge out to a child.
                away = _sink_add(out, [0] + sink)
                none = _sink_mul(none, towards)
                any_way = _sink_mul(any_way, _sink_add(towards, away))
            states[v] = (_sink_add(any_way, [-c for c in none]), none)
        out, sink = states[root]
        total = _sink_mul(total, _sink_add(out, [0] + sink))
    return (total + [0] * G.n)[:G.n + 1]


# -- arithmetic oracles --------------------------------------------------------


def partition_count(n: int) -> int:
    """p(n) by the pentagonal-number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def _parts(left: int, cap: int):
    """The partitions of ``left`` with parts at most ``cap``, as tuples in
    reverse-lexicographic descending order."""
    if not left:
        yield ()
    for first in range(min(left, cap), 0, -1):
        for rest in _parts(left - first, first):
            yield (first,) + rest


def newton_power_in_e(k: int) -> list:
    """p_k in the e basis by its closed form: the coefficient of e_lam, for
    lam a partition of k, is (-1)^(k - l) k (l - 1)! / prod_i m_i(lam)!,
    with l the length of lam and m_i its part multiplicities.  Returns
    (lam, coefficient) pairs, lam in reverse-lexicographic descending order."""
    out = []
    for lam in _parts(k, k):
        ell = len(lam)
        coeff = k * factorial(ell - 1) // prod(factorial(lam.count(part)) for part in set(lam))
        out.append((lam, (-1) ** (k - ell) * coeff))
    return out


@lru_cache(maxsize=None)
def elementary_in_power(k: int) -> dict:
    """e_k in the p basis by its closed form: the sum over partitions lam
    of k of (-1)^(k - l) p_lam / z_lam, with l the length of lam and
    z_lam = prod_i i^(m_i) m_i! the size of the centraliser of a
    permutation of cycle type lam.  Returns {lam: Fraction}; callers must
    not change it, since it is memoised."""
    out = {}
    for lam in _parts(k, k):
        z = prod(part ** lam.count(part) * factorial(lam.count(part)) for part in set(lam))
        out[lam] = Fraction((-1) ** (k - len(lam)), z)
    return out


def e_terms_in_power(terms: dict) -> dict:
    """An e-basis function, given as {lam: coefficient}, in the p basis:
    each e_lam multiplied out part by part from ``elementary_in_power``,
    where a product of power sums concatenates their indices."""
    out: dict = {}
    for lam, c in terms.items():
        block = {(): c}
        for part in lam:
            grown: dict = {}
            for mu, a in block.items():
                for nu, b in elementary_in_power(part).items():
                    key = tuple(sorted(mu + nu, reverse=True))
                    grown[key] = grown.get(key, 0) + a * b
            block = grown
        for mu, a in block.items():
            out[mu] = out.get(mu, 0) + a
    return {mu: c for mu, c in out.items() if c}


def brute_representable(k: int, n: int) -> bool:
    """Whether n = x*k + y*(k+1) has a nonnegative solution, by search."""
    return any(
        (n - y * (k + 1)) % k == 0
        for y in range(n // (k + 1) + 1)
        if n - y * (k + 1) >= 0
    )


def tree_chromatic(n: int, k: int) -> int:
    return k * (k - 1) ** (n - 1) if n else 1


def cycle_chromatic(n: int, k: int) -> int:
    return (k - 1) ** n + (-1) ** n * (k - 1)


def falling_factorial(k: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= k - i
    return out
