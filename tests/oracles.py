"""Independent oracles used by the test suite.

Everything here is deliberately naive: subset enumeration for chains and
faces, Smith normal form over the integers for homology, Fraction-based
Gaussian elimination for ranks, Warshall's pass for transitive closure.
None of it shares code with the library's computation paths, except the
interval criterion, which takes each interval and its order complex from
the public labelled functions, the labelled sweep, which enumerates pairs
naively but checks them with the library's pair report, and the depth of a
monomial quotient by polarization, which reads one complex through the
public depth_stanley_reisner where the library walks Takayama's complexes,
the dimension of a monomial quotient by the radical's Stanley-Reisner
complex, built from the public functions where the library reads the
generator supports, and the tuple walk of Takayama's box, which takes each
leaf's minimal transversals from the library (they are checked against
subset enumeration on their own).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product


def brute_chains(p) -> list[frozenset[str]]:
    """All chains of a poset by subset enumeration (the empty chain included)."""
    elems = list(p.elements)
    chains = []
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            if all(
                p.less(a, b) or p.less(b, a)
                for a, b in combinations(combo, 2)
            ):
                chains.append(frozenset(combo))
    return chains


def direct_numerator(p, q) -> dict[tuple[int, ...], int]:
    """Terms of the top-mu numerator coefficient of the pair (P, Q), as
    exponent tuple -> nonzero coefficient, expanded chain by chain.

    Each chain sigma contributes prod_{sigma} L * prod_{Q - sigma} (-L) *
    prod_{rest} (1 - L), the last product expanded over the subsets of the
    rest.
    """
    elems = list(p.elements)
    qset = frozenset(q)
    terms: dict[tuple[int, ...], int] = {}
    for sigma in brute_chains(p):
        sign = (-1) ** len(qset - sigma)
        rest = [e for e in elems if e not in sigma and e not in qset]
        for r in range(len(rest) + 1):
            for t in combinations(rest, r):
                mono = sigma | qset | set(t)
                key = tuple(int(e in mono) for e in elems)
                terms[key] = terms.get(key, 0) + sign * (-1) ** r
    return {key: c for key, c in terms.items() if c}


def brute_euler_condition_interval(p, q, chains=None) -> bool:
    """chi~((-inf, x)_P) = 0 for every x of P u {inf} outside Q, with each
    chi~ summed over the chains of P inside the lower interval, found by
    subset enumeration (pass brute_chains(p) to reuse it across Q)."""
    chains = brute_chains(p) if chains is None else chains
    below = [
        frozenset(y for y in p.elements if p.less(y, x))
        for x in p.elements
        if x not in q
    ]
    return all(
        sum(-((-1) ** len(c)) for c in chains if c <= low) == 0
        for low in below + [frozenset(p.elements)]
    )


def brute_maximal_chains(p) -> set[frozenset[str]]:
    chains = [c for c in brute_chains(p) if c]
    return {
        c
        for c in chains
        if not any(c < d for d in chains)
    } or ({frozenset()} if not chains else set())


def brute_euler_poset(p) -> int:
    return sum((-1) ** (len(c) - 1) for c in brute_chains(p))


def brute_faces(k) -> set[frozenset[str]]:
    """All faces of a complex from its facet labels, empty face included."""
    faces = set()
    for facet in k.facet_labels():
        for r in range(len(facet) + 1):
            for combo in combinations(facet, r):
                faces.add(frozenset(combo))
    return faces


def brute_euler_complex(k) -> int:
    return sum((-1) ** (len(f) - 1) for f in brute_faces(k))


def rank_fraction(rows: list[list[int]]) -> int:
    """Rank over Q via plain Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        inv = 1 / pr[col]
        m[rank] = [x * inv for x in pr]
        pr = m[rank]
        for i in range(nrows):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
    return rank


def det_fraction(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Gaussian elimination on
    Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return int(det)


def rank_mod_prime(rows: list[list[int]], p: int) -> int:
    """Rank over F_p via plain Gaussian elimination on entries reduced mod p,
    column by column, dividing by the pivot with its inverse mod p."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def smith_normal_form_divisors(rows: list[list[int]]) -> list[int]:
    """Nonzero elementary divisors of an integer matrix.

    Euclid's algorithm on the whole remaining block: move a nonzero entry of
    least absolute value to the pivot, and reduce its column and row modulo
    it.  A nonzero remainder is smaller than the pivot and becomes the next
    pivot, so the pivot falls to the gcd of its row and column.  An entry of
    the block that the pivot does not divide is brought into the pivot row
    by adding its row, and the reduction repeats.  Every multiplier is a
    quotient by the least entry, so the entries stay small: at most 37 bits
    over 3,000 seeded matrices of up to 9 x 9 entries in [-20, 20].
    """
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    divisors = []
    for t in range(min(nrows, ncols)):
        while True:
            entries = [(abs(m[i][j]), i, j) for i in range(t, nrows) for j in range(t, ncols) if m[i][j]]
            if not entries:
                return divisors
            _, i0, j0 = min(entries)
            m[t], m[i0] = m[i0], m[t]
            for row in m:
                row[t], row[j0] = row[j0], row[t]
            pivot = m[t][t]
            for i in range(t + 1, nrows):
                q = m[i][t] // pivot
                if q:
                    m[i] = [a - q * b for a, b in zip(m[i], m[t])]
            for j in range(t + 1, ncols):
                q = m[t][j] // pivot
                if q:
                    for row in m:
                        row[j] -= q * row[t]
            if any(m[i][t] for i in range(t + 1, nrows)) or any(m[t][t + 1:]):
                continue  # a remainder is the new least entry
            bad = next((i for i in range(t + 1, nrows) if any(x % pivot for x in m[i][t + 1:])), None)
            if bad is None:
                break
            m[t] = [a + b for a, b in zip(m[t], m[bad])]
        divisors.append(abs(m[t][t]))
    return divisors


def boundary_matrices(k) -> list[list[list[int]]]:
    """Augmented boundary matrices of a complex, from face labels.

    Index d runs over 0..dim: matrix d maps faces of cardinality d+1 to
    faces of cardinality d (cardinality 0 being the empty face).
    """
    faces = sorted(brute_faces(k), key=lambda f: (len(f), sorted(f)))
    by_card: dict[int, list[tuple[str, ...]]] = {}
    for f in faces:
        by_card.setdefault(len(f), []).append(tuple(sorted(f)))
    maxc = max(by_card)
    matrices = []
    for card in range(1, maxc + 1):
        uppers = by_card.get(card, [])
        lowers = by_card.get(card - 1, [])
        index = {f: i for i, f in enumerate(lowers)}
        mat = [[0] * len(uppers) for _ in lowers]
        for j, f in enumerate(uppers):
            for t in range(len(f)):
                sub = f[:t] + f[t + 1:]
                mat[index[sub]][j] = (-1) ** t
        matrices.append(mat)
    return matrices


def cross_polytope_boundary(d: int) -> tuple[list[str], list[list[str]]]:
    """Vertex and facet labels of the boundary of the d-dimensional
    cross-polytope: a (d-1)-sphere on 2d vertices with 2^d facets, whose
    only reduced homology is one class in degree d-1 in every field.  No
    vertex is dominated, so the strong collapse keeps the whole sphere."""
    vertices = [f"{s}{i}" for i in range(d) for s in "+-"]
    facets = [[s + str(i) for i, s in enumerate(signs)] for signs in product("+-", repeat=d)]
    return vertices, facets


def betti_via_snf(k, char: int) -> dict[int, int]:
    """Reduced Betti numbers over Q (char 0) or F_p from integer SNF."""
    faces = brute_faces(k)
    by_card: dict[int, int] = {}
    for f in faces:
        by_card[len(f)] = by_card.get(len(f), 0) + 1
    maxc = max(by_card)
    mats = boundary_matrices(k)
    ranks = [0] * (maxc + 2)
    for d, mat in enumerate(mats, start=1):
        divs = smith_normal_form_divisors(mat)
        if char == 0:
            ranks[d] = len(divs)
        else:
            ranks[d] = sum(1 for e in divs if e % char)
    betti = {}
    for card in range(maxc + 1):
        upper = ranks[card + 1] if card + 1 <= maxc else 0
        betti[card - 1] = by_card.get(card, 0) - ranks[card] - upper
    return betti


def interval_cm(p, char: int) -> bool:
    """The interval criterion for Cohen-Macaulayness of a poset: every open
    interval of P, formal ends included, has reduced homology only in top
    degree.  Each interval is built as a Poset by open_interval, its order
    complex by order_complex on that subposet, and its homology by integer
    Smith normal form, so neither the library's interval masks nor its
    ranks are used."""
    from srposet import NEG_INF, POS_INF, open_interval, order_complex

    for a in [NEG_INF, *p.elements]:
        for b in [*p.elements, POS_INF]:
            if a is not NEG_INF and b is not POS_INF and not p.less(a, b):
                continue
            k = order_complex(open_interval(p, a, b))
            betti = betti_via_snf(k, char)
            if any(betti.get(i, 0) for i in range(-1, k.dim())):
                return False
    return True


def determinantal_poset(m: int, n: int, t: int):
    """Gamma_t(m x n): the minors [a|b] of size below t of a generic m x n
    matrix, a and b increasing row and column tuples of one size, with
    [a|b] <= [c|d] iff |a| >= |c| and a_i <= c_i, b_i <= d_i for i <= |c|
    (the larger minor lies below).  It generates the algebra with straightening
    law k[X]/I_t, and is a distributive lattice, so its order complex is
    Cohen-Macaulay of dimension (t - 1)(m + n - t + 1) (Bruns and Vetter,
    "Determinantal rings", LNM 1327).  Built through the public Poset
    constructor, which checks that the relation is a closed strict order."""
    from srposet import Poset

    minors = [
        (a, b)
        for k in range(1, t)
        for a in combinations(range(1, m + 1), k)
        for b in combinations(range(1, n + 1), k)
    ]

    def below(x, y):
        (a, b), (c, d) = x, y
        return x != y and len(a) >= len(c) and all(
            a[i] <= c[i] and b[i] <= d[i] for i in range(len(c))
        )

    labels = tuple("".join(map(str, a)) + "|" + "".join(map(str, b)) for a, b in minors)
    lt = tuple(sum(1 << j for j, y in enumerate(minors) if below(x, y)) for x in minors)
    return Poset(labels, lt)


def face_poset(k):
    """The nonempty faces of a complex, ordered by inclusion; its order
    complex is the barycentric subdivision of k."""
    from srposet import Poset

    faces = sorted((f for f in brute_faces(k) if f), key=lambda f: (len(f), sorted(f)))
    labels = tuple(",".join(sorted(f)) for f in faces)
    lt = tuple(sum(1 << j for j, g in enumerate(faces) if f < g) for f in faces)
    return Poset(labels, lt)


def depth_via_polarization(ideal, field) -> int:
    """Depth of S/I by the route Takayama's formula replaces: polarize I,
    take the depth of the Stanley-Reisner ring of the squarefree result, and
    subtract the auxiliary variables, which form a regular sequence.  Built
    from the public polarize, stanley_reisner_complex and
    depth_stanley_reisner; the face ring of {emptyset} is the field, of
    depth 0."""
    from srposet import depth_stanley_reisner, polarize, stanley_reisner_complex

    polarized, aux = polarize(ideal)
    k = stanley_reisner_complex(polarized)
    return (0 if k.facets == (0,) else depth_stanley_reisner(k, field)) - aux


def dim_via_radical(ideal) -> int:
    """Krull dimension of S/I by the route the support count replaces: the
    Stanley-Reisner complex of the radical, every minimal transversal of its
    generators listed, and the largest facet read off."""
    from srposet import krull_dim_stanley_reisner, radical_monomial, stanley_reisner_complex

    return krull_dim_stanley_reisner(stanley_reisner_complex(radical_monomial(ideal)))


def takayama_complexes_naive(gens) -> tuple[tuple[int, ...], ...]:
    """The facet tuples of monomial._takayama_complexes by a walk on tuples:
    a partial b carries the tuple of generators that divide x^b on its
    coordinates, a branch is cut when one of them is 0 on every later
    coordinate, and a leaf's nonfaces are built coordinate by coordinate.
    The same depth-first order as the library's walk (b_j = 0, 1, ...
    pushed in turn), and the same stop after the first facets (0,)."""
    from srposet.monomial import _minimal_transversals

    n = len(gens[0]) if gens else 0
    full = (1 << n) - 1
    rho = [max(g[j] for g in gens) for j in range(n)]
    found: dict[tuple[int, ...], None] = {}
    stack = [((), tuple(gens))]
    while stack:
        b, within = stack.pop()
        j = len(b)
        if j < n:
            for e in range(rho[j]):
                nxt = tuple(g for g in within if g[j] <= e)
                if any(not any(g[j + 1:]) for g in nxt):
                    break
                stack.append(((*b, e), nxt))
            continue
        nonfaces = {sum(1 << i for i in range(n) if g[i] > b[i]) for g in gens}
        facets = tuple(sorted(full & ~t for t in _minimal_transversals(list(nonfaces))))
        found[facets] = None
        if facets == (0,):
            break
    return tuple(found)


def _minimalize(masks) -> tuple[int, ...]:
    uniq = sorted(set(masks), key=lambda m: (m.bit_count(), m), reverse=True)
    out: list[int] = []
    for m in uniq:
        if not any(m & f == m for f in out):
            out.append(m)
    return tuple(sorted(out))


def restart_strong_collapse(facets: tuple[int, ...]) -> tuple[int, ...]:
    """Strong collapse by restarting the scan after every deletion.

    Scans the used vertices from the lowest bit; on the first dominated
    vertex (another vertex lies in every facet containing it) it deletes the
    vertex from every facet, re-minimalizes all facets and starts over.
    Slow, but plainly correct; the library's worklist collapse is compared
    against it.
    """
    current = list(facets)
    changed = True
    while changed:
        changed = False
        used = 0
        for f in current:
            used |= f
        for v in range(used.bit_length()):
            bit = 1 << v
            if not used & bit:
                continue
            inter = ~0
            for f in current:
                if f & bit:
                    inter &= f
            if inter & ~bit:
                current = list(_minimalize([f & ~bit for f in current]))
                changed = True
                break
    return tuple(current)


def warshall_closure(rows: list[int]) -> list[int]:
    """Transitive closure of a relation given by bitmask rows, by
    Warshall's n^2 pass; an element on a cycle ends up related to itself."""
    rows = list(rows)
    for k in range(len(rows)):
        for i in range(len(rows)):
            if (rows[i] >> k) & 1:
                rows[i] |= rows[k]
    return rows


def brute_uplus_rows(p, qmask: int) -> list[int]:
    """The relation rows of P (+) Q, Q given by the bitmask qmask, from
    p.less and the definition alone: P's elements in their order, then x*
    for each x in Q in index order; x* < y* iff x < y, x* < y iff x <= y,
    P keeps its order, and no element of P lies below a star."""
    elems = list(p.elements)
    q = [e for i, e in enumerate(elems) if (qmask >> i) & 1]
    # (label, starred) for each element of P (+) Q, in index order
    nodes = [(e, False) for e in elems] + [(e, True) for e in q]

    def below(a, b) -> bool:
        (x, x_star), (y, y_star) = a, b
        if not x_star:
            return not y_star and p.less(x, y)
        return p.less(x, y) if y_star else x == y or p.less(x, y)

    return [sum(1 << j for j, b in enumerate(nodes) if below(a, b)) for a in nodes]


def labelled_sweep(max_elements: int, fields) -> tuple[int, tuple | None]:
    """The sweep over every labelled (poset, ideal) pair: enumerate_posets
    times all_poset_ideals, each pair through the library's pair report.

    Unlike the oracles above it shares the property checks with the
    library; it is the reference for the class sweep's enumeration and
    weighting.  Returns the number of pairs checked and the first failure,
    as (P, sorted Q, (kind, characteristic)), or None.
    """
    from srposet import all_poset_ideals, enumerate_posets
    from srposet.poset import _ideal_mask
    from srposet.rees import _field_data, _rees_facts, _violations

    pairs = 0
    for n in range(max_elements + 1):
        for p in enumerate_posets([chr(ord("a") + i) for i in range(n)]):
            per_field = _field_data(p, fields)
            for q in all_poset_ideals(p):
                pairs += 1
                failure = next(_violations(p, _rees_facts(p, _ideal_mask(p, q)), per_field), None)
                if failure:
                    return pairs, (p, sorted(q), failure)
    return pairs, None
