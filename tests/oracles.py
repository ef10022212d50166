"""Brute-force oracles used to cross-check library results.

Everything here reads graphs only through ``n`` and ``has_edge`` and does its
own exhaustive search, so a library bug cannot hide behind a shared code path.
The one exception is ``connected_codes_by_extension``, which pins the
enumeration's output to the exhaustive construction it prunes and so shares
the library's ``canonical_code``. ``decode_graph6_bits`` reads a graph6 line
one bit at a time and imports nothing from splitkit.
"""

import itertools
import math


def iso_by_permutations(g, h) -> bool:
    if g.n != h.n:
        return False
    vs = range(g.n)
    pairs = list(itertools.combinations(vs, 2))
    for p in itertools.permutations(vs):
        if all(h.has_edge(p[u], p[v]) == g.has_edge(u, v) for u, v in pairs):
            return True
    return False


def has_induced_copy(g, template) -> bool:
    k = template.n
    if k > g.n:
        return False
    tpairs = list(itertools.combinations(range(k), 2))
    for s in itertools.combinations(range(g.n), k):
        for p in itertools.permutations(s):
            if all(g.has_edge(p[i], p[j]) == template.has_edge(i, j) for i, j in tpairs):
                return True
    return False


class _InducedView:
    """The subgraph of g induced on the vertex tuple s, relabelled 0..k-1."""

    def __init__(self, g, s):
        self.n = len(s)
        self._g = g
        self._s = s

    def has_edge(self, i, j) -> bool:
        return self._g.has_edge(self._s[i], self._s[j])


def first_induced_copy(g, template):
    """The first vertex tuple, in itertools.combinations order, that induces a
    copy of template, or None."""
    k = template.n
    if k > g.n:
        return None

    def degrees(h):
        return sorted(sum(h.has_edge(i, j) for j in range(k) if j != i) for i in range(k))

    want = degrees(template)
    for s in itertools.combinations(range(g.n), k):
        view = _InducedView(g, s)
        # a degree-list mismatch rules a copy out before the permutation scan
        if degrees(view) == want and iso_by_permutations(view, template):
            return s
    return None


def prop_details(g, theorem, contract):
    """The details PROP1, PROP2 or PROP3 reports on g, by walking every
    vertex set C in mask order.

    contract(g, u, v), u < v, gives g/uv, whose vertex map sends v to u and
    every label above v down by one. The image of C keeps G[C] when C does
    not hold both u and v and has_edge agrees on every pair of C and its
    image; g/uv is made once per edge.
    """
    n = g.n
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if g.has_edge(u, v)]
    images = {}

    def keeps(c, u, v):
        if u in c and v in c:
            return False
        if (u, v) not in images:
            images[u, v] = contract(g, u, v)
        h = images[u, v]
        phi = [u if x == v else x - (x > v) for x in range(n)]
        return all(
            h.has_edge(phi[a], phi[b]) == g.has_edge(a, b) for a, b in itertools.combinations(c, 2)
        )

    bad = []
    for mask in range(1, 1 << n):
        c = [x for x in range(n) if mask >> x & 1]
        if theorem == "PROP1":
            for u in c:
                for v in range(n):
                    if v in c or not g.has_edge(u, v):
                        continue
                    # N_C(v) - u inside N_C(u)
                    if any(g.has_edge(v, y) and not g.has_edge(u, y) for y in c if y != u):
                        continue
                    if not keeps(c, min(u, v), max(u, v)):
                        bad.append(f"C={c} u={u} v={v}: induced subgraph not preserved")
        elif theorem == "PROP2":
            for u, v in edges:
                if u not in c and v not in c and not keeps(c, u, v):
                    bad.append(f"C={c} e=({u},{v}): induced subgraph not preserved")
        else:
            dominated = all(y in c or any(g.has_edge(x, y) for x in c) for y in range(n))
            if not dominated and not any(
                keeps(c, u, v) for u, v in edges if not (u in c and v in c)
            ):
                bad.append(f"C={c}: no contraction preserves the induced subgraph")
    return tuple(bad)


def clique_number_subsets(g) -> int:
    for r in range(g.n, 1, -1):
        for s in itertools.combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2)):
                return r
    return 1


def maximum_cliques_subsets(g) -> list:
    """Every maximum clique of g, as a vertex tuple, in combinations order;
    the first is the lexicographically smallest."""
    for r in range(g.n, 0, -1):
        found = [
            s
            for s in itertools.combinations(range(g.n), r)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(s, 2))
        ]
        if found:
            return found
    return [()]


def independence_number_subsets(g) -> int:
    for r in range(g.n, 1, -1):
        for s in itertools.combinations(range(g.n), r):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(s, 2)):
                return r
    return 1


def chromatic_number_assignments(g) -> int:
    edges = [(u, v) for u, v in itertools.combinations(range(g.n), 2) if g.has_edge(u, v)]
    for k in range(1, g.n + 1):
        for coloring in itertools.product(range(k), repeat=g.n):
            if all(coloring[u] != coloring[v] for u, v in edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def ks_partition_exists(g) -> bool:
    vs = range(g.n)
    for r in range(g.n + 1):
        for k in itertools.combinations(vs, r):
            chosen = set(k)
            if any(not g.has_edge(u, v) for u, v in itertools.combinations(k, 2)):
                continue
            rest = [v for v in vs if v not in chosen]
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
                return True
    return False


def ks_partition_cliques(g) -> set:
    """Every K, as a vertex mask, whose vertices are pairwise adjacent and
    whose complement is pairwise non-adjacent."""
    vs = range(g.n)
    found = set()
    for r in range(g.n + 1):
        for k in itertools.combinations(vs, r):
            if any(not g.has_edge(u, v) for u, v in itertools.combinations(k, 2)):
                continue
            rest = [v for v in vs if v not in k]
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
                found.add(sum(1 << v for v in k))
    return found


def first_ks_partition(g):
    """(K, S) with |K| as large as any partition allows and K first in
    itertools.combinations order among those, or None when g is not split."""
    vs = range(g.n)
    for r in range(g.n, -1, -1):
        for k in itertools.combinations(vs, r):
            if any(not g.has_edge(u, v) for u, v in itertools.combinations(k, 2)):
                continue
            rest = tuple(v for v in vs if v not in k)
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
                return k, rest
    return None


def balanced_partition_exists(g, omega: int, alpha: int) -> bool:
    if omega + alpha != g.n:
        return False
    for k in itertools.combinations(range(g.n), omega):
        chosen = set(k)
        if any(not g.has_edge(u, v) for u, v in itertools.combinations(k, 2)):
            continue
        rest = [v for v in range(g.n) if v not in chosen]
        if len(rest) != alpha:
            continue
        if not any(g.has_edge(u, v) for u, v in itertools.combinations(rest, 2)):
            return True
    return False


def decomposition_is_valid(g, a, b, c) -> bool:
    """Whether the tuples a, b, c list every vertex exactly once between
    them, a is a clique, b independent, c empty or an induced C5 (some
    order of it whose cyclic neighbours alone are adjacent), every a-c pair
    adjacent and no b-c pair."""
    if sorted(a + b + c) != list(range(g.n)):
        return False
    if not all(g.has_edge(u, v) for u, v in itertools.combinations(a, 2)):
        return False
    if any(g.has_edge(u, v) for u, v in itertools.combinations(b, 2)):
        return False
    if c:
        pairs = list(itertools.combinations(range(5), 2))
        if len(c) != 5 or not any(
            all(g.has_edge(p[i], p[j]) == (j - i in (1, 4)) for i, j in pairs)
            for p in itertools.permutations(c)
        ):
            return False
    return all(g.has_edge(x, y) for x in a for y in c) and not any(
        g.has_edge(x, y) for x in b for y in c
    )


def is_connected_search(g) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(g.n):
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def automorphism_count(g) -> int:
    """|Aut(g)|, by extending a vertex map one vertex at a time.

    Vertex i may go to any unused vertex of its own degree whose adjacencies
    to the images of 0..i-1 match those of i; every complete map is an
    automorphism and is counted once.
    """
    n = g.n
    adj = [[u != v and g.has_edge(u, v) for v in range(n)] for u in range(n)]
    deg = [sum(row) for row in adj]
    image = []
    used = [False] * n

    def extend(i):
        if i == n:
            return 1
        count = 0
        for w in range(n):
            if used[w] or deg[w] != deg[i]:
                continue
            if all(adj[i][j] == adj[w][image[j]] for j in range(i)):
                used[w] = True
                image.append(w)
                count += extend(i + 1)
                image.pop()
                used[w] = False
        return count

    return extend(0)


def canonical_code_by_orderings(g) -> int:
    """The least column-major adjacency code, x01, x02, x12, x03, ... from
    the most significant bit, over every vertex ordering that is
    non-decreasing in the key (degree, sum of neighbour degrees).

    Every such ordering is tried: the vertices of each key, in every order,
    one key after another.
    """
    n = g.n
    adj = [[u != v and g.has_edge(u, v) for v in range(n)] for u in range(n)]
    deg = [sum(row) for row in adj]
    key = [(deg[v], sum(deg[u] for u in range(n) if adj[v][u])) for v in range(n)]
    cells = {}
    for v in sorted(range(n), key=key.__getitem__):
        cells.setdefault(key[v], []).append(v)
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells.values())):
        order = [v for part in parts for v in part]
        code = 0
        for j in range(1, n):
            for i in range(j):
                code = code << 1 | adj[order[i]][order[j]]
        if best is None or code < best:
            best = code
    return best


def labelled_connected_count(n) -> int:
    """Connected labelled graphs on n vertices (OEIS A001187): every labelled
    graph minus those whose vertex 1 lies in a component of k < n vertices,
    c(n) = 2^C(n,2) - sum_k C(n-1, k-1) c(k) 2^C(n-k,2)."""
    c = [0]
    for m in range(1, n + 1):
        c.append(
            2 ** math.comb(m, 2)
            - sum(math.comb(m - 1, k - 1) * c[k] * 2 ** math.comb(m - k, 2) for k in range(1, m))
        )
    return c[n]


def labelled_count(classes) -> int:
    """Sum of n!/|Aut(G)| over a list of order-n graphs: by orbit-stabilizer,
    the number of labelled graphs isomorphic to one of them, counted once
    per listed copy."""
    total = 0
    for g in classes:
        labellings, rest = divmod(math.factorial(g.n), automorphism_count(g))
        assert rest == 0, g
        total += labellings
    return total


def connected_codes_by_extension(n, build, canonical_code):
    """Canonical codes of connected order-n graphs, without pruning.

    Canonicalizes every one-vertex extension of every connected order-(n-1)
    class and deduplicates in a set: every connected graph arises from
    deleting a non-cut vertex. Codes list the pairs (0,1), (0,2), (1,2),
    (0,3), ... from the most significant bit.
    """
    if n == 1:
        return (0,)
    pairs = [(u, v) for v in range(1, n - 1) for u in range(v)]
    seen = set()
    for code in connected_codes_by_extension(n - 1, build, canonical_code):
        edges = [p for k, p in enumerate(reversed(pairs)) if code >> k & 1]
        for mask in range(1, 1 << (n - 1)):
            extra = [(u, n - 1) for u in range(n - 1) if mask >> u & 1]
            seen.add(canonical_code(build(n, edges + extra)))
    return tuple(sorted(seen))


def decode_graph6_bits(line):
    """(n, sorted edge list) of a well-formed graph6 line, read bit by bit:
    the upper triangle column by column, x01, x02, x12, x03, ..., each byte
    minus 63 holding six bits, most significant first."""
    data = [ord(ch) - 63 for ch in line.strip()]
    if data[0] == 63:  # '~': the order is in the next three bytes
        n = data[1] * 4096 + data[2] * 64 + data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    bits = [byte >> (5 - i) & 1 for byte in body for i in range(6)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, sorted(p for p, bit in zip(pairs, bits) if bit)
