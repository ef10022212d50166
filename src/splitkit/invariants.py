"""Exact invariants and induced-subgraph search on small graphs."""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .errors import OrderTooLargeForColoring, OrderTooLargeForIsomorphism
from .graphs import Graph, NamedPattern, _subset_code, complement

COLORING_MAX_ORDER = 12
PATTERN_MAX_ORDER = 8


def clique_number(g: Graph) -> int:
    """Exact maximum clique size, branch and bound on candidate bitmasks."""
    return len(max_clique(g))


def max_clique(g: Graph) -> tuple[int, ...]:
    """The lexicographically smallest maximum clique.

    Branch and bound on candidate bitmasks, lowest vertex first: cliques are
    met in lexicographic order, and only a strictly larger one replaces the
    best, so the first of the largest size is kept.
    """
    rows = g.rows
    best = best_size = 0

    def expand(cur: int, size: int, cand: int) -> None:
        nonlocal best, best_size
        if size > best_size:
            best, best_size = cur, size
        while cand:
            if size + cand.bit_count() <= best_size:
                return
            b = cand & -cand
            cand ^= b
            expand(cur | b, size + 1, cand & rows[b.bit_length() - 1])

    expand(0, 0, g.full_mask)
    return tuple(v for v in range(g.n) if best >> v & 1)


def independence_number(g: Graph) -> int:
    return clique_number(complement(g))


def _greedy_bound(g: Graph) -> int:
    # first fit in non-increasing degree order; colour classes are vertex
    # masks, and v fits class c iff it has no neighbour there
    rows = g.rows
    classes: list[int] = []
    for v in sorted(range(g.n), key=lambda v: -rows[v].bit_count()):
        for c, members in enumerate(classes):
            if not rows[v] & members:
                classes[c] = members | 1 << v
                break
        else:
            classes.append(1 << v)
    return len(classes)


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number; order capped at 12.

    Seeds a maximum clique with distinct colours, then backtracks over the
    remaining vertices with new colours introduced in increasing order only.
    """
    if g.n > COLORING_MAX_ORDER:
        raise OrderTooLargeForColoring(f"order {g.n} exceeds {COLORING_MAX_ORDER}")
    return _chromatic(g, max_clique(g))


def _chromatic(g: Graph, clique: tuple[int, ...]) -> int:
    # clique must be a maximum clique of g, already found by the caller
    lb = len(clique)
    ub = _greedy_bound(g)
    if lb == ub:
        return lb
    rows = g.rows
    rest = sorted(
        (v for v in range(g.n) if v not in clique),
        key=lambda v: -rows[v].bit_count(),
    )

    def colorable(i: int, used: int, classes: list[int]) -> bool:
        # colour rest[i:] into len(classes) vertex-mask classes, opening
        # class `used` only after classes 0..used-1
        if i == len(rest):
            return True
        v = rest[i]
        rv = rows[v]
        for c in range(min(used + 1, len(classes))):
            if rv & classes[c]:
                continue
            classes[c] |= 1 << v
            if colorable(i + 1, max(used, c + 1), classes):
                return True
            classes[c] ^= 1 << v
        return False

    for k in range(lb, ub):
        if colorable(0, lb, [1 << v for v in clique] + [0] * (k - lb)):
            return k
    return ub


# ---------------------------------------------------------------------------
# induced-subgraph search


class PatternWitness(NamedTuple):
    pattern: NamedPattern
    vertices: tuple[int, ...]


@lru_cache(maxsize=None)
def _template_prefixes(tag: str, param: int | None) -> tuple[frozenset[int], ...]:
    """Entry j: the codes of the first j + 1 vertices of every ordered tuple
    of template vertices, i.e. the top (j + 1) j / 2 bits of each full code;
    the last entry holds the full codes. A template of order above
    PATTERN_MAX_ORDER raises OrderTooLargeForIsomorphism."""
    t = NamedPattern(tag, param).template
    if t.n > PATTERN_MAX_ORDER:
        raise OrderTooLargeForIsomorphism(
            f"pattern {NamedPattern(tag, param)} has order {t.n} > {PATTERN_MAX_ORDER}"
        )
    codes = {_subset_code(t.rows, p) for p in itertools.permutations(range(t.n))}
    total = t.n * (t.n - 1) // 2
    return tuple(
        frozenset(c >> (total - (j + 1) * j // 2) for c in codes) for j in range(t.n)
    )


def _first_copy(rows, n: int, prefixes) -> tuple[int, ...] | None:
    """First increasing vertex tuple, in combinations order, whose code is in
    ``prefixes[-1]``.

    One loop over the tuple's positions. Position j tries the vertices
    from just above position j - 1 up to n - k + j, the last that leaves
    room for the k - 1 - j positions after it. A vertex's word, its
    adjacency to the vertices before it, extends the prefix's code; the
    vertex is kept when the new code is in entry j, and a position with no
    vertex left returns to the one before it.
    """
    k = len(prefixes)
    verts = [0] * k
    codes = [0] * k  # codes[j]: the code of verts[:j]
    j = v = 0
    while True:
        if v > n - k + j:
            if j == 0:
                return None
            j -= 1
            v = verts[j] + 1
            continue
        rv = rows[v]
        c = codes[j]
        for i in range(j):
            c = c << 1 | (rv >> verts[i] & 1)
        if c in prefixes[j]:
            verts[j] = v
            if j + 1 == k:
                return tuple(verts)
            j += 1
            codes[j] = c
        v += 1


def find_induced(g: Graph, pattern: NamedPattern) -> PatternWitness | None:
    """First induced copy of the pattern in lexicographic vertex order, or None.

    The search runs depth first over increasing vertex tuples, in one loop,
    growing the column-major code of the tuple one vertex at a time and
    pruning a prefix that no ordering of the template starts with. A
    pattern of order above PATTERN_MAX_ORDER = 8 raises
    OrderTooLargeForIsomorphism.
    """
    prefixes = _template_prefixes(pattern.tag, pattern.param)
    if len(prefixes) > g.n:
        return None
    s = _first_copy(g.rows, g.n, prefixes)
    return None if s is None else PatternWitness(pattern, s)


def contains_2k2(g: Graph) -> bool:
    """Induced 2K2: two edges with no endpoints shared or joined.

    For each edge ab with a < b, looks for an edge among the vertices above
    a outside N[a] and N[b]. Every induced 2K2 has a lowest vertex a, so
    none is missed.
    """
    rows = g.rows
    full = g.full_mask
    for a in range(g.n):
        above = full >> (a + 1) << (a + 1)
        far_a = above & ~rows[a]
        nbrs = rows[a] & above
        while nbrs:
            bb = nbrs & -nbrs
            nbrs ^= bb
            m = far_a & ~rows[bb.bit_length() - 1]
            while m:
                cb = m & -m
                m ^= cb
                if rows[cb.bit_length() - 1] & m:
                    return True
    return False


def _contains_claw(g: Graph) -> bool:
    """Induced claw: a vertex with three pairwise non-adjacent neighbours."""
    rows = g.rows
    for v in range(g.n):
        m = rows[v]
        while m:
            ab = m & -m
            m ^= ab
            # neighbours of v above a and not adjacent to a
            free = m & ~rows[ab.bit_length() - 1]
            while free:
                bb = free & -free
                free ^= bb
                if free & ~rows[bb.bit_length() - 1]:
                    return True
    return False


def contains_c4(g: Graph) -> bool:
    """Induced C4: a non-edge whose common neighbourhood is not a clique."""
    rows = g.rows
    for u in range(g.n):
        ru = rows[u]
        for w in range(u + 1, g.n):
            if ru >> w & 1:
                continue
            common = ru & rows[w]
            m = common
            while m:
                b = m & -m
                m ^= b
                if m & ~rows[b.bit_length() - 1]:
                    return True
    return False


def _find_c5(g: Graph) -> tuple[int, ...] | None:
    """Sorted vertex set of an induced C5, or None.

    Grows the path b-a-e from each vertex a through two non-adjacent
    neighbours above it, then closes it with an edge c-d, c in N(b) and d in
    N(e), both outside N[a] and each non-adjacent to the far end. Every
    induced C5 has a lowest vertex a, so none is missed.
    """
    rows = g.rows
    for a in range(g.n):
        above = g.full_mask >> (a + 1) << (a + 1)
        outside = above & ~rows[a]
        nbrs = rows[a] & above
        while nbrs:
            bb = nbrs & -nbrs
            nbrs ^= bb
            b = bb.bit_length() - 1
            rb = rows[b]
            ends = nbrs & ~rb
            while ends:
                eb = ends & -ends
                ends ^= eb
                e = eb.bit_length() - 1
                re = rows[e]
                ds = re & outside & ~rb
                cs = rb & outside & ~re
                while ds and cs:
                    cb = cs & -cs
                    cs ^= cb
                    c = cb.bit_length() - 1
                    hit = rows[c] & ds
                    if hit:
                        d = (hit & -hit).bit_length() - 1
                        return tuple(sorted((a, b, c, d, e)))
    return None


def contains_c5(g: Graph) -> bool:
    """Induced C5, by the bitmask path closure of ``_find_c5``."""
    return _find_c5(g) is not None
