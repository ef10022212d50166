"""Bitmask graph core: construction, contraction, isomorphism, graph6, enumeration.

Vertices are 0..n-1 and each neighbourhood is a single integer bitmask, so
adjacency queries, complements and connectivity sweeps are word operations
for any order up to 64.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EmptySet,
    InvalidPattern,
    LoopEdge,
    MalformedCorpus,
    MalformedEdgeList,
    MalformedGraph6,
    NotAnEdge,
    OrderOutOfRange,
    OrderTooLargeForIsomorphism,
    UnsupportedOrder,
    VertexOutOfRange,
)

MAX_ORDER = 64
ENUM_MAX_ORDER = 8
ISO_MAX_ORDER = 12


class Edge(NamedTuple):
    """An undirected edge stored with u < v."""

    u: int
    v: int


def _as_edge(e) -> Edge:
    u, v = e
    return Edge(u, v) if u < v else Edge(v, u)


class Graph:
    """Immutable simple undirected graph.

    ``rows[v]`` is the bitmask of neighbours of v. Instances are only built
    through the functions in this module, which keep rows symmetric and the
    diagonal empty; treat them as frozen values.
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        self.n = n
        self.rows = tuple(rows)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self) -> list[Edge]:
        """All edges in lexicographic order."""
        out = []
        for u in range(self.n):
            m = self.rows[u] >> (u + 1) << (u + 1)
            while m:
                b = m & -m
                out.append(Edge(u, b.bit_length() - 1))
                m ^= b
        return out

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(_bits(self.rows[v]))

    def is_connected(self) -> bool:
        seen = 1
        frontier = 1
        while frontier:
            reach = 0
            m = frontier
            while m:
                b = m & -m
                reach |= self.rows[b.bit_length() - 1]
                m ^= b
            frontier = reach & ~seen
            seen |= frontier
        return seen == self.full_mask

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def build(n: int, edges: Iterable[tuple[int, int]] = ()) -> Graph:
    """Build a graph of order n from an edge iterable.

    Duplicate edges collapse; (u, v) and (v, u) are the same edge.
    """
    if not 1 <= n <= MAX_ORDER:
        raise OrderOutOfRange(f"order {n} not in 1..{MAX_ORDER}")
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if not 0 <= u < n:
            raise VertexOutOfRange(f"vertex {u} not in 0..{n - 1}")
        if not 0 <= v < n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(g.n, tuple(full & ~r & ~(1 << v) for v, r in enumerate(g.rows)))


def contract(g: Graph, e) -> Graph:
    """Contract edge e: merge the larger endpoint into the smaller.

    The merged vertex keeps the smaller label; labels above the removed one
    shift down by one. The result is simple (parallel edges collapse, the
    loop disappears).
    """
    u, v = _as_edge(e)
    if not g.has_edge(u, v):
        raise NotAnEdge(f"({u}, {v}) is not an edge")
    return _contract(g, u, v)


def _contract(g: Graph, u: int, v: int) -> Graph:
    """``contract`` without its checks, for loops that walk ``rows``.

    u < v must be an edge of g.
    """
    bu = 1 << u
    merged = (g.rows[u] | g.rows[v]) & ~(bu | 1 << v)
    low = (1 << v) - 1
    out = []
    for w, r in enumerate(g.rows):
        if w == v:
            continue
        if w == u:
            r = merged
        elif merged >> w & 1:
            r |= bu
        # drop bit v and shift every label above it down by one
        out.append((r & low) | (r >> (v + 1)) << v)
    return Graph(g.n - 1, out)


def induced(g: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabelled 0..k-1 in sorted order."""
    vs = set(vertices)
    if not vs:
        raise EmptySet("induced subgraph needs at least one vertex")
    mask = 0
    for v in vs:
        g._check_vertex(v)
        mask |= 1 << v
    # place[1 << v] is the bit of v's new label
    vs = sorted(vs)
    place = {1 << v: 1 << i for i, v in enumerate(vs)}
    rows = []
    for v in vs:
        r = 0
        m = g.rows[v] & mask
        while m:
            b = m & -m
            m ^= b
            r |= place[b]
        rows.append(r)
    return Graph(len(vs), rows)


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def canonical_code(g: Graph) -> int:
    """Lexicographically minimal adjacency bitstring over vertex orderings.

    Bits are read column by column (x01, x02, x12, x03, ...), first bit most
    significant. Only orderings that are non-decreasing in the key (degree,
    sum of neighbour degrees) are searched. The key is one round of
    isomorphism-invariant refinement, not iterated to stability; it splits
    the vertices into cells, and each position draws from one cell. The
    depth-first search prunes a prefix that is already above the best code,
    and places twin vertices (same neighbourhood off the pair) in label
    order, so each twin class is expanded once per node. The search is
    ``_search``, which the enumeration kernel ``_child_codes`` calls too;
    this function computes g's keys and twins for it.
    """
    n = g.n
    rows = g.rows
    degs = [r.bit_count() for r in rows]
    # the neighbour-degree sum is below 1 << 12 for every order up to 64
    keys = []
    for d, r in zip(degs, rows):
        key = d << 12
        while r:
            b = r & -r
            key += degs[b.bit_length() - 1]
            r ^= b
        keys.append(key)
    # prev[w]: the next lower member of w's twin class (vertices with equal
    # rows off each pair), 0 for the lowest; twins have equal keys
    prev = [0] * n
    for w in range(1, n):
        for v in range(w - 1, -1, -1):
            off = ~((1 << v) | (1 << w))
            if keys[v] == keys[w] and rows[v] & off == rows[w] & off:
                prev[w] = 1 << v
                break
    return _search(rows, keys, prev)


# per order n: rem[pos], the code bits that follow position pos
_rems: dict[int, list[int]] = {}


def _search(rows: Sequence[int], keys: Sequence[int], prev: Sequence[int]) -> int:
    """The canonical code of the graph with these rows, given its vertex keys
    (degree << 12 | neighbour-degree sum) and twin classes (``prev[w]`` is
    the bit of the next lower member of w's class, 0 for the lowest).

    The cells are the vertices of equal key, in key order, and each position
    draws from one cell. A vertex is placed only after its ``prev``, so a
    twin class is expanded once per node. A candidate's word is its
    adjacency to the placed vertices in placement order, gathered from its
    placed neighbours alone. Only the candidates of least word are expanded:
    once the first of them is searched, the best code's prefix is at most
    that word, and a larger word is pruned. A position with one candidate,
    or one of least word, extends the code in place; tied candidates wait
    on a stack, in label order, until the search backtracks to them. The
    prune is strict, so the search reaches every ordering that gives the
    canonical code and places each twin class in label order.
    """
    n = len(rows)
    cell_of: dict[int, int] = {}
    for v, key in enumerate(keys):
        cell_of[key] = cell_of.get(key, 0) | 1 << v
    # cells[pos]: the cell that position pos draws from
    cells = [cell_of[key] for key in sorted(keys)]
    # best starts above every code; once position pos is placed the code
    # has (pos + 1) pos / 2 bits, and rem[pos] more follow
    rem = _rems.get(n)
    if rem is None:
        total = n * (n - 1) // 2
        rem = _rems[n] = [total - (pos + 1) * pos // 2 for pos in range(n)]
    best = 1 << (n * (n - 1) // 2)
    # at[v]: 1 << (n - 1 - the position of v), for each placed v; the word
    # at position pos is the sum over the placed neighbours >> (n - pos)
    at = [0] * n
    # (pos, used, code, ties): the tied candidates not yet placed at pos,
    # with the code that each of them extends
    stack = []
    pos = used = code = 0
    while True:
        # ties: the candidates of least word, low: that word
        ties = cells[pos] & ~used
        if ties & (ties - 1):
            m = ties
            low = 1 << n  # above every word
            while m:
                b = m & -m
                m ^= b
                v = b.bit_length() - 1
                if prev[v] & ~used:
                    continue
                a = rows[v] & used
                w = 0
                while a:
                    c = a & -a
                    a ^= c
                    w |= at[c.bit_length() - 1]
                if w < low:
                    low = w
                    ties = b
                elif w == low:
                    ties |= b
        else:
            a = rows[ties.bit_length() - 1] & used
            low = 0
            while a:
                c = a & -a
                a ^= c
                low |= at[c.bit_length() - 1]
        code = code << pos | low >> (n - pos)
        if code <= best >> rem[pos]:
            b = ties & -ties
            # two or more ties leave pos + 1 < n: the last position has
            # one candidate
            if ties ^ b:
                stack.append((pos, used, code, ties ^ b))
            if pos + 1 < n:
                at[b.bit_length() - 1] = 1 << (n - 1 - pos)
                used |= b
                pos += 1
                continue
            best = code
        # a leaf or a pruned prefix: resume the deepest waiting tie
        while stack:
            pos, used, code, ties = stack.pop()
            if code <= best >> rem[pos]:
                b = ties & -ties
                if ties ^ b:
                    stack.append((pos, used, code, ties ^ b))
                at[b.bit_length() - 1] = 1 << (n - 1 - pos)
                used |= b
                pos += 1
                break
        else:
            return best


def canonical_form(g: Graph) -> Graph:
    """The canonically labelled copy of g."""
    return _graph_from_code(g.n, canonical_code(g))


def _graph_from_code(n: int, code: int) -> Graph:
    """The graph whose pairs x01, x02, x12, x03, ... are code's bits, first
    most significant: the canonical-code order and the graph6 body order."""
    rows = [0] * n
    k = n * (n - 1) // 2
    for v in range(1, n):
        # column v holds x0v .. x(v-1)v; bit v-1-u of col is x_uv
        k -= v
        col = code >> k & ((1 << v) - 1)
        while col:
            b = col & -col
            col ^= b
            u = v - b.bit_length()
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return Graph(n, rows)


def _code(g: Graph) -> int:
    """The inverse of ``_graph_from_code``: g's own labelled bitstring, not
    its canonical code, so decoding it gives g back with its labels."""
    return _subset_code(g.rows, range(g.n))


def _subset_code(rows: Sequence[int], verts: Sequence[int]) -> int:
    """The column-major adjacency bits of an ordered vertex tuple, as in
    ``_graph_from_code``: x01, x02, x12, x03, ..., first most significant."""
    code = 0
    for j in range(1, len(verts)):
        rv = rows[verts[j]]
        w = 0
        for i in range(j):
            w = w << 1 | (rv >> verts[i] & 1)
        code = code << j | w
    return code


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Equal canonical codes, after order and degree-multiset prechecks; orders <= 12."""
    if g.n > ISO_MAX_ORDER or h.n > ISO_MAX_ORDER:
        raise OrderTooLargeForIsomorphism(
            f"orders {g.n}, {h.n}; both must be <= {ISO_MAX_ORDER}"
        )
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_code(g) == canonical_code(h)


# ---------------------------------------------------------------------------
# graph6


def write_graph6(g: Graph) -> str:
    """Encode as a graph6 line (orders 63 and 64 use the '~' long form)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12 & 63)) + chr(63 + (n >> 6 & 63)) + chr(63 + (n & 63))
    # the body is _code(g) padded with zeros to whole 6-bit bytes
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    code = _code(g) << (6 * need - total)
    return head + "".join(chr(63 + (code >> 6 * i & 63)) for i in range(need - 1, -1, -1))


_G6_OCTAL = {63 + i: f"{i:02o}" for i in range(64)}


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line; a leading '>>graph6<<' header is tolerated."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise MalformedGraph6("empty line")
    if min(s) < "?" or max(s) > "~":
        raise MalformedGraph6(f"byte outside graph6 range in {text!r}")
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise UnsupportedOrder("orders above 258047 are not supported")
        if len(s) < 4:
            raise MalformedGraph6("truncated long-form order")
        n = (
            (ord(s[1]) - 63) << 12
            | (ord(s[2]) - 63) << 6
            | (ord(s[3]) - 63)
        )
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if not 1 <= n <= MAX_ORDER:
        raise UnsupportedOrder(f"order {n} not in 1..{MAX_ORDER}")
    total = n * (n - 1) // 2
    need = (total + 5) // 6
    if len(body) != need:
        raise MalformedGraph6(
            f"expected {need} body bytes for order {n}, got {len(body)}"
        )
    # each byte becomes two octal digits, so the body is one base-8 numeral
    code = int(body.translate(_G6_OCTAL) or "0", 8)
    pad = 6 * need - total
    if code & ((1 << pad) - 1):
        raise MalformedGraph6("nonzero padding bits")
    return _graph_from_code(n, code >> pad)


def _read_text(path) -> str:
    """The text of a UTF-8 file.

    A file that is not UTF-8 raises MalformedCorpus naming the 1-based line
    of the first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(_lines(data[: exc.start].decode("utf-8")))
        raise MalformedCorpus(line, f"not UTF-8 ({exc.reason})") from exc


def _lines(text: str) -> list[str]:
    r"""text split at \n, \r\n and \r only, as a text-mode file splits it.

    ``str.splitlines`` also splits at \v, \f, \x1c-\x1e, \x85, \u2028 and
    \u2029, which would number the lines of a corpus differently.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_graph6_lines(lines: Iterable[str]) -> list[Graph]:
    """Parse a graph6 corpus, one graph per nonblank line.

    Raises MalformedCorpus carrying the 1-based offending line number.
    """
    out = []
    for i, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            out.append(parse_graph6(line))
        except (MalformedGraph6, UnsupportedOrder) as exc:
            raise MalformedCorpus(i, str(exc)) from exc
    return out


def _ascii_digits(t: str) -> bool:
    # str.isdigit alone also accepts digits such as '²' that int() rejects
    return t.isascii() and t.isdigit()


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: a line 'n m' then m lines 'u v'.

    Numbers are ASCII decimal; blank lines are skipped. Raises
    MalformedEdgeList naming the 1-based offending line.
    """
    lines = [(i, ln) for i, ln in enumerate(_lines(text), 1) if ln.strip()]
    if not lines:
        raise MalformedEdgeList("empty edge-list input")
    i, ln = lines[0]
    head = ln.split()
    if len(head) != 2 or not all(_ascii_digits(t) for t in head):
        raise MalformedEdgeList(f"line {i}: expected header 'n m', got {ln!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise MalformedEdgeList(
            f"line {i}: header claims {m} edges, found {len(lines) - 1} lines"
        )
    edges = []
    for i, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not all(_ascii_digits(t.removeprefix("-")) for t in parts):
            raise MalformedEdgeList(f"line {i}: expected edge line 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build(n, edges)


# ---------------------------------------------------------------------------
# fixed patterns


class NamedPattern(NamedTuple):
    """A named small graph used as an induced-subgraph target.

    ``param`` is the part size l for K_2_L (l >= 2) and the leaf count for
    STAR (so STAR(m) is the star with m leaves); other tags ignore it.
    """

    tag: str
    param: int | None = None

    @property
    def template(self) -> Graph:
        return _pattern_template(self.tag, self.param)

    def __str__(self) -> str:
        return f"{self.tag}({self.param})" if self.param is not None else self.tag


def path_graph(n: int) -> Graph:
    return build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise OrderOutOfRange("cycles need at least 3 vertices")
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build(n, itertools.combinations(range(n), 2))


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 joined to 1..leaves."""
    return build(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite_graph(a: int, b: int) -> Graph:
    return build(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _pattern_template(tag: str, param: int | None) -> Graph:
    if tag == "TWO_K2":
        return build(4, [(0, 1), (2, 3)])
    if tag in ("C4", "C5", "C6"):
        return cycle_graph(int(tag[1]))
    if tag in ("P4", "P5"):
        return path_graph(int(tag[1]))
    if tag == "CLAW":
        return star_graph(3)
    if tag == "K_2_L":
        if param is None or param < 2:
            raise InvalidPattern("K_2_L needs param l >= 2")
        return complete_bipartite_graph(2, param)
    if tag == "W4":
        # 4-cycle 0..3 plus hub 4
        return build(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)])
    if tag == "OCTAHEDRON":
        # join of a 4-cycle with two isolated vertices
        g = cycle_graph(4)
        edges = g.edges() + [(i, j) for i in range(4) for j in (4, 5)]
        return build(6, edges)
    if tag == "HAMMER":
        # triangle 2,3,4 with a tail 4-1-0
        return build(5, [(2, 3), (2, 4), (3, 4), (1, 4), (0, 1)])
    if tag == "BUTTERFLY":
        # two triangles glued at vertex 0
        return build(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    if tag == "STAR":
        if param is None or param < 1:
            raise InvalidPattern("STAR needs param >= 1")
        return star_graph(param)
    raise InvalidPattern(f"unknown pattern tag {tag!r}")


# ---------------------------------------------------------------------------
# enumeration


def _components_without(rows: Sequence[int], w: int) -> list[int]:
    """Vertex masks of the connected components of the graph minus w."""
    rest = ((1 << len(rows)) - 1) & ~(1 << w)
    comps = []
    while rest:
        seen = frontier = rest & -rest
        while frontier:
            reach = 0
            while frontier:
                b = frontier & -frontier
                frontier ^= b
                reach |= rows[b.bit_length() - 1]
            frontier = reach & rest & ~seen
            seen |= frontier
        comps.append(seen)
        rest &= ~seen
    return comps


# sorted canonical codes of the connected graphs of each order, filled by
# _connected_codes; the codes do not depend on the mapper that filled them
_codes: dict[int, tuple[int, ...]] = {1: (0,)}


def _connected_codes(n: int, mapper=lambda fn, items: (fn(items),)) -> tuple[int, ...]:
    """Sorted canonical codes of the connected graphs of order n.

    Enumeration by canonical deletion (McKay's canonical construction path).
    Each connected graph of order n-1 gains a new vertex with every nonempty
    neighbourhood, and a child is canonicalized only if its new vertex could
    be the one deleted: no other vertex may have a strictly larger rank
    (degree, sum of neighbour degrees), an isomorphism invariant, while
    leaving the child connected when deleted. No class is lost: a connected
    graph G has a non-cut vertex v of largest rank, G - v is connected and
    enumerated at order n-1, and the child re-attaching v passes the test.
    The set removes the duplicates that rank ties let through.

    Only neighbourhoods that meet each twin class of the parent (vertices
    with equal rows off each pair) in an initial segment of the class, in
    label order, are tried. This loses no class either: any permutation of
    a twin class is an automorphism of the parent, it maps each child to an
    isomorphic child with the new vertex mapped to the new vertex, and the
    acceptance test is invariant under that map; sorting each class's part
    of a neighbourhood to the front of the class is such a permutation.

    ``mapper(fn, parents)`` calls the kernel ``_child_codes`` on chunks of
    the codes of order n-1, one set of children per chunk (one chunk by
    default, or a ``harness._Pool``), merged in place into the first set;
    orders not yet cached are filled with the same mapper. The kernel
    canonicalizes its children itself, so ``canonical_code`` is not called
    here. The codes are ints, cheap to send to a worker, which decodes them
    with ``_graph_from_code`` (``census`` and ``verify`` check them that way).
    """
    codes = _codes.get(n)
    if codes is None:
        parts = mapper(partial(_child_codes, n), _connected_codes(n - 1, mapper))
        codes = _codes[n] = tuple(sorted(reduce(set.__ior__, parts)))
    return codes


def _child_codes(n: int, parent_codes) -> set[int]:
    """Canonical codes of the accepted order-n children of a chunk of parents.

    The parents are connected graphs of order n-1, given by code; see
    ``_connected_codes`` for the acceptance test and the twin-prefix masks.

    An accepted child is not rebuilt as a ``Graph`` for ``canonical_code``:
    its vertex keys (degree << 12 | neighbour-degree sum) are the parent's
    tables read off the mask, its twin classes are the parent's split by
    the mask, with the new vertex joining the vertices whose rows equal the
    mask off the pair, and both go straight to ``_search``, the search that
    ``canonical_code`` ends in. The codes are therefore ``canonical_code``'s.
    """
    m = n - 1
    top = 1 << m
    seen = set()
    for parent_code in parent_codes:
        base = _graph_from_code(m, parent_code).rows
        # per-parent tables: degrees, neighbour-degree sums, and the
        # components left by deleting each vertex
        bdeg = [r.bit_count() for r in base]
        bsum = [sum(bdeg[v] for v in _bits(r)) for r in base]
        comps = [_components_without(base, w) for w in range(m)]
        # twin-prefix masks, each with its sum of parent degrees, and
        # pprev[w], the bit of the next lower member of w's twin class (0 for
        # the lowest); twins are an equivalence relation, so each class is the
        # twins of its lowest member
        masks = [(0, 0)]
        pprev = [0] * m
        left = top - 1
        while left:
            low = left & -left
            v = low.bit_length() - 1
            prefixes = [(0, 0)]
            pmask = psum = last = 0
            for w in _bits(left):
                off = ~(low | 1 << w)
                if w == v or base[v] & off == base[w] & off:
                    pprev[w] = last
                    last = 1 << w
                    pmask |= last
                    psum += bdeg[w]
                    prefixes.append((pmask, psum))
            left &= ~pmask
            masks = [(a | b, s + t) for a, s in masks for b, t in prefixes]
        # per parent vertex: its bit, row, key in the parent and twin link
        table = [(1 << w, r, bdeg[w] << 12 | bsum[w], pprev[w]) for w, r in enumerate(base)]
        # the rank test's candidates, highest parent degree first: once one
        # cannot reach the new vertex's degree even as its neighbour, no later
        # one can
        rivals = sorted(
            ((bdeg[w], bsum[w], 1 << w, base[w], comps[w]) for w in range(m)),
            key=lambda t: -t[0],
        )
        for mask, msum in masks[1:]:
            d = mask.bit_count()
            s = msum + d  # neighbour-degree sum of the new vertex
            outranked = False
            for dw, sw, b, r, cs in rivals:
                if dw + 1 < d:
                    break
                if mask & b:
                    dw += 1
                    sw += d
                if dw < d or (dw == d and sw + (r & mask).bit_count() <= s):
                    continue
                # this vertex outranks the new one; the child minus it is
                # connected when the new vertex reaches every component of
                # base minus it
                for c in cs:
                    if not mask & c:
                        break
                else:
                    outranked = True
                    break
            if outranked:
                continue
            # the child's rows, keys and twin links; a neighbour of the new
            # vertex gains one degree and d in its neighbour-degree sum, and
            # a class meets the mask in a prefix, so only the link from its
            # last member in the mask to its first outside is cut
            rows = []
            keys = []
            prev = []
            twin = 0
            inc = 1 << 12 | d
            for b, r, k, p in table:
                k += (r & mask).bit_count()
                if mask & b:
                    rows.append(r | top)
                    keys.append(k + inc)
                    prev.append(p)
                    if r == mask ^ b:
                        twin = b
                else:
                    rows.append(r)
                    keys.append(k)
                    prev.append(p & ~mask)
                    if r == mask:
                        twin = b
            rows.append(mask)
            keys.append(d << 12 | s)
            # the new vertex follows its highest twin, if it has one
            prev.append(twin)
            seen.add(_search(rows, keys, prev))
    return seen


def _require_order(n: int, top: int = ENUM_MAX_ORDER) -> None:
    """Refuse an order outside 1..top: by default, one the enumeration does
    not reach. Every caller that enumerates asks here before it starts."""
    if not 1 <= n <= top:
        raise OrderOutOfRange(f"order {n} not in 1..{top}")


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One canonically labelled representative per connected graph of order n,
    decoded from ``_connected_codes(n)`` as it is read."""
    _require_order(n)
    for code in _connected_codes(n):
        yield _graph_from_code(n, code)


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    if not parts:
        raise EmptySet("union of no graphs")
    n = sum(p.n for p in parts)
    if n > MAX_ORDER:
        raise OrderOutOfRange(f"union order {n} exceeds {MAX_ORDER}")
    rows = []
    shift = 0
    for p in parts:
        rows.extend(r << shift for r in p.rows)
        shift += p.n
    return Graph(n, rows)


def enumerate_all(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of all graphs of order n:
    the connected classes, in the order of ``enumerate_connected(n)``, then
    the disconnected ones, in the order of ``_disconnected(n)``."""
    yield from enumerate_connected(n)
    yield from _disconnected(n)


def _disconnected(n: int) -> Iterator[Graph]:
    """One representative per class of disconnected graphs of order n.

    Assembled as disjoint unions of two or more connected representatives
    of order below n, larger parts first; multisets of connected classes
    are in bijection with graph classes, so no deduplication pass is needed.
    """
    comps = {k: [_graph_from_code(k, c) for c in _connected_codes(k)] for k in range(1, n)}

    def assemble(remaining: int, size_cap: int, index_floor: int, chosen: list[Graph]):
        if remaining == 0:
            yield disjoint_union(chosen)
            return
        for k in range(min(remaining, size_cap), 0, -1):
            start = index_floor if k == size_cap else 0
            for i in range(start, len(comps[k])):
                chosen.append(comps[k][i])
                yield from assemble(remaining - k, k, i, chosen)
                chosen.pop()

    yield from assemble(n, n - 1, 0, [])
