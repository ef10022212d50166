"""Split-graph recognition, KS-partitions, exceptional families, and witness search."""

from __future__ import annotations

from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple

from .errors import (
    InvalidPartition,
    IsStar,
    NoInduced2K2,
    NoInducedC4,
    NotPseudoSplit,
    NotSplit,
    OrderTooLargeForColoring,
    UnclassifiablePartition,
)
from .graphs import Edge, Graph, NamedPattern, _contract, canonical_code, complement
from .invariants import (
    COLORING_MAX_ORDER,
    _chromatic,
    _find_c5,
    _greedy_bound,
    chromatic_number,
    contains_2k2,
    contains_c4,
    contains_c5,
    find_induced,
    max_clique,
)

CASE_I = "I"
CASE_II = "II"
CASE_III = "III"


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _is_clique(g: Graph, mask: int) -> bool:
    m = mask
    while m:
        b = m & -m
        m ^= b
        if g.rows[b.bit_length() - 1] & mask != mask ^ b:
            return False
    return True


def _is_independent(g: Graph, mask: int) -> bool:
    m = mask
    while m:
        b = m & -m
        m ^= b
        if g.rows[b.bit_length() - 1] & mask:
            return False
    return True


class KSPartition(NamedTuple):
    """Vertex partition into a clique k and an independent set s."""

    k: tuple[int, ...]
    s: tuple[int, ...]

    def is_valid_for(self, g: Graph) -> bool:
        return PseudoSplitDecomposition(self.k, self.s, ()).is_valid_for(g)


class PseudoSplitDecomposition(NamedTuple):
    """Partition into clique a, independent set b, and c inducing C5 or empty.

    Validity additionally requires every a-c pair adjacent and no b-c edges.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def is_valid_for(self, g: Graph) -> bool:
        if sorted((*self.a, *self.b, *self.c)) != list(range(g.n)):
            return False
        amask, bmask, cmask = _mask(self.a), _mask(self.b), _mask(self.c)
        if not _is_clique(g, amask) or not _is_independent(g, bmask):
            return False
        if self.c:
            # 2-regular on 5 vertices is necessarily a 5-cycle
            if len(self.c) != 5 or any(
                (g.rows[v] & cmask).bit_count() != 2 for v in self.c
            ):
                return False
        for v in self.a:
            if g.rows[v] & cmask != cmask:
                return False
        for v in self.b:
            if g.rows[v] & cmask:
                return False
        return True


class FamilyTag(NamedTuple):
    """One of the seven exceptional families; l is set for H1 = K_{2,l} only."""

    family: str
    l: int | None = None

    def __str__(self) -> str:
        if self.l is not None:
            return f"{self.family}(l={self.l})"
        return self.family


class ClassificationReport(NamedTuple):
    is_split: bool
    is_balanced_split: bool | None
    ks: KSPartition | None
    exceptional: FamilyTag | None
    is_pseudo_split: bool
    psd: PseudoSplitDecomposition | None
    is_ng: bool
    omega: int
    alpha: int
    chi: int
    chi_complement: int
    witnesses: tuple[tuple[str, Edge], ...]

    def to_dict(self) -> dict:
        return {
            "is_split": self.is_split,
            "is_balanced_split": self.is_balanced_split,
            "ks": None if self.ks is None else {"k": list(self.ks.k), "s": list(self.ks.s)},
            "exceptional": None
            if self.exceptional is None
            else {"family": self.exceptional.family, "l": self.exceptional.l},
            "is_pseudo_split": self.is_pseudo_split,
            "psd": None
            if self.psd is None
            else {"a": list(self.psd.a), "b": list(self.psd.b), "c": list(self.psd.c)},
            "is_ng": self.is_ng,
            "omega": self.omega,
            "alpha": self.alpha,
            "chi": self.chi,
            "chi_complement": self.chi_complement,
            "witnesses": [
                {"label": label, "edge": [e.u, e.v]} for label, e in self.witnesses
            ],
        }

    def to_json(self, label: str) -> str:
        """``{"input": label, **self.to_dict()}`` as one element of a JSON list:
        the text ``json.dumps([...], sort_keys=True, indent=2)`` gives for it,
        written from the fixed schema with the same string escaper."""
        q, c = encode_basestring_ascii, _JSON_CONST
        # a newline and the indent of the report's keys, and of two deeper levels
        p, w, e = "\n    ", "\n      ", "\n        "
        ks, psd, tag = self.ks, self.psd, self.exceptional
        return _REPORT_JSON.format(
            self.alpha,
            self.chi,
            self.chi_complement,
            "null" if tag is None else f'{{{w}"family": {q(tag.family)},'
            f'{w}"l": {"null" if tag.l is None else tag.l}{p}}}',
            q(label),
            c[self.is_balanced_split],
            c[self.is_ng],
            c[self.is_pseudo_split],
            c[self.is_split],
            "null" if ks is None else
            f'{{{w}"k": {_json_list(ks.k, w)},{w}"s": {_json_list(ks.s, w)}{p}}}',
            self.omega,
            "null" if psd is None else f'{{{w}"a": {_json_list(psd.a, w)},'
            f'{w}"b": {_json_list(psd.b, w)},{w}"c": {_json_list(psd.c, w)}{p}}}',
            _json_list([f'{{{e}"edge": {_json_list(edge, e)},{e}"label": {q(lbl)}{w}}}'
                        for lbl, edge in self.witnesses], p),
        )


# the keys in sorted order, at the indent of an element of the top-level list
_REPORT_JSON = (
    '  {{\n    "alpha": {},\n    "chi": {},\n    "chi_complement": {},\n'
    '    "exceptional": {},\n    "input": {},\n    "is_balanced_split": {},\n'
    '    "is_ng": {},\n    "is_pseudo_split": {},\n    "is_split": {},\n'
    '    "ks": {},\n    "omega": {},\n    "psd": {},\n    "witnesses": {}\n  }}'
)
_JSON_CONST = {True: "true", False: "false", None: "null"}


def _json_list(items, pad: str) -> str:
    # pad is a newline and the indent of the line the list opens on
    if not items:
        return "[]"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(str, items)) + pad + "]"


# ---------------------------------------------------------------------------
# split recognition


def is_split_forbidden(g: Graph) -> bool:
    """Split test by forbidden patterns: no induced 2K2, C4, or C5."""
    return _Facts(g).forbidden


def is_split(g: Graph) -> bool:
    """Default split test (the degree-sequence criterion, ``_degree_test``)."""
    return _Facts(g).split


def _degree_test(g: Graph) -> tuple[int, bool, int]:
    """(m, split, d_m) for g with non-increasing degree list d.

    m is the largest i with d_i >= i - 1, and g is split iff
    sum(d_i, i <= m) = m(m-1) + sum(d_i, i > m) (Hammer and Simeone, *The
    splittance of a graph*, Combinatorica 1 (1981)). The i with
    d_i >= i - 1 form a prefix, since d falls while i - 1 rises.

    For a split graph g, omega(g) = m, and g is unbalanced iff
    d_m = m - 1. Take a partition (K, S) with |K| = omega (``ks_partition``
    says why one exists). Every K-vertex has degree >= omega - 1, and every
    S-vertex has degree <= omega - 1, since an S-vertex adjacent to all of
    K would extend the maximum clique K. So the top omega degrees are those
    of K, any omega + 1 vertices include an S-vertex, and
    d_omega >= omega - 1 > d_(omega+1) - 1, i.e. m = omega. An
    independent set meets K at most once, so alpha is |S| + 1 when some
    K-vertex has no S-neighbour (S plus that vertex) and |S| otherwise.
    Such a vertex has degree omega - 1 exactly, so alpha = |S| + 1, i.e.
    omega + alpha != n, iff the smallest K-degree d_m is m - 1.
    """
    d = sorted(g.degrees(), reverse=True)
    n = len(d)
    m = 1
    while m < n and d[m] >= m:
        m += 1
    return m, sum(d[:m]) == m * (m - 1) + sum(d[m:]), d[m - 1]


def ks_partition(g: Graph) -> KSPartition:
    """A partition maximizing |K|, lexicographically smallest such K.

    Every split graph has a partition with |K| = omega: take any partition
    (K, S) and a maximum clique Q; |Q & S| <= 1, and if Q & S = {s} then
    Q - s lies inside K, so either |K| = omega already or K + s works.
    """
    ks = _Facts(g).ks
    if ks is None:
        raise NotSplit("graph admits no clique/independent-set partition")
    return ks


def _ks(g: Graph, omega: int) -> KSPartition:
    # g split with clique number omega. A depth-first walk grows cliques in
    # increasing vertex order by common neighbours above the last vertex, so
    # it meets the omega-cliques in combinations order; a branch ends when
    # the vertices that can no longer join K already span an edge.
    rows = g.rows
    full = g.full_mask

    def walk(k: int, cand: int, size: int) -> int:
        if size == omega:
            return k if _is_independent(g, full ^ k) else 0
        if size + cand.bit_count() < omega or not _is_independent(g, full & ~k & ~cand):
            return 0
        while cand:
            b = cand & -cand
            cand ^= b
            found = walk(k | b, cand & rows[b.bit_length() - 1], size + 1)
            if found:
                return found
        return 0

    kmask = walk(0, full, 0)
    if not kmask:
        raise NotSplit("no partition found")  # unreachable on split inputs
    return KSPartition(
        tuple(v for v in range(g.n) if kmask >> v & 1),
        tuple(v for v in range(g.n) if not kmask >> v & 1),
    )


def classify_ks_case(g: Graph, p: KSPartition) -> str:
    """Which of the three admissible size patterns the partition matches.

    I: (omega, alpha); II: (omega-1, alpha); III: (omega, alpha-1). At most
    one pattern can match since the pairs are pairwise distinct.
    """
    if not p.is_valid_for(g):
        raise InvalidPartition(f"K={p.k} S={p.s} is not a valid partition")
    facts = _Facts(g)
    return _ks_case((len(p.k), len(p.s)), facts.omega, facts.alpha)


def _ks_case(sizes: tuple[int, int], w: int, a: int) -> str:
    # the case of a valid partition with these (|K|, |S|) in a split graph
    # with clique number w and independence number a
    if sizes == (w, a):
        return CASE_I
    if sizes == (w - 1, a):
        return CASE_II
    if sizes == (w, a - 1):
        return CASE_III
    raise UnclassifiablePartition(
        f"sizes {sizes} match none of {(w, a)}, {(w - 1, a)}, {(w, a - 1)}"
    )


def is_balanced_split(g: Graph) -> bool:
    """True iff some partition has |K| = omega and |S| = alpha.

    Such a partition exists iff omega + alpha = n: sizes sum to n, and the
    three admissible patterns sum to omega+alpha, omega+alpha-1 only.
    """
    facts = _Facts(g)
    if not facts.split:
        raise NotSplit("balancedness is defined for split graphs only")
    return facts.balanced


def is_star(g: Graph) -> bool:
    """True for K1 and every K_{1,m}, m >= 1."""
    if g.n == 1:
        return True
    return sorted(g.degrees()) == [1] * (g.n - 1) + [g.n - 1]


# ---------------------------------------------------------------------------
# exceptional families


def _k2l_parameter(g: Graph) -> int | None:
    """l >= 2 when g is exactly K_{2,l}, else None. Structural, any order."""
    n = g.n
    if n < 4:
        return None
    rows = g.rows
    full = g.full_mask
    for u in range(n):
        if rows[u].bit_count() != n - 2:
            continue
        for v in range(u + 1, n):
            target = full ^ (1 << u) ^ (1 << v)
            if rows[u] != target or rows[v] != target:
                continue
            xmask = (1 << u) | (1 << v)
            if all(
                rows[y] == xmask for y in range(n) if not xmask >> y & 1
            ):
                return n - 2
    return None


# the six exceptional families of fixed order, by pattern tag; harness reads it too
_FIXED_FAMILIES = {"H2": "W4", "H3": "OCTAHEDRON", "H4": "TWO_K2",
                   "H5": "P5", "H6": "HAMMER", "H7": "BUTTERFLY"}


@lru_cache(maxsize=None)
def _fixed_family_codes() -> dict[tuple[int, int], str]:
    # (order, canonical code) -> family, for the six families of fixed order
    templates = {family: NamedPattern(tag).template for family, tag in _FIXED_FAMILIES.items()}
    return {(t.n, canonical_code(t)): family for family, t in templates.items()}


def detect_exceptional(g: Graph) -> FamilyTag | None:
    """The family tag when g is one of the seven exceptional graphs.

    H1 = K_{2,l} (l >= 2) is recognised structurally, at any order. The six
    others (H2 = wheel W4, H3 = octahedron, H4 = 2K2, H5 = P5, H6 = hammer,
    H7 = butterfly) have order 4 to 6 and are matched by canonical code.
    """
    l = _k2l_parameter(g)
    if l is not None:
        return FamilyTag("H1", l)
    family = 4 <= g.n <= 6 and _fixed_family_codes().get((g.n, canonical_code(g)))
    return FamilyTag(family) if family else None


# ---------------------------------------------------------------------------
# witness edges


# where a witness label applies, as a predicate on the record, in the
# order classify reports the labels: the hypotheses of LEMMA1, LEMMA2 and
# THM_UNBALANCED, whose rows in harness.CHECKERS read them here, and
# classify's rule for "nonsplit". Contracting an edge of a split graph
# K + S leaves it split, since no edge lies in S and the merged vertex
# joins K, so a split g has no nonsplit witness and classify does not
# search for one. THM_CONTRACTION reads ``witness("nonsplit")`` on every
# graph: its search on split graphs is the exhaustive evidence of that
_APPLIES: dict[str, Callable[[_Facts], bool]] = {
    "c4": lambda f: f.has_c4,
    "2k2": lambda f: f.has_2k2,
    "nonsplit": lambda f: f.g.is_connected() and not f.split,
    "unbalanced": lambda f: f.split and not f.star_excluded,
}


def _drops_unbalanced(f: _Facts, h: _Facts) -> bool:
    # h = g/e unbalanced split with clique number omega(g) - 1, read off
    # h's degree test; asked where g is split, so every g/e is split
    m, split, dm = h.degree_test
    if not split:
        raise NotSplit("balancedness is defined for split graphs only")
    return m == f.omega - 1 and dm == m - 1


# each label's test on the record f of g and the record h of g/e; 2k2
# tests C4 first, which the c4 search has often stored, and a C4 spares
# the 2K2 scan
_PASSES: dict[str, Callable[[_Facts, _Facts], bool]] = {
    "c4": lambda f, h: h.has_c4,
    "2k2": lambda f, h: h.has_c4 or h.has_2k2,
    "nonsplit": lambda f, h: not h.split,
    "unbalanced": _drops_unbalanced,
}


# the vertices a label's walk draws its edges from; an edge with an end
# outside them cannot pass the label's test (see _search)
_WITHIN: dict[str, Callable[[_Facts], int]] = {
    "c4": lambda f: f.g.full_mask,
    "2k2": lambda f: f.g.full_mask,
    "nonsplit": lambda f: f.g.full_mask,
    "unbalanced": lambda f: _mask(f.clique),
}


def _search(facts: _Facts, label: str) -> Edge | None:
    """The first edge e of facts.g, in lexicographic order, whose
    contraction g/e passes the label's test (``_PASSES``), or None.

    Every test reads g/e's own record (``_Facts.contracted``), so the
    labels share each contraction and each fact of it, and a label's
    witness does not depend on which labels were read before it.

    The walk tries only the edges with both ends in the label's vertex
    mask (``_WITHIN``); every other edge fails the test. For "unbalanced"
    that mask is the record's maximum clique Q, by this lemma: if Q misses
    v, then omega(g/uv) >= omega(g). If Q misses u too, Q survives in
    g/uv; otherwise the merged vertex keeps u's edges to Q - u, so it and
    Q - u form a clique of size omega(g). The test asks for
    omega(g/uv) = omega(g) - 1, so only edges inside Q can pass it.
    """
    passes = _PASSES[label]
    contracted = facts.contracted
    rows = facts.g.rows
    us = _WITHIN[label](facts)
    while us:
        ub = us & -us
        us ^= ub
        u = ub.bit_length() - 1
        above = rows[u] & us
        while above:
            b = above & -above
            above ^= b
            v = b.bit_length() - 1
            if passes(facts, contracted(u, v)):
                return Edge(u, v)
    return None


def find_c4_witness(g: Graph) -> Edge | None:
    """First edge whose contraction still has an induced C4, or None.

    None only happens on K_{2,l}, W4, and the octahedron.
    """
    facts = _Facts(g)
    if not facts.has_c4:
        raise NoInducedC4("graph has no induced C4")
    return facts.witness("c4")


def find_2k2_witness(g: Graph) -> Edge | None:
    """First edge whose contraction has an induced 2K2 or C4, or None.

    None only happens on 2K2, P5, the hammer, the butterfly, and C6.
    """
    facts = _Facts(g)
    if not facts.has_2k2:
        raise NoInduced2K2("graph has no induced 2K2")
    return facts.witness("2k2")


def find_nonsplit_witness(g: Graph) -> Edge | None:
    """First edge whose contraction is not split, or None."""
    return _Facts(g).witness("nonsplit")


def find_unbalanced_witness(g: Graph) -> Edge | None:
    """First edge e with omega(g/e) = omega(g) - 1 and g/e unbalanced split.

    Present iff g is unbalanced, for connected split inputs. Stars K_{1,m}
    with m >= 2 are rejected (the equivalence genuinely fails there), as is
    K1, which has no edge to contract; K2 passes through.
    """
    facts = _Facts(g)
    if not facts.split:
        raise NotSplit("witness search is defined for split graphs")
    if g.n < 2:
        raise IsStar("the one-vertex graph has no edges")
    if facts.star_excluded:
        raise IsStar(f"stars K_(1,{g.n - 1}) are excluded")
    return facts.witness("unbalanced")


# ---------------------------------------------------------------------------
# pseudo-split and the chromatic-sum classification


def is_pseudo_split(g: Graph) -> bool:
    """(2K2, C4)-free."""
    return _Facts(g).pseudo


def pseudo_split_decompose(g: Graph) -> PseudoSplitDecomposition:
    """Decompose a (2K2, C4)-free graph into (a, b, c).

    If an induced C5 exists, c is its vertex set, a the vertices adjacent to
    all of c, b the rest; otherwise c is empty and (a, b) is the
    KS-partition. The C5 is unique: a b-vertex on an induced C5 would have
    both cycle neighbours in the clique a, closing a triangle, and an
    a-vertex is adjacent to every other vertex of a and c, so any induced C5
    is exactly c.
    """
    facts = _Facts(g)
    if not facts.pseudo:
        raise NotPseudoSplit("graph has an induced 2K2 or C4")
    return facts.psd


def _psd(g: Graph, ks: KSPartition | None) -> PseudoSplitDecomposition:
    # g (2K2, C4)-free; ks its KS-partition, None when g is not split
    c = _find_c5(g)
    if c is None:
        if ks is None:
            raise NotSplit("graph admits no clique/independent-set partition")
        return PseudoSplitDecomposition(ks.k, ks.s, ())
    cmask = _mask(c)
    a = []
    b = []
    for v in range(g.n):
        if cmask >> v & 1:
            continue
        if g.rows[v] & cmask == cmask:
            a.append(v)
        else:
            b.append(v)
    return PseudoSplitDecomposition(tuple(a), tuple(b), c)


def is_ng_by_definition(g: Graph) -> bool:
    """chi(g) + chi(complement) reaches the maximum possible value n + 1.

    chi is at most the greedy colouring bound, so when the two greedy
    bounds sum to n or less the sum cannot reach n + 1, and no exact
    colouring runs.
    """
    gc = complement(g)
    # past COLORING_MAX_ORDER chromatic_number refuses the graph either way
    if g.n <= COLORING_MAX_ORDER and _greedy_bound(g) + _greedy_bound(gc) <= g.n:
        return False
    return chromatic_number(g) + chromatic_number(gc) == g.n + 1


def is_ng_by_characterisation(g: Graph) -> bool:
    """Equivalent structural test: pseudo-split but not balanced split."""
    return _Facts(g).ng


# ---------------------------------------------------------------------------
# the per-graph fact record


class _fact:
    """A fact of the record: fn(record), computed on its first read and then
    stored on the record under the fact's own name. As a non-data
    descriptor it is shadowed by the stored value, so later reads are plain
    attribute lookups."""

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.fn(record)
        return value


class _Facts:
    """The facts of one graph g that the paper's characterisations are
    stated in, each computed on its first read and at most once.

    This is the one definition of split (by degrees and by forbidden
    patterns), balanced, the KS-partition, pseudo-split and its
    decomposition, NG by the characterisation, the star exclusion and the
    four witnesses. ``classify``, the census tally, every verify theorem
    (hypothesis, check, exceptional region) and the public recognizers
    ``is_split``, ``is_split_forbidden``, ``is_pseudo_split``,
    ``pseudo_split_decompose``, ``ks_partition``, ``classify_ks_case``,
    ``is_balanced_split``, ``is_ng_by_characterisation`` and
    ``find_*_witness`` read a record; no other module reads its underscore
    fields. The oracles never read it: the partition walk, the
    ``find_induced`` re-checks and the colouring definition.

    The split fact reads the record's one degree test, (m, split, d_m)
    from ``_degree_test``, which also gives a split graph's clique number
    and balance. ``witness(label)`` is the first edge whose contraction
    passes the label's test (``_search``), computed when first read, for
    that label alone; a caller pays only for the labels it reads. g/e has
    its own record: ``contracted(u, v)`` builds it at most once per
    record, and everything known about g/e lives there, its C4 and 2K2
    scans, its degree test, its ``find_induced`` answers (``has_induced``)
    and THM_UNBALANCED's omega and balance. Every witness label, the LEMMA
    re-checks, THM_UNBALANCED's postcondition and the PROP checks all read
    it; the PROP checks test the contraction's vertex map on it and code
    nothing.
    """

    def __init__(self, g: Graph):
        self.g = g

    # (m, split, d_m) from g's degree list (see _degree_test)
    degree_test = _fact(lambda f: _degree_test(f.g))
    split = _fact(lambda f: f.degree_test[1])
    clique = _fact(lambda f: max_clique(f.g))
    omega = _fact(lambda f: len(f.clique))
    gc = _fact(lambda f: complement(f.g))
    co_clique = _fact(lambda f: max_clique(f.gc))
    alpha = _fact(lambda f: len(f.co_clique))
    # split with omega + alpha = n (see is_balanced_split)
    balanced = _fact(lambda f: f.split and f.omega + f.alpha == f.g.n)
    ks = _fact(lambda f: _ks(f.g, f.omega) if f.split else None)
    has_2k2 = _fact(lambda f: contains_2k2(f.g))
    has_c4 = _fact(lambda f: contains_c4(f.g))
    pseudo = _fact(lambda f: not f.has_2k2 and not f.has_c4)
    # split by forbidden patterns: a pseudo-split graph with no induced C5
    forbidden = _fact(lambda f: f.pseudo and not contains_c5(f.g))
    psd = _fact(lambda f: _psd(f.g, f.ks) if f.pseudo else None)
    # the NG characterisation: pseudo-split but not balanced split
    ng = _fact(lambda f: f.pseudo and not f.balanced)
    tag = _fact(lambda f: detect_exceptional(f.g))
    # find_unbalanced_witness refuses K1 and the stars K_(1,m), m >= 2
    star_excluded = _fact(lambda f: f.g.n < 2 or (f.g.n >= 3 and is_star(f.g)))
    _contractions = _fact(lambda f: {})
    _rechecks = _fact(lambda f: {})
    _found = _fact(lambda f: {})

    def contracted(self, u: int, v: int) -> _Facts:
        """The record of g/uv for an edge u < v of g, built once per record."""
        memo = self._contractions
        h = memo.get((u, v))
        if h is None:
            h = memo[u, v] = _Facts(_contract(self.g, u, v))
        return h

    def witness(self, label: str) -> Edge | None:
        """The label's witness edge, or None, searched on the first read."""
        found = self._found
        if label not in found:
            found[label] = _search(self, label)
        return found[label]

    def has_induced(self, pattern: NamedPattern) -> bool:
        """Whether ``find_induced`` finds pattern in g, searched once per pattern."""
        rechecks = self._rechecks
        if pattern not in rechecks:
            rechecks[pattern] = find_induced(self.g, pattern) is not None
        return rechecks[pattern]


# ---------------------------------------------------------------------------
# aggregate classification


def classify(g: Graph) -> ClassificationReport:
    """Run every recognizer and witness finder applicable to g; order <= 12."""
    if g.n > COLORING_MAX_ORDER:
        raise OrderTooLargeForColoring(
            f"classification needs exact coloring, order {g.n} > {COLORING_MAX_ORDER}"
        )
    facts = _Facts(g)
    chi = _chromatic(g, facts.clique)
    chi_c = _chromatic(facts.gc, facts.co_clique)
    found = [
        (label, facts.witness(label)) for label, applies in _APPLIES.items() if applies(facts)
    ]
    return ClassificationReport(
        is_split=facts.split,
        is_balanced_split=facts.balanced if facts.split else None,
        ks=facts.ks,
        exceptional=facts.tag,
        is_pseudo_split=facts.pseudo,
        psd=facts.psd,
        is_ng=chi + chi_c == g.n + 1,
        omega=facts.omega,
        alpha=facts.alpha,
        chi=chi,
        chi_complement=chi_c,
        witnesses=tuple((label, e) for label, e in found if e is not None),
    )
