"""Exhaustive verification of every characterization over enumerated graphs.

Each theorem is one row of ``CHECKERS``, a ``_Checker`` that states:

- its substrate: the connected graphs of orders 1..max_n and the
  disconnected ones up to an order of their own, or, for PROP4 and PROP5,
  the cycles or cliques of orders 4..max_n;
- its reach: how far ``verify_all`` sweeps it, and nothing else. An order
  is refused only where the code cannot answer: by ``_segments``, below 1
  or past the enumeration (past ``build``'s order 64 for PROP4 and PROP5),
  and for a graph given from outside, past the exact colouring's order 12;
- its hypothesis, a predicate on the graph's fact record
  (``recognition._Facts``). The check runs only where it holds; a graph of
  the substrate outside it is counted and passes;
- for LEMMA1, LEMMA2, THM_CONTRACTION and THM_UNBALANCED, the witness its
  check reads from the record: the first edge whose contraction passes the
  label's test, computed when first read; g/e has its own record;
- for THM_CONTRACTION, the exceptional region: which graphs are in it, and
  the graphs an enumerated sweep must find there;
- the check, which returns the details of each violation. It compares the
  record's facts with oracles that read none of them, or re-checks a
  witness with a search of its own.

A call walks its graphs once for all the theorems it checks: ``_segments``
yields the union of their substrates as runs of int codes of one order,
with the ids whose substrate holds each run; ``_check_run`` decodes each
graph of a chunk of a run, builds its record, runs each row and returns
the chunk's row seconds and reports. Counterexamples are merged and
sorted, so reports are the same for every worker count.
"""

from __future__ import annotations

import os
import time
from functools import cache, partial
from typing import Callable, Iterable, NamedTuple

from .errors import InvalidJobs, NotSplit, UnclassifiablePartition, UnknownTheorem
from .graphs import (
    ENUM_MAX_ORDER,
    MAX_ORDER,
    Graph,
    NamedPattern,
    _code,
    _connected_codes,
    _disconnected,
    _graph_from_code,
    _require_order,
    canonical_form,
    complete_graph,
    cycle_graph,
    write_graph6,
)
from .invariants import COLORING_MAX_ORDER, _contains_claw
from .recognition import _APPLIES, _FIXED_FAMILIES, _Facts, _ks_case, is_ng_by_definition


class TheoremReport(NamedTuple):
    theorem: str
    min_n: int
    max_n: int
    graphs_checked: int
    counterexamples: tuple[tuple[str, str], ...]
    enumerate_ms: float
    check_ms: float

    @property
    def elapsed_ms(self) -> float:
        """Building the code lists (enumerating or reading them) plus checking them."""
        return self.enumerate_ms + self.check_ms

    @property
    def verdict(self) -> str:
        return "PASS" if not self.counterexamples else "FAIL"

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "order_range": {"min": self.min_n, "max": self.max_n},
            "graphs_checked": self.graphs_checked,
            "counterexamples": [
                {"graph6": g6, "detail": detail} for g6, detail in self.counterexamples
            ],
            "enumerate_ms": self.enumerate_ms,
            "check_ms": self.check_ms,
            "elapsed_ms": self.elapsed_ms,
            "verdict": self.verdict,
        }

    def render_text(self) -> str:
        lines = [
            f"{self.theorem:<20} orders {self.min_n}..{self.max_n}  "
            f"graphs={self.graphs_checked:<7} elapsed={self.elapsed_ms:.1f}ms  {self.verdict}"
        ]
        for g6, detail in self.counterexamples:
            lines.append(f"  counterexample {g6}: {detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# per-graph checks; each takes a graph of its theorem's substrate on which
# the hypothesis holds, and the graph's fact record, and returns the details
# of each violation


def _defects(facts: _Facts, u: int, v: int) -> list[int]:
    """The defect table of the edge u < v: entry x is the set of y, x
    itself included, where g/uv read through the contraction's vertex map
    (v to u, every label above v down by one) disagrees with g, i.e. bit
    φ(y) of row φ(x) of g/uv is not adj_g(x, y).

    The image of C then induces a graph isomorphic to G[C] exactly when no
    defect lies inside C. With u and v not both in C, the map is one-to-one
    on C, so the image is isomorphic to G[C] exactly when the map is an
    isomorphism; with both in C, u and v are a defect of each other.
    """
    image_rows = facts.contracted(u, v).g.rows
    low = (1 << v) - 1
    # row φ(x) of g/uv for each x of g, read on g's labels: bit y is bit φ(y)
    images = image_rows[:v] + image_rows[u : u + 1] + image_rows[v:]
    return [
        (s & low | s >> v << (v + 1) | (s >> u & 1) << v) ^ r
        for s, r in zip(images, facts.g.rows)
    ]


def _broken(defects: list[int], need: int, allowed: int) -> list[int]:
    """Each C with need ⊆ C ⊆ allowed and a defect inside it, ascending."""
    inside = [
        (1 << x, d & allowed) for x, d in enumerate(defects) if d & allowed and allowed >> x & 1
    ]
    if not inside:
        return []  # the walk below runs only on a broken contraction
    found = []
    free = allowed & ~need
    s = 0
    while True:
        c = s | need
        if any(c & b and c & d for b, d in inside):
            found.append(c)
        if s == free:
            return found
        s = (s - free) & free


def _members(g: Graph, cmask: int) -> list[int]:
    return [x for x in range(g.n) if cmask >> x & 1]


def _check_prop1(g: Graph, facts: _Facts):
    # C holds u and misses v and N(v) - N[u]; a failing C is one of them
    # with a defect of the edge uv inside it
    bad = []
    rows = g.rows
    for a, b in g.edges():
        defects = _defects(facts, a, b)
        for u, v in ((a, b), (b, a)):
            allowed = g.full_mask & ~(1 << v | rows[v] & ~rows[u] & ~(1 << u))
            for cmask in _broken(defects, 1 << u, allowed):
                bad.append((cmask, u, v))
    # in the order of C, then u, then v
    bad.sort()
    return tuple(
        f"C={_members(g, cmask)} u={u} v={v}: induced subgraph not preserved"
        for cmask, u, v in bad
    )


def _check_prop2(g: Graph, facts: _Facts):
    # a failing C avoids u and v and holds a defect of the edge uv
    bad = []
    for u, v in g.edges():
        allowed = g.full_mask & ~(1 << u | 1 << v)
        for cmask in _broken(_defects(facts, u, v), 0, allowed):
            bad.append((cmask, u, v))
    bad.sort()
    return tuple(
        f"C={_members(g, cmask)} e=({u},{v}): induced subgraph not preserved"
        for cmask, u, v in bad
    )


def _check_prop3(g: Graph, facts: _Facts):
    # a failing C misses N[y] for some y, and every edge not inside C has a
    # defect inside C (an edge inside C leaves an image smaller than G[C]).
    # So C is a set _broken lists for y's first edge within V - N[y], or,
    # if y has no edge, any non-empty set there, as for a table where each
    # vertex is its own defect
    rows = g.rows
    table = cache(partial(_defects, facts))  # each edge's, made when first read
    candidates = set()
    for y in range(g.n):
        allowed = g.full_mask & ~(1 << y | rows[y])
        w = (rows[y] & -rows[y]).bit_length() - 1
        if allowed:
            defects = table(min(y, w), max(y, w)) if w >= 0 else [1 << x for x in range(g.n)]
            candidates.update(_broken(defects, 0, allowed))
    return tuple(
        f"C={_members(g, cmask)}: no contraction preserves the induced subgraph"
        for cmask in sorted(candidates)
        if all(
            cmask >> u & 1 and cmask >> v & 1 or _broken(table(u, v), cmask, cmask)
            for u, v in g.edges()
        )
    )


def _is_member(family: Callable[[int], Graph], n: int, g: Graph) -> bool:
    """Whether g is family(n) up to labels: a connected graph with the
    degree list of C_n or K_n is C_n or K_n."""
    return g.is_connected() and g.degrees() == family(n).degrees()


def _in_family(family: Callable[[int], Graph], facts: _Facts) -> bool:
    # PROP4 and PROP5 contract the edges of C_n and K_n, n >= 4
    g = facts.g
    return g.n >= 4 and _is_member(family, g.n, g)


def _check_family(family: Callable[[int], Graph], name: str, g: Graph, facts: _Facts):
    # PROP4 (cycles, name "C") and PROP5 (cliques, "K")
    return tuple(
        f"{name}{g.n}/({u},{v}) is not {name}{g.n - 1}"
        for u, v in g.edges()
        if not _is_member(family, g.n - 1, facts.contracted(u, v).g)
    )


_C4 = NamedPattern("C4")
_TWO_K2 = NamedPattern("TWO_K2")


def _check_lemma1(g: Graph, facts: _Facts):
    tag = facts.tag
    e = facts.witness("c4")
    if tag is not None and tag.family in ("H1", "H2", "H3"):
        return () if e is None else (f"terminal graph {tag} has witness ({e.u},{e.v})",)
    if e is None:
        return ("no C4-preserving contraction on a non-terminal graph",)
    # the re-check searches the record of the contraction the search tested
    if not facts.contracted(*e).has_induced(_C4):
        return (f"contraction by ({e.u},{e.v}) lacks the promised C4",)
    return ()


def _check_lemma2(g: Graph, facts: _Facts):
    tag = facts.tag
    terminal = (tag is not None and tag.family in ("H4", "H5", "H6", "H7")) or (
        g.n == 6 and _is_member(cycle_graph, 6, g)
    )
    e = facts.witness("2k2")
    if terminal:
        return () if e is None else (f"terminal graph has witness ({e.u},{e.v})",)
    if e is None:
        return ("no 2K2/C4-preserving contraction on a non-terminal graph",)
    h = facts.contracted(*e)
    # search h for the pattern its scans found: a C4 where its C4 scan says
    # yes (LEMMA1's stored answer, on a shared edge), else a 2K2
    if not h.has_induced(_C4 if h.has_c4 else _TWO_K2):
        return (f"contraction by ({e.u},{e.v}) lacks the promised 2K2/C4",)
    return ()


def _ks_partitions(g: Graph):
    # yields the mask of every clique K with V - K independent, by brute
    # force over every clique, independent of both recognizers and of omega:
    # a depth-first walk grows each clique once, by common neighbours above
    # its largest vertex, and tests whether V - K is independent. A clique is
    # dropped with its whole branch when the vertices outside it that can no
    # longer join it already span an edge.
    rows = g.rows
    full = g.full_mask
    stack = [(0, full)]
    while stack:
        k, cand = stack.pop()
        rest = full ^ k
        out = rest & ~cand  # outside K, and can no longer join it
        m = out
        while m:
            b = m & -m
            m ^= b
            if rows[b.bit_length() - 1] & out:
                break
        else:
            # out is independent, so V - K is when no edge meets cand
            m = cand
            while m:
                b = m & -m
                m ^= b
                if rows[b.bit_length() - 1] & rest:
                    break
            else:
                yield k
            while cand:
                b = cand & -cand
                cand ^= b
                stack.append((k | b, cand & rows[b.bit_length() - 1]))


def _check_split_triple(g: Graph, facts: _Facts):
    # the record's pattern scans and degree test, and the partition walk
    a = facts.forbidden
    b = facts.split
    c = next(_ks_partitions(g), None) is not None
    return () if a == b == c else (f"forbidden={a} degrees={b} partition={c}",)


def _check_2k2_claw(g: Graph, facts: _Facts):
    return () if facts.split else ("(2K2, claw)-free with alpha >= 3 but not split",)


def _check_contraction(g: Graph, facts: _Facts):
    split = facts.split
    tag = facts.tag
    e = facts.witness("nonsplit")
    if int(split) + int(tag is not None) + int(e is not None) == 1:
        return ()
    w = None if e is None else tuple(e)
    return (f"regions overlap or miss: split={split} family={tag} witness={w}",)


def _expected_exceptional(max_n: int) -> set[str]:
    # K_{2,l} and the connected fixed-order families (all but 2K2) to order max_n
    templates = [NamedPattern("K_2_L", l).template for l in range(2, max_n - 1)]
    fixed = (NamedPattern(tag).template for tag in _FIXED_FAMILIES.values())
    templates += [t for t in fixed if t.n <= max_n and t.is_connected()]
    return {write_graph6(canonical_form(t)) for t in templates}


def _check_ks_cases(g: Graph, facts: _Facts):
    bad = []
    case_i = 0
    omega = facts.omega
    alpha = facts.alpha
    # in mask order, as the details list the partitions
    for kmask in sorted(_ks_partitions(g)):
        size = kmask.bit_count()
        try:
            case = _ks_case((size, g.n - size), omega, alpha)
        except UnclassifiablePartition as exc:
            k = tuple(x for x in range(g.n) if kmask >> x & 1)
            bad.append(f"K={k}: {exc}")
            continue
        if case == "I":
            case_i += 1
    if case_i > 1:
        bad.append(f"{case_i} distinct case-I partitions")
    if (case_i == 1) != facts.balanced:
        bad.append("omega+alpha=n criterion disagrees with case-I existence")
    return tuple(bad)


def _check_unbalanced(g: Graph, facts: _Facts):
    e = facts.witness("unbalanced")
    unbalanced = not facts.balanced
    if (e is not None) != unbalanced:
        w = None if e is None else tuple(e)
        return (f"unbalanced={unbalanced} but witness={w}",)
    if e is not None:
        # the postcondition reads g/e's own record
        h = facts.contracted(*e)
        if not h.split:
            return (f"contraction by ({e.u},{e.v}) is not split",)
        if h.omega != facts.omega - 1 or h.balanced:
            return (f"witness ({e.u},{e.v}) fails its own postcondition",)
    return ()


def _check_pseudo(g: Graph, facts: _Facts):
    # the record's decomposition of a (2K2, C4)-free graph; the scans behind
    # the hypothesis are cross-checked by THM_NG (against the colouring
    # definition) and THM_SPLIT_FORBIDDEN (against the degree test and the
    # partition walk)
    try:
        d = facts.psd
    except NotSplit:
        return ("C5-free pseudo-split graph is not split",)
    if not d.is_valid_for(g):
        return (f"invalid decomposition a={d.a} b={d.b} c={d.c}",)
    return ()


def _check_ng(g: Graph, facts: _Facts):
    by_def = is_ng_by_definition(g)
    by_char = facts.ng
    return () if by_def == by_char else (f"definition={by_def} characterisation={by_char}",)


class _Checker(NamedTuple):
    check: Callable[[Graph, _Facts], tuple[str, ...]]
    # how far ``verify_all`` sweeps the row; ``verify`` sweeps it to the
    # order it is given
    reach: int = ENUM_MAX_ORDER
    # the substrate: the connected graphs of orders 1..max_n and the
    # disconnected ones of orders up to `disconnected`, whatever max_n; or,
    # when `family` is set, family(n) for n = 4..max_n alone
    disconnected: int = 0
    family: Callable[[int], Graph] | None = None
    # the hypothesis, a predicate on the record: the check runs only where
    # it holds, and None means on the whole substrate
    hypothesis: Callable[[_Facts], bool] | None = None
    # the exceptional region: whether the record's graph is in it, and the
    # graph6 set of an enumerated sweep to max_n
    region: tuple[Callable[[_Facts], bool], Callable[[int], set[str]]] | None = None


CHECKERS: dict[str, _Checker] = {
    "PROP1": _Checker(_check_prop1, reach=6, disconnected=6),
    "PROP2": _Checker(_check_prop2, reach=6, disconnected=6),
    "PROP3": _Checker(_check_prop3, reach=6),
    "PROP4": _Checker(
        partial(_check_family, cycle_graph, "C"), reach=10, family=cycle_graph,
        hypothesis=partial(_in_family, cycle_graph),
    ),
    "PROP5": _Checker(
        partial(_check_family, complete_graph, "K"), reach=10, family=complete_graph,
        hypothesis=partial(_in_family, complete_graph),
    ),
    # a row whose witness label applies only under its hypothesis reads it
    # where classify does
    "LEMMA1": _Checker(_check_lemma1, hypothesis=_APPLIES["c4"]),
    "LEMMA2": _Checker(_check_lemma2, hypothesis=_APPLIES["2k2"]),
    # every class through order 7, connected classes only past it
    "THM_SPLIT_FORBIDDEN": _Checker(_check_split_triple, disconnected=7),
    "THM_2K2_CLAW": _Checker(
        _check_2k2_claw,
        hypothesis=lambda f: not f.has_2k2 and not _contains_claw(f.g) and f.alpha >= 3,
    ),
    "THM_CONTRACTION": _Checker(
        _check_contraction,
        region=(lambda f: not f.split and f.witness("nonsplit") is None, _expected_exceptional),
    ),
    "THM_KS_CASES": _Checker(
        _check_ks_cases, reach=7, disconnected=7, hypothesis=lambda f: f.split
    ),
    "THM_UNBALANCED": _Checker(_check_unbalanced, hypothesis=_APPLIES["unbalanced"]),
    "THM_PSEUDO": _Checker(_check_pseudo, disconnected=8, hypothesis=lambda f: f.pseudo),
    "THM_NG": _Checker(_check_ng, reach=7, disconnected=7),
}

THEOREM_IDS = tuple(CHECKERS)


def _check_run(active: tuple[str, ...], n: int, codes):
    """Check the graphs of order n with these codes (``_graph_from_code``)
    against the rows of the active theorems, over one fact record each.

    Each row's check runs where its hypothesis holds. Returns each row's
    seconds (with its hypothesis test; the decoding goes to the first row)
    summed over the codes, in the order of the active ids, and (index,
    graph6, details, member) for each row of each graph with something to
    report, member telling whether the graph is in its exceptional region.
    """
    clock = time.perf_counter
    checkers = [CHECKERS[t] for t in active]
    seconds = [0.0] * len(active)
    bad = []
    last = clock()
    for code in codes:
        g = _graph_from_code(n, code)
        facts = _Facts(g)
        for i, c in enumerate(checkers):
            hypothesis = c.hypothesis
            details = c.check(g, facts) if hypothesis is None or hypothesis(facts) else ()
            member = c.region is not None and c.region[0](facts)
            if details or member:
                bad.append((i, write_graph6(g), details, member))
            now = clock()
            seconds[i] += now - last
            last = now
    return seconds, bad


def check_one(theorem: str, g: Graph) -> tuple[str, ...]:
    """Re-run one theorem's per-graph check in isolation (counterexample replay)."""
    if theorem not in CHECKERS:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}")
    _require_corpus_order(g)
    _, bad = _check_run((theorem,), g.n, (_code(g),))
    return bad[0][2] if bad else ()


def _require_corpus_order(g: Graph) -> None:
    # a graph given from outside goes as far as THM_NG's exact colouring,
    # which classify also needs
    _require_order(g.n, COLORING_MAX_ORDER)


def default_jobs() -> int:
    """Worker count for --jobs: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Pool:
    """Calls fn on contiguous chunks of items: one result per chunk, in order.

    ``with _Pool(jobs) as pool:`` opens it; ``pool(fn, items)`` maps. At
    jobs 1 or below 256 items fn gets all the items at once; otherwise at
    most 4 chunks per worker, streamed back from one ``multiprocessing``
    pool started on first use and terminated when the block ends. fn
    reduces its chunk where it runs, so no caller holds a result per item.
    ``pool(fn, items, size)`` counts size items instead: the whole walk
    that a short run of items is part of.
    """

    def __init__(self, jobs: int):
        if jobs < 1:
            raise InvalidJobs(f"jobs must be at least 1, got {jobs}")
        self.jobs = jobs
        self._workers = None

    def __enter__(self) -> _Pool:
        return self

    def __exit__(self, *exc) -> None:
        if self._workers is not None:
            self._workers.terminate()

    def __call__(self, fn, items, size: int | None = None) -> Iterable:
        if self.jobs == 1 or (len(items) if size is None else size) < 256:
            return (fn(items),)
        if self._workers is None:
            import multiprocessing

            self._workers = multiprocessing.Pool(self.jobs)
        step = -(-len(items) // (self.jobs * 4))
        # one task per chunk; perfbench's traced imap forwards an omitted chunksize as None
        chunks = [items[i : i + step] for i in range(0, len(items), step)]
        return self._workers.imap(fn, chunks, 1)


def verify(theorem: str, max_n: int = 7, source=None, jobs: int = 1) -> TheoremReport:
    """Sweep one theorem over the built-in enumeration or a corpus.

    source: None to sweep the theorem's substrate to max_n, whatever its
    reach, as far as the enumeration goes (PROP4 and PROP5 to order 64); or
    an iterable of Graph of order up to 12, which ignores max_n. With jobs
    above 1, one pool of jobs workers serves both the top enumeration order
    and the checks.
    """
    with _Pool(jobs) as pool:
        if theorem not in CHECKERS:
            raise UnknownTheorem(f"unknown theorem id {theorem!r}")
        return _verify({theorem: max_n}, source, pool)[0]


def verify_all(max_n: int = 7, jobs: int = 1, source=None) -> list[TheoremReport]:
    """One report per theorem id, from one walk over the graphs.

    source is as for ``verify``. When enumerating, each row is swept to
    max_n or to its reach, whichever is lower (shown in the report).
    """
    with _Pool(jobs) as pool:
        return _verify({t: min(max_n, CHECKERS[t].reach) for t in THEOREM_IDS}, source, pool)


def _segments(orders: dict[str, int], pool: _Pool):
    """(active ids, n, codes) runs covering the union of the substrates.

    orders maps each theorem id to the largest order it sweeps. Each graph
    of orders 1..max is one int code of order n, in one run, with the ids
    whose substrate holds it: the canonical codes of the connected classes
    of each order, then the labelled codes (``_code``) of the disconnected
    ones and of the family graphs.

    Before it enumerates anything, it refuses an order below 1, an
    enumerated one past the enumeration and a family's past ``build``.
    """
    walked = [t for t in orders if CHECKERS[t].family is None]
    for t, n in orders.items():
        _require_order(n, ENUM_MAX_ORDER if t in walked else MAX_ORDER)
    for n in range(1, max((orders[t] for t in walked), default=0) + 1):
        connected = tuple(t for t in walked if n <= orders[t])
        yield connected, n, _connected_codes(n, pool)
        disconnected = tuple(t for t in connected if n <= CHECKERS[t].disconnected)
        if disconnected:
            yield disconnected, n, [_code(g) for g in _disconnected(n)]
    for t in orders:
        family = CHECKERS[t].family
        if family is not None:
            for n in range(4, orders[t] + 1):
                yield (t,), n, [_code(family(n))]


def _verify(orders: dict[str, int], source, pool: _Pool) -> list[TheoremReport]:
    """One report per id of orders, in its order, from one walk.

    orders maps each theorem id to the largest order its substrate is swept
    to (ignored for a corpus, whose every graph goes to every theorem, in
    one run per order).
    """
    tids = tuple(orders)
    start = time.perf_counter()
    if source is None:
        runs = list(_segments(orders, pool))
    else:
        by_order: dict[int, list[int]] = {}
        for g in source:
            _require_corpus_order(g)
            by_order.setdefault(g.n, []).append(_code(g))
        runs = [(tids, n, by_order[n]) for n in sorted(by_order)]
    built = time.perf_counter()
    # a walk of 256 graphs or more maps every run on the pool, however short:
    # a corpus has one run per order
    size = sum(len(codes) for _, _, codes in runs)
    checked = dict.fromkeys(tids, 0)
    span: dict[str, tuple[int, int]] = {}
    seconds = dict.fromkeys(tids, 0.0)
    violations: dict[str, list] = {t: [] for t in tids}
    members: dict[str, list] = {t: [] for t in tids}
    for active, n, codes in runs:
        if not codes:
            continue
        for t in active:
            checked[t] += len(codes)
            lo, hi = span.get(t, (n, n))
            span[t] = (min(lo, n), max(hi, n))
        # each chunk comes back reduced: row seconds and what it reports
        for times, bad in pool(partial(_check_run, active, n), codes, size):
            for t, s in zip(active, times):
                seconds[t] += s
            for i, g6, details, member in bad:
                violations[active[i]].extend((g6, d) for d in details)
                if member:
                    members[active[i]].append(g6)
    reports = []
    for t in tids:
        found = violations[t]
        region = CHECKERS[t].region
        if source is None and region is not None:
            expected = region[1](orders[t])
            seen = set(members[t])
            for g6 in sorted(seen - expected):
                found.append((g6, "unexpected member of the exceptional region"))
            for g6 in sorted(expected - seen):
                found.append((g6, "expected exceptional graph not found"))
        found.sort()
        empty = orders[t] if source is None else 0
        lo, hi = span.get(t, (empty, empty))
        # the shared code lists are charged to the first report
        enumerate_ms = (built - start) * 1000.0 if t == tids[0] else 0.0
        reports.append(
            TheoremReport(t, lo, hi, checked[t], tuple(found), enumerate_ms, seconds[t] * 1000.0)
        )
    return reports


# ---------------------------------------------------------------------------
# census


class CensusRow(NamedTuple):
    n: int
    connected: int
    split: int
    balanced_split: int
    unbalanced_split: int
    non_split: int
    exceptional: dict
    pseudo_split: int
    ng: int

    def to_dict(self) -> dict:
        return {**self._asdict(), "exceptional": dict(self.exceptional)}


def _census_run(n: int, codes) -> dict[tuple, int]:
    """The count of each census flag tuple (split, balanced, family or None,
    pseudo, ng) over the connected graphs of order n with these codes.

    Mapped over ``_connected_codes(n)``, so a pool worker decodes its own
    graphs and only ints and counts cross the process boundary.
    """
    tally: dict[tuple, int] = {}
    for code in codes:
        f = _Facts(_graph_from_code(n, code))
        flags = f.split, f.balanced, None if f.tag is None else str(f.tag), f.pseudo, f.ng
        tally[flags] = tally.get(flags, 0) + 1
    return tally


def census(max_n: int = 7, jobs: int = 1) -> list[CensusRow]:
    """Classification counts over connected graphs of each order up to max_n.

    Each order's codes are tallied through one ``_Pool`` of jobs workers,
    which also fills the orders not yet enumerated: ``_census_run`` is
    mapped over chunks of the codes, so the graphs are decoded and counted
    where they are classified and no ``Graph`` is pickled.
    """
    with _Pool(jobs) as pool:
        _require_order(max_n)
        rows = []
        for n in range(1, max_n + 1):
            codes = _connected_codes(n, pool)
            split = balanced = pseudo = ng = 0
            families: dict[str, int] = {}
            for tally in pool(partial(_census_run, n), codes):
                for (sp, bal, tag, ps, isng), k in tally.items():
                    split += sp * k
                    balanced += bal * k
                    pseudo += ps * k
                    ng += isng * k
                    if tag is not None:
                        families[tag] = families.get(tag, 0) + k
            rows.append(
                CensusRow(
                    n=n,
                    connected=len(codes),
                    split=split,
                    balanced_split=balanced,
                    unbalanced_split=split - balanced,
                    non_split=len(codes) - split,
                    exceptional=dict(sorted(families.items())),
                    pseudo_split=pseudo,
                    ng=ng,
                )
            )
    return rows


def render_census_text(rows: list[CensusRow]) -> str:
    header = (
        f"{'n':>2} {'connected':>9} {'split':>6} {'balanced':>9} "
        f"{'unbalanced':>10} {'non-split':>9} {'pseudo':>6} {'ng':>5}  exceptional"
    )
    lines = [header]
    for r in rows:
        fams = ", ".join(f"{k}:{v}" for k, v in r.exceptional.items()) or "-"
        lines.append(
            f"{r.n:>2} {r.connected:>9} {r.split:>6} {r.balanced_split:>9} "
            f"{r.unbalanced_split:>10} {r.non_split:>9} {r.pseudo_split:>6} {r.ng:>5}  {fams}"
        )
    return "\n".join(lines)
