"""Exhaustive verification of every characterization over enumerated graphs.

Each theorem id maps to a per-graph check plus a substrate (which graphs to
sweep). Sweeps are embarrassingly parallel; counterexamples are merged and
re-sorted so reports are deterministic regardless of worker count.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import (
    InvalidJobs,
    IsStar,
    NotPseudoSplit,
    NotSplit,
    OrderOutOfRange,
    UnclassifiablePartition,
    UnknownTheorem,
)
from .graphs import (
    ENUM_MAX_ORDER,
    Graph,
    NamedPattern,
    _connected_codes,
    _contract,
    _induced,
    canonical_code,
    canonical_form,
    complete_graph,
    cycle_graph,
    enumerate_all,
    enumerate_connected,
    write_graph6,
)
from .invariants import (
    _contains_claw,
    clique_number,
    contains_2k2,
    contains_c4,
    find_induced,
    independence_number,
)
from .recognition import (
    _2k2_witness,
    _c4_witness,
    _is_clique,
    _is_independent,
    _ks,
    _ks_case,
    _psd,
    detect_exceptional,
    find_nonsplit_witness,
    find_unbalanced_witness,
    is_balanced_split,
    is_pseudo_split,
    is_split,
    is_split_degrees,
    is_split_forbidden,
    is_ng_by_characterisation,
    is_ng_by_definition,
    pseudo_split_decompose,
)

THEOREM_IDS = (
    "PROP1",
    "PROP2",
    "PROP3",
    "PROP4",
    "PROP5",
    "LEMMA1",
    "LEMMA2",
    "THM_SPLIT_FORBIDDEN",
    "THM_2K2_CLAW",
    "THM_CONTRACTION",
    "THM_KS_CASES",
    "THM_UNBALANCED",
    "THM_PSEUDO",
    "THM_NG",
)

CORPUS_MAX_ORDER = 10


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
        """Building the graph list (enumerating or reading it) plus checking it."""
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
# substrates


def _sub_connected(max_n: int, pool: _Pool) -> Iterator[Graph]:
    _connected_codes(max_n, pool)
    for n in range(1, max_n + 1):
        yield from enumerate_connected(n)


def _sub_all(max_n: int, pool: _Pool) -> Iterator[Graph]:
    _connected_codes(max_n, pool)
    for n in range(1, max_n + 1):
        yield from enumerate_all(n)


def _sub_all_then_connected(max_n: int, pool: _Pool) -> Iterator[Graph]:
    # every class through order 7, connected classes only at 8
    _connected_codes(max_n, pool)
    for n in range(1, max_n + 1):
        if n <= 7:
            yield from enumerate_all(n)
        else:
            yield from enumerate_connected(n)


def _sub_cycles(max_n: int, pool: _Pool) -> Iterator[Graph]:
    for n in range(4, max_n + 1):
        yield cycle_graph(n)


def _sub_cliques(max_n: int, pool: _Pool) -> Iterator[Graph]:
    for n in range(4, max_n + 1):
        yield complete_graph(n)


# ---------------------------------------------------------------------------
# per-graph checks; each returns (violation details, in-exceptional-region)


def _contraction_image(cmask: int, u: int, v: int) -> int:
    """The vertex mask cmask becomes after contracting u < v."""
    if cmask >> v & 1:
        cmask = cmask & ~(1 << v) | 1 << u
    # drop bit v and shift every label above it down by one
    return (cmask & ((1 << v) - 1)) | (cmask >> (v + 1)) << v


def _check_prop1(g: Graph):
    bad = []
    rows = g.rows
    for cmask in range(1, 1 << g.n):
        cset = [x for x in range(g.n) if cmask >> x & 1]
        code = canonical_code(_induced(g, cmask))
        for u in cset:
            ncu = rows[u] & cmask
            outside = rows[u] & ~cmask
            while outside:
                b = outside & -outside
                outside ^= b
                v = b.bit_length() - 1
                if rows[v] & cmask & ~(1 << u) & ~ncu:
                    continue  # N_C(v) minus u not inside N_C(u)
                lo, hi = (u, v) if u < v else (v, u)
                h = _contract(g, lo, hi)
                if canonical_code(_induced(h, _contraction_image(cmask, lo, hi))) != code:
                    bad.append(
                        f"C={cset} u={u} v={v}: induced subgraph not preserved"
                    )
    return tuple(bad), False


def _check_prop2(g: Graph):
    bad = []
    edges = g.edges()
    for cmask in range(1, 1 << g.n):
        code = canonical_code(_induced(g, cmask))
        for u, v in edges:
            if cmask >> u & 1 or cmask >> v & 1:
                continue
            h = _contract(g, u, v)
            if canonical_code(_induced(h, _contraction_image(cmask, u, v))) != code:
                cset = [x for x in range(g.n) if cmask >> x & 1]
                bad.append(f"C={cset} e=({u},{v}): induced subgraph not preserved")
    return tuple(bad), False


def _check_prop3(g: Graph):
    bad = []
    rows = g.rows
    edges = g.edges()
    for cmask in range(1, g.full_mask):
        cover = 0
        cset = []
        m = cmask
        while m:
            b = m & -m
            m ^= b
            x = b.bit_length() - 1
            cset.append(x)
            cover |= b | rows[x]
        if cover == g.full_mask:
            continue  # dominating sets are out of scope
        code = canonical_code(_induced(g, cmask))
        # an edge inside C shrinks the image, which then cannot match
        if not any(
            canonical_code(_induced(_contract(g, *e), _contraction_image(cmask, e.u, e.v))) == code
            for e in edges
            if not (cmask >> e.u & 1 and cmask >> e.v & 1)
        ):
            bad.append(f"C={cset}: no contraction preserves the induced subgraph")
    return tuple(bad), False


def _check_prop4(g: Graph):
    if g.n < 4 or not (g.is_connected() and all(d == 2 for d in g.degrees())):
        return (), False
    target = canonical_code(cycle_graph(g.n - 1))
    bad = tuple(
        f"C{g.n}/({e.u},{e.v}) is not C{g.n - 1}"
        for e in g.edges()
        if canonical_code(_contract(g, *e)) != target
    )
    return bad, False


def _check_prop5(g: Graph):
    if g.n < 4 or g.edge_count() != g.n * (g.n - 1) // 2:
        return (), False
    target = canonical_code(complete_graph(g.n - 1))
    bad = tuple(
        f"K{g.n}/({e.u},{e.v}) is not K{g.n - 1}"
        for e in g.edges()
        if canonical_code(_contract(g, *e)) != target
    )
    return bad, False


def _check_lemma1(g: Graph):
    if not contains_c4(g):
        return (), False
    tag = detect_exceptional(g)
    terminal = tag is not None and tag.family in ("H1", "H2", "H3")
    e = _c4_witness(g)
    if terminal:
        if e is not None:
            return (f"terminal graph {tag} has witness ({e.u},{e.v})",), False
        return (), False
    if e is None:
        return ("no C4-preserving contraction on a non-terminal graph",), False
    if find_induced(_contract(g, e.u, e.v), NamedPattern("C4")) is None:
        return (f"contraction by ({e.u},{e.v}) lacks the promised C4",), False
    return (), False


_LEMMA2_TERMINAL_FAMILIES = ("H4", "H5", "H6", "H7")
_C6_CODE = canonical_code(cycle_graph(6))


def _check_lemma2(g: Graph):
    if not contains_2k2(g):
        return (), False
    tag = detect_exceptional(g)
    terminal = (tag is not None and tag.family in _LEMMA2_TERMINAL_FAMILIES) or (
        g.n == 6 and canonical_code(g) == _C6_CODE
    )
    e = _2k2_witness(g)
    if terminal:
        if e is not None:
            return (f"terminal graph has witness ({e.u},{e.v})",), False
        return (), False
    if e is None:
        return ("no 2K2/C4-preserving contraction on a non-terminal graph",), False
    h = _contract(g, e.u, e.v)
    if (
        find_induced(h, NamedPattern("TWO_K2")) is None
        and find_induced(h, NamedPattern("C4")) is None
    ):
        return (f"contraction by ({e.u},{e.v}) lacks the promised 2K2/C4",), False
    return (), False


def _ks_partition_exists(g: Graph) -> bool:
    # brute force over every clique K, independent of both recognizers and
    # of omega: a depth-first walk grows each clique once, by common
    # neighbours above its largest vertex, and tests whether V - K is
    # independent. A clique is dropped with its whole branch when the
    # vertices outside it that can no longer join it already span an edge.
    rows = g.rows
    full = g.full_mask
    stack = [(0, full)]
    while stack:
        k, cand = stack.pop()
        rest = full ^ k
        if not _is_independent(g, rest & ~cand):
            continue
        if _is_independent(g, rest):
            return True
        while cand:
            b = cand & -cand
            cand ^= b
            stack.append((k | b, cand & rows[b.bit_length() - 1]))
    return False


def _check_split_triple(g: Graph):
    a = is_split_forbidden(g)
    b = is_split_degrees(g)
    c = _ks_partition_exists(g)
    if a == b == c:
        return (), False
    return (f"forbidden={a} degrees={b} partition={c}",), False


def _check_2k2_claw(g: Graph):
    if contains_2k2(g):
        return (), False
    if _contains_claw(g):
        return (), False
    if independence_number(g) < 3:
        return (), False
    if is_split(g):
        return (), False
    return ("(2K2, claw)-free with alpha >= 3 but not split",), False


def _check_contraction(g: Graph):
    split = is_split(g)
    tag = detect_exceptional(g)
    e = find_nonsplit_witness(g)
    hits = int(split) + int(tag is not None) + int(e is not None)
    exceptional_member = not split and e is None
    if hits != 1:
        w = None if e is None else (e.u, e.v)
        return (f"regions overlap or miss: split={split} family={tag} witness={w}",), exceptional_member
    return (), exceptional_member


def _expected_exceptional(max_n: int) -> set[str]:
    names = []
    for l in range(2, max_n - 1):
        names.append(NamedPattern("K_2_L", l))
    for tag, order in (("W4", 5), ("P5", 5), ("HAMMER", 5), ("BUTTERFLY", 5), ("OCTAHEDRON", 6)):
        if order <= max_n:
            names.append(NamedPattern(tag))
    return {write_graph6(canonical_form(p.template)) for p in names}


def _check_ks_cases(g: Graph):
    if not is_split(g):
        return (), False
    bad = []
    case_i = 0
    omega = clique_number(g)
    alpha = independence_number(g)
    full = g.full_mask
    for kmask in range(1 << g.n):
        if not (_is_clique(g, kmask) and _is_independent(g, full ^ kmask)):
            continue
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
    if (case_i == 1) != (omega + alpha == g.n):
        bad.append("omega+alpha=n criterion disagrees with case-I existence")
    return tuple(bad), False


def _check_unbalanced(g: Graph):
    if not is_split(g):
        return (), False
    try:
        e = find_unbalanced_witness(g)
    except IsStar:
        return (), False
    unbalanced = not is_balanced_split(g)
    if (e is not None) != unbalanced:
        w = None if e is None else (e.u, e.v)
        return (f"unbalanced={unbalanced} but witness={w}",), False
    if e is not None:
        h = _contract(g, e.u, e.v)
        if not is_split(h):
            return (f"contraction by ({e.u},{e.v}) is not split",), False
        if clique_number(h) != clique_number(g) - 1 or is_balanced_split(h):
            return (f"witness ({e.u},{e.v}) fails its own postcondition",), False
    return (), False


def _check_pseudo(g: Graph):
    # the public decomposer runs only on graphs it must refuse; a (2K2,
    # C4)-free graph is decomposed from the scans already made here
    if contains_2k2(g) or contains_c4(g):
        try:
            pseudo_split_decompose(g)
        except NotPseudoSplit:
            return (), False
        return ("decomposition accepted a graph with induced 2K2 or C4",), False
    try:
        d = _psd(g, _ks(g, clique_number(g)) if is_split(g) else None)
    except NotSplit:
        return ("C5-free pseudo-split graph is not split",), False
    if not d.is_valid_for(g):
        return (f"invalid decomposition a={d.a} b={d.b} c={d.c}",), False
    return (), False


def _check_ng(g: Graph):
    by_def = is_ng_by_definition(g)
    by_char = is_ng_by_characterisation(g)
    if by_def != by_char:
        return (f"definition={by_def} characterisation={by_char}",), False
    return (), False


class _Checker(NamedTuple):
    cap: int
    substrate: Callable[[int, _Pool], Iterator[Graph]]  # (max_n, pool)
    check: Callable[[Graph], tuple[tuple[str, ...], bool]]
    expected_set: Callable[[int], set[str]] | None = None


CHECKERS: dict[str, _Checker] = {
    "PROP1": _Checker(6, _sub_all, _check_prop1),
    "PROP2": _Checker(6, _sub_all, _check_prop2),
    "PROP3": _Checker(6, _sub_connected, _check_prop3),
    "PROP4": _Checker(10, _sub_cycles, _check_prop4),
    "PROP5": _Checker(10, _sub_cliques, _check_prop5),
    "LEMMA1": _Checker(8, _sub_connected, _check_lemma1),
    "LEMMA2": _Checker(8, _sub_connected, _check_lemma2),
    "THM_SPLIT_FORBIDDEN": _Checker(8, _sub_all_then_connected, _check_split_triple),
    "THM_2K2_CLAW": _Checker(8, _sub_connected, _check_2k2_claw),
    "THM_CONTRACTION": _Checker(8, _sub_connected, _check_contraction, _expected_exceptional),
    "THM_KS_CASES": _Checker(7, _sub_all, _check_ks_cases),
    "THM_UNBALANCED": _Checker(8, _sub_connected, _check_unbalanced),
    "THM_PSEUDO": _Checker(8, _sub_all, _check_pseudo),
    "THM_NG": _Checker(7, _sub_all, _check_ng),
}


def check_one(theorem: str, g: Graph) -> tuple[str, ...]:
    """Re-run one theorem's per-graph check in isolation (counterexample replay)."""
    if theorem not in CHECKERS:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}")
    details, _ = CHECKERS[theorem].check(g)
    return details


def default_jobs() -> int:
    """Worker count for --jobs: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Pool:
    """Maps fn over items in order, on one pool of jobs workers when that pays.

    ``with _Pool(jobs) as pool:`` opens it; ``pool(fn, items)`` maps. The
    map is serial, and lazy, at jobs 1 or below 256 items, so a caller that
    streams the results never holds them all. Otherwise it runs on one
    ``multiprocessing`` pool, started on first use and terminated when the
    block ends.
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

    def __call__(self, fn, items) -> Iterable:
        if self.jobs == 1 or len(items) < 256:
            return map(fn, items)
        if self._workers is None:
            import multiprocessing

            self._workers = multiprocessing.Pool(self.jobs)
        return self._workers.map(fn, items, -(-len(items) // (self.jobs * 4)))


def verify(theorem: str, max_n: int = 7, source=None, jobs: int = 1) -> TheoremReport:
    """Sweep one theorem over the built-in enumeration or a corpus.

    source: None for the built-in substrate, or an iterable of Graph of
    order up to 10. With jobs above 1, one pool of jobs workers serves both
    the top enumeration order and the checks.
    """
    with _Pool(jobs) as pool:
        return _verify(theorem, max_n, source, pool)


def _verify(theorem: str, max_n: int, source, pool: _Pool) -> TheoremReport:
    if theorem not in CHECKERS:
        raise UnknownTheorem(f"unknown theorem id {theorem!r}")
    ck = CHECKERS[theorem]
    start = time.perf_counter()
    if source is None:
        if not 1 <= max_n <= ck.cap:
            raise OrderOutOfRange(
                f"{theorem} supports max_n 1..{ck.cap}, got {max_n}"
            )
        graphs = list(ck.substrate(max_n, pool))
    else:
        graphs = list(source)
        for g in graphs:
            if g.n > CORPUS_MAX_ORDER:
                raise OrderOutOfRange(
                    f"corpus graph of order {g.n} exceeds {CORPUS_MAX_ORDER}"
                )
    built = time.perf_counter()
    violations = []
    members = []
    for g, (details, flag) in zip(graphs, pool(ck.check, graphs)):
        if details or flag:
            g6 = write_graph6(g)
            violations.extend((g6, d) for d in details)
            if flag:
                members.append(g6)
    if source is None and ck.expected_set is not None:
        expected = ck.expected_set(max_n)
        found = set(members)
        for g6 in sorted(found - expected):
            violations.append((g6, "unexpected member of the exceptional region"))
        for g6 in sorted(expected - found):
            violations.append((g6, "expected exceptional graph not found"))
    violations.sort()
    if graphs:
        lo = min(g.n for g in graphs)
        hi = max(g.n for g in graphs)
    else:
        lo = hi = max_n if source is None else 0
    enumerate_ms = (built - start) * 1000.0
    check_ms = (time.perf_counter() - built) * 1000.0
    return TheoremReport(
        theorem, lo, hi, len(graphs), tuple(violations), enumerate_ms, check_ms
    )


def verify_all(max_n: int = 7, jobs: int = 1, source=None) -> list[TheoremReport]:
    """One report per theorem id, all sharing one pool.

    source is as for ``verify``. When enumerating, per-checker caps clamp
    max_n (shown in the report).
    """
    with _Pool(jobs) as pool:
        if source is not None:
            source = list(source)
        elif max_n < 1:
            raise OrderOutOfRange(f"max_n must be at least 1, got {max_n}")
        return [
            _verify(tid, min(max_n, CHECKERS[tid].cap), source, pool) for tid in THEOREM_IDS
        ]


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


def _census_one(g: Graph):
    split = is_split(g)
    balanced = split and clique_number(g) + independence_number(g) == g.n
    tag = detect_exceptional(g)
    pseudo = is_pseudo_split(g)
    return (
        split,
        balanced,
        None if tag is None else str(tag),
        pseudo,
        pseudo and not balanced,  # the NG characterisation
    )


def census(max_n: int = 7, jobs: int = 1) -> list[CensusRow]:
    """Classification counts over connected graphs of each order up to max_n.

    With jobs above 1, a pool of jobs workers serves only the enumeration
    of the top order; the light per-graph classification stays serial.
    """
    with _Pool(jobs) as pool:
        if not 1 <= max_n <= ENUM_MAX_ORDER:
            raise OrderOutOfRange(
                f"census supports max_n 1..{ENUM_MAX_ORDER}, got {max_n}"
            )
        _connected_codes(max_n, pool)
    rows = []
    for n in range(1, max_n + 1):
        level = list(enumerate_connected(n))
        split = balanced = pseudo = ng = 0
        families: dict[str, int] = {}
        for sp, bal, tag, ps, isng in map(_census_one, level):
            split += sp
            balanced += bal
            pseudo += ps
            ng += isng
            if tag is not None:
                families[tag] = families.get(tag, 0) + 1
        rows.append(
            CensusRow(
                n=n,
                connected=len(level),
                split=split,
                balanced_split=balanced,
                unbalanced_split=split - balanced,
                non_split=len(level) - split,
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
