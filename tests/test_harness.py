import collections
import itertools
import json
import multiprocessing
import multiprocessing.pool
import random

import pytest

from splitkit import (
    Edge,
    FamilyTag,
    Graph,
    InvalidJobs,
    KSPartition,
    NamedPattern,
    OrderOutOfRange,
    SplitkitError,
    THEOREM_IDS,
    UnknownTheorem,
    build,
    canonical_form,
    census,
    check_one,
    complete_graph,
    contains_c4,
    contract,
    cycle_graph,
    find_unbalanced_witness,
    induced,
    parse_graph6_lines,
    path_graph,
    verify,
    verify_all,
    write_graph6,
)
from splitkit import graphs, harness, recognition
from splitkit.graphs import ENUM_MAX_ORDER, enumerate_all
from splitkit.harness import render_census_text
from splitkit.invariants import COLORING_MAX_ORDER

from graphgen import labelled_graphs, random_graph, relabel
from oracles import (
    has_induced_copy,
    independence_number_subsets,
    is_connected_search,
    iso_by_permutations,
    ks_partition_cliques,
    ks_partition_exists,
    prop_details,
)

E2 = build(2)  # two isolated vertices, graph6 "A?"


def test_theorem_ids():
    assert THEOREM_IDS == (
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


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_every_theorem_passes_at_order_five(theorem):
    r = verify(theorem, max_n=5)
    assert r.verdict == "PASS"
    assert r.counterexamples == ()
    assert r.theorem == theorem
    assert r.elapsed_ms >= 0.0
    if theorem in ("PROP4", "PROP5"):
        assert (r.min_n, r.max_n, r.graphs_checked) == (4, 5, 2)
    else:
        assert (r.min_n, r.max_n) == (1, 5)
        assert r.graphs_checked > 0


def test_report_to_dict_shape():
    r = verify("THM_NG", max_n=3)
    d = r.to_dict()
    assert sorted(d) == [
        "check_ms",
        "counterexamples",
        "elapsed_ms",
        "enumerate_ms",
        "graphs_checked",
        "order_range",
        "theorem",
        "verdict",
    ]
    assert d["enumerate_ms"] >= 0.0 and d["check_ms"] >= 0.0
    assert d["elapsed_ms"] == d["enumerate_ms"] + d["check_ms"]
    assert d["order_range"] == {"min": 1, "max": 3}
    assert d["graphs_checked"] == 7
    assert d["counterexamples"] == []
    assert d["verdict"] == "PASS"
    json.dumps(d)


def test_render_text():
    r = verify("PROP4", max_n=6)
    text = r.render_text()
    assert "PROP4" in text and "PASS" in text


def test_verify_rejects_bad_arguments(monkeypatch):
    with pytest.raises(ValueError) as exc:
        verify("NO_SUCH_THEOREM")
    assert isinstance(exc.value, UnknownTheorem) and isinstance(exc.value, SplitkitError)
    with pytest.raises(OrderOutOfRange):
        verify("THM_NG", max_n=0)
    # a row's reach bounds verify_all alone: an explicit order past it is swept
    r = verify("PROP1", max_n=7)
    assert (r.verdict, r.max_n, r.graphs_checked) == ("PASS", 7, 1061)
    r = verify("THM_NG", max_n=8)
    assert (r.verdict, r.max_n, r.graphs_checked) == ("PASS", 8, 12369)

    # an order past the enumeration is refused before anything is enumerated
    def refuse(n, pool):
        raise AssertionError("enumerated before checking the order")

    monkeypatch.setattr(harness, "_connected_codes", refuse)
    with pytest.raises(OrderOutOfRange, match=f"1..{ENUM_MAX_ORDER}"):
        verify("LEMMA1", ENUM_MAX_ORDER + 1)


def test_verify_all_stays_inside_the_enumeration():
    # verify_all clamps each walked row to its reach, so it never asks the
    # walk for an order the enumeration cannot give
    for t in THEOREM_IDS:
        row = harness.CHECKERS[t]
        if row.family is None:
            assert 1 <= row.reach <= ENUM_MAX_ORDER, t


def test_check_one():
    assert check_one("THM_NG", complete_graph(3)) == ()
    with pytest.raises(ValueError) as exc:
        check_one("NO_SUCH_THEOREM", complete_graph(3))
    assert isinstance(exc.value, UnknownTheorem) and isinstance(exc.value, SplitkitError)


def test_check_one_refuses_orders_past_the_corpus_cap():
    # as a corpus does: past the order THM_NG's exact colouring accepts
    with pytest.raises(OrderOutOfRange):
        check_one("PROP1", path_graph(14))
    with pytest.raises(OrderOutOfRange):
        check_one("THM_NG", path_graph(COLORING_MAX_ORDER + 1))
    assert check_one("PROP4", cycle_graph(COLORING_MAX_ORDER)) == ()
    # the family guard: a relabelled C7 is a cycle; C3 + C4 is 2-regular but
    # not connected, so PROP4 does not apply to it
    assert check_one("PROP4", relabel(cycle_graph(7), [3, 6, 0, 5, 1, 4, 2])) == ()
    assert check_one("PROP4", build(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])) == ()


def test_every_theorem_checks_a_graph_of_the_top_corpus_order():
    # a connected graph of order 12 with an induced C4 and 2K2, which is
    # neither split nor pseudo-split
    g = build(COLORING_MAX_ORDER, [(i, i + 1) for i in range(COLORING_MAX_ORDER - 1)] + [(0, 3)])
    assert g.is_connected() and contains_c4(g)
    for theorem in THEOREM_IDS:
        assert check_one(theorem, g) == (), theorem


def test_lemma2_tells_c6_by_degrees_and_connectivity():
    # a relabelled C6 is terminal and has no witness; two triangles are
    # 2-regular but not connected, and the walk finds a witness there, which
    # a terminal test without the connectivity clause would report
    assert check_one("LEMMA2", relabel(cycle_graph(6), [4, 0, 5, 2, 1, 3])) == ()
    assert check_one("LEMMA2", build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])) == ()


# ---------------------------------------------------------------------------
# a corrupted record fact must be reported by the checks that read it

P4 = path_graph(4)  # balanced split, pseudo-split, no unbalanced witness
PAW = build(4, [(0, 1), (0, 2), (1, 2), (0, 3)])  # unbalanced split


@pytest.fixture
def corrupt(monkeypatch):
    """corrupt(g, **facts): every record the harness builds for g from then
    on holds these facts before any check reads it, in place of computing
    them. A witness is planted as _found={label: edge}. The records of the
    contractions, which the record builds itself, are left as they are."""
    planted = {}

    def record(g):
        facts = recognition._Facts(g)
        facts.__dict__.update(planted.get(g, {}))
        return facts

    monkeypatch.setattr(harness, "_Facts", record)
    return lambda g, **facts: planted.setdefault(g, {}).update(facts)


def test_flipped_balanced_is_reported(corrupt):
    corrupt(P4, balanced=False)
    assert check_one("THM_NG", P4) == ("definition=False characterisation=True",)
    assert check_one("THM_UNBALANCED", P4) == ("unbalanced=True but witness=None",)
    assert check_one("THM_KS_CASES", P4) == (
        "omega+alpha=n criterion disagrees with case-I existence",
    )


def test_wrong_maximum_clique_is_reported(corrupt):
    # the unbalanced walk tries only the edges inside the record's maximum
    # clique; the cricket's witness is (0,1), and a planted clique of the
    # right size that spans no edge leaves the walk nothing to try
    cricket = build(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)])
    assert find_unbalanced_witness(cricket) == Edge(0, 1)
    corrupt(cricket, clique=(1, 3, 4))
    assert check_one("THM_UNBALANCED", cricket) == ("unbalanced=True but witness=None",)


def test_flipped_split_is_reported(corrupt):
    corrupt(P4, split=False)
    assert check_one("THM_SPLIT_FORBIDDEN", P4) == ("forbidden=True degrees=False partition=True",)
    assert check_one("THM_PSEUDO", P4) == ("C5-free pseudo-split graph is not split",)
    net = build(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    corrupt(net, split=False)
    assert check_one("THM_2K2_CLAW", net) == ("(2K2, claw)-free with alpha >= 3 but not split",)


def test_flipped_pattern_scan_is_reported(corrupt):
    # THM_SPLIT_FORBIDDEN reads the record's scans, so a wrong C4 answer
    # makes its forbidden-pattern test disagree with the other two
    corrupt(P4, has_c4=True)
    assert check_one("THM_SPLIT_FORBIDDEN", P4) == ("forbidden=False degrees=True partition=True",)


def test_wrong_exceptional_tag_is_reported(corrupt):
    k22 = cycle_graph(4)
    corrupt(k22, tag=None)
    assert check_one("LEMMA1", k22) == ("no C4-preserving contraction on a non-terminal graph",)
    assert check_one("THM_CONTRACTION", k22) == (
        "regions overlap or miss: split=False family=None witness=None",
    )
    # the C4 2-3-4-5 with the path 0-1-2: g/(0,1) keeps the C4 and a 2K2
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)])
    corrupt(g, tag=FamilyTag("H1", 2))
    assert check_one("LEMMA1", g) == ("terminal graph H1(l=2) has witness (0,1)",)
    corrupt(g, tag=FamilyTag("H4"))
    assert check_one("LEMMA2", g) == ("terminal graph has witness (0,1)",)


def test_planted_witness_is_rechecked(corrupt):
    # a tree with an induced 2K2, whose contraction by (0,4) has none
    g = build(6, [(0, 4), (1, 3), (2, 5), (3, 5), (4, 5)])
    e = Edge(0, 4)
    corrupt(g, _found={"2k2": e})
    assert check_one("LEMMA2", g) == ("contraction by (0,4) lacks the promised 2K2/C4",)
    # PAW/(0,3) is K3, whose clique number did not drop
    corrupt(PAW, _found={"unbalanced": Edge(0, 3)})
    assert check_one("THM_UNBALANCED", PAW) == ("witness (0,3) fails its own postcondition",)
    c5 = cycle_graph(5)
    corrupt(c5, split=True, _found={"unbalanced": Edge(0, 1)})
    assert check_one("THM_UNBALANCED", c5) == ("contraction by (0,1) is not split",)


def test_shared_witness_edge_is_searched_past_a_stored_no(corrupt, monkeypatch):
    # the C4 2-4-3-5 and the 2K2 {05, 14}, with one planted witness edge for
    # both labels: g/(2,4) has neither pattern. LEMMA1's re-check stores a
    # no for C4 on it, and LEMMA2 must still search for a 2K2 of its own
    g = build(6, [(0, 5), (1, 4), (2, 4), (2, 5), (3, 4), (3, 5)])
    e = Edge(2, 4)
    corrupt(g, _found={"c4": e, "2k2": e})
    searches = []
    real = recognition.find_induced

    def find(h, pattern):
        searches.append(pattern.tag)
        return real(h, pattern)

    monkeypatch.setattr(recognition, "find_induced", find)
    _, bad = harness._check_run(("LEMMA1", "LEMMA2"), g.n, (graphs._code(g),))
    g6 = write_graph6(g)
    assert bad == [
        (0, g6, ("contraction by (2,4) lacks the promised C4",), False),
        (1, g6, ("contraction by (2,4) lacks the promised 2K2/C4",), False),
    ]
    # the stored no for C4 is read, not searched again
    assert searches == ["C4", "TWO_K2"]


def test_wrong_omega_is_reported(corrupt):
    k2 = complete_graph(2)
    corrupt(k2, omega=1)
    assert check_one("THM_KS_CASES", k2) == (
        "K=(0, 1): sizes (2, 0) match none of (1, 1), (0, 1), (1, 0)",
        "2 distinct case-I partitions",
        "omega+alpha=n criterion disagrees with case-I existence",
    )


def test_wrong_decomposition_facts_are_reported(corrupt):
    # a wrong pseudo fact turns THM_PSEUDO's hypothesis off; the rows that
    # test the facts read from it against definitions of their own report it
    k3 = complete_graph(3)
    corrupt(k3, pseudo=False)
    assert check_one("THM_PSEUDO", k3) == ()
    assert check_one("THM_NG", k3) == ("definition=True characterisation=False",)
    assert check_one("THM_SPLIT_FORBIDDEN", k3) == ("forbidden=False degrees=True partition=True",)
    corrupt(P4, ks=KSPartition((0, 3), (1, 2)))
    assert check_one("THM_PSEUDO", P4) == ("invalid decomposition a=(0, 3) b=(1, 2) c=()",)


def test_exceptional_region_is_compared_with_the_expected_set(corrupt):
    # enumerated graphs are canonically labelled; K_(2,2) given a nonsplit
    # witness leaves the region, C5 stripped of its witness joins it
    k22 = canonical_form(cycle_graph(4))
    c5 = canonical_form(cycle_graph(5))
    corrupt(k22, _found={"nonsplit": k22.edges()[0]})
    corrupt(c5, _found={"nonsplit": None})
    r = verify("THM_CONTRACTION", 5)
    assert (write_graph6(k22), "expected exceptional graph not found") in r.counterexamples
    assert (write_graph6(c5), "unexpected member of the exceptional region") in r.counterexamples
    assert len(r.counterexamples) == 4  # and the overlap or miss of each


def test_prop_checks_catch_a_wrong_contraction(monkeypatch):
    # contracting nothing: on C5 the image of a vertex set then changes
    monkeypatch.setattr(recognition._Facts, "contracted", lambda facts, u, v: facts)
    c5 = cycle_graph(5)
    assert len(check_one("PROP1", c5)) == 8
    assert check_one("PROP2", c5)[0] == "C=[0, 4] e=(1,2): induced subgraph not preserved"
    assert check_one("PROP3", c5) == ("C=[0, 4]: no contraction preserves the induced subgraph",)
    # the one family test of PROP4 and PROP5 names each edge, in edge order
    assert check_one("PROP4", c5) == tuple(
        f"C5/({u},{v}) is not C4" for u, v in ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    )
    assert check_one("PROP5", complete_graph(5)) == tuple(
        f"K5/({u},{v}) is not K4" for u, v in itertools.combinations(range(5), 2)
    )


def test_a_fault_in_the_2k2_scan_is_caught_by_the_cross_checks(monkeypatch):
    # THM_PSEUDO's hypothesis is the record's pseudo fact, so it cannot see
    # a fault in the scans behind it; THM_NG, against the colouring
    # definition, and THM_SPLIT_FORBIDDEN, against the degree test and the
    # partition search, can
    real = recognition.contains_2k2
    c5, p4 = cycle_graph(5), path_graph(4)
    monkeypatch.setattr(recognition, "contains_2k2", lambda g: real(g) or g in (c5, p4))
    assert check_one("THM_PSEUDO", c5) == ()
    assert check_one("THM_NG", c5) == ("definition=True characterisation=False",)
    assert check_one("THM_PSEUDO", p4) == ()
    assert check_one("THM_SPLIT_FORBIDDEN", p4) == ("forbidden=False degrees=True partition=True",)


# ---------------------------------------------------------------------------
# each theorem's hypothesis, against the oracles

_C4_TEMPLATE = NamedPattern("C4").template
_TWO_K2_TEMPLATE = NamedPattern("TWO_K2").template
_CLAW_TEMPLATE = NamedPattern("CLAW").template


def _degree_list(g):
    return sorted(sum(g.has_edge(u, v) for v in range(g.n) if v != u) for u in range(g.n))


def _is_copy_of(family, g):
    # C_n or K_n, n >= 4: the degree list first, then a permutation search
    if g.n < 4:
        return False
    h = family(g.n)
    return _degree_list(g) == _degree_list(h) and iso_by_permutations(g, h)


def _star_excluded(g):
    # K1 and the stars K_(1,m), m >= 2, by their degree lists
    return g.n == 1 or (g.n >= 3 and _degree_list(g) == [1] * (g.n - 1) + [g.n - 1])


ORACLE_HYPOTHESES = {
    "PROP4": lambda g: _is_copy_of(cycle_graph, g),
    "PROP5": lambda g: _is_copy_of(complete_graph, g),
    "LEMMA1": lambda g: has_induced_copy(g, _C4_TEMPLATE),
    "LEMMA2": lambda g: has_induced_copy(g, _TWO_K2_TEMPLATE),
    "THM_2K2_CLAW": lambda g: not has_induced_copy(g, _TWO_K2_TEMPLATE)
    and not has_induced_copy(g, _CLAW_TEMPLATE)
    and independence_number_subsets(g) >= 3,
    "THM_KS_CASES": ks_partition_exists,
    "THM_UNBALANCED": lambda g: ks_partition_exists(g) and not _star_excluded(g),
    "THM_PSEUDO": lambda g: not has_induced_copy(g, _TWO_K2_TEMPLATE)
    and not has_induced_copy(g, _C4_TEMPLATE),
}


def test_hypotheses_match_the_oracles():
    # every class to order 6 and every labelled graph to order 5; the other
    # theorems hold on their whole substrate
    gated = {t for t in THEOREM_IDS if harness.CHECKERS[t].hypothesis is not None}
    assert gated == set(ORACLE_HYPOTHESES)
    held = dict.fromkeys(ORACLE_HYPOTHESES, 0)
    for g in [*(g for n in range(1, 7) for g in enumerate_all(n)),
              *(g for n in range(1, 6) for g in labelled_graphs(n))]:
        facts = recognition._Facts(g)
        for t, oracle in ORACLE_HYPOTHESES.items():
            expected = oracle(g)
            assert harness.CHECKERS[t].hypothesis(facts) == expected, (t, g)
            held[t] += expected
    assert all(held.values())


def test_gated_checks_run_exactly_where_the_hypothesis_holds(monkeypatch):
    calls = dict.fromkeys(ORACLE_HYPOTHESES, 0)
    for t in ORACLE_HYPOTHESES:
        row = harness.CHECKERS[t]

        def counted(g, facts, t=t, check=row.check):
            calls[t] += 1
            return check(g, facts)

        monkeypatch.setitem(harness.CHECKERS, t, row._replace(check=counted))
    reports = {r.theorem: r for r in verify_all(6)}
    assert all(r.verdict == "PASS" for r in reports.values())
    expected = {}
    for t, oracle in ORACLE_HYPOTHESES.items():
        row = harness.CHECKERS[t]
        if row.family is not None:
            substrate = [row.family(n) for n in range(4, 7)]
        else:
            substrate = [
                g for n in range(1, 7) for g in enumerate_all(n)
                if n <= row.disconnected or is_connected_search(g)
            ]
        # graphs outside the hypothesis are still counted, and pass
        assert reports[t].graphs_checked == len(substrate)
        expected[t] = sum(map(oracle, substrate))
    assert calls == expected


# ---------------------------------------------------------------------------
# the fused walk: one record per graph, shared by every theorem


def test_fused_walk_details_match_check_one():
    # every graph to order 7 with the theorems whose substrate holds it,
    # checked over one shared record, against each theorem on its own record
    orders = {t: min(7, harness.CHECKERS[t].reach) for t in THEOREM_IDS}
    with harness._Pool(1) as pool:
        walked = 0
        for active, n, codes in harness._segments(orders, pool):
            for code in codes:
                g = graphs._graph_from_code(n, code)
                _, bad = harness._check_run(active, n, (code,))
                assert all(g6 == write_graph6(g) for _, g6, _, _ in bad)
                fused = {active[i]: details for i, _, details, _ in bad}
                for t in active:
                    assert fused.get(t, ()) == check_one(t, g), (t, g)
                walked += 1
    assert walked == 1252 + 4 + 4  # every class to order 7, then C4..C7 and K4..K7


def test_chunk_results_merge_to_the_whole_input_result():
    # the pool hands each reducer a contiguous chunk of a run; merged in
    # order, the chunks' results must be the whole run's, so no reducer
    # carries state from one graph to the next or pins a report to the
    # wrong graph (the check seconds aside)
    def chunks(items, size):
        return [items[i : i + size] for i in range(0, len(items), size)]

    orders = {t: min(7, harness.CHECKERS[t].reach) for t in THEOREM_IDS}
    with harness._Pool(1) as pool:
        runs = list(harness._segments(orders, pool))
    for size in (1, 3, 97):
        for active, n, codes in runs:
            whole = harness._check_run(active, n, codes)[1]
            parts = [harness._check_run(active, n, part)[1] for part in chunks(codes, size)]
            assert [r for bad in parts for r in bad] == whole, (size, active, n)
            if size == 1:
                for code, bad in zip(codes, parts):
                    g6 = write_graph6(graphs._graph_from_code(n, code))
                    assert all(r[1] == g6 for r in bad)
        for n in range(1, 8):
            codes = graphs._connected_codes(n)
            tallies = [harness._census_run(n, part) for part in chunks(codes, size)]
            merged = sum(map(collections.Counter, tallies), collections.Counter())
            assert merged == collections.Counter(harness._census_run(n, codes)), (size, n)
            if n > 1:
                parents = graphs._connected_codes(n - 1)
                children = [graphs._child_codes(n, part) for part in chunks(parents, size)]
                assert set().union(*children) == graphs._child_codes(n, parents) == set(codes)


def test_single_theorem_reports_match_verify_all():
    together = without_ms(verify_all(7))
    alone = without_ms([verify(t, min(7, harness.CHECKERS[t].reach)) for t in THEOREM_IDS])
    assert alone == together


@pytest.fixture(scope="module")
def sweep8():
    """The reports of verify_all(8), swept once for the tests that read them."""
    return verify_all(8)


def test_verify_all_at_order_eight_pins_every_row(sweep8):
    # the headline sweep's acceptance counts, row by row, as the
    # benchmark's output checks pin them
    assert [r.theorem for r in sweep8] == list(THEOREM_IDS)
    assert all(r.verdict == "PASS" for r in sweep8)
    assert tuple(r.graphs_checked for r in sweep8) == (
        208, 208, 143, 5, 5, 12113, 12113, 12369, 12113, 12113, 1252, 12113, 13598, 1252,
    )


def test_witness_rows_alone_match_verify_all_at_order_eight(sweep8):
    # on its own, each row that reads a witness searches it with no earlier
    # label's contraction records: LEMMA2 has no C4 scan of the c4 search
    # and no C4 answer of LEMMA1's to read, and the nonsplit and unbalanced
    # searches build their own contractions; order 8 has the most of them
    together = without_ms(sweep8)
    for t in ("LEMMA1", "LEMMA2", "THM_CONTRACTION", "THM_UNBALANCED"):
        assert without_ms([verify(t, 8)]) == [together[THEOREM_IDS.index(t)]], t


def test_detect_exceptional_runs_once_per_graph(monkeypatch):
    calls = []
    real = recognition.detect_exceptional

    def counted(g):
        calls.append((g.n, g.rows))
        return real(g)

    monkeypatch.setattr(recognition, "detect_exceptional", counted)
    assert all(r.verdict == "PASS" for r in verify_all(7))
    # THM_CONTRACTION reads the tag of every connected graph
    assert len(calls) == len(set(calls)) == 1 + 1 + 2 + 6 + 21 + 112 + 853


def test_lemma1_recheck_catches_a_wrong_witness(monkeypatch):
    # a search that hands LEMMA1 an edge whose contraction has no C4 must
    # be caught by the independent find_induced re-check
    real = recognition._search

    def wrong_c4(facts, label):
        found = real(facts, label)
        if label == "c4" and found is not None:
            for e in facts.g.edges():
                if not contains_c4(contract(facts.g, e)):
                    return e
        return found

    monkeypatch.setattr(recognition, "_search", wrong_c4)
    r = verify("LEMMA1", 6)
    assert r.verdict == "FAIL"
    assert all("lacks the promised C4" in detail for _, detail in r.counterexamples)


def test_lemma_rechecks_search_each_contraction_once(monkeypatch):
    # LEMMA2 re-checks the pattern the scans found in the witness
    # contraction, a C4 where the C4 scan says yes and a 2K2 where it says
    # no, so every search finds what it looks for; where the c4 and 2k2
    # labels share their edge it reads LEMMA1's C4 answer from the
    # contraction's record, so no search repeats
    current = []
    searches = []
    misses = []
    real_find = recognition.find_induced

    def record(g):
        # the graph the harness checks; contraction records are built apart
        current[:] = [g]
        return recognition._Facts(g)

    def find(h, pattern):
        found = real_find(h, pattern)
        searches.append((current[0], h, pattern))
        misses.append(found is None)
        return found

    monkeypatch.setattr(harness, "_Facts", record)
    monkeypatch.setattr(recognition, "find_induced", find)
    assert all(r.verdict == "PASS" for r in verify_all(7))
    assert len(searches) == len(set(searches)) == 842
    assert sum(misses) == 0


def test_each_edge_is_contracted_once_per_graph(monkeypatch):
    # the record's memo serves the witness walk, the LEMMA re-checks,
    # THM_UNBALANCED and PROP1-PROP5: no graph has an edge contracted twice
    calls = []
    real = graphs._contract

    def counted(g, u, v):
        calls.append((g, u, v))  # holding g keeps its id from being reused
        return real(g, u, v)

    for module in (graphs, recognition, harness):
        if getattr(module, "_contract", None) is real:
            monkeypatch.setattr(module, "_contract", counted)
    assert all(r.verdict == "PASS" for r in verify_all(6))
    keys = [(id(g), u, v) for g, u, v in calls]
    # 4,245 calls when PROP1-PROP3 each contract every edge themselves
    assert len(keys) == len(set(keys)) == 1426


def test_witness_labels_share_their_scans(monkeypatch):
    # the contractions and the C4 and 2K2 scans of a verify_all walk,
    # through the record: every label reads g/e's own record, and
    # THM_SPLIT_FORBIDDEN reads g's, so a label or check that built or
    # scanned again what another had would raise a count
    calls = dict.fromkeys(("contains_c4", "contains_2k2", "_contract"), 0)
    for name in calls:
        real = getattr(recognition, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(recognition, name, counted)
    assert all(r.verdict == "PASS" for r in verify_all(7))
    # 988 more 2K2 scans and 322 more C4 scans when THM_PSEUDO re-scans
    # each of the 988 graphs to order 7 that are not pseudo-split
    assert calls == {"contains_c4": 2836, "contains_2k2": 1943, "_contract": 4159}


def test_prop1_catches_a_relabelled_contraction(monkeypatch):
    # g/uv with its labels reversed: some images of C still induce a P3, as
    # G[C] does, but the contraction's vertex map no longer keeps G[C]
    def reversed_contraction(facts, u, v):
        h = graphs._contract(facts.g, u, v)
        return recognition._Facts(relabel(h, [h.n - 1 - i for i in range(h.n)]))

    monkeypatch.setattr(recognition._Facts, "contracted", reversed_contraction)
    claw = build(4, [(0, 3), (1, 3), (2, 3)])
    details = check_one("PROP1", claw)
    assert len(details) == 4
    assert "C=[0, 1, 3] u=3 v=2: induced subgraph not preserved" in details
    assert "C=[1, 2, 3] u=3 v=0: induced subgraph not preserved" in details


def test_keeps_matches_isomorphism():
    # the defect table against a permutation search, for every class of
    # order <= 6, every C and every edge not inside C: the image of C keeps
    # G[C] exactly when no defect of the edge lies inside C
    triples = 0
    for n in range(1, 7):
        for g in enumerate_all(n):
            facts = recognition._Facts(g)
            tables = {(u, v): harness._defects(facts, u, v) for u, v in g.edges()}
            for cmask in range(1, 1 << n):
                cset = [x for x in range(n) if cmask >> x & 1]
                sub = induced(g, cset)
                for u, v in g.edges():
                    if cmask >> u & 1 and cmask >> v & 1:
                        continue
                    image = {u if x == v else x - (x > v) for x in cset}
                    iso = iso_by_permutations(sub, induced(contract(g, (u, v)), image))
                    kept = not any(tables[u, v][x] & cmask for x in cset)
                    assert kept == iso, (g, cset, u, v)
                    triples += 1
    assert triples == 59295


def _contract_nothing(g, u, v):
    return g


def _reversed_labels(g, u, v):
    h = graphs._contract(g, u, v)
    return relabel(h, [h.n - 1 - i for i in range(h.n)])


def _one_merged_edge_dropped(g, u, v):
    # g/uv less its first edge at the merged vertex u
    h = graphs._contract(g, u, v)
    at = [e for e in h.edges() if u in e]
    return build(h.n, [e for e in h.edges() if e != at[0]]) if at else h


@pytest.mark.parametrize(
    "wrong",
    [None, _contract_nothing, _reversed_labels, _one_merged_edge_dropped],
    ids=["real", "nothing", "reversed", "dropped-edge"],
)
def test_prop_details_match_the_subset_walk(monkeypatch, wrong):
    # each PROP check's details, strings and order, against a walk over
    # every C that compares g with g/uv pair by pair through has_edge, on
    # the real contraction (None) and on three wrong ones planted in the
    # record; every class to order 6, then 50 seeded graphs of orders 7-8
    contraction = wrong or (lambda g, u, v: contract(g, (u, v)))
    if wrong is not None:
        monkeypatch.setattr(
            recognition._Facts,
            "contracted",
            lambda facts, u, v: recognition._Facts(wrong(facts.g, u, v)),
        )
    rng = random.Random(5)
    hosts = [g for n in range(1, 7) for g in enumerate_all(n)]
    hosts += [random_graph(rng, rng.randint(7, 8)) for _ in range(50)]
    found = 0
    for g in hosts:
        for theorem in ("PROP1", "PROP2", "PROP3"):
            details = check_one(theorem, g)
            assert details == prop_details(g, theorem, contraction), (theorem, g)
            found += len(details)
    # PROP3 fails on disconnected graphs even under the real contraction
    assert found > 0


def test_contraction_checks_read_no_canonical_code(monkeypatch):
    # PROP1-PROP3 test the contraction's vertex map, and PROP4, PROP5 the
    # degrees and connectivity; the enumeration calls _search itself
    def refuse(g):
        raise AssertionError("a contraction check asked for a canonical code")

    for module in (graphs, recognition, harness):
        monkeypatch.setattr(module, "canonical_code", refuse, raising=False)
    for theorem in ("PROP1", "PROP2", "PROP3"):
        assert verify(theorem, 6).verdict == "PASS"
    for theorem in ("PROP4", "PROP5"):
        assert verify(theorem, 10).verdict == "PASS"


# ---------------------------------------------------------------------------
# corpus sources


def test_corpus_from_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("Bw\n\nA_\n")
    with open(path) as fh:
        r = verify("THM_NG", source=parse_graph6_lines(fh))
    assert r.verdict == "PASS"
    assert r.graphs_checked == 2
    assert (r.min_n, r.max_n) == (2, 3)


def test_corpus_from_iterable_bypasses_enumeration_cap():
    # the enumeration stops at ENUM_MAX_ORDER, but corpus graphs may go to 12
    r = verify("THM_NG", source=[path_graph(9)])
    assert r.verdict == "PASS"
    assert r.graphs_checked == 1
    assert (r.min_n, r.max_n) == (9, 9)


def test_corpus_order_limit():
    with pytest.raises(OrderOutOfRange):
        verify("THM_NG", source=[path_graph(COLORING_MAX_ORDER + 1)])


def test_corpus_counterexample_is_reported():
    # E2 is split and unbalanced yet edgeless, so no witness edge can exist;
    # the witness equivalence genuinely needs connectivity
    r = verify("THM_UNBALANCED", source=[E2])
    assert r.verdict == "FAIL"
    assert r.counterexamples == (("A?", "unbalanced=True but witness=None"),)
    assert check_one("THM_UNBALANCED", E2) == ("unbalanced=True but witness=None",)


def test_corpus_skips_expected_region_comparison():
    # C4 sits in the exceptional region; on a corpus run that is not an error
    r = verify("THM_CONTRACTION", source=[cycle_graph(4)])
    assert r.verdict == "PASS"
    assert r.graphs_checked == 1


def test_empty_corpus():
    r = verify("THM_NG", source=[])
    assert r.verdict == "PASS"
    assert r.graphs_checked == 0
    assert (r.min_n, r.max_n) == (0, 0)


# ---------------------------------------------------------------------------
# verify_all and parallel runs


def test_verify_all_order_and_clamping():
    reports = verify_all(2)
    assert [r.theorem for r in reports] == list(THEOREM_IDS)
    assert all(r.verdict == "PASS" for r in reports)
    by_id = {r.theorem: r for r in reports}
    assert by_id["THM_NG"].graphs_checked == 3  # all graphs of order 1..2
    # cycle and clique substrates start at order 4, so nothing to check here
    assert by_id["PROP4"].graphs_checked == 0
    assert by_id["PROP5"].graphs_checked == 0


def test_verify_all_rejects_nonpositive_order():
    with pytest.raises(OrderOutOfRange):
        verify_all(0)


def test_ks_partition_oracle_matches_brute_force():
    # THM_KS_CASES reads every partition the walk yields, each once, so the
    # walk must be complete and not only find one
    for n in range(1, 8):
        for g in enumerate_all(n):
            assert sorted(harness._ks_partitions(g)) == sorted(ks_partition_cliques(g)), g


def test_ks_partition_oracle_on_every_labelling():
    # the walk's pruning depends on the labels
    for n in range(1, 6):
        for g in labelled_graphs(n):
            assert sorted(harness._ks_partitions(g)) == sorted(ks_partition_cliques(g)), g


def test_keeps_follows_the_contraction_map():
    # the defect table works out the images of the rows itself; here the
    # map v -> u, w -> w - 1 above v, is applied pair by pair through has_edge
    for n in range(2, 6):
        for g in labelled_graphs(n):
            facts = recognition._Facts(g)
            for u, v in g.edges():
                h = contract(g, Edge(u, v))
                image = [u if w == v else w - (w > v) for w in range(n)]
                defects = harness._defects(facts, u, v)
                for cmask in range(1 << n):
                    if cmask >> u & 1 and cmask >> v & 1:
                        continue
                    c = [w for w in range(n) if cmask >> w & 1]
                    kept = all(
                        h.has_edge(image[a], image[b]) == g.has_edge(a, b)
                        for a, b in itertools.combinations(c, 2)
                    )
                    assert (not any(defects[w] & cmask for w in c)) == kept, (g, u, v, cmask)


def test_default_jobs_follows_affinity(monkeypatch):
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 16)
    assert harness.default_jobs() == 3
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    assert harness.default_jobs() == 16
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    assert harness.default_jobs() == 1


def test_parallel_run_matches_sequential():
    # THM_CONTRACTION also sends exceptional-region members back from the pool
    for theorem in ("LEMMA1", "THM_CONTRACTION"):
        seq = verify(theorem, max_n=7, jobs=1)
        par = verify(theorem, max_n=7, jobs=2)
        assert seq.graphs_checked == par.graphs_checked == 996
        assert seq.counterexamples == par.counterexamples == ()
        assert (seq.min_n, seq.max_n) == (par.min_n, par.max_n)


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_parallel_run_under_start_method(monkeypatch, method):
    seq = verify("LEMMA1", max_n=7, jobs=1)
    census_seq = [r.to_dict() for r in census(7, jobs=1)]
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    par = verify("LEMMA1", max_n=7, jobs=2)
    assert (par.graphs_checked, par.counterexamples) == (seq.graphs_checked, seq.counterexamples)
    assert [r.to_dict() for r in census(7, jobs=2)] == census_seq


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_pool_enumeration_matches_serial(monkeypatch, method):
    serial = graphs._connected_codes(8)
    census_seq = [r.to_dict() for r in census(8, jobs=1)]
    maps = []
    real_call = harness._Pool.__call__

    def recording(self, fn, items):
        maps.append((fn.func, len(items), self.jobs))
        return real_call(self, fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    monkeypatch.setattr(harness._Pool, "__call__", recording)
    # forget order 8, so that census refills it through the pool
    monkeypatch.setattr(graphs, "_codes", {n: c for n, c in graphs._codes.items() if n < 8})
    assert [r.to_dict() for r in census(8, jobs=2)] == census_seq
    # the order-7 parents, more than the serial threshold, and the order-8 tally
    assert (graphs._child_codes, 853, 2) in maps
    assert (harness._census_run, 11117, 2) in maps
    assert graphs._codes[8] == serial


@pytest.fixture
def pools(monkeypatch):
    """Every worker pool started, and every one terminated, while a test runs."""
    log = {"started": [], "terminated": [], "mapped": [], "sent": [], "received": []}
    Pool = multiprocessing.pool.Pool
    real_init, real_terminate = Pool.__init__, Pool.terminate

    def init(self, *args, **kwargs):
        log["started"].append(self)
        real_init(self, *args, **kwargs)

    def terminate(self):
        log["terminated"].append(self)
        real_terminate(self)

    def logged(real):
        # every result is kept in a list, so a lazy map is read through
        def map_(self, fn, items, *args, **kwargs):
            items = list(items)
            log["mapped"].append(fn)
            log["sent"].append((fn.args, items))
            results = list(real(self, fn, items, *args, **kwargs))
            log["received"].append(results)
            return results

        return map_

    monkeypatch.setattr(Pool, "__init__", init)
    monkeypatch.setattr(Pool, "terminate", terminate)
    for name in ("map", "imap"):
        monkeypatch.setattr(Pool, name, logged(getattr(Pool, name)))
    return log


def without_ms(reports):
    return [{k: v for k, v in r.to_dict().items() if not k.endswith("_ms")} for r in reports]


def contains_graph(value) -> bool:
    """Whether a Graph is value itself or inside its nested tuples, lists,
    sets and dicts (keys and values)."""
    if isinstance(value, Graph):
        return True
    if isinstance(value, dict):
        return contains_graph(list(value.items()))
    if isinstance(value, (tuple, list, set, frozenset)):
        return any(contains_graph(v) for v in value)
    return False


def sent_codes(pools) -> list:
    """Every item sent to a worker: each map sends chunks of items."""
    return [code for _, chunks in pools["sent"] for chunk in chunks for code in chunk]


def test_census_starts_one_pool(monkeypatch, pools):
    census_seq = [r.to_dict() for r in census(8, jobs=1)]
    # forget order 8, so that its fill goes to the pool
    monkeypatch.setattr(graphs, "_codes", {n: c for n, c in graphs._codes.items() if n < 8})
    assert [r.to_dict() for r in census(8, jobs=2)] == census_seq
    assert len(pools["started"]) == 1
    assert pools["terminated"] == pools["started"]
    # one pool fills order 8 and tallies orders 7 and 8 from their codes
    assert [(fn.func, fn.args) for fn in pools["mapped"]] == [
        (harness._census_run, (7,)),
        (graphs._child_codes, (8,)),
        (harness._census_run, (8,)),
    ]
    # codes go out and counts come back: no Graph crosses to a worker
    assert not contains_graph(pools["sent"]) and not contains_graph(pools["received"])
    assert all(type(code) is int for code in sent_codes(pools))
    # one reduced result per chunk, at most 4 chunks per worker
    assert all(len(results) <= 4 * 2 for results in pools["received"])
    # with order 8 cached, the call still tallies on one pool of its own
    assert [r.to_dict() for r in census(8, jobs=2)] == census_seq
    assert len(pools["started"]) == 2
    assert pools["terminated"] == pools["started"]
    assert [fn.func for fn in pools["mapped"][3:]] == [harness._census_run] * 2


def test_verify_starts_one_pool(monkeypatch, pools):
    lemma1_seq = without_ms([verify("LEMMA1", 8, jobs=1)])
    all_seq = without_ms(verify_all(7, jobs=1))
    # forget order 8, so that the order-8 fill and the checks both go to the pool
    monkeypatch.setattr(graphs, "_codes", {n: c for n, c in graphs._codes.items() if n < 8})
    assert without_ms([verify("LEMMA1", 8, jobs=2)]) == lemma1_seq
    assert len(pools["started"]) == 1
    # every theorem's checks at order 7 go to the pool, all on one
    assert without_ms(verify_all(7, jobs=2)) == all_seq
    assert len(pools["started"]) == 2
    assert pools["terminated"] == pools["started"]


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_fused_walk_parallel_matches_serial(monkeypatch, pools, method):
    serial = without_ms(verify_all(7, jobs=1))
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    assert without_ms(verify_all(7, jobs=2)) == serial
    # the fused check, mapped over chunks of the long runs on one pool
    assert len(pools["started"]) == 1
    assert pools["mapped"] and all(fn.func is harness._check_run for fn in pools["mapped"])
    # codes go out and results come back: no Graph crosses to a worker
    assert not contains_graph(pools["sent"]) and not contains_graph(pools["received"])
    assert all(type(code) is int for code in sent_codes(pools))
    # one reduced result per chunk, at most 4 chunks per worker
    assert all(len(results) <= 4 * 2 for results in pools["received"])


def test_corpus_runs_start_one_pool(pools):
    # 260 graphs, past the serial threshold; a generator is read once
    corpus = [g for _ in range(5) for n in range(1, 6) for g in enumerate_all(n)]
    all_seq = without_ms(verify_all(7, jobs=1, source=corpus))
    assert [r["graphs_checked"] for r in all_seq] == [260] * len(THEOREM_IDS)
    assert without_ms(verify_all(7, jobs=2, source=iter(corpus))) == all_seq
    assert len(pools["started"]) == 1
    assert without_ms([verify("THM_NG", source=corpus, jobs=2)]) == all_seq[-1:]
    assert len(pools["started"]) == 2
    assert pools["terminated"] == pools["started"]
    assert pools["mapped"] and pools["received"]
    assert not contains_graph(pools["sent"]) and not contains_graph(pools["received"])
    assert all(type(code) is int for code in sent_codes(pools))


def test_verify_all_takes_a_corpus_at_any_max_n():
    # max_n bounds only the enumeration, as for verify
    reports = verify_all(0, source=[path_graph(9)])
    assert [(r.min_n, r.max_n, r.graphs_checked) for r in reports] == [(9, 9, 1)] * len(THEOREM_IDS)
    with pytest.raises(OrderOutOfRange):
        verify_all(7, source=[path_graph(COLORING_MAX_ORDER + 1)])


def test_jobs_below_one_rejected():
    with pytest.raises(ValueError, match="jobs") as exc:
        census(3, jobs=0)
    assert isinstance(exc.value, InvalidJobs) and isinstance(exc.value, SplitkitError)
    with pytest.raises(ValueError, match="jobs") as exc:
        verify("PROP4", 5, jobs=0)
    assert isinstance(exc.value, InvalidJobs)


def test_jobs_checked_before_enumeration(monkeypatch):
    def refuse(n):
        raise AssertionError("enumerated before checking jobs")

    # what the walk and the census call first
    monkeypatch.setattr(harness, "_connected_codes", lambda n, pool: refuse(n))
    monkeypatch.setattr(harness, "_disconnected", refuse)
    with pytest.raises(InvalidJobs):
        verify("THM_CONTRACTION", 8, jobs=0)
    with pytest.raises(InvalidJobs):
        verify_all(8, jobs=-1)
    with pytest.raises(InvalidJobs):
        census(8, jobs=0)


# ---------------------------------------------------------------------------
# census

EXPECTED_CENSUS = [
    {"n": 1, "connected": 1, "split": 1, "balanced_split": 0, "unbalanced_split": 1,
     "non_split": 0, "exceptional": {}, "pseudo_split": 1, "ng": 1},
    {"n": 2, "connected": 1, "split": 1, "balanced_split": 0, "unbalanced_split": 1,
     "non_split": 0, "exceptional": {}, "pseudo_split": 1, "ng": 1},
    {"n": 3, "connected": 2, "split": 2, "balanced_split": 0, "unbalanced_split": 2,
     "non_split": 0, "exceptional": {}, "pseudo_split": 2, "ng": 2},
    {"n": 4, "connected": 6, "split": 5, "balanced_split": 1, "unbalanced_split": 4,
     "non_split": 1, "exceptional": {"H1(l=2)": 1}, "pseudo_split": 5, "ng": 4},
    {"n": 5, "connected": 21, "split": 12, "balanced_split": 3, "unbalanced_split": 9,
     "non_split": 9, "exceptional": {"H1(l=3)": 1, "H2": 1, "H5": 1, "H6": 1, "H7": 1},
     "pseudo_split": 13, "ng": 10},
    {"n": 6, "connected": 112, "split": 35, "balanced_split": 14, "unbalanced_split": 21,
     "non_split": 77, "exceptional": {"H1(l=4)": 1, "H3": 1}, "pseudo_split": 36, "ng": 22},
    {"n": 7, "connected": 853, "split": 108, "balanced_split": 52, "unbalanced_split": 56,
     "non_split": 745, "exceptional": {"H1(l=5)": 1}, "pseudo_split": 110, "ng": 58},
]


def test_census_rows():
    rows = census(7)
    assert [r.to_dict() for r in rows] == EXPECTED_CENSUS


def test_census_parallel_matches_sequential():
    seq = census(7, jobs=1)
    par = census(7, jobs=2)
    assert [r.to_dict() for r in seq] == [r.to_dict() for r in par]


def test_census_order_bounds():
    with pytest.raises(OrderOutOfRange):
        census(0)
    with pytest.raises(OrderOutOfRange, match=f"1..{ENUM_MAX_ORDER}"):
        census(ENUM_MAX_ORDER + 1)


def test_render_census_text():
    text = render_census_text(census(4))
    assert "connected" in text.splitlines()[0]
    assert "H1(l=2):1" in text
