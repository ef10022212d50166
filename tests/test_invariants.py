import itertools
import random

import pytest

from splitkit import (
    NamedPattern,
    OrderTooLargeForColoring,
    OrderTooLargeForIsomorphism,
    build,
    chromatic_number,
    clique_number,
    complement,
    complete_bipartite_graph,
    complete_graph,
    contains_2k2,
    contains_c4,
    contains_c5,
    cycle_graph,
    enumerate_all,
    enumerate_connected,
    find_induced,
    independence_number,
    induced,
    max_clique,
    path_graph,
    star_graph,
)
from splitkit.invariants import _contains_claw, _find_c5

from graphgen import labelled_graphs, random_graph
from oracles import (
    chromatic_number_assignments,
    clique_number_subsets,
    first_induced_copy,
    has_induced_copy,
    independence_number_subsets,
    iso_by_permutations,
    maximum_cliques_subsets,
)


def all_graphs_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_all(k)


# ---------------------------------------------------------------------------
# clique, independence, chromatic


def test_clique_number_matches_subset_scan():
    for g in all_graphs_upto(5):
        assert clique_number(g) == clique_number_subsets(g)
    for g in enumerate_connected(6):
        assert clique_number(g) == clique_number_subsets(g)


def test_independence_number_matches_subset_scan():
    for g in all_graphs_upto(5):
        assert independence_number(g) == independence_number_subsets(g)


def test_max_clique_is_a_maximum_clique():
    for g in all_graphs_upto(5):
        c = max_clique(g)
        assert len(c) == clique_number_subsets(g)
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(c, 2))


def test_max_clique_prefers_low_vertices():
    assert max_clique(cycle_graph(5)) == (0, 1)


def test_max_clique_is_the_lexicographically_smallest():
    # every class to order 7, and every labelling of order 5
    for g in (*all_graphs_upto(7), *labelled_graphs(5)):
        assert max_clique(g) == maximum_cliques_subsets(g)[0], g


def test_chromatic_number_matches_assignment_scan():
    for g in all_graphs_upto(6):
        for h in (g, complement(g)):
            assert chromatic_number(h) == chromatic_number_assignments(h), h


@pytest.mark.parametrize(
    "g,chi",
    [
        (cycle_graph(5), 3),
        (cycle_graph(6), 2),
        (complete_graph(6), 6),
        (NamedPattern("W4").template, 3),
        (NamedPattern("OCTAHEDRON").template, 3),
        (build(3), 1),
    ],
)
def test_chromatic_number_known_values(g, chi):
    assert chromatic_number(g) == chi


def test_chromatic_number_order_cap():
    with pytest.raises(OrderTooLargeForColoring):
        chromatic_number(build(13))


# ---------------------------------------------------------------------------
# induced-subgraph search

SMALL_PATTERNS = [
    NamedPattern("TWO_K2"),
    NamedPattern("C4"),
    NamedPattern("C5"),
    NamedPattern("P4"),
    NamedPattern("P5"),
    NamedPattern("CLAW"),
    NamedPattern("K_2_L", 2),
    NamedPattern("K_2_L", 3),
    NamedPattern("W4"),
    NamedPattern("HAMMER"),
    NamedPattern("BUTTERFLY"),
    NamedPattern("STAR", 2),
]


def test_has_induced_matches_permutation_scan():
    for g in all_graphs_upto(5):
        for pattern in SMALL_PATTERNS:
            found = find_induced(g, pattern) is not None
            assert found == has_induced_copy(g, pattern.template)


def test_fast_containment_agrees_with_generic_search():
    for g in all_graphs_upto(6):
        assert contains_2k2(g) == (find_induced(g, NamedPattern("TWO_K2")) is not None)
        assert contains_c4(g) == (find_induced(g, NamedPattern("C4")) is not None)
        assert contains_c5(g) == (find_induced(g, NamedPattern("C5")) is not None)


def test_pattern_scans_match_permutation_scan():
    two_k2 = build(4, [(0, 1), (2, 3)])
    c4, claw = cycle_graph(4), star_graph(3)
    for g in all_graphs_upto(7):
        assert contains_2k2(g) == has_induced_copy(g, two_k2), g
        assert contains_c4(g) == has_induced_copy(g, c4), g
        assert _contains_claw(g) == has_induced_copy(g, claw), g


def test_c5_finder_matches_permutation_scan():
    c5 = cycle_graph(5)
    for g in all_graphs_upto(7):
        found = _find_c5(g)
        assert (found is not None) == has_induced_copy(g, c5), g
        if found is not None:
            assert found == tuple(sorted(set(found))) and len(found) == 5
            assert iso_by_permutations(induced(g, found), c5)


def test_find_induced_returns_first_witness():
    wit = find_induced(cycle_graph(6), NamedPattern("P5"))
    assert wit is not None
    assert wit.pattern == NamedPattern("P5")
    assert wit.vertices == (0, 1, 2, 3, 4)
    # the witness really induces the pattern
    assert sorted(induced(cycle_graph(6), wit.vertices).degrees()) == [1, 1, 2, 2, 2]


PATTERNS_UPTO_6 = SMALL_PATTERNS + [
    NamedPattern("C6"),
    NamedPattern("K_2_L", 4),
    NamedPattern("OCTAHEDRON"),
] + [NamedPattern("STAR", m) for m in (1, 3, 4, 5)]


def test_find_induced_first_witness_matches_combinations_scan():
    for g in all_graphs_upto(6):
        for pattern in PATTERNS_UPTO_6:
            wit = find_induced(g, pattern)
            found = None if wit is None else wit.vertices
            assert found == first_induced_copy(g, pattern.template), (g, pattern)
    # the patterns the LEMMA1 and LEMMA2 sweeps re-check with
    for pattern in (NamedPattern("C4"), NamedPattern("TWO_K2")):
        t = pattern.template
        for g in enumerate_all(7):
            wit = find_induced(g, pattern)
            assert (None if wit is None else wit.vertices) == first_induced_copy(g, t), g


def test_find_induced_first_copy_on_larger_hosts():
    # the loop tries position j up to vertex n - k + j, which cuts most where
    # the pattern is large and the host larger still: every pattern of order
    # 6-7 on 40 seeded hosts of orders 9-11, each with one of the patterns
    # planted on random vertices, so that every pattern has copies
    patterns = [NamedPattern("C6"), NamedPattern("OCTAHEDRON")]
    patterns += [NamedPattern("K_2_L", l) for l in (4, 5)]
    patterns += [NamedPattern("STAR", m) for m in (5, 6)]
    rng = random.Random(3)
    copies = dict.fromkeys(patterns, 0)
    at_top = 0
    for i in range(40):
        g = random_graph(rng, rng.randint(9, 11))
        t = patterns[i % len(patterns)].template
        spot = rng.sample(range(g.n), t.n)
        edges = {e for e in g.edges() if not (e.u in spot and e.v in spot)}
        g = build(g.n, edges | {(spot[a], spot[b]) for a, b in t.edges()})
        for pattern in patterns:
            wit = find_induced(g, pattern)
            found = None if wit is None else wit.vertices
            assert found == first_induced_copy(g, pattern.template), (g, pattern)
            copies[pattern] += found is not None
            at_top += found is not None and found[-1] == g.n - 1
    # every pattern is found, and some first copies end at the host's last
    # vertex, the bound's edge case
    assert min(copies.values()) > 0 and at_top > 0


def test_find_induced_none_when_absent():
    assert find_induced(complete_graph(5), NamedPattern("C4")) is None
    assert find_induced(build(3), NamedPattern("P4")) is None  # pattern larger than host


def test_find_induced_large_patterns():
    # patterns are searched up to order 8 and refused above it, whatever the host
    k2l = NamedPattern("K_2_L", 6)
    host = complete_bipartite_graph(2, 9)
    assert find_induced(host, k2l).vertices == tuple(range(8))
    assert find_induced(complement(host), k2l) is None
    for host in (complete_bipartite_graph(2, 9), complete_graph(14), build(3)):
        for l in (7, 8, 11):
            with pytest.raises(OrderTooLargeForIsomorphism):
                find_induced(host, NamedPattern("K_2_L", l))


def test_containment_spot_checks():
    assert contains_c5(cycle_graph(5))
    assert not contains_c5(cycle_graph(6))
    assert contains_2k2(path_graph(5))
    assert not contains_2k2(path_graph(4))
    assert contains_c4(cycle_graph(4))
    assert not contains_c4(complete_graph(6))
