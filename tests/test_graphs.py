import itertools
import random

import pytest

from splitkit import (
    Edge,
    EmptySet,
    InvalidPattern,
    LoopEdge,
    MalformedCorpus,
    MalformedEdgeList,
    MalformedGraph6,
    NamedPattern,
    NotAnEdge,
    OrderOutOfRange,
    OrderTooLargeForIsomorphism,
    SplitkitError,
    UnsupportedOrder,
    VertexOutOfRange,
    build,
    canonical_code,
    canonical_form,
    complement,
    complete_bipartite_graph,
    complete_graph,
    contract,
    cycle_graph,
    disjoint_union,
    enumerate_all,
    enumerate_connected,
    induced,
    is_isomorphic,
    parse_edge_list,
    parse_graph6,
    parse_graph6_lines,
    path_graph,
    star_graph,
    write_graph6,
)

from splitkit import graphs
from splitkit.graphs import (
    ENUM_MAX_ORDER,
    _code,
    _connected_codes,
    _contract,
    _graph_from_code,
)

from graphgen import labelled_graphs, relabel
from oracles import (
    automorphism_count,
    canonical_code_by_orderings,
    connected_codes_by_extension,
    decode_graph6_bits,
    is_connected_search,
    iso_by_permutations,
    labelled_connected_count,
    labelled_count,
)

PAW = build(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def all_graphs_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_all(k)


# ---------------------------------------------------------------------------
# construction and accessors


def test_edge_is_ordered_pair():
    e = Edge(2, 5)
    assert (e.u, e.v) == (2, 5)


def test_build_normalizes_and_collapses_duplicates():
    g = build(3, [(2, 0), (0, 2), (0, 2)])
    assert g.edge_count() == 1
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)


def test_build_rejects_bad_input():
    with pytest.raises(LoopEdge):
        build(3, [(1, 1)])
    with pytest.raises(VertexOutOfRange):
        build(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        build(3, [(-1, 2)])
    with pytest.raises(OrderOutOfRange):
        build(0)
    with pytest.raises(OrderOutOfRange):
        build(65)


def test_accessors_on_paw():
    assert PAW.n == 4
    assert PAW.degrees() == [3, 2, 2, 1]
    assert PAW.degree(3) == 1
    assert PAW.edge_count() == 4
    assert PAW.edges() == [Edge(0, 1), Edge(0, 2), Edge(0, 3), Edge(1, 2)]
    assert PAW.neighbors(0) == (1, 2, 3)
    assert repr(PAW) == "Graph(n=4, m=4)"


def test_vertex_bounds_checked():
    with pytest.raises(VertexOutOfRange):
        PAW.has_edge(0, 4)
    with pytest.raises(VertexOutOfRange):
        PAW.degree(-1)
    with pytest.raises(VertexOutOfRange):
        PAW.neighbors(9)


def test_graph_equality_and_hash():
    assert build(3, [(0, 1)]) == build(3, [(1, 0)])
    assert build(3, [(0, 1)]) != build(3, [(0, 2)])
    assert len({build(2, [(0, 1)]), build(2, [(0, 1)])}) == 1


def test_complement_is_an_involution():
    for g in all_graphs_upto(5):
        assert complement(complement(g)) == g
    assert complement(complete_graph(5)).edge_count() == 0
    assert complement(build(4)).edge_count() == 6


def test_is_connected_matches_search():
    for g in all_graphs_upto(5):
        assert g.is_connected() == is_connected_search(g)


# ---------------------------------------------------------------------------
# contraction, induced subgraphs, relabelling


def test_contract_cycle_gives_smaller_cycle():
    c5 = cycle_graph(5)
    for e in c5.edges():
        assert is_isomorphic(contract(c5, e), cycle_graph(4))


def test_contract_label_semantics():
    # merged vertex keeps the smaller label, labels above the removed shift down
    g = build(4, [(0, 3), (1, 2)])
    h = contract(g, (2, 1))
    assert h.n == 3
    assert h.edges() == [Edge(0, 2)]


def test_contract_collapses_parallel_edges():
    h = contract(PAW, (0, 1))
    assert h == build(3, [(0, 1), (0, 2)])


def test_contract_requires_an_edge():
    with pytest.raises(NotAnEdge):
        contract(PAW, (1, 3))
    with pytest.raises(VertexOutOfRange):
        contract(PAW, (0, 4))


def test_contract_k2_gives_k1():
    assert contract(complete_graph(2), (0, 1)) == build(1)


def _contraction_by_edge_list(g, u, v):
    # v merged into u < v, labels above v shifted down, loop dropped
    def image(w):
        w = u if w == v else w
        return w - 1 if w > v else w

    pairs = {(image(a), image(b)) for a, b in g.edges()}
    return build(g.n - 1, [(a, b) for a, b in pairs if a != b])


def test_unchecked_contract_matches_public_contract():
    for g in all_graphs_upto(6):
        for u, v in itertools.combinations(range(g.n), 2):
            if not g.has_edge(u, v):
                with pytest.raises(NotAnEdge):
                    contract(g, (u, v))
                continue
            h = _contract(g, u, v)
            assert h == contract(g, (u, v)) == contract(g, (v, u)), (g, u, v)
            assert h == _contraction_by_edge_list(g, u, v), (g, u, v)


def test_induced_relabels_in_sorted_order():
    g = induced(PAW, [3, 0, 2])
    assert g == build(3, [(0, 1), (0, 2)])
    assert induced(PAW, [1, 1, 2]) == build(2, [(0, 1)])
    with pytest.raises(EmptySet):
        induced(PAW, [])
    with pytest.raises(VertexOutOfRange):
        induced(PAW, [0, 4])


def test_induced_matches_adjacency():
    # vertex i of induced(g, vs) is the i-th smallest of vs, read through
    # the public has_edge
    for g in all_graphs_upto(5):
        for mask in range(1, 1 << g.n):
            vs = [v for v in range(g.n) if mask >> v & 1]
            h = induced(g, vs[::-1])
            assert h.n == len(vs), (g, vs)
            for (i, x), (j, y) in itertools.combinations(enumerate(vs), 2):
                assert h.has_edge(i, j) == g.has_edge(x, y), (g, vs, x, y)


def test_relabel_applies_permutation():
    g = relabel(build(3, [(0, 1)]), [2, 1, 0])
    assert g == build(3, [(1, 2)])
    with pytest.raises(VertexOutOfRange):
        relabel(PAW, [0, 1, 2, 2])


# ---------------------------------------------------------------------------
# canonical form and isomorphism


def test_canonical_code_is_invariant_under_relabelling():
    rng = random.Random(7)
    for g in all_graphs_upto(5):
        code = canonical_code(g)
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_code(relabel(g, perm)) == code


def test_canonical_form_is_isomorphic_to_input():
    for g in all_graphs_upto(5):
        h = canonical_form(g)
        assert canonical_code(h) == canonical_code(g)
        assert iso_by_permutations(g, h)


def test_canonical_code_separates_classes():
    codes = {canonical_code(g) for g in enumerate_all(5)}
    assert len(codes) == 34


@pytest.mark.parametrize("n, classes", [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)])
def test_canonical_code_groups_labelled_graphs_into_classes(n, classes):
    # independent of the enumeration: every labelled graph of order n, grouped
    # by code, gives OEIS A000088(n) groups of pairwise isomorphic graphs
    groups = {}
    for g in labelled_graphs(n):
        groups.setdefault(canonical_code(g), []).append(g)
    assert len(groups) == classes
    for first, *rest in groups.values():
        for g in rest:
            assert iso_by_permutations(first, g)


def test_canonical_code_is_the_least_code_over_key_orderings():
    # the exact code, not only a class invariant: the search prunes and
    # expands twins once, the oracle tries every ordering
    for n in range(1, 6):
        for g in labelled_graphs(n):
            assert canonical_code(g) == canonical_code_by_orderings(g)
    for g in all_graphs_upto(7):
        assert canonical_code(g) == canonical_code_by_orderings(g)


def test_ordering_oracle_catches_a_search_that_skips_orderings(monkeypatch):
    # a search told that each cell is one twin class places every cell in
    # label order, and misses the least code of some classes
    classes = list(all_graphs_upto(7))
    search = graphs._search

    def label_order(rows, keys, prev):
        last = {}
        chained = []
        for v, key in enumerate(keys):
            chained.append(last.get(key, 0))
            last[key] = 1 << v
        return search(rows, keys, chained)

    monkeypatch.setattr(graphs, "_search", label_order)
    assert any(canonical_code(g) != canonical_code_by_orderings(g) for g in classes)


@pytest.mark.parametrize("n", [4, 5])
def test_is_isomorphic_matches_permutation_search(n):
    graphs = list(enumerate_all(n))
    for g, h in itertools.product(graphs, repeat=2):
        assert is_isomorphic(g, h) == iso_by_permutations(g, h)


def test_is_isomorphic_on_relabelled_copies():
    rng = random.Random(11)
    for g in enumerate_all(5):
        perm = list(range(5))
        rng.shuffle(perm)
        assert is_isomorphic(g, relabel(g, perm))


def test_is_isomorphic_rejects_different_orders_and_caps():
    assert not is_isomorphic(build(3), build(4))
    with pytest.raises(OrderTooLargeForIsomorphism):
        is_isomorphic(build(13), build(13))


# ---------------------------------------------------------------------------
# graph6


def test_graph6_known_values():
    assert write_graph6(complete_graph(2)) == "A_"
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("Bw") == complete_graph(3)
    assert parse_graph6("A?") == build(2)
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


def test_graph6_round_trip_small():
    for g in all_graphs_upto(6):
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_round_trip_long_form():
    rng = random.Random(3)
    for n in (63, 64):
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if rng.random() < 0.3
        ]
        g = build(n, edges)
        line = write_graph6(g)
        assert line.startswith("~")
        assert parse_graph6(line) == g


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A",  # missing body byte
        "A_extra",
        "A~",  # nonzero padding bits
        "B" + chr(30),  # byte below the graph6 range
    ],
)
def test_graph6_malformed(text):
    with pytest.raises(MalformedGraph6):
        parse_graph6(text)


def test_graph6_unsupported_orders():
    with pytest.raises(UnsupportedOrder):
        parse_graph6("?")  # order 0
    with pytest.raises(UnsupportedOrder):
        parse_graph6("~?A?" + "?" * 100)  # order 128
    with pytest.raises(UnsupportedOrder):
        parse_graph6("~~" + "?" * 8)


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("", MalformedGraph6, "empty line"),
        ("B!", MalformedGraph6, "byte outside graph6 range in 'B!'"),
        ("A" + chr(127), MalformedGraph6, "byte outside graph6 range in 'A\\x7f'"),
        ("A", MalformedGraph6, "expected 1 body bytes for order 2, got 0"),
        ("A_extra", MalformedGraph6, "expected 1 body bytes for order 2, got 6"),
        ("A~", MalformedGraph6, "nonzero padding bits"),
        ("~?@", MalformedGraph6, "truncated long-form order"),
        ("?", UnsupportedOrder, "order 0 not in 1..64"),
        ("~?@@" + "?" * 347, UnsupportedOrder, "order 65 not in 1..64"),
        ("~~" + "?" * 8, UnsupportedOrder, "orders above 258047 are not supported"),
    ],
)
def test_graph6_error_types_and_messages(text, error, message):
    with pytest.raises(error) as exc:
        parse_graph6(text)
    assert str(exc.value) == message


def test_parse_graph6_matches_bitwise_oracle():
    for g in [*all_graphs_upto(7), *enumerate_connected(8)]:
        line = write_graph6(g)
        h = parse_graph6(line)
        assert h == g
        assert decode_graph6_bits(line) == (h.n, h.edges())


@pytest.mark.parametrize("n", range(1, 9))
def test_graph_from_code_round_trips_connected_codes(n):
    pairs = [(u, v) for v in range(1, n) for u in range(v)]

    def bits(g):
        back = 0
        for u, v in pairs:
            back = back << 1 | g.has_edge(u, v)
        return back

    for code in _connected_codes(n):
        assert bits(_graph_from_code(n, code)) == code
    # _code, the inverse, gives the bits of every labelled graph to order 5
    for g in labelled_graphs(n) if n <= 5 else ():
        assert _code(g) == bits(g)


def test_parse_graph6_lines_skips_blanks_and_reports_line_numbers():
    assert parse_graph6_lines(["A_", "", "  ", "Bw"]) == [
        complete_graph(2),
        complete_graph(3),
    ]
    with pytest.raises(MalformedCorpus) as err:
        parse_graph6_lines(["A_", "", "A"])
    assert err.value.lineno == 3
    assert str(err.value).startswith("line 3:")


def test_parse_edge_list():
    g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
    assert g == path_graph(4)
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("x y\n0 1")
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1")
    with pytest.raises(ValueError):
        parse_edge_list("3 1\n0 1 2")
    with pytest.raises(VertexOutOfRange):
        parse_edge_list("3 1\n0 5")
    # only ASCII digits count; '²' passes str.isdigit but not int()
    with pytest.raises(MalformedEdgeList, match="line 1:"):
        parse_edge_list("\u00b2 0\n")
    with pytest.raises(MalformedEdgeList, match="line 3:"):
        parse_edge_list("3 1\n\n0 \u00b2\n")
    with pytest.raises(MalformedEdgeList, match="line 2:"):
        parse_edge_list("3 1\n0 1 2")
    with pytest.raises(MalformedEdgeList, match="line 2:"):
        parse_edge_list("3 1\n0 --1")
    # a line ends only at \n, \r\n or \r, as in a graph6 corpus
    assert parse_edge_list("2 1\r0 1\r\n") == path_graph(2)
    with pytest.raises(MalformedEdgeList, match="line 1:"):
        parse_edge_list("2 1\x0c0 1")


# ---------------------------------------------------------------------------
# fixed patterns and constructors


@pytest.mark.parametrize(
    "pattern,degrees",
    [
        (NamedPattern("TWO_K2"), [1, 1, 1, 1]),
        (NamedPattern("C4"), [2, 2, 2, 2]),
        (NamedPattern("C5"), [2, 2, 2, 2, 2]),
        (NamedPattern("C6"), [2, 2, 2, 2, 2, 2]),
        (NamedPattern("P4"), [1, 1, 2, 2]),
        (NamedPattern("P5"), [1, 1, 2, 2, 2]),
        (NamedPattern("CLAW"), [1, 1, 1, 3]),
        (NamedPattern("K_2_L", 3), [2, 2, 2, 3, 3]),
        (NamedPattern("W4"), [3, 3, 3, 3, 4]),
        (NamedPattern("OCTAHEDRON"), [4, 4, 4, 4, 4, 4]),
        (NamedPattern("HAMMER"), [1, 2, 2, 2, 3]),
        (NamedPattern("BUTTERFLY"), [2, 2, 2, 2, 4]),
        (NamedPattern("STAR", 4), [1, 1, 1, 1, 4]),
    ],
)
def test_pattern_templates_have_expected_degrees(pattern, degrees):
    assert sorted(pattern.template.degrees()) == degrees


def test_pattern_str():
    assert str(NamedPattern("P5")) == "P5"
    assert str(NamedPattern("K_2_L", 4)) == "K_2_L(4)"


def test_pattern_rejects_bad_parameters():
    for tag, param in (("K_2_L", None), ("K_2_L", 1), ("STAR", None), ("NO_SUCH", None)):
        with pytest.raises(ValueError) as exc:
            NamedPattern(tag, param).template
        assert isinstance(exc.value, InvalidPattern) and isinstance(exc.value, SplitkitError)


def test_small_constructors():
    assert path_graph(1).edge_count() == 0
    assert cycle_graph(3) == complete_graph(3)
    assert star_graph(3).degrees() == [3, 1, 1, 1]
    assert is_isomorphic(complete_bipartite_graph(2, 2), cycle_graph(4))
    assert complete_graph(5).edge_count() == 10
    with pytest.raises(OrderOutOfRange):
        cycle_graph(2)


# ---------------------------------------------------------------------------
# enumeration


def test_connected_counts_small():
    assert [sum(1 for _ in enumerate_connected(n)) for n in range(1, 7)] == [
        1, 1, 2, 6, 21, 112,
    ]


def test_all_counts_small():
    assert [sum(1 for _ in enumerate_all(n)) for n in range(1, 7)] == [
        1, 2, 4, 11, 34, 156,
    ]


def test_enumerate_connected_yields_connected_distinct_classes():
    for n in range(1, 6):
        graphs = list(enumerate_connected(n))
        assert all(g.is_connected() for g in graphs)
        codes = {canonical_code(g) for g in graphs}
        assert len(codes) == len(graphs)


def test_enumerate_all_covers_disconnected_classes():
    graphs = list(enumerate_all(4))
    codes = {canonical_code(g) for g in graphs}
    assert len(codes) == len(graphs)
    assert canonical_code(NamedPattern("TWO_K2").template) in codes
    assert canonical_code(build(4)) in codes


@pytest.mark.parametrize("n", range(1, ENUM_MAX_ORDER + 1))
def test_enumerate_all_yields_the_connected_classes_first(n):
    # enumerate_all lists the connected classes, as enumerate_connected
    # does, and then the disconnected ones
    connected = list(enumerate_connected(n))
    graphs = list(enumerate_all(n))
    assert graphs[: len(connected)] == connected
    assert not any(g.is_connected() for g in graphs[len(connected):])


@pytest.mark.parametrize("n", range(1, 8))
def test_connected_codes_match_unpruned_extension(n):
    assert _connected_codes(n) == connected_codes_by_extension(n, build, canonical_code)


def test_connected_counts_to_order_8():
    # OEIS A001349
    assert [len(_connected_codes(n)) for n in range(1, 9)] == [
        1, 1, 2, 6, 21, 112, 853, 11117,
    ]
    # and the 11,117 classes stand for every labelled connected graph, once
    assert labelled_count(list(enumerate_connected(8))) == labelled_connected_count(8)


def test_labelled_connected_recurrence_matches_brute_force():
    for n in range(1, 6):
        assert labelled_connected_count(n) == sum(map(is_connected_search, labelled_graphs(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_orbit_sums_count_labelled_graphs(n):
    # orbit-stabilizer: each class stands for n!/|Aut| labelled graphs, so a
    # missing, doubled or foreign class moves the sum; the count of all
    # graphs also checks how enumerate_all assembles the components
    assert labelled_count(list(enumerate_connected(n))) == labelled_connected_count(n)
    assert labelled_count(list(enumerate_all(n))) == 2 ** (n * (n - 1) // 2)


def test_orbit_sum_catches_a_swapped_class():
    classes = list(enumerate_connected(5))
    assert automorphism_count(classes[0]) != automorphism_count(classes[-1])
    classes[0] = classes[-1]
    assert len(classes) == 21
    assert labelled_count(classes) != labelled_connected_count(5)


def test_enumeration_canonical_code_calls(monkeypatch):
    # twin-prefix masks cut the canonical searches over orders 2-8 from
    # 19,473 (every mask) to 15,808; the kernel runs canonical_code's search
    # itself, so the search is counted; the cache is bypassed so every
    # order is recomputed
    cached = _connected_codes(8)
    calls = []
    search = graphs._search

    def counting(rows, keys, prev):
        calls.append(1)
        return search(rows, keys, prev)

    monkeypatch.setattr(graphs, "_codes", {1: (0,)})
    monkeypatch.setattr(graphs, "_search", counting)
    assert graphs._connected_codes(8) == cached
    assert len(calls) == 15808


@pytest.mark.parametrize("n", range(1, 9))
def test_connected_codes_are_canonical_codes(n):
    # the kernel's codes come from its own keys and twin classes; each must
    # be the code canonical_code gives the decoded graph
    for code in _connected_codes(n):
        assert canonical_code(_graph_from_code(n, code)) == code


def test_order_9_kernel_codes_are_canonical_codes():
    # the kernel past the exhaustive range: the children of every 100th
    # order-8 parent
    parents = _connected_codes(8)[::100]
    assert len(parents) == 112
    children = 0
    for parent in parents:
        for code in graphs._child_codes(9, (parent,)):
            assert canonical_code(_graph_from_code(9, code)) == code
            children += 1
    assert children == 2688


def _all_by_decoding(n):
    # every multiset of connected classes with orders summing to n, as
    # enumerate_all lists them: larger components first, and components of
    # one order in code order
    classes = [(k, c) for k in range(n, 0, -1) for c in _connected_codes(k)]
    out = []

    def pick(start, remaining, chosen):
        if remaining == 0:
            parts = [_graph_from_code(k, c) for k, c in chosen]
            out.append(write_graph6(disjoint_union(parts)))
            return
        for j in range(start, len(classes)):
            if classes[j][0] <= remaining:
                pick(j, remaining - classes[j][0], chosen + [classes[j]])

    pick(0, n, [])
    return out


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_matches_decoded_codes(n):
    connected = [write_graph6(_graph_from_code(n, c)) for c in _connected_codes(n)]
    assert [write_graph6(g) for g in enumerate_connected(n)] == connected
    assert [write_graph6(g) for g in enumerate_all(n)] == _all_by_decoding(n)


def test_enumeration_order_bounds():
    for bad in (0, ENUM_MAX_ORDER + 1):
        with pytest.raises(OrderOutOfRange):
            list(enumerate_connected(bad))
        with pytest.raises(OrderOutOfRange):
            list(enumerate_all(bad))


def test_disjoint_union():
    g = disjoint_union([complete_graph(2), complete_graph(2)])
    assert is_isomorphic(g, NamedPattern("TWO_K2").template)
    assert disjoint_union([build(1), build(1)]) == build(2)
    with pytest.raises(EmptySet):
        disjoint_union([])
    with pytest.raises(OrderOutOfRange):
        disjoint_union([build(33), build(32)])
