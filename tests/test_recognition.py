import collections
import itertools
import json
import random

import pytest

from splitkit import (
    CASE_I,
    CASE_II,
    CASE_III,
    ClassificationReport,
    Edge,
    FamilyTag,
    InvalidPartition,
    IsStar,
    KSPartition,
    NamedPattern,
    NoInduced2K2,
    NoInducedC4,
    NotPseudoSplit,
    NotSplit,
    OrderTooLargeForColoring,
    PseudoSplitDecomposition,
    build,
    classify,
    chromatic_number,
    classify_ks_case,
    clique_number,
    complement,
    complete_bipartite_graph,
    complete_graph,
    contains_2k2,
    contains_c4,
    contract,
    cycle_graph,
    detect_exceptional,
    disjoint_union,
    enumerate_all,
    enumerate_connected,
    find_2k2_witness,
    find_c4_witness,
    find_nonsplit_witness,
    find_induced,
    find_unbalanced_witness,
    independence_number,
    is_balanced_split,
    is_ng_by_characterisation,
    is_ng_by_definition,
    is_pseudo_split,
    is_split,
    is_split_forbidden,
    is_star,
    ks_partition,
    parse_graph6,
    path_graph,
    pseudo_split_decompose,
    star_graph,
    write_graph6,
)
from splitkit import invariants, recognition
from splitkit.invariants import _find_c5, _greedy_bound
from splitkit.recognition import _Facts, _ks

from graphgen import labelled_graphs, random_graph, relabel
from oracles import (
    balanced_partition_exists,
    clique_number_subsets,
    decomposition_is_valid,
    first_ks_partition,
    independence_number_subsets,
    ks_partition_exists,
    maximum_cliques_subsets,
)

PAW = build(4, [(0, 1), (0, 2), (1, 2), (0, 3)])


def all_graphs_upto(n):
    for k in range(1, n + 1):
        yield from enumerate_all(k)


# ---------------------------------------------------------------------------
# split recognition


def test_split_recognizers_match_partition_search():
    for g in all_graphs_upto(6):
        expected = ks_partition_exists(g)
        assert is_split_forbidden(g) == expected
        assert is_split(g) == expected


def test_split_class_counts_match_published_sequence():
    counts = [sum(is_split(g) for g in enumerate_all(n)) for n in range(1, 8)]
    assert counts == [1, 2, 4, 9, 21, 56, 164]


def test_ks_partition_is_valid_max_and_lex_first():
    for g in all_graphs_upto(5):
        if not is_split(g):
            continue
        p = ks_partition(g)
        assert p.is_valid_for(g)
        w = clique_number(g)
        assert len(p.k) == w
        first = next(
            k
            for k in itertools.combinations(range(g.n), w)
            if KSPartition(k, tuple(sorted(set(range(g.n)) - set(k)))).is_valid_for(g)
        )
        assert p.k == first


def test_ks_walk_matches_combinations_scan():
    # every labelling to order 5: the first clique depends on the labels
    labelled = itertools.chain.from_iterable(labelled_graphs(n) for n in range(1, 6))
    for g in itertools.chain(labelled, all_graphs_upto(7)):
        expected = first_ks_partition(g)
        if expected is not None:
            assert _ks(g, clique_number(g)) == expected, g


def test_ks_partition_requires_split():
    for g in (cycle_graph(4), cycle_graph(5), NamedPattern("TWO_K2").template):
        with pytest.raises(NotSplit):
            ks_partition(g)


def test_ks_partition_validity_checks():
    assert KSPartition((1, 2), (0, 3)).is_valid_for(path_graph(4))
    assert not KSPartition((0, 1), (1, 2, 3)).is_valid_for(path_graph(4))  # overlap
    assert not KSPartition((0,), (2, 3)).is_valid_for(path_graph(4))  # misses 1
    assert not KSPartition((0, 0, 1), (2, 3)).is_valid_for(path_graph(4))  # duplicate
    assert not KSPartition((0, 3), (1, 2)).is_valid_for(path_graph(4))  # k not clique
    assert not KSPartition((0, 1), (2, 3)).is_valid_for(path_graph(4))  # s not independent


def test_partition_validators_match_the_oracle():
    # every assignment of each vertex to a, b or c, for every class to order
    # 5 and, at order 6, those with c empty or of size 5; KSPartition is
    # checked where c is empty. To order 4 a vertex is also listed twice in
    # one part, in two parts, or left out
    checked = 0
    classes = [(g, None) for g in all_graphs_upto(5)] + [(g, (0, 5)) for g in enumerate_all(6)]
    for g, c_sizes in classes:
        for parts in itertools.product(range(3), repeat=g.n):
            if c_sizes is not None and parts.count(2) not in c_sizes:
                continue
            a, b, c = (tuple(v for v in range(g.n) if parts[v] == i) for i in range(3))
            cases = [(a, b, c)]
            if g.n <= 4 and a:
                cases += [(a + a[:1], b, c), (a, b + a[:1], c), (a[1:], b, c)]
            for a, b, c in cases:
                expected = decomposition_is_valid(g, a, b, c)
                assert PseudoSplitDecomposition(a, b, c).is_valid_for(g) == expected, (g, a, b, c)
                if not c:
                    assert KSPartition(a, b).is_valid_for(g) == expected, (g, a, b)
            checked += 1
    assert checked == 21138


def test_classify_ks_case():
    star = star_graph(3)
    assert classify_ks_case(star, KSPartition((0, 1), (2, 3))) == CASE_III
    assert classify_ks_case(star, KSPartition((0,), (1, 2, 3))) == CASE_II
    p4 = path_graph(4)
    assert classify_ks_case(p4, KSPartition((1, 2), (0, 3))) == CASE_I
    with pytest.raises(InvalidPartition):
        classify_ks_case(star, KSPartition((1, 2), (0, 3)))


def test_is_balanced_split_matches_partition_search():
    for g in all_graphs_upto(6):
        if not is_split(g):
            continue
        w = clique_number(g)
        a = independence_number(g)
        assert is_balanced_split(g) == balanced_partition_exists(g, w, a)


def test_is_balanced_split_requires_split():
    with pytest.raises(NotSplit):
        is_balanced_split(cycle_graph(4))


@pytest.mark.parametrize(
    "g,expected",
    [
        (build(1), True),
        (complete_graph(2), True),
        (star_graph(3), True),
        (star_graph(7), True),
        (path_graph(4), False),
        (complete_graph(3), False),
        (build(2), False),
        (PAW, False),
    ],
)
def test_is_star(g, expected):
    assert is_star(g) == expected


# ---------------------------------------------------------------------------
# exceptional families


def test_detect_exceptional_families():
    cases = [
        (cycle_graph(4), FamilyTag("H1", 2)),
        (complete_bipartite_graph(2, 5), FamilyTag("H1", 5)),
        (NamedPattern("W4").template, FamilyTag("H2")),
        (NamedPattern("OCTAHEDRON").template, FamilyTag("H3")),
        (NamedPattern("TWO_K2").template, FamilyTag("H4")),
        (path_graph(5), FamilyTag("H5")),
        (NamedPattern("HAMMER").template, FamilyTag("H6")),
        (NamedPattern("BUTTERFLY").template, FamilyTag("H7")),
    ]
    for g, tag in cases:
        assert detect_exceptional(g) == tag
        perm = list(range(1, g.n)) + [0]
        assert detect_exceptional(relabel(g, perm)) == tag


def test_detect_exceptional_is_structural_for_large_k2l():
    assert detect_exceptional(complete_bipartite_graph(2, 20)) == FamilyTag("H1", 20)


@pytest.mark.parametrize(
    "g",
    [
        build(1),
        complete_graph(4),
        cycle_graph(5),
        cycle_graph(6),
        PAW,
        path_graph(4),
        star_graph(4),
        complete_bipartite_graph(3, 3),
    ],
)
def test_detect_exceptional_rejects_others(g):
    assert detect_exceptional(g) is None


def test_family_tag_str():
    assert str(FamilyTag("H1", 4)) == "H1(l=4)"
    assert str(FamilyTag("H6")) == "H6"


# ---------------------------------------------------------------------------
# witness edges


def check_degree_tests(g):
    """The degree test (m, split, d_m) on the record of every g/e, which
    the nonsplit and unbalanced labels read, agrees with the forbidden-
    pattern split test and, where g/e is split, with the brute-force omega
    and alpha: m is the clique number, and d_m = m - 1 iff g/e is
    unbalanced."""
    facts = _Facts(g)
    for u, v in g.edges():
        h = facts.contracted(u, v)
        m, split, dm = h.degree_test
        assert split == is_split_forbidden(h.g)
        if not split:
            continue
        omega = clique_number_subsets(h.g)
        assert m == omega
        assert (dm == m - 1) == (omega + independence_number_subsets(h.g) != h.g.n)


def test_unbalanced_walk_refuses_a_nonsplit_contraction():
    # the contractions of a split graph are split; a record that calls K4
    # and C5 sharing vertex 3 split, with the K4 as its partition's clique,
    # walks the edges inside the K4, and g/(0,1) keeps the C5, so its degree
    # test refuses it. (Without the planted partition, the partition walk
    # of the planted record refuses the graph before any contraction.)
    k4 = list(itertools.combinations(range(4), 2))
    g = build(8, k4 + [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    facts = _Facts(g)
    facts.split = True
    facts.ks = KSPartition((0, 1, 2, 3), (4, 5, 6, 7))
    with pytest.raises(NotSplit, match="balancedness"):
        facts.witness("unbalanced")


def test_record_omega_and_alpha_match_the_subset_scans():
    # the record's clique searches stop at m or at the greedy colouring
    # bound, which hold on every graph, so a record whose split fact is
    # planted wrong either way still finds the same cliques: every class to
    # order 7, and 300 seeded graphs of orders 9-12 with their complements
    rng = random.Random(2021)
    seeded = [random_graph(rng, rng.randint(9, 12)) for _ in range(300)]
    for g in (*all_graphs_upto(7), *seeded, *map(complement, seeded)):
        omega, alpha = clique_number_subsets(g), independence_number_subsets(g)
        first = maximum_cliques_subsets(g)[0]
        for planted in (None, True, False):
            facts = _Facts(g)
            if planted is not None:
                facts.split = planted
            assert (facts.omega, facts.alpha, facts.clique) == (omega, alpha, first), (g, planted)


def _shared_vertices(g):
    # the vertices of g that every maximum clique holds, by brute force
    return set.intersection(*map(set, maximum_cliques_subsets(g)))


def _unbalanced_mask(g):
    mask = recognition._LABELS["unbalanced"].within(_Facts(g))
    return {v for v in range(g.n) if mask >> v & 1}


def test_unbalanced_mask_holds_every_shared_clique_vertex():
    # the vertices the unbalanced walk draws its edges from are exactly
    # those every maximum clique holds, against every maximum clique found
    # by brute force, on every split graph to order 8
    split = [g for g in all_graphs_upto(8) if is_split(g)]
    assert len(split) == 814
    for g in split:
        assert _unbalanced_mask(g) == _shared_vertices(g), g


def test_unbalanced_mask_is_exact_past_the_enumeration():
    # the same on 100 seeded split graphs of orders 9-10
    rng = random.Random(9)
    for _ in range(100):
        g = random_graph(rng, rng.randint(9, 10), "split")
        assert _unbalanced_mask(g) == _shared_vertices(g), g


def test_degree_tests_match_the_contraction():
    for g in all_graphs_upto(7):
        check_degree_tests(g)
    for g in enumerate_connected(8):
        if is_split(g):
            check_degree_tests(g)


def test_find_c4_witness():
    with pytest.raises(NoInducedC4):
        find_c4_witness(complete_graph(3))
    for g in (cycle_graph(4), NamedPattern("W4").template, NamedPattern("OCTAHEDRON").template,
              complete_bipartite_graph(2, 3)):
        assert find_c4_witness(g) is None
    g = build(5, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)])  # C4 with a pendant
    e = find_c4_witness(g)
    assert e is not None and g.has_edge(e.u, e.v)
    assert contains_c4(contract(g, e))


def test_find_2k2_witness():
    with pytest.raises(NoInduced2K2):
        find_2k2_witness(cycle_graph(4))
    for g in (NamedPattern("TWO_K2").template, path_graph(5), cycle_graph(6),
              NamedPattern("HAMMER").template, NamedPattern("BUTTERFLY").template):
        assert find_2k2_witness(g) is None
    e = find_2k2_witness(path_graph(6))
    assert e == Edge(0, 1)
    h = contract(path_graph(6), e)
    assert contains_2k2(h) or contains_c4(h)


def test_find_nonsplit_witness():
    assert find_nonsplit_witness(PAW) is None
    assert find_nonsplit_witness(complete_graph(4)) is None
    assert find_nonsplit_witness(cycle_graph(4)) is None  # all contractions give K3
    e = find_nonsplit_witness(cycle_graph(6))
    assert e is not None
    assert not is_split(contract(cycle_graph(6), e))


def test_find_unbalanced_witness():
    with pytest.raises(NotSplit):
        find_unbalanced_witness(cycle_graph(4))
    with pytest.raises(IsStar):
        find_unbalanced_witness(build(1))
    with pytest.raises(IsStar):
        find_unbalanced_witness(star_graph(3))
    assert find_unbalanced_witness(complete_graph(2)) == Edge(0, 1)
    assert find_unbalanced_witness(path_graph(4)) is None  # balanced
    e = find_unbalanced_witness(PAW)
    assert e == Edge(0, 1)
    h = contract(PAW, e)
    assert clique_number(h) == clique_number(PAW) - 1
    assert not is_balanced_split(h)


# ---------------------------------------------------------------------------
# pseudo-split and the chromatic-sum classification


def test_is_pseudo_split():
    assert is_pseudo_split(cycle_graph(5))
    assert is_pseudo_split(PAW)
    assert not is_pseudo_split(cycle_graph(4))
    assert not is_pseudo_split(NamedPattern("TWO_K2").template)


def test_pseudo_split_decompose_c5_core():
    assert pseudo_split_decompose(cycle_graph(5)) == PseudoSplitDecomposition(
        (), (), (0, 1, 2, 3, 4)
    )
    wheel = build(6, cycle_graph(5).edges() + [(i, 5) for i in range(5)])
    assert pseudo_split_decompose(wheel) == PseudoSplitDecomposition(
        (5,), (), (0, 1, 2, 3, 4)
    )
    g = disjoint_union([cycle_graph(5), build(1)])
    assert pseudo_split_decompose(g) == PseudoSplitDecomposition(
        (), (5,), (0, 1, 2, 3, 4)
    )


def test_pseudo_split_decompose_split_case():
    d = pseudo_split_decompose(PAW)
    assert d.c == ()
    assert d.is_valid_for(PAW)
    assert (d.a, d.b) == tuple(ks_partition(PAW))


def test_pseudo_split_decompose_scans_once(monkeypatch):
    # the refusal and the decomposition read one record of the graph
    calls = dict.fromkeys(("contains_2k2", "contains_c4"), 0)
    for name in calls:
        real = getattr(recognition, name)

        def counted(g, name=name, real=real):
            calls[name] += 1
            return real(g)

        monkeypatch.setattr(recognition, name, counted)
    pseudo_split_decompose(path_graph(4))
    pseudo_split_decompose(cycle_graph(5))
    assert calls == {"contains_2k2": 2, "contains_c4": 2}


def test_pseudo_split_decompose_rejects_others():
    with pytest.raises(NotPseudoSplit):
        pseudo_split_decompose(NamedPattern("TWO_K2").template)
    with pytest.raises(NotPseudoSplit):
        pseudo_split_decompose(cycle_graph(4))


def test_c5_part_is_the_unique_induced_c5():
    # in a (2K2, C4)-free graph the finder's C5 and the lexicographically
    # first one found by the generic search are the same set
    for g in all_graphs_upto(8):
        if not is_pseudo_split(g):
            continue
        wit = find_induced(g, NamedPattern("C5"))
        expected = None if wit is None else wit.vertices
        assert _find_c5(g) == expected, g
        assert pseudo_split_decompose(g).c == (expected or ())


def test_decomposition_validity_checks():
    c5 = cycle_graph(5)
    assert PseudoSplitDecomposition((), (), (0, 1, 2, 3, 4)).is_valid_for(c5)
    assert not PseudoSplitDecomposition((0,), (), (1, 2, 3, 4)).is_valid_for(c5)
    assert not PseudoSplitDecomposition((), (0, 1, 2, 3, 4), ()).is_valid_for(c5)
    p4 = path_graph(4)
    assert PseudoSplitDecomposition((1, 2), (0, 3), ()).is_valid_for(p4)
    assert not PseudoSplitDecomposition((1, 2), (0,), (3,)).is_valid_for(p4)


@pytest.mark.parametrize(
    "g,expected",
    [
        (cycle_graph(5), True),
        (complete_graph(4), True),
        (build(5), True),
        (PAW, True),
        (path_graph(4), False),
        (cycle_graph(4), False),
        (cycle_graph(6), False),
    ],
)
def test_ng_both_ways(g, expected):
    assert is_ng_by_definition(g) == expected
    assert is_ng_by_characterisation(g) == expected


def test_ng_definition_bound_matches_exact_sum():
    # the greedy shortcut answers False only where the exact chromatic sum
    # stays below n + 1; it decides most graphs to order 7
    decided = 0
    for n in range(1, 8):
        for g in enumerate_all(n):
            gc = complement(g)
            exact = chromatic_number(g) + chromatic_number(gc) == n + 1
            assert is_ng_by_definition(g) == exact, g
            if _greedy_bound(g) + _greedy_bound(gc) <= n:
                assert not exact, g
                decided += 1
    assert decided == 1071


def test_ng_definition_computes_each_colouring_bound_once(monkeypatch):
    # the colouring definition hands its two greedy bounds to the exact
    # colourings, whose clique searches stop there, and reads no record
    calls = []
    real = invariants._greedy_bound

    def counted(g):
        calls.append(g)
        return real(g)

    def no_record(g):
        raise AssertionError("the colouring definition read a record")

    for module in (invariants, recognition):
        monkeypatch.setattr(module, "_greedy_bound", counted)
    monkeypatch.setattr(recognition, "_Facts", no_record)
    for g in all_graphs_upto(7):
        calls.clear()
        is_ng_by_definition(g)
        assert len(calls) == 2, g


def test_witness_walk_keeps_each_tested_contraction():
    # the LEMMA re-checks and THM_UNBALANCED's postcondition read the
    # contraction record the search kept in the record's memo, so every
    # label keeps its witness's record, and every record kept is g/e's
    for n in range(2, 7):
        for g in enumerate_all(n):
            facts = _Facts(g)
            labels = [label for label, entry in recognition._LABELS.items()
                      if label == "nonsplit" or entry.applies(facts)]
            for label in labels:
                e = facts.witness(label)
                assert e is None or e in facts._contractions, (g, label)
            for e, h in facts._contractions.items():
                assert h.g == contract(g, e), (g, e)


def test_witness_labels_share_the_contraction_record(monkeypatch):
    # every label tests g/e's own record: a contraction one label built,
    # and the scans it ran there, serve the others, in either order
    calls = {}

    def counted(name):
        real = getattr(recognition, name)

        def count(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        return count

    for name in ("_contract", "contains_c4", "contains_2k2"):
        monkeypatch.setattr(recognition, name, counted(name))
    # g/(0,3) and g/(0,4) have neither pattern and g/(1,4) has a C4, which
    # makes it the witness of all three labels
    g = build(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 5)])
    labels = ("c4", "2k2", "nonsplit")
    for order in (labels, labels[::-1]):
        # the record's own scans of g run before the count starts
        facts = _Facts(g)
        assert facts.has_c4 and facts.has_2k2
        calls.clear()
        first, *rest = order
        assert facts.witness(first) == Edge(1, 4)
        assert calls["_contract"] == 3, order
        assert {label: facts.witness(label) for label in rest} == dict.fromkeys(rest, Edge(1, 4))
        # three contractions, each scanned at most once for each pattern;
        # the C4 of g/(1,4) spares its 2K2 scan
        assert calls == {"_contract": 3, "contains_c4": 3, "contains_2k2": 2}, order


def walk_label_by_label(g, labels, omega=0):
    """The witness search with no label settling another: at each edge,
    every label still without a witness runs its own test on g/e, through
    the public functions."""
    tests = {
        "c4": contains_c4,
        "2k2": lambda h: contains_2k2(h) or contains_c4(h),
        "nonsplit": lambda h: not is_split(h),
        "unbalanced": lambda h: (
            is_split(h) and clique_number(h) == omega - 1 and not is_balanced_split(h)
        ),
    }
    found = {}
    pending = list(labels)
    for e in g.edges():
        if not pending:
            break
        h = contract(g, e)
        for label in [label for label in pending if tests[label](h)]:
            found[label] = e
            pending.remove(label)
    return found


def check_witness_walk(g, reorder=True):
    """The record's witnesses equal the label-by-label walk on g, for the
    labels a caller reads on g (c4 and 2k2 where g has the pattern,
    nonsplit, and unbalanced on split non-stars), read in that order and,
    with reorder, in reverse order and each alone, each way on a fresh
    record: the facts of g/e one label leaves depend on which labels were
    read first."""
    labels = [label for label, has in (("c4", contains_c4), ("2k2", contains_2k2)) if has(g)]
    labels.append("nonsplit")
    omega = 0
    if is_split(g) and g.n >= 2 and not (g.n >= 3 and is_star(g)):
        labels.append("unbalanced")
        omega = clique_number(g)
    expected = walk_label_by_label(g, labels, omega)
    orders = [labels]
    if reorder:
        orders += [labels[::-1], *([label] for label in labels)]
    for order in orders:
        facts = _Facts(g)
        for label in order:
            assert facts.witness(label) == expected.get(label), (g, order, label)


def test_witness_walk_matches_the_label_by_label_walk():
    # each label reads the facts of g/e's record that earlier labels left;
    # whatever was read first, none of it may move a witness edge
    for g in all_graphs_upto(7):
        check_witness_walk(g)
    for g in enumerate_all(8):
        check_witness_walk(g, reorder=False)


def test_contracting_an_edge_off_a_maximum_clique_keeps_omega():
    # the lemma that lets the unbalanced walk try only the edges between
    # the vertices every maximum clique shares, by subset oracles that read
    # no record: where some maximum clique misses u or v,
    # omega(g/uv) >= omega(g). The lemma
    # holds on every graph; is_split only picks the orders 7-8 graphs
    graphs = [*all_graphs_upto(6), *(g for n in (7, 8) for g in enumerate_all(n) if is_split(g))]
    tried = 0
    for g in graphs:
        cliques = maximum_cliques_subsets(g)
        for u, v in g.edges():
            if any(u not in q or v not in q for q in cliques):
                assert clique_number_subsets(contract(g, (u, v))) >= len(cliques[0]), (g, u, v)
                tried += 1
    assert tried == 6895


def _is_induced_c4(g, vs):
    # four distinct vertices each adjacent to exactly two of the others
    # span a 2-regular graph on four vertices, which is a C4
    return all(sum(g.has_edge(v, w) for w in vs if w != v) == 2 for v in vs)


def _induced_c4s(g):
    # the vertex sets of g's induced C4s, by brute force over 4-subsets
    return [z for z in itertools.combinations(range(g.n), 4) if _is_induced_c4(g, z)]


def _merged_label(u, v):
    # where contract(g, (u, v)) sends each vertex of g: the larger end
    # merges into the smaller, and labels above it shift down by one
    u, v = min(u, v), max(u, v)
    return lambda w: u if w == v else w - (w > v)


def test_an_induced_c4_off_the_contracted_edge_survives():
    # the first local fact of the every-order LEMMA1 argument: contracting
    # an edge with neither end on an induced C4 Z keeps Z's image an
    # induced C4, on every graph to order 7
    cases = 0
    for g in all_graphs_upto(7):
        for z in _induced_c4s(g):
            for u, v in g.edges():
                if u in z or v in z:
                    continue
                label = _merged_label(u, v)
                assert _is_induced_c4(contract(g, (u, v)), [label(w) for w in z]), (g, z, u, v)
                cases += 1
    assert cases == 2830


def test_an_induced_c4_through_the_contracted_edge_survives_unless_closed():
    # the second local fact: for z on an induced C4 Z and x off Z adjacent
    # to z, Z with z replaced by the merged vertex is an induced C4 of
    # g/zx exactly when x is not adjacent to z's opposite on Z, on every
    # graph to order 7
    answers = collections.Counter()
    for g in all_graphs_upto(7):
        for z in _induced_c4s(g):
            for y in z:
                opposite = next(w for w in z if w != y and not g.has_edge(y, w))
                for x in range(g.n):
                    if x in z or not g.has_edge(y, x):
                        continue
                    label = _merged_label(y, x)
                    kept = _is_induced_c4(contract(g, (y, x)), [label(w) for w in z])
                    assert kept == (not g.has_edge(x, opposite)), (g, z, y, x)
                    answers[kept] += 1
    assert sum(answers.values()) == 11795
    assert answers[True] and answers[False]


def test_unbalanced_witness_matches_the_unpruned_walk_past_order_eight():
    # the walk over the shared clique vertices against the walk over every
    # edge, on seeded split graphs past the exhaustive range (to order 8,
    # test_witness_walk_matches_the_label_by_label_walk compares every graph)
    # (no star is drawn, which find_unbalanced_witness would refuse)
    rng = random.Random(9)
    found = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(9, 12), "split")
        expected = walk_label_by_label(g, ["unbalanced"], clique_number(g)).get("unbalanced")
        assert find_unbalanced_witness(g) == expected, write_graph6(g)
        found += expected is not None
    assert found == 115


# ---------------------------------------------------------------------------
# aggregate classification


def _report_from_public_functions(g):
    # the seed's classify, call for call, through the public API only
    split = is_split(g)
    omega = clique_number(g)
    alpha = independence_number(g)
    chi = chromatic_number(g)
    chi_c = chromatic_number(complement(g))
    pseudo = is_pseudo_split(g)
    witnesses = []
    if contains_c4(g):
        e = find_c4_witness(g)
        if e is not None:
            witnesses.append(("c4", e))
    if contains_2k2(g):
        e = find_2k2_witness(g)
        if e is not None:
            witnesses.append(("2k2", e))
    if g.is_connected():
        e = find_nonsplit_witness(g)
        if e is not None:
            witnesses.append(("nonsplit", e))
    if split and g.n >= 2 and not (g.n >= 3 and is_star(g)):
        e = find_unbalanced_witness(g)
        if e is not None:
            witnesses.append(("unbalanced", e))
    return ClassificationReport(
        is_split=split,
        is_balanced_split=(omega + alpha == g.n) if split else None,
        ks=ks_partition(g) if split else None,
        exceptional=detect_exceptional(g),
        is_pseudo_split=pseudo,
        psd=pseudo_split_decompose(g) if pseudo else None,
        is_ng=chi + chi_c == g.n + 1,
        omega=omega,
        alpha=alpha,
        chi=chi,
        chi_complement=chi_c,
        witnesses=tuple(witnesses),
    )


def test_classify_matches_public_functions():
    rng = random.Random(20211)
    graphs = list(all_graphs_upto(7))
    graphs += [random_graph(rng, rng.randint(9, 12)) for _ in range(300)]
    for g in graphs:
        assert classify(g) == _report_from_public_functions(g), g


def test_classify_searches_no_nonsplit_witness_on_a_split_graph(monkeypatch):
    # every contraction of a split graph is split, so classify asks for a
    # nonsplit witness only where g is connected and not split
    searched = []
    real = recognition._search

    def search(facts, label):
        if label == "nonsplit":
            searched.append(facts.g)
        return real(facts, label)

    monkeypatch.setattr(recognition, "_search", search)
    split = [g for g in all_graphs_upto(7) if is_split(g)]
    for g in split:
        classify(g)
    assert len(split) == 257 and searched == []
    classify(cycle_graph(5))
    assert searched == [cycle_graph(5)]


def test_classify_triangle():
    r = classify(complete_graph(3))
    assert r.is_split and r.is_balanced_split is False
    assert r.ks == KSPartition((0, 1, 2), ())
    assert r.exceptional is None
    assert r.is_pseudo_split and r.is_ng
    assert (r.omega, r.alpha, r.chi, r.chi_complement) == (3, 1, 3, 1)
    assert r.witnesses == (("unbalanced", Edge(0, 1)),)


def test_classify_paw():
    r = classify(PAW)
    assert r.is_split and not r.is_balanced_split
    assert r.ks == KSPartition((0, 1, 2), (3,))
    assert r.psd == PseudoSplitDecomposition((0, 1, 2), (3,), ())
    assert r.is_ng
    assert ("unbalanced", Edge(0, 1)) in r.witnesses


def test_classify_c4():
    r = classify(cycle_graph(4))
    assert not r.is_split
    assert r.is_balanced_split is None and r.ks is None
    assert r.exceptional == FamilyTag("H1", 2)
    assert not r.is_pseudo_split and r.psd is None
    assert r.is_ng is False
    assert r.witnesses == ()  # C4 is terminal for every witness search


def test_classify_to_dict_is_json_ready():
    d = classify(PAW).to_dict()
    json.dumps(d)
    assert d["ks"] == {"k": [0, 1, 2], "s": [3]}
    assert d["exceptional"] is None
    assert d["witnesses"] == [{"label": "unbalanced", "edge": [0, 1]}]
    d = classify(cycle_graph(4)).to_dict()
    assert d["exceptional"] == {"family": "H1", "l": 2}
    assert d["is_balanced_split"] is None


def check_report_json(label, r):
    """The writer's element, in a one-element list, is json.dumps's text."""
    oracle = json.dumps([{"input": label, **r.to_dict()}], sort_keys=True, indent=2)
    assert "[\n" + r.to_json(label) + "\n]" == oracle


def test_report_json_on_every_graph_to_order_5():
    for g in all_graphs_upto(5):
        check_report_json(write_graph6(g), classify(g))


def test_report_json_edge_cases():
    # a graph6 label with a backslash, the edge-list label, and escapes
    for label in ("C\\", "edge-list", 'q"\u00e9\u2028\x00\U0001f600'):
        check_report_json(label, classify(parse_graph6("C\\")))
    c4 = classify(cycle_graph(4))  # H1 with l, balanced None, no witnesses
    assert c4.exceptional.l == 2 and c4.is_balanced_split is None and not c4.witnesses
    k3 = classify(complete_graph(3))  # empty S and empty C5 part
    assert k3.ks.s == () and k3.psd.c == ()
    p5 = classify(path_graph(5))  # a fixed-order tag, without l
    assert p5.exceptional == FamilyTag("H5")
    base = classify(PAW)
    reports = [c4, k3, p5]
    reports += [
        base._replace(ks=KSPartition((), (0, 1, 2, 3)), psd=PseudoSplitDecomposition((), (), ())),
        base._replace(exceptional=FamilyTag("H1", 3)),
        base._replace(exceptional=FamilyTag("H7")),
        base._replace(witnesses=()),
        base._replace(
            witnesses=(
                ("c4", Edge(0, 1)),
                ("2k2", Edge(0, 2)),
                ("nonsplit", Edge(1, 2)),
                ("unbalanced", Edge(0, 3)),
            )
        ),
    ]
    for r in reports:
        check_report_json("C\\", r)


def test_classify_order_cap():
    with pytest.raises(OrderTooLargeForColoring):
        classify(build(13))
