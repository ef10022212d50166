"""Property tests past the exhaustive range: random graphs of orders 9-12.

Enumeration covers every graph to order 8; here Hypothesis draws seeded
graphs of orders 9-12 (see graphgen.py) and checks the recognizers, the
decompositions, omega and alpha, the 2K2, C4 and claw scans, every witness
that ``classify`` and the C4 and 2K2 witness searches report, and the
degree test of every contraction against the brute-force oracles,
the witness walk against a walk that tests each label on its own, the
verify checks that read the walk on connected graphs of orders 9-10,
the canonical codes that isomorphism answers by, the enumeration kernel's
children against the plain extension step (parents of orders 9-11), and the
greedy shortcut of the NG definition against the exact chromatic sum. Two properties reach
outside 9-12: the classify JSON writer against ``json.dumps`` at orders
6-12, and the graph6 decoder against a bit-by-bit oracle at orders 9-64.
The run is derandomized, so it draws the same graphs every time.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from splitkit import (
    MalformedGraph6,
    build,
    canonical_code,
    canonical_form,
    chromatic_number,
    classify,
    complement,
    contains_2k2,
    contains_c4,
    contract,
    cycle_graph,
    detect_exceptional,
    find_2k2_witness,
    find_c4_witness,
    induced,
    is_isomorphic,
    is_ng_by_characterisation,
    is_ng_by_definition,
    is_split,
    is_split_forbidden,
    ks_partition,
    parse_graph6,
    pseudo_split_decompose,
    star_graph,
    write_graph6,
)
from splitkit.graphs import _child_codes, _code
from splitkit.harness import check_one
from splitkit.invariants import COLORING_MAX_ORDER, _contains_claw, _greedy_bound

from graphgen import random_graph, relabel
from oracles import (
    balanced_partition_exists,
    clique_number_subsets,
    decode_graph6_bits,
    first_ks_partition,
    has_induced_copy,
    independence_number_subsets,
    ks_partition_exists,
)
from test_recognition import check_degree_tests, check_report_json, check_witness_walk

C4 = cycle_graph(4)
TWO_K2 = build(4, [(0, 1), (2, 3)])
CLAW = star_graph(3)


@st.composite
def big_graphs(draw):
    rng = draw(st.randoms(use_true_random=False))
    return random_graph(rng, draw(st.integers(9, 12)))


def _check_witness(g, omega, label, e):
    h = contract(g, e)
    if label == "c4":
        assert has_induced_copy(h, C4)
    elif label == "2k2":
        assert has_induced_copy(h, TWO_K2) or has_induced_copy(h, C4)
    elif label == "nonsplit":
        assert not ks_partition_exists(h)
    else:
        assert label == "unbalanced"
        omega_h = clique_number_subsets(h)
        assert ks_partition_exists(h) and omega_h == omega - 1
        assert not balanced_partition_exists(h, omega_h, independence_number_subsets(h))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(big_graphs())
def test_classify_past_the_exhaustive_range(g):
    split = ks_partition_exists(g)
    assert is_split_forbidden(g) == is_split(g) == split
    r = classify(g)
    assert r.is_split == split
    assert (r.omega, r.alpha) == (clique_number_subsets(g), independence_number_subsets(g))
    pseudo = not has_induced_copy(g, TWO_K2) and not has_induced_copy(g, C4)
    assert r.is_pseudo_split == pseudo
    if split:
        assert r.ks == ks_partition(g) == first_ks_partition(g) and r.ks.is_valid_for(g)
        assert len(r.ks.k) == r.omega
        assert r.is_balanced_split == balanced_partition_exists(g, r.omega, r.alpha)
    if pseudo:
        assert r.psd == pseudo_split_decompose(g) and r.psd.is_valid_for(g)
        assert bool(r.psd.c) == (not split)
    assert r.is_ng == is_ng_by_characterisation(g)
    for label, e in r.witnesses:
        _check_witness(g, r.omega, label, e)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(big_graphs())
def test_ng_definition_bound_past_the_exhaustive_range(g):
    gc = complement(g)
    exact = chromatic_number(g) + chromatic_number(gc) == g.n + 1
    assert is_ng_by_definition(g) == exact
    if _greedy_bound(g) + _greedy_bound(gc) <= g.n:
        assert not exact


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(big_graphs())
def test_degree_tests_past_the_exhaustive_range(g):
    check_degree_tests(g)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(big_graphs())
def test_witness_walk_past_the_exhaustive_range(g):
    check_witness_walk(g)


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(st.randoms(use_true_random=False), st.integers(9, COLORING_MAX_ORDER))
def test_witness_checks_pass_past_the_exhaustive_range(rng, n):
    # on connected graphs of the corpus orders: the checks that read the
    # witness walk; THM_KS_CASES, which reads every partition the partition
    # search yields on the split draws (about a third), and
    # THM_SPLIT_FORBIDDEN, which asks it for one; THM_PSEUDO, which validates
    # the record's decomposition; and THM_NG, which tests the record's NG
    # fact against the colouring definition. On a disconnected graph such as
    # C4 + K1, LEMMA1 and THM_CONTRACTION report violations by design
    g = random_graph(rng, n)
    if not g.is_connected():
        g = complement(g)  # the complement of a disconnected graph is connected
    for theorem in (
        "LEMMA1", "LEMMA2", "THM_CONTRACTION", "THM_UNBALANCED", "THM_KS_CASES",
        "THM_SPLIT_FORBIDDEN", "THM_PSEUDO", "THM_NG",
    ):
        assert check_one(theorem, g) == (), (theorem, g)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(big_graphs(), st.randoms(use_true_random=False))
def test_canonical_code_past_the_exhaustive_range(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    code = canonical_code(g)
    assert canonical_code(h) == code
    assert is_isomorphic(g, h)
    f = canonical_form(g)
    assert sorted(f.degrees()) == sorted(g.degrees())
    assert canonical_code(f) == code


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(big_graphs())
def test_pattern_scans_past_the_exhaustive_range(g):
    has_2k2 = has_induced_copy(g, TWO_K2)
    has_c4 = has_induced_copy(g, C4)
    assert contains_2k2(g) == has_2k2
    assert contains_c4(g) == has_c4
    assert _contains_claw(g) == has_induced_copy(g, CLAW)
    # LEMMA1 and LEMMA2: past order 6 only K_{2,l} lacks a witness
    if has_c4:
        e = find_c4_witness(g)
        if e is None:
            assert detect_exceptional(g).family == "H1"
        else:
            assert has_induced_copy(contract(g, e), C4)
    if has_2k2:
        e = find_2k2_witness(g)
        assert e is not None
        h = contract(g, e)
        assert has_induced_copy(h, TWO_K2) or has_induced_copy(h, C4)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.randoms(use_true_random=False), st.integers(6, 12))
def test_report_json_matches_json_dumps(rng, n):
    g = random_graph(rng, n)
    check_report_json(write_graph6(g), classify(g))


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(st.integers(0, 2**32), st.sampled_from((63, 64)) | st.integers(9, 62))
def test_parse_graph6_matches_bitwise_oracle_to_order_64(seed, n):
    # a seed, not a drawn Random: an order-64 graph takes 2,016 draws
    g = random_graph(random.Random(seed), n)
    line = write_graph6(g)
    h = parse_graph6(line)
    assert h == g and decode_graph6_bits(line) == (n, h.edges())
    # _code is the body's bits without the padding
    body = line[4:] if n > 62 else line[1:]
    pad = 6 * len(body) - n * (n - 1) // 2
    assert _code(h) == int("".join(f"{ord(c) - 63:06b}" for c in body), 2) >> pad
    if n * (n - 1) // 2 % 6:  # a set padding bit is rejected
        with pytest.raises(MalformedGraph6, match="nonzero padding bits"):
            parse_graph6(line[:-1] + chr(63 + (ord(line[-1]) - 63 | 1)))


def accepted_children_codes(g):
    """canonical_code of each child of g, over every nonempty neighbourhood
    of a new vertex, that the canonical-deletion rank test accepts: no other
    vertex has a larger (degree, neighbour-degree sum) and leaves the child
    connected when deleted. Twin-prefix neighbourhoods reach every class
    that all neighbourhoods reach, so the code sets are equal."""
    n = g.n + 1
    edges = g.edges()
    codes = set()
    for mask in range(1, 1 << g.n):
        child = build(n, edges + [(w, g.n) for w in range(g.n) if mask >> w & 1])
        degs = child.degrees()
        rank = [(degs[v], sum(degs[u] for u in range(n) if child.rows[v] >> u & 1)) for v in range(n)]
        if not any(
            rank[w] > rank[g.n] and induced(child, set(range(n)) - {w}).is_connected()
            for w in range(g.n)
        ):
            codes.add(canonical_code(child))
    return codes


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(st.randoms(use_true_random=False), st.integers(9, 11))
def test_child_codes_past_the_exhaustive_range(rng, n):
    # the kernel's fused keys, twin classes and twin-prefix masks against
    # the plain extension step, on connected parents of orders 9-11
    g = random_graph(rng, n)
    if not g.is_connected():
        g = complement(g)  # the complement of a disconnected graph is connected
    assert _child_codes(n + 1, (canonical_code(g),)) == accepted_children_codes(g)
