"""Graph generators for the tests.

``labelled_graphs(n)`` yields every labelled graph of order n, for checks
whose answer depends on the labels and not only on the isomorphism class;
the enumeration gives one labelling per class.

``relabel(g, perm)`` renames the vertices of g by a permutation, for
checks that an answer does not depend on the labels.

``random_graph`` draws seeded graphs past the exhaustive range, for the
property tests. Three kinds, so that every branch of ``classify`` is
taken: G(n, p) with p in {0.2, 0.5, 0.8}, split graphs (a clique joined to
an independent set by random edges), and pseudo-split graphs with a C5
part (a C5 fully joined to a clique, plus an independent set with random
edges to the clique). Labels are shuffled, so no structure shows in them.
"""

import itertools

from splitkit import VertexOutOfRange, build


def labelled_graphs(n):
    """Every labelled graph of order n, 2^(n(n-1)/2) of them."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def relabel(g, perm):
    """g with each vertex v renamed perm[v]."""
    if sorted(perm) != list(range(g.n)):
        raise VertexOutOfRange("perm is not a permutation of 0..n-1")
    return build(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(rng, n, kind=None):
    """A random graph of order n >= 6 drawn from ``rng`` (a ``random.Random``),
    of the given kind, or of one drawn from ``rng`` when kind is None."""
    kind = kind or rng.choice(("gnp", "split", "pseudo_c5"))
    edges = []
    if kind == "gnp":
        p = rng.choice((0.2, 0.5, 0.8))
        edges = [(u, v) for v in range(n) for u in range(v) if rng.random() < p]
    elif kind == "split":
        k = rng.randint(1, n - 1)
        edges = [(u, v) for v in range(k) for u in range(v)]
        edges += [(u, s) for s in range(k, n) for u in range(k) if rng.random() < 0.5]
    else:
        edges = [(i, (i + 1) % 5) for i in range(5)]
        a = rng.randint(0, n - 5)
        clique = range(5, 5 + a)
        edges += [(u, v) for v in clique for u in range(v)]
        edges += [(u, s) for s in range(5 + a, n) for u in clique if rng.random() < 0.5]
    perm = list(range(n))
    rng.shuffle(perm)
    return build(n, [(perm[u], perm[v]) for u, v in edges])
