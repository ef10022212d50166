"""Seeded graph6 corpus for the classify-corpus workload.

The benchmark writes the corpus; the program only sees the graph6 file. The
mix is chosen so that every branch of ``classify`` is taken past the
exhaustive range (orders 9-12):

- about half G(n, p) with p drawn from {0.2, 0.5, 0.8}: mostly non-split,
  so the witness searches and the chromatic numbers dominate;
- about 30% random split graphs (clique K joined to an independent set S by
  random K-S edges), which take the KS-partition and unbalanced-witness paths;
- about 20% pseudo-split graphs with a C5 joined to the clique part, which
  take the C5 branch of the pseudo-split decomposition.

Vertices are relabelled by a random permutation so that no structure is
visible from the labels.
"""

from __future__ import annotations

import random

MIN_ORDER = 9
MAX_ORDER = 12
GNP_DENSITIES = (0.2, 0.5, 0.8)
# cumulative shares of the three kinds
KIND_SHARES = (("gnp", 0.5), ("split", 0.8), ("pseudo_c5", 1.0))


def encode_graph6(n: int, rows: list[int]) -> str:
    """graph6 line for an order-n graph (n <= 62) given by adjacency bitmasks."""
    out = [chr(63 + n)]
    buf = nbits = 0
    for v in range(1, n):
        for u in range(v):
            buf = buf << 1 | (rows[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(63 + buf))
                buf = nbits = 0
    if nbits:
        out.append(chr(63 + (buf << (6 - nbits))))
    return "".join(out)


def decode_graph6(line: str) -> tuple[int, list[int]]:
    """Order and adjacency bitmasks of a short-form graph6 line."""
    s = line.strip()
    n = ord(s[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"unsupported graph6 order in {line!r}")
    body = s[1:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6:
        raise ValueError(f"bad graph6 length in {line!r}")
    rows = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if (ord(body[k // 6]) - 63) >> (5 - k % 6) & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    return n, rows


def _add_edge(rows: list[int], u: int, v: int) -> None:
    rows[u] |= 1 << v
    rows[v] |= 1 << u


def _permuted(rng: random.Random, n: int, rows: list[int]) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    out = [0] * n
    for v in range(n):
        m = rows[v]
        r = 0
        while m:
            b = m & -m
            m ^= b
            r |= 1 << perm[b.bit_length() - 1]
        out[perm[v]] = r
    return out


def _gnp(rng: random.Random, n: int) -> list[int]:
    p = rng.choice(GNP_DENSITIES)
    rows = [0] * n
    for v in range(1, n):
        for u in range(v):
            if rng.random() < p:
                _add_edge(rows, u, v)
    return rows


def _split(rng: random.Random, n: int) -> list[int]:
    # clique 0..k-1, independent set k..n-1, each K-S edge with probability p
    k = rng.randint(1, n - 1)
    p = rng.random()
    rows = [0] * n
    for v in range(1, k):
        for u in range(v):
            _add_edge(rows, u, v)
    for s in range(k, n):
        for u in range(k):
            if rng.random() < p:
                _add_edge(rows, u, s)
    return rows


def _pseudo_c5(rng: random.Random, n: int) -> list[int]:
    # C5 on 0..4, clique A joined to all of it, independent set B joined to
    # A at random and to nothing in the C5
    rows = [0] * n
    for i in range(5):
        _add_edge(rows, i, (i + 1) % 5)
    a = rng.randint(0, n - 5)
    clique = range(5, 5 + a)
    for v in clique:
        for c in range(5):
            _add_edge(rows, v, c)
        for u in range(5, v):
            _add_edge(rows, u, v)
    p = rng.random()
    for b in range(5 + a, n):
        for u in clique:
            if rng.random() < p:
                _add_edge(rows, u, b)
    return rows


_MAKERS = {"gnp": _gnp, "split": _split, "pseudo_c5": _pseudo_c5}


def make_corpus(seed: int, size: int) -> list[tuple[str, str]]:
    """``size`` distinct (kind, graph6) pairs, a pure function of ``seed``."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < size:
        x = rng.random()
        kind = next(name for name, cum in KIND_SHARES if x < cum)
        n = rng.randint(MIN_ORDER, MAX_ORDER)
        line = encode_graph6(n, _permuted(rng, n, _MAKERS[kind](rng, n)))
        if line not in seen:  # every corpus graph is a distinct labelled graph
            seen.add(line)
            out.append((kind, line))
    return out
