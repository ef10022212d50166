"""Output checks behind ``failed``/``attempted``.

Each check returns ``(attempted, failed, notes)``. One check is a theorem
report (verify), a census row (census) or a classified graph (classify).
The classify checks recompute what they need with the small bitmask routines
below, which share no code with splitkit.
"""

from __future__ import annotations

import json
import re

from corpus import decode_graph6

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
# graphs_checked per theorem for ``verify --theorem all --max-n 8``
VERIFY_N8_GRAPHS = dict(
    zip(
        THEOREM_IDS,
        (208, 208, 143, 5, 5, 12113, 12113, 12369, 12113, 12113, 1252, 12113, 13598, 1252),
    )
)
# (n, connected, split, balanced, unbalanced, non-split, pseudo, ng, exceptional)
# for ``census --max-n 8``; the connected column is OEIS A001349
CENSUS_N8_ROWS = (
    (1, 1, 1, 0, 1, 0, 1, 1, "-"),
    (2, 1, 1, 0, 1, 0, 1, 1, "-"),
    (3, 2, 2, 0, 2, 0, 2, 2, "-"),
    (4, 6, 5, 1, 4, 1, 5, 4, "H1(l=2):1"),
    (5, 21, 12, 3, 9, 9, 13, 10, "H1(l=3):1, H2:1, H5:1, H6:1, H7:1"),
    (6, 112, 35, 14, 21, 77, 36, 22, "H1(l=4):1, H3:1"),
    (7, 853, 108, 52, 56, 745, 110, 58, "H1(l=5):1"),
    (8, 11117, 393, 229, 164, 10724, 397, 168, "H1(l=6):1"),
)

_VERIFY_LINE = re.compile(r"^(\w+)\s+orders\s+(\d+)\.\.(\d+)\s+graphs=(\d+)\b.*\b(PASS|FAIL)\s*$")


def check_verify_text(text: str) -> tuple[int, int, list[str]]:
    """All 14 reports present, in order, PASS, with the pinned graph counts."""
    found = []
    for line in text.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            found.append((m.group(1), int(m.group(4)), m.group(5)))
    notes = []
    failed = 0
    for i, tid in enumerate(THEOREM_IDS):
        got = found[i] if i < len(found) else None
        want = (tid, VERIFY_N8_GRAPHS[tid], "PASS")
        if got != want:
            failed += 1
            notes.append(f"{tid}: expected {want}, got {got}")
    if len(found) != len(THEOREM_IDS):
        notes.append(f"{len(found)} report lines, expected {len(THEOREM_IDS)}")
    return len(THEOREM_IDS), failed, notes


def check_census_text(text: str) -> tuple[int, int, list[str]]:
    """Every row of the order-8 census equals its pinned value."""
    rows = []
    for line in text.splitlines():
        parts = line.split(None, 8)
        if len(parts) == 9 and all(p.isdigit() for p in parts[:8]):
            rows.append(tuple(int(p) for p in parts[:8]) + (parts[8].strip(),))
    notes = []
    failed = 0
    for i, want in enumerate(CENSUS_N8_ROWS):
        got = rows[i] if i < len(rows) else None
        if got != want:
            failed += 1
            notes.append(f"row n={want[0]}: expected {want}, got {got}")
    if len(rows) != len(CENSUS_N8_ROWS):
        notes.append(f"{len(rows)} census rows, expected {len(CENSUS_N8_ROWS)}")
    return len(CENSUS_N8_ROWS), failed, notes


# ---------------------------------------------------------------------------
# independent bitmask routines for the classify checks


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _complement(n: int, rows: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [full ^ r ^ (1 << v) for v, r in enumerate(rows)]


def _has_c4(n: int, rows: list[int]) -> bool:
    # two non-adjacent vertices with two non-adjacent common neighbours
    for u in range(n):
        for w in range(u + 1, n):
            if rows[u] >> w & 1:
                continue
            common = rows[u] & rows[w]
            for x in _bits(common):
                if common & ~rows[x] & ~(1 << x):
                    return True
    return False


def _has_2k2(n: int, rows: list[int]) -> bool:
    # an induced 2K2 is an induced C4 of the complement
    return _has_c4(n, _complement(n, rows))


def _has_c5(n: int, rows: list[int]) -> bool:
    # a-b-c-d-e-a with a the smallest vertex and b < e
    for a in range(n):
        above = ~((1 << (a + 1)) - 1)
        na = rows[a] & above
        for b in _bits(na):
            for e in _bits(na & ~rows[b] & ~((1 << (b + 1)) - 1)):
                cs = rows[b] & ~rows[a] & ~rows[e] & above & ~(1 << e)
                for c in _bits(cs):
                    if rows[c] & rows[e] & ~rows[a] & ~rows[b] & above & ~(1 << c):
                        return True
    return False


def _omega(rows: list[int], cand: int, size: int = 0) -> int:
    best = size
    while cand:
        if size + cand.bit_count() <= best:
            break
        v = cand.bit_length() - 1
        cand ^= 1 << v
        best = max(best, _omega(rows, cand & rows[v], size + 1))
    return best


def _is_split(n: int, rows: list[int]) -> bool:
    return not (_has_2k2(n, rows) or _has_c4(n, rows) or _has_c5(n, rows))


def _contract(n: int, rows: list[int], u: int, v: int) -> tuple[int, list[int]]:
    # merge v into u (u < v), then drop v and close the gap
    low = (1 << v) - 1

    def drop(r: int) -> int:
        return (r & low) | (r >> (v + 1) << v)

    merged = (rows[u] | rows[v]) & ~(1 << u) & ~(1 << v)
    out = []
    for x in range(n):
        if x == v:
            continue
        r = merged if x == u else rows[x] | (1 << u if rows[x] >> v & 1 else 0)
        out.append(drop(r))
    return n - 1, out


def _mask(vs) -> int:
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def _is_clique(rows: list[int], mask: int) -> bool:
    return all(rows[v] & mask == mask & ~(1 << v) for v in _bits(mask))


def _is_independent(rows: list[int], mask: int) -> bool:
    return all(not rows[v] & mask for v in _bits(mask))


def _parts_ok(n: int, parts) -> bool:
    seen = [v for p in parts for v in p]
    return sorted(seen) == list(range(n))


def _edges(n: int, rows: list[int]):
    for u in range(n):
        for v in _bits(rows[u] >> (u + 1)):
            yield u, u + 1 + v


def _is_connected(n: int, rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= rows[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _is_star(n: int, rows: list[int]) -> bool:
    return n == 1 or sorted(r.bit_count() for r in rows) == [1] * (n - 1) + [n - 1]


def _colourable(n: int, rows: list[int], k: int) -> bool:
    """True iff the graph has a proper colouring with k colours."""
    order = sorted(range(n), key=lambda v: -rows[v].bit_count())
    classes: list[int] = []

    def place(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        for c, cls in enumerate(classes):
            if not rows[v] & cls:
                classes[c] = cls | 1 << v
                if place(i + 1):
                    return True
                classes[c] = cls
        if len(classes) < k:
            # a new class is opened only here, so colourings that differ
            # by a renaming of the colours are tried once
            classes.append(1 << v)
            if place(i + 1):
                return True
            classes.pop()
        return False

    return place(0)


def _chromatic_ok(n: int, rows: list[int], chi: int, lower: int) -> bool:
    """chi colours suffice and, unless chi is the lower bound, chi - 1 do not."""
    return chi >= lower and _colourable(n, rows, chi) and (chi == lower or not _colourable(n, rows, chi - 1))


def _is_balanced(n: int, rows: list[int]) -> bool:
    full = (1 << n) - 1
    return _omega(rows, full) + _omega(_complement(n, rows), full) == n


def _expected_witnesses(n: int, rows: list[int], split: bool, c4: bool, twok2: bool) -> list[str]:
    """The witness labels classify must report, by whether each witness
    exists: some edge whose contraction meets the label's postcondition."""
    contractions = [_contract(n, rows, u, v) for u, v in _edges(n, rows)]
    labels = []
    if c4 and any(_has_c4(hn, h) for hn, h in contractions):
        labels.append("c4")
    if twok2 and any(_has_2k2(hn, h) or _has_c4(hn, h) for hn, h in contractions):
        labels.append("2k2")
    if _is_connected(n, rows) and any(not _is_split(hn, h) for hn, h in contractions):
        labels.append("nonsplit")
    if split and n >= 2 and not (n >= 3 and _is_star(n, rows)):
        omega = _omega(rows, (1 << n) - 1)
        if any(
            _omega(h, (1 << hn) - 1) == omega - 1 and _is_split(hn, h) and not _is_balanced(hn, h)
            for hn, h in contractions
        ):
            labels.append("unbalanced")
    return labels


def _check_report(g6: str, r: dict) -> list[str]:
    n, rows = decode_graph6(g6)
    full = (1 << n) - 1
    bad = []
    c4, twok2 = _has_c4(n, rows), _has_2k2(n, rows)
    forbidden_free = not (c4 or twok2 or _has_c5(n, rows))
    if r["is_split"] != forbidden_free:
        bad.append(f"is_split={r['is_split']} but forbidden-pattern test says {forbidden_free}")
    ks = r["ks"]
    if (ks is not None) != r["is_split"]:
        bad.append("ks present iff split")
    elif ks is not None:
        k, s = ks["k"], ks["s"]
        if not (_parts_ok(n, (k, s)) and _is_clique(rows, _mask(k)) and _is_independent(rows, _mask(s))):
            bad.append(f"invalid ks {ks}")
    omega = _omega(rows, full)
    alpha = _omega(_complement(n, rows), full)
    if (r["omega"], r["alpha"]) != (omega, alpha):
        bad.append(f"omega/alpha {r['omega']}/{r['alpha']}, expected {omega}/{alpha}")
    want_bal = (omega + alpha == n) if r["is_split"] else None
    if r["is_balanced_split"] != want_bal:
        bad.append(f"is_balanced_split={r['is_balanced_split']}, expected {want_bal}")
    pseudo = not (c4 or twok2)
    if r["is_pseudo_split"] != pseudo:
        bad.append(f"is_pseudo_split={r['is_pseudo_split']}, expected {pseudo}")
    psd = r["psd"]
    if (psd is not None) != r["is_pseudo_split"]:
        bad.append("psd present iff pseudo-split")
    elif psd is not None:
        a, b, c = psd["a"], psd["b"], psd["c"]
        cm = _mask(c)
        ok = _parts_ok(n, (a, b, c)) and _is_clique(rows, _mask(a)) and _is_independent(rows, _mask(b))
        ok = ok and (not c or (len(c) == 5 and all((rows[v] & cm).bit_count() == 2 for v in c)))
        ok = ok and all(rows[v] & cm == cm for v in a) and all(not rows[v] & cm for v in b)
        if not ok:
            bad.append(f"invalid psd {psd}")
    # the structural characterisation, independent of the chromatic numbers
    want_ng = pseudo and not (forbidden_free and omega + alpha == n)
    if r["is_ng"] != want_ng:
        bad.append(f"is_ng={r['is_ng']}, expected {want_ng}")
    if r["is_ng"] != (r["chi"] + r["chi_complement"] == n + 1):
        bad.append("is_ng disagrees with chi + chi_complement == n + 1")
    if not _chromatic_ok(n, rows, r["chi"], omega):
        bad.append(f"chi={r['chi']} is not the chromatic number")
    if not _chromatic_ok(n, _complement(n, rows), r["chi_complement"], alpha):
        bad.append(f"chi_complement={r['chi_complement']} is not the chromatic number of the complement")
    labels = [w["label"] for w in r["witnesses"]]
    want_labels = _expected_witnesses(n, rows, forbidden_free, c4, twok2)
    if labels != want_labels:
        bad.append(f"witness labels {labels}, expected {want_labels}")
    for w in r["witnesses"]:
        label, (u, v) = w["label"], w["edge"]
        if not (0 <= u < n and 0 <= v < n and rows[u] >> v & 1):
            bad.append(f"witness {label} ({u},{v}) is not an edge")
            continue
        hn, h = _contract(n, rows, min(u, v), max(u, v))
        if label == "c4":
            ok = _has_c4(hn, h)
        elif label == "2k2":
            ok = _has_2k2(hn, h) or _has_c4(hn, h)
        elif label == "nonsplit":
            ok = not _is_split(hn, h)
        elif label == "unbalanced":
            hfull = (1 << hn) - 1
            h_omega = _omega(h, hfull)
            ok = (
                r["is_split"]
                and h_omega == omega - 1
                and _is_split(hn, h)
                and h_omega + _omega(_complement(hn, h), hfull) != hn
            )
        else:
            ok = False
        if not ok:
            bad.append(f"witness {label} ({u},{v}) fails its postcondition")
    return bad


def check_classify_json(text: str, corpus: list[str]) -> tuple[int, int, list[str], dict]:
    """Each report is consistent with its graph; also returns the achieved mix."""
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        return len(corpus), len(corpus), [f"output is not JSON: {exc}"], {}
    notes = []
    failed = 0
    if len(reports) != len(corpus):
        notes.append(f"{len(reports)} reports for {len(corpus)} graphs")
        failed += abs(len(corpus) - len(reports))
    mix = dict.fromkeys(("split", "pseudo_split", "c5_part", "ng"), 0)
    for g6, r in zip(corpus, reports):
        bad = [f"input {r.get('input')!r} is not {g6!r}"] if r.get("input") != g6 else []
        try:
            bad += _check_report(g6, r)
        except (KeyError, TypeError, ValueError) as exc:
            bad.append(f"malformed report: {exc!r}")
        if bad:
            failed += 1
            if len(notes) < 20:
                notes.append(f"{g6}: " + "; ".join(bad))
            continue
        mix["split"] += r["is_split"]
        mix["pseudo_split"] += r["is_pseudo_split"]
        mix["c5_part"] += bool(r["psd"] and r["psd"]["c"])
        mix["ng"] += r["is_ng"]
    shares = {k: v / len(corpus) for k, v in mix.items()}
    return len(corpus), min(failed, len(corpus)), notes, shares
