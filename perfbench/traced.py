"""Run one splitkit CLI call with every public function traced from outside.

Usage (from the repository root, with ``src`` on PYTHONPATH):

    python3 perfbench/traced.py --out TRACE.json -- <splitkit arguments>

Nothing under ``src/`` knows about the tracing. This script imports
``splitkit.cli``, wraps each public function of ``splitkit.graphs``,
``splitkit.invariants``, ``splitkit.recognition``, ``splitkit.harness`` and
``splitkit.cli`` in every splitkit namespace that binds it (``harness``
imports ``contract``, ``is_isomorphic`` and others by name), and patches the
CLI's output path and ``multiprocessing.pool.Pool``. Each call becomes a span
(name, start, end, parent) kept in flat arrays; self time, counts and the
per-layer metrics are computed once the CLI call returns and written to
TRACE.json. The CLI's own output goes to stdout as usual.

Before a ``verify`` or ``census`` call with ``--max-n N`` the script
enumerates orders 1..N (connected graphs for both, all graphs for verify too),
so that per-theorem and census spans hold check work only and the
enumeration of each order is timed once, on its own.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402

import splitkit.cli  # noqa: E402

_T_IMPORTED = time.perf_counter()

import multiprocessing.pool  # noqa: E402
from multiprocessing.reduction import ForkingPickler  # noqa: E402

LAYERS = ("graphs", "invariants", "recognition", "harness", "cli")

# Span families. A call counts toward a family only when no caller above it
# on the stack is in the same family, so that e.g. clique_number -> max_clique
# is one clique computation.
ENUM = ("graphs.enumerate_connected", "graphs.enumerate_all")
FAMILIES = {
    "enum": ENUM,
    "canonical": ("graphs.canonical_code",),
    "contract": ("graphs.contract",),
    "iso": ("graphs.is_isomorphic",),
    "parse": ("graphs.parse_graph6", "graphs.parse_graph6_lines"),
    "clique": ("invariants.max_clique", "invariants.clique_number", "invariants.independence_number"),
    "find_induced": ("invariants.find_induced",),
    "pattern": ("invariants.contains_2k2", "invariants.contains_c4", "invariants.contains_c5"),
    "chromatic": ("invariants.chromatic_number",),
    "classify": ("recognition.classify",),
    "witness": (
        "recognition.find_c4_witness",
        "recognition.find_2k2_witness",
        "recognition.find_nonsplit_witness",
        "recognition.find_unbalanced_witness",
    ),
    "split": ("recognition.is_split", "recognition.is_split_degrees", "recognition.is_split_forbidden"),
    "verify": ("harness.verify",),
    "census": ("harness.census",),
    "output": (
        "cli.print",
        "cli.json.dumps",
        "cli._render_classification",
        "harness.render_census_text",
        "ClassificationReport.to_dict",
        "TheoremReport.to_dict",
        "TheoremReport.render_text",
        "CensusRow.to_dict",
    ),
}
FAMILY_BIT = {fam: 1 << i for i, fam in enumerate(FAMILIES)}


def _label_order(base):
    def label(args, kwargs):
        return f"{base}:{args[0] if args else kwargs.get('n')}"

    return label


def _label_theorem(args, kwargs):
    return f"harness.verify:{args[0] if args else kwargs.get('theorem')}"


LABELS = {
    "graphs.enumerate_connected": _label_order("graphs.enumerate_connected"),
    "graphs.enumerate_all": _label_order("graphs.enumerate_all"),
    "harness.verify": _label_theorem,
}


class Tracer:
    """Spans in flat arrays: name id, parent index, start and end times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.graphs_checked: dict[str, int] = {}
        self.classes: dict[int, int] = {}
        self.pools: list[list[float]] = []
        self.pool_jobs: list[tuple] = []

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def wrap(self, fn, name: str):
        """A traced stand-in for fn, whose calls are spans named ``name``."""
        label = LABELS.get(name)
        clock = time.perf_counter
        stack = self.stack
        push_name, push_parent = self.name.append, self.parent.append
        push_start, push_end = self.start.append, self.end.append
        end = self.end
        name_id = self.name_id
        fixed = name_id(name) if label is None else -1

        def open_span(nid):
            i = len(end)
            push_name(nid)
            push_parent(stack[-1])
            push_end(0.0)
            stack.append(i)
            push_start(clock())
            return i

        def close_span(i):
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer's work between two
            # items is never charged to the generator

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                nid = fixed if label is None else name_id(label(args, kwargs))
                inner = fn(*args, **kwargs)
                while True:
                    i = open_span(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    yield item

            return traced_gen

        if name == "harness.verify":

            @functools.wraps(fn)
            def traced_verify(*args, **kwargs):
                nid = name_id(label(args, kwargs))
                i = open_span(nid)
                try:
                    report = fn(*args, **kwargs)
                finally:
                    close_span(i)
                self.graphs_checked[report.theorem] = report.graphs_checked
                return report

            return traced_verify

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_span(fixed if label is None else name_id(label(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(i)

        return traced


def _splitkit_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "splitkit" or k.startswith("splitkit.")]


def install(tracer: Tracer) -> None:
    modules = _splitkit_modules()
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"splitkit.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__ or id(fn) in wrapped:
                continue
            wrapped[id(fn)] = (fn, tracer.wrap(fn, f"{layer}.{attr}"))
    # rebind in every namespace that holds the original object
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    _install_output(tracer)
    _install_pool(tracer)


def _install_output(tracer: Tracer) -> None:
    cli = sys.modules["splitkit.cli"]
    cli.print = tracer.wrap(print, "cli.print")
    json_proxy = type(sys)("json")
    json_proxy.__dict__.update(vars(json))
    json_proxy.dumps = tracer.wrap(json.dumps, "cli.json.dumps")
    cli.json = json_proxy
    render = getattr(cli, "_render_classification", None)
    if render is not None:
        cli._render_classification = tracer.wrap(render, "cli._render_classification")
    for mod_name, cls_name, meth in (
        ("splitkit.recognition", "ClassificationReport", "to_dict"),
        ("splitkit.harness", "TheoremReport", "to_dict"),
        ("splitkit.harness", "TheoremReport", "render_text"),
        ("splitkit.harness", "CensusRow", "to_dict"),
    ):
        cls = getattr(sys.modules[mod_name], cls_name, None)
        fn = getattr(cls, meth, None) if cls is not None else None
        if inspect.isfunction(fn):
            setattr(cls, meth, tracer.wrap(fn, f"{cls_name}.{meth}"))


def _install_pool(tracer: Tracer) -> None:
    """Count pools, time each from construction to terminate/join, and keep
    every map's inputs and results for the pickled-size computation."""
    Pool = multiprocessing.pool.Pool
    orig_init, orig_terminate, orig_join = Pool.__init__, Pool.terminate, Pool.join

    def __init__(self, *args, **kwargs):
        rec = [time.perf_counter(), 0.0]
        orig_init(self, *args, **kwargs)
        tracer.pools.append(rec)
        self._perfbench_rec = rec

    def _stop(self):
        rec = getattr(self, "_perfbench_rec", None)
        if rec is not None and not rec[1]:
            rec[1] = time.perf_counter()

    def terminate(self):
        orig_terminate(self)
        _stop(self)

    def join(self):
        orig_join(self)
        _stop(self)

    def mapper(meth):
        orig = getattr(Pool, meth)

        def traced_map(self, func, iterable, chunksize=None, *rest, **kw):
            items = list(iterable)
            result = orig(self, func, items, chunksize, *rest, **kw)
            if meth in ("map", "starmap"):
                tracer.pool_jobs.append((func, items, chunksize, len(self._pool), result))
                return result
            collected = []
            tracer.pool_jobs.append((func, items, chunksize or 1, len(self._pool), collected))

            def drain():
                for r in result:
                    collected.append(r)
                    yield r

            return drain()

        return traced_map

    Pool.__init__ = __init__
    Pool.terminate = terminate
    Pool.join = join
    # every mapping method, so the count survives a change of pool idiom
    for meth in ("map", "starmap", "imap", "imap_unordered"):
        setattr(Pool, meth, mapper(meth))


def _pickled_bytes(jobs) -> int:
    """Bytes of the pickled task chunks and result chunks, computed here
    with the pool's own pickler and chunking rule, not observed on the pipe."""
    total = 0
    for func, items, chunksize, workers, results in jobs:
        if chunksize is None:
            chunksize, extra = divmod(len(items), workers * 4)
            chunksize += bool(extra)
        chunksize = max(1, chunksize)
        for i in range(0, len(items), chunksize):
            total += len(ForkingPickler.dumps((func, tuple(items[i : i + chunksize]))))
            total += len(ForkingPickler.dumps(list(results[i : i + chunksize])))
    return total


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-name counts, inclusive and self time, and the per-layer metrics."""
    names = tracer.names
    base = [nm.split(":", 1)[0] for nm in names]
    fam_of_name = []
    for b in base:
        bits = 0
        for fam, members in FAMILIES.items():
            if b in members:
                bits |= FAMILY_BIT[fam]
        fam_of_name.append(bits)
    order_of_name = [
        int(nm.split(":", 1)[1]) if b in ENUM and nm.split(":", 1)[1].isdigit() else 0
        for nm, b in zip(names, base)
    ]

    nspans = len(tracer.name)
    name, parent, start, end = tracer.name, tracer.parent, tracer.start, tracer.end
    anc = [0] * nspans  # family bits of strict ancestors
    enum_root = [-1] * nspans  # outermost enumeration span above or at i
    child = [0.0] * nspans
    per_name = {}
    fam_calls = dict.fromkeys(FAMILIES, 0)
    fam_s = dict.fromkeys(FAMILIES, 0.0)
    enum_s_by_order: dict[int, float] = {}  # warm-up enumerations only
    enum_total = 0.0  # every outermost enumeration span
    canon_under_enum_by_order: dict[int, int] = {}
    canon_under_enum_s = 0.0
    enum_inside: dict[int, float] = {}  # verify/census span -> enumeration time inside it
    enum_bit, canon_bit = FAMILY_BIT["enum"], FAMILY_BIT["canonical"]
    host_bits = FAMILY_BIT["verify"] | FAMILY_BIT["census"]
    host = [-1] * nspans  # innermost verify/census span above i
    for i in range(nspans):
        nid = name[i]
        p = parent[i]
        dur = end[i] - start[i]
        fbits = fam_of_name[nid]
        if p >= 0:
            child[p] += dur
            a = anc[p] | fam_of_name[name[p]]
            anc[i] = a
            enum_root[i] = enum_root[p]
            host[i] = p if fam_of_name[name[p]] & host_bits else host[p]
        else:
            a = 0
        if fbits & enum_bit and not a & enum_bit:
            enum_root[i] = i
            enum_total += dur
            if host[i] >= 0:
                enum_inside[host[i]] = enum_inside.get(host[i], 0.0) + dur
            else:
                order = order_of_name[nid]
                enum_s_by_order[order] = enum_s_by_order.get(order, 0.0) + dur
        if fbits & canon_bit and not a & canon_bit and enum_root[i] >= 0:
            order = order_of_name[name[enum_root[i]]]
            canon_under_enum_by_order[order] = canon_under_enum_by_order.get(order, 0) + 1
            canon_under_enum_s += dur
        if fbits:
            outer = fbits & ~a
            for fam, bit in FAMILY_BIT.items():
                if outer & bit:
                    fam_calls[fam] += 1
                    fam_s[fam] += dur
    for i in range(nspans):
        rec = per_name.setdefault(name[i], [0, 0.0, 0.0])
        dur = end[i] - start[i]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child[i]

    per_name_out = {
        names[nid]: {"calls": c, "inclusive_s": inc, "self_s": slf}
        for nid, (c, inc, slf) in sorted(per_name.items(), key=lambda kv: names[kv[0]])
    }
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for nm, rec in per_name_out.items():
        layer = nm.split(".", 1)[0]
        if nm in FAMILIES["output"] or nm.startswith(("ClassificationReport.", "TheoremReport.", "CensusRow.")):
            layer = "cli"
        if layer in layer_self:
            layer_self[layer] += rec["self_s"]

    check_s = {}
    census_s = 0.0
    for i in range(nspans):
        nm = names[name[i]]
        if nm.startswith("harness.verify:"):
            tid = nm.split(":", 1)[1]
            check_s[tid] = check_s.get(tid, 0.0) + end[i] - start[i] - enum_inside.get(i, 0.0)
        elif nm == "harness.census":
            census_s += end[i] - start[i] - enum_inside.get(i, 0.0)

    top_order = max(tracer.classes) if tracer.classes else 0
    top_calls = canon_under_enum_by_order.get(top_order, 0)
    metrics = {
        "graphs.enumerate_s.n7": enum_s_by_order.get(7, 0.0),
        "graphs.enumerate_s.n8": enum_s_by_order.get(8, 0.0),
        "graphs.canonical_code_calls": sum(canon_under_enum_by_order.values()),
        "graphs.canonical_code_s": canon_under_enum_s,
        "graphs.enum_yield": tracer.classes[top_order] / top_calls if top_calls else 0.0,
        "graphs.contract_calls": fam_calls["contract"],
        "graphs.is_isomorphic_calls": fam_calls["iso"],
        "graphs.is_isomorphic_s": fam_s["iso"],
        "graphs.parse_graph6_s": fam_s["parse"],
        "invariants.clique_number_calls": fam_calls["clique"],
        "invariants.clique_number_s": fam_s["clique"],
        "invariants.find_induced_calls": fam_calls["find_induced"],
        "invariants.find_induced_s": fam_s["find_induced"],
        "invariants.pattern_test_calls": fam_calls["pattern"],
        "invariants.pattern_test_s": fam_s["pattern"],
        "invariants.chromatic_number_s": fam_s["chromatic"],
        "recognition.classify_s": fam_s["classify"],
        "recognition.witness_s": fam_s["witness"],
        "recognition.witness_calls": fam_calls["witness"],
        "recognition.split_test_calls": fam_calls["split"],
        "harness.enumerate_share": enum_total / wall_s if wall_s > 0 else 0.0,
        "harness.census_classify_s": census_s,
        "harness.pools_started": len(tracer.pools),
        "harness.pool_s": sum((e or time.perf_counter()) - s for s, e in tracer.pools),
        "harness.pickled_bytes": _pickled_bytes(tracer.pool_jobs),
        "cli.output_s": fam_s["output"],
    }
    for layer, s in layer_self.items():
        metrics[f"{layer}.self_s"] = s
    return {
        "metrics": metrics,
        "check_s": check_s,
        "graphs_checked": dict(tracer.graphs_checked),
        "classes": {str(k): v for k, v in sorted(tracer.classes.items())},
        "canonical_code_calls_by_order": {str(k): v for k, v in sorted(canon_under_enum_by_order.items())},
        "enumerate_s_by_order": {str(k): v for k, v in sorted(enum_s_by_order.items())},
        "spans": nspans,
        "per_name": per_name_out,
    }


def _warm_plan(cli_args: list[str]) -> tuple[str, int]:
    """The CLI command and the order to enumerate up to before it: the
    ``--max-n`` of verify and census (their substrates), 0 otherwise."""
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("command")
    ap.add_argument("--max-n", type=int, default=0, dest="max_n")
    known, _ = ap.parse_known_args(cli_args)
    return known.command, known.max_n if known.command in ("verify", "census") else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="where to write the trace summary (JSON)")
    ap.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = ap.parse_args()
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    tracer = Tracer()
    install(tracer)
    graphs = sys.modules["splitkit.graphs"]
    command, max_n = _warm_plan(cli_args)
    t0 = time.perf_counter()
    for n in range(1, max_n + 1):
        tracer.classes[n] = sum(1 for _ in graphs.enumerate_connected(n))
    if command == "verify":
        for n in range(1, max_n + 1):
            for _ in graphs.enumerate_all(n):
                pass
    code = splitkit.cli.main(cli_args)
    sys.stdout.flush()
    wall = time.perf_counter() - t0
    summary = summarize(tracer, wall)
    summary["wall_s"] = wall
    summary["metrics"]["cli.import_s"] = _T_IMPORTED - _T_START
    with open(opts.out, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
