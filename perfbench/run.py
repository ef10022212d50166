"""splitkit benchmark: fresh-process CLI workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload is a closed loop: one splitkit
CLI call per fresh Python process, the next started when the previous one
has exited, until the next call would end past ``--seconds``. Every output is
checked (see checks.py); the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``run_rel`` (each call's running time in units of a fixed reference job,
timed while the call is paused every second), ``peak_rss_mb`` and
``setup_s``. Raw ``run_s``, ``graphs_per_s`` and ``cpu_s`` are printed with
their samples.
``--trace 1`` alternates one untraced and one traced call (perfbench/traced.py
wraps splitkit's public functions from outside) and reports the per-layer
metrics; their ``trace.overhead_s`` is the traced wall time minus the untraced
one.

Workloads (why each is here):

- verify-all-n8: ``verify --theorem all --max-n 8 --jobs 1``, the paper's
  headline result; serial order-8 enumeration plus every theorem check.
- census-n8-jobs2: ``census --max-n 8 --jobs 2``; mostly serial enumeration,
  light per-graph work through the multiprocessing pool path.
- classify-corpus: ``classify --file corpus.g6 --format json`` on a seeded
  corpus of orders 9-12 (corpus.py); no enumeration and no harness work,
  invariants and recognition past the exhaustive range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import corpus  # noqa: E402

DEADLINE_S = 170.0  # the whole run, set-up included, ends before this
PROBES = 3  # set-up probes before the first call and after each call
SAMPLE_EVERY_S = 1.0  # a measured call is paused this often to time the reference job
CORPUS_SIZE = 6000
WORK_DIR = ".perfbench_work"

# Gated end-to-end metrics. Raw wall and CPU times (run_s, graphs_per_s,
# cpu_s) are printed and recorded too, but on a shared machine whose speed
# drifts by tens of percent within seconds only their ratio to the reference
# job timed during the call (run_rel) is steady enough to gate on.
END_TO_END = (
    ("run_rel", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("graphs.self_s", "s"),
    ("graphs.enumerate_s.n7", "s"),
    ("graphs.enumerate_s.n8", "s"),
    ("graphs.canonical_code_calls", "count"),
    ("graphs.canonical_code_s", "s"),
    ("graphs.enum_yield", "ratio"),
    ("graphs.contract_calls", "count"),
    ("graphs.is_isomorphic_calls", "count"),
    ("graphs.is_isomorphic_s", "s"),
    ("graphs.parse_graph6_s", "s"),
    ("invariants.self_s", "s"),
    ("invariants.clique_number_calls", "count"),
    ("invariants.clique_number_s", "s"),
    ("invariants.find_induced_calls", "count"),
    ("invariants.find_induced_s", "s"),
    ("invariants.pattern_test_calls", "count"),
    ("invariants.pattern_test_s", "s"),
    ("invariants.chromatic_number_s", "s"),
    ("recognition.self_s", "s"),
    ("recognition.classify_s", "s"),
    ("recognition.witness_s", "s"),
    ("recognition.witness_calls", "count"),
    ("recognition.split_test_calls", "count"),
    ("harness.self_s", "s"),
    *((f"harness.check_s.{tid}", "s") for tid in checks.THEOREM_IDS),
    *((f"harness.graphs_checked.{tid}", "count") for tid in checks.THEOREM_IDS),
    ("harness.enumerate_share", "ratio"),
    ("harness.census_classify_s", "s"),
    ("harness.pools_started", "count"),
    ("harness.pool_s", "s"),
    ("harness.pickled_bytes", "bytes-computed"),
    ("cli.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.output_s", "s"),
    ("trace.overhead_s", "s"),
)


WORKLOADS = ("verify-all-n8", "census-n8-jobs2", "classify-corpus")


class BenchError(Exception):
    """The run cannot produce a result (no program, crash, timeout)."""


def _jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def workload_spec(name: str, corpus_path: str) -> dict:
    """CLI arguments, work per call and CPU pinning."""
    if name == "verify-all-n8":
        return {
            "argv": ["verify", "--theorem", "all", "--max-n", "8", "--jobs", "1"],
            "work": sum(checks.VERIFY_N8_GRAPHS.values()),  # theorem x graph checks
            "pin": True,
        }
    if name == "census-n8-jobs2":
        return {
            "argv": ["census", "--max-n", "8", "--jobs", str(_jobs())],
            "work": sum(row[1] for row in checks.CENSUS_N8_ROWS),  # connected graphs
            "pin": False,  # its pool uses both CPUs
        }
    return {
        "argv": ["classify", "--file", corpus_path, "--format", "json"],
        "work": CORPUS_SIZE,  # corpus graphs
        "pin": True,
    }


class Runner:
    """Starts fresh processes in the checkout and measures each one."""

    def __init__(self, root: str, t_start: float):
        self.root = root
        self.work = os.path.join(root, WORK_DIR)
        self.t_start = t_start
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def call(self, argv: list[str], out_name: str, sample: bool = False) -> dict:
        """Run ``python3 <argv>`` to completion; wall, CPU and peak RSS of
        the process tree (wait4 folds in every worker it reaped). With
        ``sample`` the call is paused every SAMPLE_EVERY_S seconds while the
        reference job is timed; the pauses are left out of its wall time."""
        out_path = os.path.join(self.work, out_name)
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before a call")
        with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=self.root,
                env=self.env,
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
            killed = []

            def kill():
                killed.append(True)
                _signal_group(proc.pid)

            timer = threading.Timer(timeout, kill)
            timer.start()
            done = threading.Event()
            ref: list[float] = []
            pauses: list[tuple[float, float]] = []
            if sample:
                sampler = threading.Thread(target=_sample_during, args=(proc.pid, done, ref, pauses))
                sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                t1 = time.perf_counter()
            except BaseException:
                # interrupted (e.g. SIGTERM): the call's session is not in our
                # process group, so end it here and reap it before leaving
                _signal_group(proc.pid)
                os.waitpid(proc.pid, 0)
                _killpg(proc.pid)
                raise
            finally:
                timer.cancel()
                timer.join()
                done.set()
                if sample:
                    sampler.join()
            # pauses end before the call does; one racing its exit is clipped
            wall = t1 - t0 - sum(max(0.0, min(b, t1) - a) for a, b in pauses)
            proc.returncode = os.waitstatus_to_exitcode(status)
        _killpg(proc.pid)  # workers a crashed call may have left behind
        if killed:
            raise BenchError(f"call {argv} did not finish within the run's deadline")
        if sample and not ref:
            ref.append(reference_s())  # a call shorter than SAMPLE_EVERY_S
        with open(out_path, "rb") as fh:
            output = fh.read()
        return {
            "wall_s": wall,
            "ref_s": ref,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode,
            "output": output,
            "err_path": out_path + ".err",
        }


def _signal_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _killpg(pgid: int) -> None:
    """After the call's leader is reaped: SIGKILL what is left of its
    process group and wait until the group is empty."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _max_clique(rows: list[int], cand: int, size: int = 0) -> int:
    best = size
    while cand:
        if size + cand.bit_count() <= best:
            break
        v = cand.bit_length() - 1
        cand ^= 1 << v
        best = max(best, _max_clique(rows, cand & rows[v], size + 1))
    return best


def reference_s() -> float:
    """Seconds for a fixed pure-Python bitmask clique search (about 0.03 s),
    the unit of run_rel. It never changes and does not touch splitkit, so
    its time tracks only how fast the shared machine is at that moment."""
    t = time.perf_counter()
    rng = random.Random(20210722)
    for _ in range(120):
        n = 24
        rows = [0] * n
        for v in range(1, n):
            for u in range(v):
                if rng.random() < 0.5:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
        _max_clique(rows, (1 << n) - 1)
    return time.perf_counter() - t


def _last_cpu(pid: int) -> int | None:
    """The CPU the process last ran on (field 39 of /proc/<pid>/stat)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[36])


def _sample_during(pgid: int, done: threading.Event, ref: list, pauses: list) -> None:
    """Every SAMPLE_EVERY_S seconds until ``done``: stop the call's process
    group, time the reference job on the CPU the call's main process was
    using, resume. This thread alone is moved to that CPU."""
    allowed = os.sched_getaffinity(0)  # the call's, which it inherited
    while not done.wait(SAMPLE_EVERY_S):
        a = time.perf_counter()
        try:
            os.killpg(pgid, signal.SIGSTOP)
        except ProcessLookupError:
            return
        try:
            cpu = _last_cpu(pgid)
            if cpu in allowed:
                os.sched_setaffinity(0, {cpu})  # 0: the calling thread
            ref.append(reference_s())
        finally:
            try:
                os.killpg(pgid, signal.SIGCONT)
            except ProcessLookupError:
                pass
            pauses.append((a, time.perf_counter()))


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


class Checker:
    """Checks each distinct output once; identical outputs share the verdict."""

    def __init__(self, workload: str, corpus_lines: list[str]):
        self.workload = workload
        self.corpus_lines = corpus_lines
        self.verdicts: dict[bytes, tuple[int, int, list[str]]] = {}
        self.mix: dict = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def _check(self, text: str) -> tuple[int, int, list[str]]:
        if self.workload == "verify-all-n8":
            return checks.check_verify_text(text)
        if self.workload == "census-n8-jobs2":
            return checks.check_census_text(text)
        attempted, failed, notes, mix = checks.check_classify_json(text, self.corpus_lines)
        self.mix = self.mix or mix
        return attempted, failed, notes

    def add(self, result: dict) -> None:
        key = hashlib.sha256(result["output"]).digest()
        if key not in self.verdicts:
            self.verdicts[key] = self._check(result["output"].decode("utf-8", "replace"))
        attempted, failed, notes = self.verdicts[key]
        if result["code"] != 0:
            failed = max(failed, 1)
            with open(result["err_path"], "rb") as fh:
                tail = fh.read()[-500:].decode("utf-8", "replace")
            notes = notes + [f"exit code {result['code']}: {tail}"]
        self.attempted += attempted
        self.failed += failed
        self.notes.extend(n for n in notes if n not in self.notes)


def _closed_loop(seconds: float, runner: Runner, step) -> list:
    """Run ``step`` back to back until the next one would end past
    ``seconds`` (at least once)."""
    results = []
    t0 = time.perf_counter()
    while True:
        ts = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - ts
        elapsed = time.perf_counter() - t0
        if elapsed + last > seconds or last > runner.remaining() - 5.0:
            return results


def run_end_to_end(args, runner: Runner, spec: dict, checker: Checker) -> tuple[dict, dict]:
    cli = ["-m", "splitkit.cli"]
    setup_argv = cli + [spec["argv"][0], "--help"]
    setup = []

    def probes():
        # set-up is sampled next to every call, so that it sees the machine
        # states the calls see
        for _ in range(PROBES):
            r = runner.call(setup_argv, "setup.out")
            if r["code"] != 0:
                raise BenchError(f"set-up probe failed; see {WORK_DIR}/setup.out.err")
            setup.append(r["wall_s"])

    runner.call(setup_argv, "setup.out")  # writes bytecode caches; not timed
    probes()

    def step(i):
        result = runner.call(cli + spec["argv"], f"call{i % 2}.out", sample=True)
        probes()
        return result

    calls = _closed_loop(args.seconds, runner, step)
    for r in calls:
        checker.add(r)
    walls = [r["wall_s"] for r in calls]
    # each call in units of the reference job timed during it; the mean,
    # because the call's time adds up the machine's speed over its length
    rel = [r["wall_s"] / statistics.fmean(r["ref_s"]) for r in calls]
    metrics = {
        "run_rel": statistics.median(rel),
        "run_s": statistics.median(walls),
        "graphs_per_s": statistics.median([spec["work"] / w for w in walls]),
        "cpu_s": statistics.median([r["cpu_s"] for r in calls]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in calls]),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "run_s": walls,
        "run_rel": rel,
        "cpu_s": [r["cpu_s"] for r in calls],
        "peak_rss_mb": [r["peak_rss_mb"] for r in calls],
        "setup_s": setup,
        "ref_s": [statistics.fmean(r["ref_s"]) for r in calls],
        "ref_samples": [len(r["ref_s"]) for r in calls],
    }
    return metrics, samples


def run_traced(args, runner: Runner, spec: dict, checker: Checker) -> tuple[dict, dict]:
    cli = ["-m", "splitkit.cli"]
    trace_path = os.path.join(runner.work, "trace.json")
    traced_argv = [os.path.join(HERE, "traced.py"), "--out", trace_path, "--"]

    def pair(i):
        plain = runner.call(cli + spec["argv"], "plain.out")
        traced = runner.call(traced_argv + spec["argv"], "traced.out")
        checker.add(plain)
        checker.add(traced)
        if traced["code"] != 0:
            raise BenchError("traced call failed; see .perfbench_work/traced.out.err")
        with open(trace_path) as fh:
            summary = json.load(fh)
        return plain, traced, summary

    pairs = _closed_loop(args.seconds, runner, pair)
    per_run = []
    for plain, traced, summary in pairs:
        m = dict(summary["metrics"])
        for tid in checks.THEOREM_IDS:
            m[f"harness.check_s.{tid}"] = summary["check_s"].get(tid, 0.0)
            m[f"harness.graphs_checked.{tid}"] = summary["graphs_checked"].get(tid, 0)
        m["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        per_run.append(m)
    metrics = {
        # counts stay whole numbers
        name: (statistics.median_low if unit == "count" else statistics.median)([m.get(name, 0) for m in per_run])
        for name, unit in PER_LAYER
    }
    samples = {
        "untraced_run_s": [p[0]["wall_s"] for p in pairs],
        "traced_run_s": [p[1]["wall_s"] for p in pairs],
        "spans": [p[2]["spans"] for p in pairs],
        "classes_by_order": pairs[0][2]["classes"],
        "canonical_code_calls_by_order": pairs[0][2]["canonical_code_calls_by_order"],
        "enumerate_s_by_order": pairs[0][2]["enumerate_s_by_order"],
        "per_name": pairs[0][2]["per_name"],
    }
    return metrics, samples


def _upper_percentile(xs: list[float]) -> str:
    # the highest percentile with at least ten samples beyond it
    if len(xs) <= 10:
        return f"none supported (n={len(xs)} <= 10)"
    p = 1.0 - 10.0 / len(xs)
    return f"p{100 * p:.0f}={statistics.quantiles(xs, n=100)[int(100 * p) - 1]:.4f}"


def _stop(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def main() -> int:
    t_start = time.perf_counter()
    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGHUP, _stop)
    ap = argparse.ArgumentParser(description="splitkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "splitkit", "cli.py")):
        print("error: no splitkit sources under ./src; run from the repository root", file=sys.stderr)
        return 2
    runner = Runner(root, t_start)
    os.makedirs(runner.work, exist_ok=True)

    corpus_path = os.path.join(WORK_DIR, "corpus.g6")  # calls run in the checkout root
    corpus_lines = []
    if args.workload == "classify-corpus":
        corpus_lines = [g6 for _, g6 in corpus.make_corpus(args.seed, CORPUS_SIZE)]
        with open(os.path.join(root, corpus_path), "w") as fh:
            fh.write("".join(line + "\n" for line in corpus_lines))
    spec = workload_spec(args.workload, corpus_path)
    checker = Checker(args.workload, corpus_lines)

    machine = machine_record()
    if spec["pin"]:
        # a single-process call and the reference job timed during it share
        # one CPU: the two CPUs of a shared machine change speed independently
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    machine["calibration_s_before"] = reference_s()
    try:
        if args.trace:
            metrics, samples = run_traced(args, runner, spec, checker)
        else:
            metrics, samples = run_end_to_end(args, runner, spec, checker)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    machine["calibration_s_after"] = reference_s()

    units = dict(PER_LAYER if args.trace else END_TO_END)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "argv": ["splitkit", *spec["argv"]],
        "work_per_call": spec["work"],
        "machine": machine,
        "samples": samples,
        "failed_frac": f"{checker.failed}/{checker.attempted}",
        "check_notes": checker.notes[:20],
    }
    if checker.mix:
        record["corpus_mix"] = checker.mix
    print(json.dumps(record, sort_keys=True))
    if not args.trace:
        n = len(samples["run_s"])
        print(f"run_rel      median {metrics['run_rel']:.2f} ref  (reference job median "
              f"{statistics.median(samples['ref_s']):.4f} s, {sum(samples['ref_samples'])} timed "
              f"during {n} calls)")
        print(f"run_s        median {metrics['run_s']:.4f} s  max {max(samples['run_s']):.4f} s  "
              f"upper percentile {_upper_percentile(samples['run_s'])}  samples {n}")
        print(f"graphs_per_s median {metrics['graphs_per_s']:.1f} 1/s  ({spec['work']} graphs per call, samples {n})")
        print(f"cpu_s        median {metrics['cpu_s']:.4f} s  samples {n}")
        print(f"peak_rss_mb  median {metrics['peak_rss_mb']:.1f} MB  samples {n}")
        print(f"setup_s      median {metrics['setup_s']:.4f} s  samples {len(samples['setup_s'])}")
    print(f"failed_frac  {checker.failed}/{checker.attempted} = "
          f"{checker.failed / checker.attempted:.4g}  (checks attempted {checker.attempted})")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
