"""Write one perf-ledger entry: every workload, end to end and traced.

    python3 perfbench/ledger.py --label NAME

Run from the repository root. For each workload it runs ``run.py`` once per
seed 1-3 with ``--trace 0`` and once (seed 1) with ``--trace 1``, each for
BENCHMARK.json's ``run_seconds``, and writes
``perfbench/ledger/BENCH_<NAME>.json`` with every run's record and result,
plus per-metric medians and quartiles over the seeds (the gated metrics,
and the raw ``run_s`` and ``cpu_s``). Two entries can be compared metric by
metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402

SEEDS = (1, 2, 3)


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    json_lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    return {"record": json.loads(json_lines[0]), "result": json.loads(json_lines[-1])}


def _spread(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / out["median"] if out["median"] else None)
    return out


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return proc.stdout.strip()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="entry name, e.g. the commit it measures")
    opts = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]

    entry = {
        "label": opts.label,
        "commit": _commit(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "settings": {"seeds": list(SEEDS), "seconds": seconds},
        "workloads": {},
    }
    for workload in WORKLOADS:
        plain = [_run(workload, s, seconds, 0) for s in SEEDS]
        traced = _run(workload, SEEDS[0], seconds, 1)
        names = plain[0]["result"]["metrics"]
        entry["workloads"][workload] = {
            "end_to_end": {
                name: dict(_spread([r["result"]["metrics"][name]["value"] for r in plain]),
                           unit=names[name]["unit"])
                for name in names
            },
            # ungated raw times: per-run medians of the recorded samples
            "raw": {
                name: dict(_spread([statistics.median(r["record"]["samples"][name]) for r in plain]), unit="s")
                for name in ("run_s", "cpu_s")
            },
            "per_layer": traced["result"]["metrics"],
            "failed": sum(r["result"]["failed"] for r in plain + [traced]),
            "attempted": sum(r["result"]["attempted"] for r in plain + [traced]),
            "runs": plain + [traced],
        }
        print(f"{workload}: done", file=sys.stderr)
    path = os.path.join(HERE, "ledger", f"BENCH_{opts.label}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
