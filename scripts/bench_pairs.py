"""Paired benchmark of two checkouts: writes BENCH_<tag>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workloads eval-diagnose,train-dap,train-prior300 --seeds 1-10 \
        --tag forward-kernels [--traced-seed 1-3]

For each workload and seed it runs `perfbench/run.py --trace 0` once in
each checkout, one run at a time, for the `run_seconds` that
`BENCHMARK.json` fixes; the parent runs first on the 1st, 3rd,
... seed of the list and second on the others, so a drift of the host's
speed falls on both sides alike. Every end-to-end metric that
`BENCHMARK.json` lists is recorded per seed, with each side's median and
quartiles and the number of seeds on which the change was better. With
`--traced-seed` (a seed list, in the same form as `--seeds`), each side
also makes one `--trace 1` run per workload and listed seed, in the same
alternating order. Each run's checks are recorded, and so are each
per-layer metric's per-seed values and their median: one traced run per
side can read every layer slower or faster by chance. The file also holds
the environment stamp that perfbench prints, and is written to the change
checkout unless `--out` says otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def parse_seeds(text: str) -> list:
    """`1-10` or `1,4,7` or a mix such as `1-3,9`."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def sides_in_order(k: int) -> tuple:
    """The parent runs first on the 1st, 3rd, ... seed of a list."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def bench(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run: its environment stamp and its JSON result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if not lines or not lines[0].startswith("env ") or not lines[-1].startswith("{"):
        sys.exit(f"{checkout}: {' '.join(command)} exited {done.returncode}:\n"
                 f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0][len("env "):])
    result["checks"] = [line for line in lines if line.startswith("check ")]
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metrics: list, runs: dict, seeds: list) -> dict:
    """Per metric: each side's per-seed values and spread, and the change's
    wins over the parent, seed by seed."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        sides = {side: [runs[side][seed]["metrics"][name]["value"] for seed in seeds]
                 for side in ("parent", "change")}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **{side: {"per_seed": dict(zip(map(str, seeds), values)), **spread(values)}
               for side, values in sides.items()},
            "change_over_parent_median": (statistics.median(sides["change"])
                                          / statistics.median(sides["parent"])),
            "wins": wins, "pairs": len(seeds),
        }
    return out


def traced_runs(checkouts: dict, workload: str, seeds: list, seconds: int) -> dict:
    """Per side: each traced run's checks, and each per-layer metric's
    per-seed values and their median."""
    runs = {"parent": {}, "change": {}}
    for k, seed in enumerate(seeds):
        for side in sides_in_order(k):
            result = runs[side][seed] = bench(checkouts[side], workload, seed, seconds,
                                              trace=1)
            print(f"{workload} traced seed {seed} {side}: correct={result['correct']}",
                  flush=True)
    out = {"seeds": seeds}
    for side, by_seed in runs.items():
        names = sorted(set().union(*(r["metrics"] for r in by_seed.values())))
        per_seed = {name: {str(seed): r["metrics"][name]["value"]
                           for seed, r in by_seed.items() if name in r["metrics"]}
                    for name in names}
        out[side] = {
            "correct": all(r["correct"] for r in by_seed.values()),
            "checks": {str(seed): r["checks"] for seed, r in by_seed.items()},
            "metrics": {name: {"per_seed": values,
                               "median": statistics.median(values.values())}
                        for name, values in per_seed.items()}}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workload names")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="seed list, e.g. 1-10 or 1,3,5")
    parser.add_argument("--tag", required=True)
    parser.add_argument("--traced-seed", type=parse_seeds,
                        help="seed list for --trace 1 runs, in the form of --seeds")
    parser.add_argument("--out", type=Path, help="directory for BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("--seeds needs at least two seeds for quartiles")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    record = {"tag": args.tag, "seconds": seconds, "seeds": args.seeds,
              "order": "parent first on the odd-numbered seeds of the list",
              "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {"parent": {}, "change": {}}
        failed = {"parent": 0, "change": 0}
        for k, seed in enumerate(args.seeds):
            for side in sides_in_order(k):
                result = bench(checkouts[side], workload, seed, seconds, trace=0)
                runs[side][seed] = result
                failed[side] += result["failed"]
                record.setdefault("env", result["env"])
                print(f"{workload} seed {seed} {side}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                    for m in metrics), flush=True)
        entry = {"failed_operations": failed,
                 "all_correct": all(r["correct"] for side in runs.values()
                                    for r in side.values()),
                 "metrics": summarize(metrics, runs, args.seeds)}
        if args.traced_seed:
            entry["traced"] = traced_runs(checkouts, workload, args.traced_seed, seconds)
        record["workloads"][workload] = entry

    path = (args.out or checkouts["change"]) / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
