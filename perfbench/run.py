"""daplab benchmark: one command per workload run.

    python3 perfbench/run.py --workload train-dap --seed 1 --seconds 20 --trace 0

Run from the root of a daplab checkout; the program is imported from
`src/`. With `--trace 0` it sets up the workload several times, then runs
closed-loop units of work for `--seconds` seconds and reports the
end-to-end metrics. With `--trace 1` it runs one untraced reference unit,
then traced units, and reports the per-layer metrics. Every run checks the
program's outputs; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`, and the exit code is 1 when
any check failed. Workloads, metrics and bounds are listed in
`BENCHMARK.json` and explained in `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import CONV_LAYERS, OP_KINDS, PER_LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7                 # set-ups per run; setup_s is their median
MIN_TRACED_UNITS = 2       # computed counts are compared between these

# spans the self-check expects on the workload chosen to exercise them, and
# spans that must never appear on the forward-only workload
_TRAIN_SPANS = {
    "trainer.run", "trainer.train_step", "trainer.pseudo_label", "trainer.checkpoint",
    "tensor.backward", "tensor.sgd_step", "priors.proj", "priors.downsample",
    "priors.resize", "mixing.sample_class_subset", "mixing.classmix",
    "mixing.augment_mixed", "model.ema_update", "model.checkpoint",
    "analysis.predict_labels", "analysis.evaluate",
} | {f"tensor.{kind}.{d}" for kind in OP_KINDS for d in ("fwd", "bwd")} \
  | {f"model.{layer}.{d}" for layer in CONV_LAYERS for d in ("fwd", "bwd")}
_SETUP_SPANS = {"datagen.make_benchmark", "datagen.generate_scene", "datagen.write",
                "datagen.open"}
EXPECTED_SPANS = {
    "train-dap": _TRAIN_SPANS | _SETUP_SPANS | {"datagen.read", "datagen.bundle"},
    "train-prior300": _TRAIN_SPANS | _SETUP_SPANS | {"datagen.read", "datagen.bundle"},
    "eval-diagnose": _SETUP_SPANS | {
        "cli.eval", "model.forward", "model.checkpoint", "datagen.read", "datagen.bundle",
        "analysis.predict_labels", "analysis.evaluate", "analysis.class_feature_stats",
        "analysis.gaussian_iou", "analysis.relationship_matrix",
        "tensor.conv2d.fwd", "tensor.relu.fwd", "tensor.resize.fwd",
        "model.backbone.conv1.fwd", "model.backbone.conv2.fwd", "model.backbone.conv3.fwd",
        "model.head.conv.fwd", "model.gvi.conv.fwd"},
    "sweep-alpha": _SETUP_SPANS,
}
FORBIDDEN_PREFIXES = {
    "eval-diagnose": ("tensor.backward", "tensor.sgd_step", "mixing.", "trainer.",
                      "model.ema_update"),
}


def percentile(values, q: int) -> float:
    """q-th percentile (1 to 99) of the samples; 0 when there are none."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Max RSS of this process and of every waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_units(workload, state, work: Path, seconds: float, minimum: int, tag: str,
              after_unit=None):
    units = []
    start = perf_counter()
    while len(units) < minimum or perf_counter() - start < seconds:
        out = work / f"{tag}{len(units)}"
        units.append(workload.unit(state, out))
        if after_unit is not None:
            after_unit(units[-1])
        shutil.rmtree(out, ignore_errors=True)
    return units


def end_to_end(workload_name, units, setup_times) -> tuple:
    """(metrics for the JSON line, further figures printed for reading)."""
    step_s = [s for u in units for s in u.step_s]
    eval_s = [s for u in units for s in u.eval_s]
    run_s = statistics.median(u.seconds for u in units)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (run_s, "s"),
        "step_ms_p50": (1e3 * percentile(step_s, 50), "ms"),
        "step_ms_p95": (1e3 * percentile(step_s, 95), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "eval_ms_p50": (1e3 * percentile(eval_s, 50), "ms"),
        "eval_ms_p95": (1e3 * percentile(eval_s, 95), "ms"),
        "step_samples": (len(step_s), "count"),
        "eval_samples": (len(eval_s), "count"),
        "units": (len(units), "count"),
    }
    if workload_name == "eval-diagnose":
        extra["diagnose_s"] = (statistics.median(u.extra["diagnose_s"] for u in units), "s")
    if workload_name == "sweep-alpha":
        extra["sweep_cells_per_hour"] = (
            3600.0 * statistics.median(u.operations / u.seconds for u in units), "1/h")
    return metrics, extra


def traced(workload_name, workload, seed, work: Path, seconds: float) -> tuple:
    """Untraced reference unit, then traced set-up and units. Returns
    (per-layer metrics, units, checks, printed notes)."""
    reference_state = workload.setup(work / "reference_setup", seed)
    reference = workload.unit(reference_state, work / "reference")
    shutil.rmtree(work / "reference", ignore_errors=True)

    tracer = Tracer()
    unit_counts = []
    with tracer:
        state = workload.setup(work / "traced_setup", seed)
        previous = Counter(tracer.counts)
        usage_before = resource.getrusage(resource.RUSAGE_SELF)

        def take_counts(_unit):
            nonlocal previous
            now = Counter(tracer.counts)
            unit_counts.append(now - previous)
            previous = now

        units = run_units(workload, state, work, seconds, MIN_TRACED_UNITS, "traced",
                          after_unit=take_counts)
        usage_after = resource.getrusage(resource.RUSAGE_SELF)

    steps = sum(len(u.step_s) for u in units)
    layer = tracer.layer_metrics(sum(unit_counts, Counter()), max(steps, 1),
                                 setups=1, units=len(units))
    untraced_p50 = percentile(reference.step_s, 50)
    traced_p50 = percentile([s for u in units for s in u.step_s], 50)
    if workload.in_process and steps:
        layer["trainer.trace_overhead_pct"] = 100.0 * (traced_p50 / untraced_p50 - 1.0)
        layer["process.minor_faults"] = \
            (usage_after.ru_minflt - usage_before.ru_minflt) / steps
        layer["process.sys_ms"] = 1e3 * (usage_after.ru_stime - usage_before.ru_stime) / steps
    layer.update(workload.layer_metrics(units))

    fired = tracer.fired()
    missing = sorted(EXPECTED_SPANS[workload_name] - fired)
    forbidden = sorted(n for n in fired
                       if n.startswith(FORBIDDEN_PREFIXES.get(workload_name, ()))
                       or (workload_name in FORBIDDEN_PREFIXES and n.endswith(".bwd")))
    disagreeing = sorted(k for k in set().union(*unit_counts)
                         if not k.startswith("datagen.cache")
                         and len({counts.get(k) for counts in unit_counts}) > 1)
    checks = {
        "expected_spans_fired": not missing,
        "no_forbidden_spans": not forbidden,
        "tracing_leaves_outputs_identical": all(
            u.fingerprint == reference.fingerprint for u in units),
        "computed_counts_repeat": not disagreeing,
    }
    notes = {"missing spans": missing, "forbidden spans": forbidden,
             "disagreeing counts": disagreeing,
             "untraced step p50 ms": 1e3 * untraced_p50,
             "traced step p50 ms": 1e3 * traced_p50,
             "spans recorded": len(tracer.spans)}
    if "trainer.train_step" in fired:
        notes["untraced share of traced step"] = \
            layer["trainer.untraced_ms"] / (1e3 * traced_p50)
    return layer, units + [reference], checks, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="daplab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "daplab" / "__init__.py").is_file():
        print(f"error: no daplab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from envstamp import env_stamp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    print("env", json.dumps(env_stamp(), sort_keys=True))
    try:
        if args.trace:
            layer, units, checks, notes = traced(args.workload, workload, args.seed,
                                                 work, args.seconds)
            metrics = {name: (value, PER_LAYER_UNITS[name]) for name, value in layer.items()}
            extra = {}
        else:
            setup_times = []
            for k in range(SETUPS):
                start = perf_counter()
                state = workload.setup(work / f"setup{k}", args.seed)
                setup_times.append(perf_counter() - start)
            units = run_units(workload, state, work, args.seconds, 1, "unit")
            metrics, extra = end_to_end(args.workload, units, setup_times)
            checks, notes = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(u.attempted for u in units) + len(checks)
    failed = sum(u.failed for u in units) + sum(not ok for ok in checks.values())
    for u in units:
        for name, ok in u.checks.items():
            if not ok:
                print(f"check failed: {name}")
    for name, ok in checks.items():
        print(f"check {'passed' if ok else 'FAILED'}: {name}")
    for name, value in notes.items():
        print(f"note {name}: {value}")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        if value or not args.trace:
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ({failed} failed "
          f"of {attempted} attempted steps, images, cells and checks)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
