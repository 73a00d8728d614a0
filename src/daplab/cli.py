"""Command-line front end: dataset generation, training, evaluation and
sweep harnesses, each reproducible from its run manifest.

Exit codes: 0 success, 2 usage, 3 bad input/config, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import analysis
from . import datagen as dg
from . import model as md
from . import trainer as tr
from .datagen import DatasetBundle
from .errors import InputError, NumericError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="daplab",
                                     description="prior-regularized domain "
                                                 "adaptation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a two-domain benchmark")
    gen.add_argument("--preset", default="gap-default", choices=dg.PRESETS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--n-source", type=int, default=64)
    gen.add_argument("--n-target", type=int, default=64)
    gen.add_argument("--n-test", type=int, default=16)
    gen.add_argument("--size", type=int, default=64)
    gen.set_defaults(func=cmd_gen)

    train = sub.add_parser("train", help="run the adaptation training loop")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--config", help="key = value config file")
    train.add_argument("--alpha", type=float)
    train.add_argument("--lambda", dest="ema_lambda", type=float)
    train.add_argument("--steps", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--prior", help="a prior kind (onehot, random) or the path "
                                       "of a vector file")
    train.add_argument("--interp", choices=tr.INTERP_MODES)
    train.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    train.add_argument("--heldout-source", dest="heldout_source", type=int)
    train.add_argument("--pseudo-acc", dest="pseudo_acc_diagnostic",
                       action="store_true", default=None)
    train.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--split", default="test", choices=["test", "source"])
    ev.add_argument("--out", required=True)
    ev.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="grid of training runs with a summary table")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--alphas", help="comma-separated weight values")
    sweep.add_argument("--priors", help="comma-separated prior kinds or vector files")
    sweep.add_argument("--seeds", type=int, default=3, help="number of seeds")
    sweep.add_argument("--config", help="base config file for every cell")
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--heldout-source", dest="heldout_source", type=int)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def _train_config(args) -> tr.TrainConfig:
    """The --config file, or the defaults, with each TrainConfig field
    overridden by its flag when the flag was given."""
    config = tr.parse_config(args.config) if args.config else tr.TrainConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(tr.TrainConfig)
                 if getattr(args, f.name, None) is not None}
    return replace(config, **overrides)


def cmd_gen(args) -> int:
    dg.check_image_side("--size", args.size)
    if args.size < dg.MIN_SCENE_SIDE:
        raise InputError(f"--size must be at least {dg.MIN_SCENE_SIDE}, got {args.size}")
    for flag, count in (("--n-source", args.n_source), ("--n-target", args.n_target),
                        ("--n-test", args.n_test)):
        dg.check_count(flag, count)
    started = time.perf_counter()
    source_spec, target_spec = dg.preset_specs(args.preset, args.seed)
    out = Path(args.out)
    dg.make_benchmark(source_spec, target_spec, args.n_source, args.n_target,
                      args.n_test, out, height=args.size, width=args.size)
    dg.write_run_manifest(out, "gen", {
        "preset": args.preset,
        "seed": args.seed,
        "dataset_checksum": DatasetBundle(out).dataset_checksum(),
        "wallclock.generate": f"{time.perf_counter() - started:.3f}",
    })
    print(f"benchmark written to {out} "
          f"({args.n_source}+{args.n_target}+{args.n_test} scenes)")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _train_config(args)
    bundle = DatasetBundle(args.data)
    result = tr.run(config, bundle, args.out)
    print(f"final mIOU {result.final_miou:.4f}  best mIOU {result.best_miou:.4f} "
          f"(step {result.best_step})")
    return EXIT_OK


def cmd_eval(args) -> int:
    bundle = DatasetBundle(args.data)
    arrays = md.load_checkpoint(args.ckpt)
    if any(name.startswith("student.") for name in arrays):
        arrays = {name.split(".", 1)[1]: arr for name, arr in arrays.items()
                  if name.startswith("student.")}
    state = md.state_from_arrays(arrays, "student")
    key = {"test": "n_test", "source": "n_source"}[args.split]
    count = getattr(bundle, key)
    if count < 1:
        raise InputError(f"--split {args.split}: {key} is {count}")
    bundle.check_split(args.split)  # every item, before the evaluation is timed
    started = time.perf_counter()
    metrics = analysis.evaluate(state, map(getattr(bundle, args.split), range(count)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_metrics_csv(metrics, out / "metrics.csv")
    analysis.write_confusion_csv(metrics.confusion, out / "confusion.csv")
    dg.write_run_manifest(out, "eval", {
        "checkpoint": args.ckpt,
        "split": args.split,
        "dataset_checksum": bundle.dataset_checksum(),
        "miou": repr(metrics.miou),
        "wallclock.eval": f"{time.perf_counter() - started:.3f}",
    })
    print(f"mIOU {metrics.miou:.4f} over {count} images")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _run_cell(payload) -> tuple:
    """A cell is a plain run in its own directory."""
    label, value, seed, config, data_dir, cell_dir = payload
    try:
        run = tr.run(config, DatasetBundle(data_dir), cell_dir)
        return (label, value, seed, run.final_miou, run.best_miou, "ok")
    except Exception as failure:  # a failed cell must not sink the sweep
        return (label, value, seed, float("nan"), float("nan"),
                f"failed: {failure}")


def worker_cap() -> int:
    """DAP_LAB_THREADS, or else the number of CPUs this process may run on. A
    DAP_LAB_THREADS that is not an integer of at least 1 is an input error."""
    env = os.environ.get("DAP_LAB_THREADS")
    if env:
        try:
            cap = int(env)
        except ValueError:
            cap = 0
        if cap < 1:
            raise InputError(f"DAP_LAB_THREADS must be an integer >= 1, got {env!r}")
        return cap
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


# Workers that each inherit the default BLAS thread count oversubscribe the
# cores: two trainers on two cores ran about 8x slower per step than with one
# BLAS thread each.
WORKER_BLAS_THREADS = 1
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_in_workers(jobs, workers: int) -> list:
    """Run the cells in spawned worker processes, each limited to
    WORKER_BLAS_THREADS BLAS threads; this process's environment is left as
    it was."""
    from multiprocessing import get_context
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, str(WORKER_BLAS_THREADS)))
    try:
        with get_context("spawn").Pool(workers) as pool:
            return pool.map(_run_cell, jobs)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def cmd_sweep(args) -> int:
    if bool(args.alphas) == bool(args.priors):
        raise InputError("sweep needs exactly one of --alphas or --priors")
    if args.seeds < 1:
        raise InputError(f"--seeds must be >= 1, got {args.seeds}")
    base = _train_config(args)

    if args.alphas:
        label = "alpha"
        try:
            values = list(dict.fromkeys(float(v) for v in args.alphas.split(",") if v))
        except ValueError:
            raise InputError(f"bad --alphas list: {args.alphas!r}")
    else:
        label = "prior"
        values = list(dict.fromkeys(v.strip() for v in args.priors.split(",") if v.strip()))
    if not values:
        raise InputError(f"--{label}s lists no value")

    names = [Path(str(v)).name for v in values]  # a vector file's cells drop its directory
    clashing = [str(v) for v, name in zip(values, names) if names.count(name) > 1]
    if clashing:
        raise InputError(f"--{label}s values {', '.join(clashing)} share a cell directory")

    # a grid, or a cell that `train` would reject, leaves no output directory
    out = Path(args.out)
    bundle = DatasetBundle(args.data)
    jobs = []
    for name, value in zip(names, values):
        for seed in range(args.seeds):
            config = replace(base, **{label: value, "seed": seed})
            cell_dir = out / "cells" / f"{label}_{name}_seed{seed}"
            jobs.append((label, value, seed, config, str(args.data), str(cell_dir)))
        tr.prepare_run(config, bundle)
    workers = min(worker_cap(), len(jobs))
    out.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    if workers > 1:
        rows = _map_in_workers(jobs, workers)
    else:
        rows = [_run_cell(job) for job in jobs]

    # a field holding a comma, quote or line break is quoted, so every row
    # keeps its header's field count
    with (out / "sweep_cells.csv").open("w", encoding="utf-8", newline="") as f:
        cells = csv.writer(f, lineterminator="\n")
        cells.writerow([label, "seed", "final_miou", "best_miou", "status"])
        cells.writerows(row[1:] for row in rows)

    table_path = out / "sweep_table.csv"
    failed_total = 0
    with table_path.open("w", encoding="utf-8", newline="") as f:
        table = csv.writer(f, lineterminator="\n")
        table.writerow([label, "mean_miou", "std_miou", "n_ok", "n_failed"])
        for value in values:
            scores = [r[3] for r in rows if r[1] == value and not r[5].startswith("f")]
            failed = sum(1 for r in rows if r[1] == value and r[5].startswith("f"))
            failed_total += failed
            mean = float(np.mean(scores)) if scores else float("nan")
            std = float(np.std(scores)) if scores else float("nan")
            table.writerow([value, mean, std, len(scores), failed])

    dg.write_run_manifest(out, "sweep", {
        "axis": label,
        "values": ",".join(str(v) for v in values),
        "seeds": args.seeds,
        "dataset_checksum": bundle.dataset_checksum(),
        "workers": workers,
        "worker_blas_threads": WORKER_BLAS_THREADS if workers > 1 else "inherited",
        "n_cells": len(jobs),
        "n_failed": failed_total,
        "wallclock.sweep": f"{time.perf_counter() - started:.3f}",
    })
    print(f"sweep finished: {len(jobs)} cells, {failed_total} failed; "
          f"table at {table_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as bail:
        return int(bail.code) if bail.code is not None else EXIT_OK
    try:
        return args.func(args)
    except InputError as failure:
        print(f"error: {failure}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as failure:  # an output that cannot be written
        where = failure.filename
        if where is None and isinstance(failure, BrokenPipeError):
            where = "standard output"  # its reader went away, as in `| head -1`
        reason = failure.strerror or str(failure)
        print(f"error: {reason}" if where is None else f"error: {where}: {reason}",
              file=sys.stderr)
        return EXIT_INPUT
    except NumericError as failure:
        print(f"numeric failure: {failure}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
