"""Command-line front end: dataset generation, training, evaluation and
sweep harnesses, each reproducible from its run manifest.

Exit codes: 0 success, 2 usage, 3 bad input/config, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
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
    gen.add_argument("--preset", default="gap-default",
                     choices=["gap-default", "gap-none"])
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
    train.add_argument("--lr", type=float)
    train.add_argument("--steps", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--prior", choices=["onehot", "random", "file"])
    train.add_argument("--vectors", dest="vector_file")
    train.add_argument("--interp", choices=["bilinear", "nearest"])
    train.add_argument("--no-dap", action="store_true")
    train.add_argument("--checkpoint-every", dest="checkpoint_every", type=int)
    train.add_argument("--heldout-source", dest="heldout_source", type=int)
    train.add_argument("--pseudo-acc", dest="pseudo_acc_diagnostic",
                       action="store_true")
    train.add_argument("--resume", action="store_true")
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
    sweep.add_argument("--priors", help="comma-separated prior kinds")
    sweep.add_argument("--seeds", type=int, default=3, help="number of seeds")
    sweep.add_argument("--config", help="base config file for every cell")
    sweep.add_argument("--steps", type=int)
    sweep.add_argument("--heldout-source", dest="heldout_source", type=int)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def _train_config(args) -> tr.TrainConfig:
    config = tr.parse_config(args.config) if args.config else tr.TrainConfig()
    overrides = {}
    for field in ("alpha", "ema_lambda", "lr", "steps", "seed", "prior",
                  "vector_file", "interp", "checkpoint_every", "heldout_source"):
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    if args.no_dap:
        overrides["alpha"] = 0.0
    if args.pseudo_acc_diagnostic:
        overrides["pseudo_acc_diagnostic"] = True
    return replace(config, **overrides)


def cmd_gen(args) -> int:
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
    result = tr.run(config, bundle, args.out, resume=args.resume)
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
    if args.split == "test":
        items = [bundle.test(i) for i in range(bundle.n_test)]
    else:
        items = [bundle.source(i) for i in range(bundle.n_source)]
    started = time.perf_counter()
    metrics = analysis.evaluate(state, items)
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
    print(f"mIOU {metrics.miou:.4f} over {len(items)} images")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps


def _cell_done(cell_dir: Path, config: tr.TrainConfig) -> bool:
    manifest = cell_dir / dg.RUN_MANIFEST_NAME
    config_file = cell_dir / "config.txt"
    return (manifest.exists() and config_file.exists()
            and config_file.read_text() == tr.config_to_text(config)
            and "final_miou" in dg.parse_manifest(manifest))


def _cell_result(cell_dir: Path) -> dict:
    entries = dg.parse_manifest(cell_dir / dg.RUN_MANIFEST_NAME)
    return {"final_miou": float(entries["final_miou"]),
            "best_miou": float(entries["best_miou"])}


def _run_cell(payload) -> tuple:
    label, value, seed, config, data_dir, cell_dir = payload
    try:
        bundle = DatasetBundle(data_dir)
        if _cell_done(Path(cell_dir), config):
            result = _cell_result(Path(cell_dir))
            return (label, value, seed, result["final_miou"], result["best_miou"],
                    "cached")
        run = tr.run(config, bundle, cell_dir)
        return (label, value, seed, run.final_miou, run.best_miou, "ok")
    except Exception as failure:  # a failed cell must not sink the sweep
        return (label, value, seed, float("nan"), float("nan"),
                f"failed: {failure}")


def worker_cap() -> int:
    env = os.environ.get("DAP_LAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"DAP_LAB_THREADS must be an integer, got {env!r}")
    return max(1, os.cpu_count() or 1)


def cmd_sweep(args) -> int:
    if bool(args.alphas) == bool(args.priors):
        raise InputError("sweep needs exactly one of --alphas or --priors")
    base = tr.parse_config(args.config) if args.config else tr.TrainConfig()
    if args.steps is not None:
        base = replace(base, steps=args.steps)
    if args.heldout_source is not None:
        base = replace(base, heldout_source=args.heldout_source)

    if args.alphas:
        label = "alpha"
        try:
            values = [float(v) for v in args.alphas.split(",") if v]
        except ValueError:
            raise InputError(f"bad --alphas list: {args.alphas!r}")
        make = lambda v, s: replace(base, alpha=v, seed=s)
    else:
        label = "prior"
        values = [v.strip() for v in args.priors.split(",") if v.strip()]
        make = lambda v, s: replace(base, prior=v, seed=s)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bundle = DatasetBundle(args.data)

    jobs = []
    for value in values:
        for seed in range(args.seeds):
            config = make(value, seed)
            cell_dir = out / "cells" / f"{label}_{value}_seed{seed}"
            jobs.append((label, value, seed, config, str(args.data), str(cell_dir)))

    workers = min(worker_cap(), len(jobs))
    started = time.perf_counter()
    if workers > 1:
        from multiprocessing import get_context
        with get_context("spawn").Pool(workers) as pool:
            rows = pool.map(_run_cell, jobs)
    else:
        rows = [_run_cell(job) for job in jobs]

    cells_path = out / "sweep_cells.csv"
    with cells_path.open("w", encoding="utf-8") as f:
        f.write(f"{label},seed,final_miou,best_miou,status\n")
        for _, value, seed, final_miou, best_miou, status in rows:
            f.write(f"{value},{seed},{final_miou!r},{best_miou!r},{status}\n")

    table_path = out / "sweep_table.csv"
    failed_total = 0
    with table_path.open("w", encoding="utf-8") as f:
        f.write(f"{label},mean_miou,std_miou,n_ok,n_failed\n")
        for value in values:
            scores = [r[3] for r in rows if r[1] == value and not r[5].startswith("f")]
            failed = sum(1 for r in rows if r[1] == value and r[5].startswith("f"))
            failed_total += failed
            mean = float(np.mean(scores)) if scores else float("nan")
            std = float(np.std(scores)) if scores else float("nan")
            f.write(f"{value},{mean!r},{std!r},{len(scores)},{failed}\n")

    dg.write_run_manifest(out, "sweep", {
        "axis": label,
        "values": ",".join(str(v) for v in values),
        "seeds": args.seeds,
        "dataset_checksum": bundle.dataset_checksum(),
        "workers": workers,
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
    except NumericError as failure:
        print(f"numeric failure: {failure}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
