"""The benchmark's workloads. Each has a `setup` (everything before the
first timed unit of work) and a `unit` (one closed-loop unit of work whose
outputs are checked). A unit returns its wall time, its latency samples,
its checks and a fingerprint of its outputs that tracing must not change.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from daplab import analysis, cli, datagen, model as md, trainer
from daplab.datagen import BIKE, MOTORBIKE, DatasetBundle
from envstamp import nproc
from timing import StepTimer

HERE = Path(__file__).resolve().parent

N_SOURCE, N_TARGET, N_TEST, SIZE = 64, 64, 16, 64
GAUSSIAN_SAMPLES = 4000
SWEEP_STEPS = 150
SWEEP_TIMEOUT_S = 120.0


@dataclass
class Unit:
    seconds: float
    fingerprint: bytes
    step_s: list = field(default_factory=list)     # inner-loop step latencies
    eval_s: list = field(default_factory=list)     # per-image evaluation latencies
    operations: int = 0                            # steps, images or cells attempted
    failed_operations: int = 0
    checks: dict = field(default_factory=dict)     # check name -> passed
    extra: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return self.operations + len(self.checks)

    @property
    def failed(self) -> int:
        return self.failed_operations + sum(not ok for ok in self.checks.values())


def make_bundle(root: Path, seed: int) -> DatasetBundle:
    source_spec, target_spec = datagen.preset_specs("gap-default", seed)
    datagen.make_benchmark(source_spec, target_spec, N_SOURCE, N_TARGET, N_TEST,
                           root, height=SIZE, width=SIZE)
    return DatasetBundle(root)


def in_unit_interval(value) -> bool:
    return isinstance(value, float) and math.isfinite(value) and 0.0 <= value <= 1.0


def check_metrics_csv(path: Path) -> tuple:
    """(rows logged, rows whose losses are all finite)."""
    rows = path.read_text(encoding="utf-8").splitlines()[1:]
    finite = sum(all(math.isfinite(float(v)) for v in row.split(",")[1:4]) for row in rows)
    return len(rows), finite


class Workload:
    """Runs its units in this process; `layer_metrics` adds per-layer
    figures that only the workload itself can read."""

    in_process = True

    def layer_metrics(self, units) -> dict:
        return {}


class TrainWorkload(Workload):
    """`trainer.run` with the default config (one-hot or random prior),
    scaled to `steps` with checkpoints every `checkpoint_every` steps."""

    def __init__(self, prior: str, steps: int, checkpoint_every: int):
        self.prior = prior
        self.steps = steps
        self.checkpoint_every = checkpoint_every

    def config(self, seed: int) -> trainer.TrainConfig:
        return trainer.TrainConfig(prior=self.prior, prior_dim=300, seed=seed,
                                   steps=self.steps,
                                   checkpoint_every=self.checkpoint_every)

    def setup(self, root: Path, seed: int):
        bundle = make_bundle(root / "data", seed)
        config = self.config(seed)
        trainer.Trainer(config, bundle)
        return bundle, config

    def unit(self, state, out: Path) -> Unit:
        bundle, config = state
        with StepTimer() as timer:
            start = perf_counter()
            try:
                result = trainer.run(config, bundle, out)
            except Exception:  # a raising step fails the unit and is counted
                traceback.print_exc()
                result = None
            seconds = perf_counter() - start
        metrics = out / "metrics.csv"
        logged, finite = check_metrics_csv(metrics) if metrics.exists() else (0, 0)
        checks = {
            "losses_finite": result is not None and logged == config.steps == finite,
            "miou_in_unit_interval": result is not None
            and in_unit_interval(result.final_miou) and in_unit_interval(result.best_miou),
        }
        return Unit(seconds, metrics.read_bytes() if metrics.exists() else b"",
                    step_s=timer.step_s, eval_s=timer.eval_s,
                    operations=config.steps, failed_operations=config.steps - finite,
                    checks=checks)


class EvalDiagnoseWorkload(Workload):
    """`daplab eval` of a checkpoint on the test and the source split, then
    the bike/motorbike feature Gaussians, their overlap and the relationship
    matrix of their means. Forward passes only."""

    def setup(self, root: Path, seed: int):
        bundle = make_bundle(root / "data", seed)
        ckpt = root / "student.ckpt"
        md.save_checkpoint(ckpt, md.init_student(seed).data_arrays())
        return bundle, ckpt, seed

    def unit(self, state, out: Path) -> Unit:
        bundle, ckpt, seed = state
        outputs, exit_codes = [], []
        with StepTimer() as timer:
            start = perf_counter()
            for split in ("test", "source"):
                exit_codes.append(cli.main(["eval", "--ckpt", str(ckpt), "--data",
                                            str(bundle.root), "--split", split,
                                            "--out", str(out / split)]))
            diagnose_start = perf_counter()
            student = md.state_from_arrays(md.load_checkpoint(ckpt), "student")
            test_items = [bundle.test(i) for i in range(bundle.n_test)]
            stats, _ = analysis.class_feature_stats(student, test_items, (BIKE, MOTORBIKE))
            bike, motorbike = stats[BIKE], stats[MOTORBIKE]
            overlap = float("nan")
            relation = np.full((2, 2), np.nan)
            if bike is not None and motorbike is not None:
                overlap = analysis.gaussian_iou(bike, motorbike, GAUSSIAN_SAMPLES,
                                                np.random.default_rng(seed))
                relation = analysis.relationship_matrix(
                    np.stack([bike.mean, motorbike.mean]), ("bike", "motorbike"))
            end = perf_counter()
        mious = []
        for split in ("test", "source"):
            for name in ("metrics.csv", "confusion.csv"):
                path = out / split / name
                outputs.append(path.read_bytes() if path.exists() else b"")
            rows = _read_csv(out / split / "metrics.csv")
            mious += [float(r["iou"]) for r in rows if r["class"] == "miou"]
        checks = {
            "eval_exit_ok": exit_codes == [0, 0],
            "miou_in_unit_interval": len(mious) == 2 and all(map(in_unit_interval, mious)),
            "gaussian_iou_in_unit_interval": in_unit_interval(overlap),
            "relationship_symmetric_unit_diagonal": bool(
                np.allclose(relation, relation.T) and np.allclose(np.diag(relation), 1.0)),
        }
        fingerprint = b"".join(outputs + [repr(overlap).encode(), relation.tobytes()])
        return Unit(end - start, fingerprint, step_s=timer.eval_s, eval_s=timer.eval_s,
                    operations=bundle.n_test + bundle.n_source, checks=checks,
                    extra={"diagnose_s": end - diagnose_start})


class SweepWorkload(Workload):
    """`daplab sweep --alphas 0,1 --seeds 1` through the spawn-safe runner,
    with the worker count pinned to nproc by DAP_LAB_THREADS."""

    in_process = False
    values = ("0.0", "1.0")

    def layer_metrics(self, units) -> dict:
        median = statistics.median
        return {
            "cli.sweep.workers": median(u.extra["workers"] for u in units),
            "cli.sweep.blas_threads": median(u.extra["blas_threads"] for u in units),
            "cli.sweep.cell_train_s": median(
                s for u in units for s in u.extra["cell_train_s"]),
            "cli.sweep.cpu_s_per_cell": median(u.extra["cpu_s_per_cell"] for u in units),
        }

    def setup(self, root: Path, seed: int):
        return make_bundle(root / "data", seed)

    def unit(self, bundle, out: Path) -> Unit:
        logs = out / "cell_logs"
        logs.mkdir(parents=True)
        sweep_dir = out / "sweep"
        env = dict(os.environ, DAP_LAB_THREADS=str(nproc()), PERFBENCH_CELL_LOG=str(logs))
        command = [sys.executable, str(HERE / "sweep_runner.py"), "--data", str(bundle.root),
                   "--out", str(sweep_dir), "--steps", str(SWEEP_STEPS)]
        cpu_before = _children_cpu_s()
        start = perf_counter()
        proc = subprocess.Popen(command, env=env, process_group=0,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            output, _ = proc.communicate(timeout=SWEEP_TIMEOUT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            output = ""
            timed_out = True
        seconds = perf_counter() - start
        cpu_s = _children_cpu_s() - cpu_before
        if proc.returncode != 0 or timed_out:
            print(f"sweep runner exit {proc.returncode}, timed out {timed_out}:\n{output}",
                  file=sys.stderr)

        cells = _read_csv(sweep_dir / "sweep_cells.csv")
        table = _read_csv(sweep_dir / "sweep_table.csv")
        manifest = _read_manifest(sweep_dir / "run_manifest.txt")
        cell_manifests, cell_steps_finite = [], 0
        for cell_dir in sorted((sweep_dir / "cells").glob("alpha_*")):
            cell_manifests.append(_read_manifest(cell_dir / "run_manifest.txt"))
            if (cell_dir / "metrics.csv").exists():
                logged, finite = check_metrics_csv(cell_dir / "metrics.csv")
                cell_steps_finite += logged == finite == SWEEP_STEPS
        cell_logs = [json.loads(p.read_text()) for p in sorted(logs.glob("cell_*.json"))]
        ok_cells = [c for c in cells if c.get("status") == "ok"
                    and in_unit_interval(float(c["final_miou"]))
                    and in_unit_interval(float(c["best_miou"]))]
        workers = int(manifest.get("workers", 0))
        checks = {
            "runner_exit_ok": proc.returncode == 0 and not timed_out,
            "table_complete": sorted(r["alpha"] for r in table) == list(self.values)
            and all(r["n_ok"] == "1" and r["n_failed"] == "0" for r in table),
            "manifest_no_failed_cells": manifest.get("n_failed") == "0",
            "workers_within_nproc": 1 <= workers <= nproc(),
            "cell_losses_finite": cell_steps_finite == len(self.values),
            "cell_latencies_logged": len(cell_logs) == len(self.values),
        }
        return Unit(seconds, (sweep_dir / "sweep_cells.csv").read_bytes()
                    if (sweep_dir / "sweep_cells.csv").exists() else b"",
                    step_s=[s for log in cell_logs for s in log["step_s"]],
                    eval_s=[s for log in cell_logs for s in log["eval_s"]],
                    operations=len(self.values),
                    failed_operations=len(self.values) - len(ok_cells),
                    checks=checks,
                    extra={"workers": workers,
                           "blas_threads": max((log["blas_threads"] or 0
                                                for log in cell_logs), default=0),
                           "cell_train_s": [float(m["wallclock.train"])
                                            for m in cell_manifests
                                            if "wallclock.train" in m],
                           "cpu_s_per_cell": cpu_s / len(self.values)})


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the runner's process group (the runner and its pool workers)
    and wait until the group is empty. The runner is still unreaped here,
    so its process group id cannot have been reused."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _read_csv(path: Path) -> list:
    if not path.exists():
        return []
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    keys = header.split(",")
    return [dict(zip(keys, row.split(","))) for row in rows if row]


def _read_manifest(path: Path) -> dict:
    return datagen.parse_manifest(path) if path.exists() else {}


WORKLOADS = {
    "train-dap": TrainWorkload("onehot", steps=200, checkpoint_every=50),
    "train-prior300": TrainWorkload("random", steps=80, checkpoint_every=40),
    "eval-diagnose": EvalDiagnoseWorkload(),
    "sweep-alpha": SweepWorkload(),
}
