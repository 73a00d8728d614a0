"""Interleaved step timing of two checkouts in one process.

    python3 scripts/ab_steps.py --parent ../parent --change . \
        [--steps 1000] [--prior onehot|random]

It imports each checkout's `src/daplab` under its own package name
(`daplab_parent`, `daplab_change`; every import inside the package is
relative), generates one `gap-default` dataset at 64x64, and builds a
Trainer on each side with the same config (`--prior random` is the 300-d
random prior). Then, pair by pair, it runs one train step on each side
and one `predict_labels` call of the same test image on each side; the
parent goes first in even pairs and second in odd ones, so a drift of the
host's speed falls on both sides alike. The first WARMUP_PAIRS pairs are
not timed.

It prints each side's median train step and per-image evaluation, the
change's median over the parent's, the number of pairs in which the change
was faster, and whether the step losses, the predicted labels and the
final student, teacher and momentum arrays were byte-identical. It exits 1
when any of them differ. For the train step and for the evaluation it also
prints the median of the per-pair change/parent ratios with a bootstrap 95%
interval (BOOTSTRAP_DRAWS resamples of the pairs, drawn from the fixed
BOOTSTRAP_SEED) and says whether that interval holds 1.0: an interval that
holds 1.0 shows no change the run can tell from the host's noise. Naming
one checkout twice gives an A/A control.

After the timed pairs it runs PEAK_STEPS more, untimed, train steps on each
side under `tracemalloc`, with every training item already read, and
prints each side's largest step peak: the bytes of numpy and Python
allocations live at once during a step, which a memory change moves
without the bench.

Both sides share one numpy, so they run with the same BLAS threads: one
each, unless OPENBLAS_NUM_THREADS (or OMP_, MKL_) is already set.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# read when numpy loads, which importing either package does
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # imported after the thread settings, which it reads

SIDES = ("parent", "change")
N_SOURCE, N_TARGET, N_TEST, SIZE = 32, 32, 8, 64
WARMUP_PAIRS = 20
PEAK_STEPS = 3
BOOTSTRAP_DRAWS, BOOTSTRAP_SEED = 2000, 0


def load_package(checkout: Path, name: str):
    """`checkout`'s `src/daplab` as the package `name`; importing it imports
    the `analysis`, `datagen` and `trainer` submodules this script uses."""
    root = checkout / "src" / "daplab"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package  # the package's relative imports resolve through it
    spec.loader.exec_module(package)
    return package


def state_bytes(trainer) -> bytes:
    """The student's, the teacher's and the momentum arrays, in name order."""
    arrays = [p.data for _, p in sorted(trainer.student.named())]
    arrays += [p.data for _, p in sorted(trainer.teacher.named())]
    arrays += [v for _, v in sorted(trainer.optimizer.velocity.items())]
    return b"".join(a.tobytes() for a in arrays)


def summary(times: dict, label: str) -> str:
    parent, change = (statistics.median(times[side]) * 1e3 for side in SIDES)
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    return (f"{label:<16} parent {parent:.3f} ms  change {change:.3f} ms  "
            f"ratio {change / parent:.4f}  change faster in {wins}/{len(times['parent'])}")


def pair_ratios(times: dict, label: str) -> str:
    """The median of the per-pair change/parent ratios, with the 2.5th and
    97.5th percentiles of its bootstrap distribution."""
    ratios = np.array(times["change"]) / np.array(times["parent"])
    draws = np.random.default_rng(BOOTSTRAP_SEED).choice(
        ratios, size=(BOOTSTRAP_DRAWS, ratios.size))
    low, high = np.percentile(np.median(draws, axis=1), [2.5, 97.5])
    verdict = "holds" if low <= 1.0 <= high else "excludes"
    return (f"{label:<16} pair ratio median {np.median(ratios):.4f}  "
            f"95% interval [{low:.4f}, {high:.4f}] {verdict} 1.0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--steps", type=int, default=1000)
    parser.add_argument("--prior", choices=("onehot", "random"), default="onehot")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be >= 1")

    packages = {side: load_package(getattr(args, side).resolve(), f"daplab_{side}")
                for side in SIDES}
    pairs = WARMUP_PAIRS + args.steps
    step_s = {side: [] for side in SIDES}
    eval_s = {side: [] for side in SIDES}
    same_losses = same_labels = True
    with tempfile.TemporaryDirectory() as temp:
        datagen = packages["parent"].datagen
        source_spec, target_spec = datagen.preset_specs("gap-default", 0)
        datagen.make_benchmark(source_spec, target_spec, N_SOURCE, N_TARGET, N_TEST,
                               temp, height=SIZE, width=SIZE)
        trainers, tests = {}, {}
        for side, package in packages.items():
            config = package.trainer.TrainConfig(steps=pairs + PEAK_STEPS, prior=args.prior,
                                                 heldout_source=0, checkpoint_every=0)
            bundle = package.datagen.DatasetBundle(temp)
            trainers[side] = package.trainer.Trainer(config, bundle)
            tests[side] = [bundle.test(i).image for i in range(N_TEST)]

        for pair in range(pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            records, labels = {}, {}
            for side in order:
                start = time.perf_counter()
                records[side] = trainers[side].train_step()
                elapsed = time.perf_counter() - start
                if pair >= WARMUP_PAIRS:
                    step_s[side].append(elapsed)
            for side in order:
                predict = packages[side].analysis.predict_labels
                start = time.perf_counter()
                labels[side] = predict(trainers[side].student, tests[side][pair % N_TEST])
                elapsed = time.perf_counter() - start
                if pair >= WARMUP_PAIRS:
                    eval_s[side].append(elapsed)
            losses = [(r.l_seg, r.l_dap, r.l_overall) for r in records.values()]
            same_losses &= losses[0] == losses[1]
            same_labels &= labels["parent"].tobytes() == labels["change"].tobytes()
        same_state = state_bytes(trainers["parent"]) == state_bytes(trainers["change"])

        peaks = {side: [] for side in SIDES}
        for side in SIDES:
            for split in ("source", "target_image"):
                trainers[side].bundle.check_split(split)
        for _ in range(PEAK_STEPS):
            for side in SIDES:
                tracemalloc.start()
                try:
                    trainers[side].train_step()
                    peaks[side].append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

    print(f"prior {args.prior}, {args.steps} timed pairs after {WARMUP_PAIRS} untimed, "
          f"{SIZE}x{SIZE}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    print(summary(step_s, "train step"))
    print(summary(eval_s, "per-image eval"))
    print(pair_ratios(step_s, "train step"))
    print(pair_ratios(eval_s, "per-image eval"))
    print(f"step peak (tracemalloc, largest of {PEAK_STEPS} untimed steps)  "
          + "  ".join(f"{side} {max(peaks[side]) / 1e6:.3f} MB" for side in SIDES))
    print(f"identical: losses {same_losses}, labels {same_labels}, "
          f"parameters {same_state}")
    return 0 if same_losses and same_labels and same_state else 1


if __name__ == "__main__":
    sys.exit(main())
