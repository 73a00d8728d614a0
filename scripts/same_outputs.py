"""Byte-compare the fixed-seed outputs of two checkouts.

    python3 scripts/same_outputs.py --parent ../parent --change .

In each checkout, with that checkout's `src` on the import path, it runs
`daplab gen --preset gap-default --seed 7`, then
`daplab train --steps 300 --seed 1` on that dataset, then `daplab eval` of
the trained `student_final.ckpt` on the test and on the source split and of
the final train state `checkpoints/state_000300.ckpt` on the test split.
Then it repeats the 300-step `train` into the same directory: that finished
run loads its train state, replays no step and rewrites its files, so
`student_final.ckpt` comes from the loaded state. Next it runs
`daplab train --config` with a config file it writes (CONFIG: the
`lambda` key, the random prior, nearest down-sampling and the pseudo-label
diagnostic, 40 steps with a checkpoint every 20). Then it writes a small
vector file (VECTORS, two of its classes under their alias names) and runs
`daplab sweep --priors onehot,vectors.txt --seeds 1 --steps 20` in one
worker (DAP_LAB_THREADS=1). Last it runs `daplab gen --preset gap-none
--seed 3 --size 32` with 8, 8 and 4 scenes, so scenes of a second size and
of a target domain with no hue shift are compared too. It compares every
dataset, config, run, sweep and evaluation file of the two sides byte for
byte, after dropping the `wallclock.*` lines of each `run_manifest.txt`,
which time the run. It prints one line per file and exits 1 if any file
differs or exists on one side only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIG = ("lambda = 0.95\nprior = random\ninterp = nearest\npseudo_acc_diagnostic = true\n"
          "steps = 40\ncheckpoint_every = 20\nseed = 2\n")
VECTORS = ("D 3\nroad 1 0 0.1\npavement 0.9 0 0.2\nsky 0 0.1 1\nbuilding 0.2 0.1 0.9\n"
           "bicycle 0.4 1 0\nmotorcycle 0.5 1 0.3\n")
TRAIN = ["train", "--data", "data", "--out", "run", "--steps", "300", "--seed", "1"]
COMMANDS = (["gen", "--preset", "gap-default", "--seed", "7", "--out", "data"],
            TRAIN,
            *(["eval", "--ckpt", "run/student_final.ckpt", "--data", "data",
               "--split", split, "--out", f"eval_{split}"] for split in ("test", "source")),
            ["eval", "--ckpt", "run/checkpoints/state_000300.ckpt", "--data", "data",
             "--out", "eval_state"],
            TRAIN,
            ["train", "--data", "data", "--out", "run_config", "--config", "run.cfg"],
            ["sweep", "--data", "data", "--out", "sweep", "--priors", "onehot,vectors.txt",
             "--seeds", "1", "--steps", "20"],
            ["gen", "--preset", "gap-none", "--seed", "3", "--size", "32", "--n-source", "8",
             "--n-target", "8", "--n-test", "4", "--out", "data_none"])


def outputs(checkout: Path, work: Path) -> dict:
    """Write CONFIG and VECTORS and run COMMANDS in `work` with `checkout`'s
    program; map each file there to its bytes, without the run manifests'
    wall-clock lines."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), DAP_LAB_THREADS="1")
    (work / "run.cfg").write_text(CONFIG, encoding="utf-8")
    (work / "vectors.txt").write_text(VECTORS, encoding="utf-8")
    for command in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "daplab.cli", *command], cwd=work,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{checkout}: daplab {' '.join(command)} exited {done.returncode}:\n"
                     f"{done.stdout}{done.stderr}")
    files = {}
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "run_manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not line.startswith(b"wallclock."))
        files[str(path.relative_to(work))] = data
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as temp:
        sides = {}
        for side in ("parent", "change"):
            work = Path(temp) / side
            work.mkdir()
            sides[side] = outputs(getattr(args, side).resolve(), work)

    parent, change = sides["parent"], sides["change"]
    differing = 0
    for name in sorted(parent.keys() | change.keys()):
        if name not in change:
            verdict = "only in parent"
        elif name not in parent:
            verdict = "only in change"
        elif parent[name] != change[name]:
            verdict = "differs"
        else:
            verdict = "identical"
        differing += verdict != "identical"
        print(f"{verdict:<15} {name}")
    print(f"{len(parent.keys() | change.keys())} files, {differing} not identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
