"""Run one `daplab sweep --alphas 0,1 --seeds 1` in its own process.

Usage: python3 perfbench/sweep_runner.py --data DIR --out DIR --steps N

The sweep's pool workers are started with the `spawn` method, which
re-imports this file under the name `__mp_main__`. The entry point therefore
sits behind the `__main__` check: unguarded, every worker would start a
sweep of its own. In the workers, the `__mp_main__` block installs the step
timer when `PERFBENCH_CELL_LOG` names a directory, and each finished cell
writes its latencies there as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

CELL_LOG_ENV = "PERFBENCH_CELL_LOG"


def _log_cells(log_dir: Path):
    """Wrap `trainer.run` so each finished cell writes its latencies."""
    from daplab import trainer
    from envstamp import blas_threads
    from timing import StepTimer

    timer = StepTimer().install()
    run = trainer.run

    def logged_run(config, bundle, out_dir, *args, **kwargs):
        timer.step_s.clear()
        timer.eval_s.clear()
        result = run(config, bundle, out_dir, *args, **kwargs)
        record = {"pid": os.getpid(), "alpha": config.alpha, "step_s": timer.step_s,
                  "eval_s": timer.eval_s, "blas_threads": blas_threads()}
        target = log_dir / f"cell_{os.getpid()}_{config.alpha!r}.json"
        target.write_text(json.dumps(record), encoding="utf-8")
        return result

    trainer.run = logged_run


if __name__ == "__mp_main__" and os.environ.get(CELL_LOG_ENV):
    _log_cells(Path(os.environ[CELL_LOG_ENV]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--steps", type=int, required=True)
    args = parser.parse_args(argv)
    from daplab import cli
    return cli.main(["sweep", "--data", args.data, "--out", args.out,
                     "--alphas", "0,1", "--seeds", "1", "--steps", str(args.steps)])


if __name__ == "__main__":
    sys.exit(main())
