"""Untraced latency probes: one thin wrapper around `Trainer.train_step`
and, only while `analysis.evaluate` runs, one around the per-image
`predict_labels` call. The teacher pass inside a train step is not timed
as an evaluation image."""

from __future__ import annotations

import functools
from time import perf_counter


class Patches:
    """Replaces attributes of program objects and puts the originals back;
    `install` does the replacing, and `with` uninstalls on exit."""

    def __init__(self):
        self._patches = []         # (owner, attribute, original)

    def install(self):
        raise NotImplementedError

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()


class StepTimer(Patches):
    """Collects train-step and evaluated-image latencies in seconds."""

    def __init__(self):
        super().__init__()
        self.step_s = []
        self.eval_s = []

    def install(self):
        from daplab import analysis, trainer

        step_s, eval_s = self.step_s, self.eval_s
        train_step = trainer.Trainer.train_step
        evaluate = analysis.evaluate
        predict = analysis.predict_labels

        @functools.wraps(train_step)
        def timed_step(self_):
            start = perf_counter()
            try:
                return train_step(self_)
            finally:
                step_s.append(perf_counter() - start)

        @functools.wraps(predict)
        def timed_predict(state, image):
            start = perf_counter()
            try:
                return predict(state, image)
            finally:
                eval_s.append(perf_counter() - start)

        @functools.wraps(evaluate)
        def timed_evaluate(state, items):
            analysis.predict_labels = timed_predict
            try:
                return evaluate(state, items)
            finally:
                analysis.predict_labels = predict

        self._patch_attr(trainer.Trainer, "train_step", timed_step)
        self._patch_attr(analysis, "evaluate", timed_evaluate)
        return self
