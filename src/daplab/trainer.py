"""Self-training loop: teacher pseudo-labels, class-guided mixing, the
segmentation loss, the optional prior-alignment loss, SGD with polynomial
decay, and an EMA teacher. Bookkeeping (checkpoints, CSV step log, run
manifest) lives here too."""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .datagen import DatasetBundle, parse_manifest, write_run_manifest
from .errors import InputError, NumericError, read_input, read_input_text
from . import analysis
from . import mixing
from . import model as md
from . import tensor as tc
from .priors import (PRIOR_KINDS, EmbeddingSet, build_one_hot, downsample_embedding,
                     make_embeddings, proj)
from .tensor import Tensor


# The fixed self-training recipe. The paper varies the loss weight, the
# teacher decay, the prior and the embedding down-sampling, never these; the
# mixed image's augmentation is fixed in `mixing`.
LR = 0.01                 # the adaptation run's base rate
SUPERVISED_LR = 0.02      # the supervised controls' base rate
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
HEAD_LR_MULTIPLIER = 10.0
PROJECTOR_LR_MULTIPLIER = 0.5
LR_POWER = 0.9

INTERP_MODES = ("bilinear", "nearest")


@dataclass
class TrainConfig:
    """Every field is addressable in a key = value config file; the EMA
    decay is written there under the key `lambda`."""

    alpha: float = 1.0
    ema_lambda: float = 0.99
    steps: int = 2000
    prior: str = "onehot"             # one of PRIOR_KINDS, or a vector file path
    prior_dim: int = 300              # used by random priors
    interp: str = "bilinear"          # one of INTERP_MODES
    seed: int = 0
    checkpoint_every: int = 500
    heldout_source: int = 8
    pseudo_acc_diagnostic: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise InputError(f"alpha must be a finite number >= 0, got {self.alpha}")
        if not 0.0 <= self.ema_lambda <= 1.0:
            raise InputError("lambda must lie in [0, 1]")
        if self.steps < 0:
            raise InputError("steps must be >= 0")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise InputError("checkpoint_every must be >= 0")
        if self.heldout_source < 0:
            raise InputError("heldout_source must be >= 0")
        if self.prior not in PRIOR_KINDS and not Path(self.prior).is_file():
            raise InputError(f"prior must be one of {', '.join(PRIOR_KINDS)} or an "
                             f"existing vector file, got {self.prior!r}")
        if self.interp not in INTERP_MODES:
            raise InputError(f"interp must be one of {', '.join(INTERP_MODES)}, "
                             f"got {self.interp!r}")


@dataclass
class StepRecord:
    step: int
    l_seg: float
    l_dap: float
    l_overall: float
    pseudo_acc: float
    lr: float

    def csv_line(self) -> str:
        """The record's line in metrics.csv: each field's repr, which reads
        back as the same float."""
        return ",".join(repr(getattr(self, f.name)) for f in fields(self)) + "\n"


METRICS_HEADER = ",".join(f.name for f in fields(StepRecord))

# the TrainConfig field of each config file key: the key is the field's
# name, except for the EMA decay
_CONFIG_FIELDS = {"lambda" if f.name == "ema_lambda" else f.name: f.name
                  for f in fields(TrainConfig)}


def config_to_text(config: TrainConfig) -> str:
    return "".join(f"{key} = {getattr(config, name)}\n"
                   for key, name in _CONFIG_FIELDS.items())


def parse_config(path) -> TrainConfig:
    """A key = value file in the manifest format (datagen.parse_manifest),
    with exactly the keys that config_to_text writes. Each value is parsed
    as the type its TrainConfig field declares."""
    types = get_type_hints(TrainConfig)
    kwargs = {}
    for key, value in parse_manifest(path).items():
        name = _CONFIG_FIELDS.get(key)
        if name is None:
            raise InputError(f"{path}: unknown config key {key!r}")
        try:
            kwargs[name] = _coerce(types[name], value)
        except ValueError:
            raise InputError(f"{path}: bad value for {key!r}: {value!r}") from None
    return TrainConfig(**kwargs)


def _coerce(kind, text: str):
    """Parse `text` as `kind`; raises ValueError when it is no such value."""
    if kind is bool:
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise ValueError(text)
    return kind(text)


# ---------------------------------------------------------------------------
# single training concerns


def pseudo_label(teacher: md.ModelState, target_image: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of the teacher's logits, evaluated without
    gradients; ties resolve to the lower class id."""
    return analysis.predict_labels(teacher, target_image)


def dap_term(student: md.ModelState, projected: Tensor, labels: np.ndarray,
             embeddings: EmbeddingSet, interp: str) -> Tensor:
    """Distance between the projected visual features [N,P,h,w] and the
    projected embedding map built from the [N,H,W] `labels` (an [H,W] map
    when N is 1), down-sampled to the features' h x w: the mean over all N
    images' cells. Gradients reach the backbone and both projectors; the
    embedding vectors stay frozen.

    Both resize modes are linear per channel, so the map is built by
    resizing the one-hot class indicators to h x w first (each cell's class
    fractions; ignored pixels count for no class) and then contracting them
    with the class table: no full-size D-channel map is made."""
    fh, fw = projected.shape[2:]
    fractions = downsample_embedding(proj(labels, build_one_hot()), fh, fw, interp).data
    n = fractions.shape[0]
    emb = (embeddings.vectors.T @ fractions.reshape(n, -1, fh * fw)).reshape(n, -1, fh, fw)
    return tc.sum_squared_error(projected, md.project_prior(student, Tensor(emb)))


def make_optimizer(student: md.ModelState, lr: float) -> tc.SGD:
    """SGD with the fixed recipe. The projectors learn below the base rate
    and skip weight decay: the prior anchors otherwise contract toward zero
    and the alignment loss degenerates before it can shape the features. A
    loss that never reaches the projectors leaves them untouched, because
    SGD.step skips parameters without a gradient."""
    return tc.SGD(student.params, lr=lr, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                  lr_multipliers={"head.": HEAD_LR_MULTIPLIER,
                                  "gvi.": PROJECTOR_LR_MULTIPLIER,
                                  "gpr.": PROJECTOR_LR_MULTIPLIER},
                  weight_decay_exempt=("gvi.", "gpr."))


def descend(optimizer: tc.SGD, loss: Tensor, step: int, steps: int) -> float:
    """One SGD step on `loss` at the optimizer's base rate decayed to step
    `step` of `steps`; returns that rate. A non-finite loss raises
    NumericError before any parameter moves."""
    if not loss.is_finite():
        raise NumericError(f"non-finite loss at step {step}")
    lr_t = tc.polynomial_lr(optimizer.lr, step, steps, LR_POWER)
    tc.reset_gradients(optimizer.params.values())
    tc.backward(loss)
    optimizer.step(lr_t)
    return lr_t


def train_supervised(items, steps: int, seed: int) -> md.ModelState:
    """Plain cross-entropy training on a labeled split; used for oracle and
    source-only control models. Fixed recipe: make_optimizer at base lr 0.02
    with polynomial decay."""
    state = md.to_float32(md.init_student(seed))
    optimizer = make_optimizer(state, SUPERVISED_LR)
    order = np.random.default_rng(seed)
    for step in range(steps):
        item = items[int(order.integers(len(items)))]
        # only the loss is held through descend, and only until it returns:
        # the graph keeps what its backward reads, and the logits go first
        descend(optimizer, tc.softmax_cross_entropy(
            md.forward(state, Tensor(item.image[None]), project=False).logits,
            item.labels[None]), step, steps)
    return state


# ---------------------------------------------------------------------------
# the training loop


class Trainer:
    """Owns the student/teacher pair and the optimizer. Each step draws its
    data order, class subset and augmentation from a generator keyed by
    (seed, step), so a train state holds no generator and toggling the prior
    loss cannot desynchronize a baseline comparison."""

    def __init__(self, config: TrainConfig, bundle: DatasetBundle):
        self.config = config
        self.bundle = bundle

        if config.heldout_source >= bundle.n_source:
            raise InputError(f"heldout_source {config.heldout_source} leaves no training "
                             f"images: n_source is {bundle.n_source}")
        if bundle.n_target < 1:
            raise InputError(f"n_target is {bundle.n_target}: the dataset has no "
                             "target-train images")
        self.embeddings = make_embeddings(config.prior, dim=config.prior_dim,
                                          seed=config.seed + 1_000_000_007)
        self.student = md.to_float32(
            md.init_student(config.seed, prior_dim=self.embeddings.dim))
        self.teacher = md.make_teacher(self.student)
        self.optimizer = make_optimizer(self.student, LR)

        self.n_train_source = bundle.n_source - config.heldout_source
        self.step_index = 0
        # the step whose student scored best on the held-out split, and that
        # score; -1 until the first held-out check
        self.best_step, self.best_score = -1, -np.inf

    # -- one optimization step -------------------------------------------------

    def train_step(self) -> StepRecord:
        cfg = self.config
        step = self.step_index

        # a spawn key, unlike default_rng((seed, step)), keeps step i's draws
        # apart from those of scene i made with the same seed
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(step,)))
        source_index = int(rng.integers(self.n_train_source))
        target_index = int(rng.integers(self.bundle.n_target))
        source = self.bundle.source(source_index)
        target_image = self.bundle.target_image(target_index)

        pseudo = pseudo_label(self.teacher, target_image)
        subset = mixing.sample_class_subset(source.labels, rng)
        mixed = mixing.classmix(source, target_image, pseudo, subset)
        mixed = mixing.augment_mixed(mixed, rng)

        # built in the kernels' dtype: assigning rounds as astype does
        dtype = self.student.params["backbone.conv1"].data.dtype
        batch = np.empty((2, *source.image.shape), dtype)
        batch[0], batch[1] = source.image, mixed.image
        labels = np.stack([source.labels, mixed.labels])
        # only the label maps go on, so the float64 images are freed here
        del source, target_image, mixed
        out = md.forward(self.student, Tensor(batch))
        loss_seg = tc.add(
            tc.softmax_cross_entropy(tc.take_batch(out.logits, 0), labels[0:1]),
            tc.softmax_cross_entropy(tc.take_batch(out.logits, 1), labels[1:2]))

        if cfg.alpha > 0.0:
            # one term over the batch; its mean over both images' cells,
            # doubled, is the sum of the two images' means
            dap_mean = dap_term(self.student, out.projected_features, labels,
                                self.embeddings, cfg.interp)
            loss_overall = tc.add(loss_seg, tc.scale(dap_mean, 2 * cfg.alpha))
            l_dap = 2 * dap_mean.item()
        else:
            loss_overall, l_dap = loss_seg, 0.0

        # the graph keeps what its backward reads; the forward's other arrays go now
        del batch, out
        lr_t = descend(self.optimizer, loss_overall, step, cfg.steps)
        md.ema_update(self.teacher, self.student, cfg.ema_lambda)

        pseudo_acc = float("nan")
        if cfg.pseudo_acc_diagnostic:
            hidden = self.bundle.target_hidden_labels(target_index)
            pseudo_acc = float((pseudo == hidden).mean())

        self.step_index += 1
        return StepRecord(step, loss_seg.item(), l_dap, loss_overall.item(),
                          pseudo_acc, lr_t)

    # -- train-state persistence -----------------------------------------------

    def _state_arrays(self) -> dict:
        arrays = {"step": np.array([self.step_index], dtype=np.float64),
                  "best_step": np.array([self.best_step], dtype=np.float64),
                  "best_score": np.array([self.best_score], dtype=np.float64)}
        for name, p in self.student.named():
            arrays[f"student.{name}"] = p.data
        for name, p in self.teacher.named():
            arrays[f"teacher.{name}"] = p.data
        for name, v in self.optimizer.velocity.items():
            arrays[f"velocity.{name}"] = v
        return arrays

    def save_train_state(self, ckpt_path) -> None:
        md.save_checkpoint(ckpt_path, self._state_arrays())

    def load_train_state(self, ckpt_path) -> None:
        arrays = md.load_checkpoint(ckpt_path)
        expected = self._state_arrays()
        missing = [name for name in expected if name not in arrays]
        if missing:
            raise InputError(f"{ckpt_path}: train state lacks {', '.join(missing)}")
        for name, want in expected.items():
            if arrays[name].shape != want.shape:
                raise InputError(f"{ckpt_path}: record {name} has shape "
                                 f"{arrays[name].shape}, expected {want.shape}")
            # best_score is -inf before the first held-out check, and NaN
            # without a held-out split
            if name != "best_score" and not md.finite_in(arrays[name], want.dtype):
                raise InputError(f"{ckpt_path}: record {name} holds a value that is not "
                                 f"finite in {want.dtype}")
        self.step_index = int(arrays["step"][0])
        self.best_step = int(arrays["best_step"][0])
        self.best_score = float(arrays["best_score"][0])
        # each record takes its live array's dtype; float32 -> <f8 -> float32
        # is exact, so a resumed run continues bit for bit
        for name, p in self.student.named():
            p.data = arrays[f"student.{name}"].astype(p.data.dtype)
        for name, p in self.teacher.named():
            p.data = arrays[f"teacher.{name}"].astype(p.data.dtype)
        for name, v in self.optimizer.velocity.items():
            self.optimizer.velocity[name] = arrays[f"velocity.{name}"].astype(v.dtype)


# ---------------------------------------------------------------------------
# full runs


@dataclass
class RunResult:
    best_step: int
    final_miou: float
    best_miou: float


def _latest_state(checkpoint_dir: Path):
    """The newest `state_*.ckpt`, or None."""
    return max(checkpoint_dir.glob("state_*.ckpt"), default=None)


def prepare_run(config: TrainConfig, bundle: DatasetBundle) -> Trainer:
    """The run's Trainer, built once every input check has passed, before
    anything is written: every source, target-train and test item is read
    and checked, and with pseudo_acc_diagnostic every sealed label too."""
    if bundle.n_test < 1:
        raise InputError(f"n_test is {bundle.n_test}: the dataset has no test "
                         "images to evaluate")
    trainer = Trainer(config, bundle)
    for split in ("source", "target_image", "test") + (
            ("target_hidden_labels",) if config.pseudo_acc_diagnostic else ()):
        bundle.check_split(split)
    return trainer


def run(config: TrainConfig, bundle: DatasetBundle, out_dir) -> RunResult:
    """Train for config.steps, checkpointing every checkpoint_every steps,
    then evaluate the final and best-on-heldout students on the target test
    split. All artifacts land under out_dir and are listed in its manifest.

    config.txt records the run's inputs: the config, the dataset checksum
    and the prior vectors' sha256. A run whose out_dir holds the same record
    continues from the newest train state there; any other first deletes
    those states. The train state is the run's one commit point: each
    checkpoint writes it last, and it records the best held-out step and
    score, so a killed run continues without reading any other file for
    them. prepare_run checks the inputs before the first step, and a
    rejected run leaves no directory behind.
    The bundle keeps the items' bytes; each evaluation decodes its split
    afresh, one image at a time. When the best held-out step is the last,
    the final student's test metrics serve as the best's too."""
    t_setup = time.perf_counter()
    trainer = prepare_run(config, bundle)

    out = Path(out_dir)
    config_path = out / "config.txt"
    prior_sha256 = hashlib.sha256(trainer.embeddings.vectors.tobytes()).hexdigest()
    snapshot = (f"{config_to_text(config)}# dataset_checksum {bundle.dataset_checksum()}\n"
                f"# prior_sha256 {prior_sha256}\n")
    checkpoints = out / "checkpoints"
    checkpoints.mkdir(parents=True, exist_ok=True)
    if not (config_path.exists()
            and read_input(config_path, "run record") == snapshot.encode()):
        # the old states go before the new record, so no kill can pair them
        for stale in checkpoints.glob("state_*.ckpt"):
            stale.unlink()
        config_path.write_text(snapshot, encoding="utf-8")
    latest = _latest_state(checkpoints)
    if latest is not None:
        trainer.load_train_state(latest)

    best_path = out / "best.ckpt"
    metrics_path = out / "metrics.csv"
    start_step = trainer.step_index
    if start_step == 0:
        metrics_path.write_text(METRICS_HEADER + "\n", encoding="utf-8")
    else:
        # drop any step lines past the checkpoint so the log matches an
        # uninterrupted run exactly
        lines = read_input_text(metrics_path, "the step log").splitlines()
        if len(lines) < start_step + 1:
            raise InputError(f"{metrics_path}: the step log ends before step "
                             f"{start_step}, where the train state resumes")
        md.write_atomic(metrics_path, "\n".join(lines[:start_step + 1]).encode() + b"\n")

    def checkpoint(step_done: int) -> None:
        """Save best.ckpt when the student beats the best held-out score so
        far (without a held-out split the final student is the best), then
        the train state."""
        heldout = map(bundle.source, range(trainer.n_train_source, bundle.n_source))
        score = (analysis.evaluate(trainer.student, heldout).miou
                 if config.heldout_source else float("nan"))
        unchosen_at_end = step_done == config.steps and trainer.best_step < 0
        if score > trainer.best_score or unchosen_at_end:
            trainer.best_step, trainer.best_score = step_done, score
            md.save_checkpoint(best_path, trainer.student.data_arrays())
        trainer.save_train_state(checkpoints / f"state_{step_done:06d}.ckpt")

    t_train_start = time.perf_counter()
    with metrics_path.open("a", encoding="utf-8") as log:
        for step in range(start_step, config.steps):
            try:
                record = trainer.train_step()
            except NumericError as failure:
                dump = out / "numeric_failure.txt"
                dump.write_text(f"{failure}\nstep={step}\n", encoding="utf-8")
                raise
            log.write(record.csv_line())
            done = step + 1
            if config.checkpoint_every and done % config.checkpoint_every == 0 \
                    and done < config.steps:
                log.flush()  # the log must hold every step the state records
                checkpoint(done)
    t_train = time.perf_counter() - t_train_start

    checkpoint(config.steps)
    md.save_checkpoint(out / "student_final.ckpt", trainer.student.data_arrays())

    t_eval_start = time.perf_counter()
    test_split = range(bundle.n_test)
    final_metrics = analysis.evaluate(trainer.student, map(bundle.test, test_split))
    if trainer.best_step == config.steps:
        # best.ckpt holds the final student: float32 -> <f8 -> float32 is exact
        best_metrics = final_metrics
    else:
        best_state = md.state_from_arrays(md.load_checkpoint(best_path), "student")
        best_metrics = analysis.evaluate(best_state, map(bundle.test, test_split))
    for tag, metrics in (("final", final_metrics), ("best", best_metrics)):
        analysis.write_metrics_csv(metrics, out / f"eval_{tag}_metrics.csv")
        analysis.write_confusion_csv(metrics.confusion, out / f"eval_{tag}_confusion.csv")
    t_eval = time.perf_counter() - t_eval_start

    write_run_manifest(out, "train", {
        "dataset_checksum": bundle.dataset_checksum(),
        "seed": config.seed,
        "steps": config.steps,
        "final_miou": repr(final_metrics.miou),
        "best_miou": repr(best_metrics.miou),
        "best_step": trainer.best_step,
        "wallclock.setup": f"{t_train_start - t_setup:.3f}",
        "wallclock.train": f"{t_train:.3f}",
        "wallclock.eval": f"{t_eval:.3f}",
    })

    return RunResult(trainer.best_step, final_metrics.miou, best_metrics.miou)
