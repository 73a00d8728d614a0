"""Self-training loop: teacher pseudo-labels, class-guided mixing, the
segmentation loss, the optional prior-alignment loss, SGD with polynomial
decay, and an EMA teacher. Bookkeeping (checkpoints, CSV step log, run
manifest) lives here too."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .classes import NUM_CLASSES
from .datagen import DatasetBundle, write_run_manifest
from .errors import InputError, NumericError
from . import analysis
from . import mixing
from . import model as md
from . import tensor as tc
from .priors import EmbeddingSet, downsample_embedding, make_embeddings, proj
from .tensor import Tensor


@dataclass
class TrainConfig:
    """Every field is addressable in a key = value config file; the EMA
    decay is written there under the key `lambda`."""

    alpha: float = 1.0
    ema_lambda: float = 0.99
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 5e-4
    head_lr_multiplier: float = 10.0
    projector_lr_multiplier: float = 0.5
    steps: int = 2000
    prior: str = "onehot"             # onehot | random | file
    vector_file: Optional[str] = None
    prior_dim: int = 300              # used by random priors
    interp: str = "bilinear"          # bilinear | nearest
    seed: int = 0
    jitter_strength: float = 0.2
    blur_sigma: float = 0.5
    checkpoint_every: int = 500
    heldout_source: int = 8
    lr_power: float = 0.9
    pseudo_acc_diagnostic: bool = False

    def __post_init__(self):
        if self.alpha < 0:
            raise InputError("alpha must be >= 0")
        if not 0.0 <= self.ema_lambda <= 1.0:
            raise InputError("lambda must lie in [0, 1]")
        if self.steps < 0:
            raise InputError("steps must be >= 0")


@dataclass
class StepRecord:
    step: int
    l_seg: float
    l_dap: float
    l_overall: float
    pseudo_acc: float
    lr: float


METRICS_HEADER = "step,l_seg,l_dap,l_overall,pseudo_acc,lr"

_CONFIG_FILE_KEYS = {"ema_lambda": "lambda"}
_CONFIG_FIELD_FOR_KEY = {v: k for k, v in _CONFIG_FILE_KEYS.items()}


def config_to_text(config: TrainConfig) -> str:
    lines = []
    for field in fields(TrainConfig):
        key = _CONFIG_FILE_KEYS.get(field.name, field.name)
        value = getattr(config, field.name)
        lines.append(f"{key} = {'' if value is None else value}")
    return "\n".join(lines) + "\n"


def parse_config(path) -> TrainConfig:
    """Plain-text key = value config, one per line, # comments."""
    known = {f.name for f in fields(TrainConfig)}
    kwargs = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        name = _CONFIG_FIELD_FOR_KEY.get(key, key)
        if name not in known:
            raise InputError(f"{path}: unknown config key {name!r}")
        try:
            kwargs[name] = _coerce(name, value)
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return TrainConfig(**kwargs)


def _coerce(name: str, text: str):
    if text == "":
        return None
    if name in ("steps", "seed", "prior_dim", "checkpoint_every", "heldout_source"):
        return int(text)
    if name in ("prior", "vector_file", "interp"):
        return text
    if name == "pseudo_acc_diagnostic":
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise InputError(f"bad boolean for {name}: {text!r}")
    return float(text)


# ---------------------------------------------------------------------------
# single training concerns


def pseudo_label(teacher: md.ModelState, target_image: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of the teacher's logits, evaluated without
    gradients; ties resolve to the lower class id."""
    return analysis.predict_labels(teacher, target_image)


def dap_term(student: md.ModelState, projected: Tensor, labels: np.ndarray,
             embeddings: EmbeddingSet, interp: str) -> Tensor:
    """Distance between one image's projected visual features [1,P,h,w] and
    the projected embedding map built from `labels`, down-sampled to the
    features' h x w. Gradients reach the backbone and both projectors; the
    embedding vectors stay frozen."""
    fh, fw = projected.shape[2:]
    emb = downsample_embedding(proj(labels, embeddings), fh, fw, interp)
    return tc.sum_squared_error(projected, md.project_prior(student, emb))


SUPERVISED_LR = 0.02


def train_supervised(items, steps: int, seed: int) -> md.ModelState:
    """Plain cross-entropy training on a labeled split; used for oracle and
    source-only control models. Fixed recipe: base lr 0.02 with a 10x head
    rate, momentum 0.9, weight decay 5e-4, polynomial decay power 0.9."""
    state = md.init_student(seed)
    optimizer = tc.SGD(state.params, lr=SUPERVISED_LR, momentum=0.9,
                       weight_decay=5e-4, lr_multipliers={"head.": 10.0})
    order = np.random.default_rng(seed)
    for step in range(steps):
        item = items[int(order.integers(len(items)))]
        tc.reset_gradients(state.params.values())
        out = md.forward(state, Tensor(item.image[None]))
        loss = tc.softmax_cross_entropy(out.logits, item.labels[None])
        tc.backward(loss)
        optimizer.step(tc.polynomial_lr(SUPERVISED_LR, step, steps, 0.9))
    return state


# ---------------------------------------------------------------------------
# the training loop


class Trainer:
    """Owns the student/teacher pair, the optimizer, and the split rng
    streams (data order, subset sampling, augmentation). Streams are
    separate so toggling the prior loss cannot desynchronize a baseline
    comparison."""

    def __init__(self, config: TrainConfig, bundle: DatasetBundle):
        self.config = config
        self.bundle = bundle

        self.embeddings = make_embeddings(
            config.prior, NUM_CLASSES, dim=config.prior_dim,
            seed=config.seed + 1_000_000_007, vector_file=config.vector_file)
        self.student = md.init_student(config.seed, NUM_CLASSES, self.embeddings.dim)
        self.teacher = md.make_teacher(self.student)
        # projectors learn below the base rate and skip weight decay: the
        # prior anchors otherwise contract toward zero and the alignment
        # loss degenerates before it can shape the features
        self.optimizer = tc.SGD(
            self.student.params, lr=config.lr, momentum=config.momentum,
            weight_decay=config.weight_decay,
            lr_multipliers={"head.": config.head_lr_multiplier,
                            "gvi.": config.projector_lr_multiplier,
                            "gpr.": config.projector_lr_multiplier},
            weight_decay_exempt=("gvi.", "gpr."))

        root = np.random.SeedSequence(config.seed)
        order_ss, subset_ss, augment_ss = root.spawn(3)
        self.order_rng = np.random.default_rng(order_ss)
        self.subset_rng = np.random.default_rng(subset_ss)
        self.augment_rng = np.random.default_rng(augment_ss)

        if config.heldout_source >= bundle.n_source:
            raise InputError("heldout_source leaves no training images")
        self.n_train_source = bundle.n_source - config.heldout_source
        self.step_index = 0

    # -- data ----------------------------------------------------------------

    def heldout_items(self):
        return [self.bundle.source(i)
                for i in range(self.n_train_source, self.bundle.n_source)]

    # -- one optimization step -------------------------------------------------

    def train_step(self) -> StepRecord:
        cfg = self.config
        step = self.step_index

        source_index = int(self.order_rng.integers(self.n_train_source))
        target_index = int(self.order_rng.integers(self.bundle.n_target))
        source = self.bundle.source(source_index)
        target_image = self.bundle.target_image(target_index)

        pseudo = pseudo_label(self.teacher, target_image)
        subset = mixing.sample_class_subset(source.labels, self.subset_rng)
        mixed = mixing.classmix(source, target_image, pseudo, subset)
        mixed = mixing.augment_mixed(mixed, self.augment_rng,
                                     cfg.jitter_strength, cfg.blur_sigma)

        batch = Tensor(np.stack([source.image, mixed.image]))
        out = md.forward(self.student, batch)
        loss_seg = tc.add(
            tc.softmax_cross_entropy(tc.take_batch(out.logits, 0), source.labels[None]),
            tc.softmax_cross_entropy(tc.take_batch(out.logits, 1), mixed.labels[None]))

        if cfg.alpha > 0.0:
            loss_dap = tc.add(
                dap_term(self.student, tc.take_batch(out.projected_features, 0),
                         source.labels, self.embeddings, cfg.interp),
                dap_term(self.student, tc.take_batch(out.projected_features, 1),
                         mixed.labels, self.embeddings, cfg.interp))
            loss_overall = tc.add(loss_seg, tc.scale(loss_dap, cfg.alpha))
        else:
            loss_dap = None
            loss_overall = loss_seg

        if not loss_overall.is_finite():
            raise NumericError(f"non-finite loss at step {step}")

        lr_t = tc.polynomial_lr(cfg.lr, step, cfg.steps, cfg.lr_power)
        tc.reset_gradients(self.student.params.values())
        tc.backward(loss_overall)
        self.optimizer.step(lr_t)
        md.ema_update(self.teacher, self.student, cfg.ema_lambda)

        pseudo_acc = float("nan")
        if cfg.pseudo_acc_diagnostic:
            hidden = self.bundle.target_hidden_labels(target_index)
            pseudo_acc = float((pseudo == hidden).mean())

        self.step_index += 1
        return StepRecord(step, loss_seg.item(),
                          loss_dap.item() if loss_dap is not None else 0.0,
                          loss_overall.item(), pseudo_acc, lr_t)

    # -- train-state persistence -----------------------------------------------

    def save_train_state(self, ckpt_path, rng_path) -> None:
        arrays = {}
        for name, p in self.student.named():
            arrays[f"student.{name}"] = p.data
        for name, p in self.teacher.named():
            arrays[f"teacher.{name}"] = p.data
        for name, v in self.optimizer.velocity.items():
            arrays[f"velocity.{name}"] = v
        md.save_checkpoint(ckpt_path, arrays)
        states = {
            "step": self.step_index,
            "order": self.order_rng.bit_generator.state,
            "subset": self.subset_rng.bit_generator.state,
            "augment": self.augment_rng.bit_generator.state,
        }
        md.write_atomic(rng_path, json.dumps(states).encode("utf-8"))

    def load_train_state(self, ckpt_path, rng_path) -> None:
        arrays = md.load_checkpoint(ckpt_path)
        for name, p in self.student.named():
            p.data = arrays[f"student.{name}"]
        for name, p in self.teacher.named():
            p.data = arrays[f"teacher.{name}"]
        for name in self.optimizer.velocity:
            self.optimizer.velocity[name] = arrays[f"velocity.{name}"]
        states = json.loads(Path(rng_path).read_text(encoding="utf-8"))
        self.step_index = int(states["step"])
        for rng, key in ((self.order_rng, "order"), (self.subset_rng, "subset"),
                         (self.augment_rng, "augment")):
            rng.bit_generator.state = states[key]


# ---------------------------------------------------------------------------
# full runs


@dataclass
class RunResult:
    final_metrics: analysis.Metrics
    best_metrics: analysis.Metrics
    best_step: int
    final_miou: float
    best_miou: float
    out_dir: Path


def _latest_state(checkpoint_dir: Path):
    candidates = sorted(checkpoint_dir.glob("state_*.ckpt"))
    if not candidates:
        return None
    latest = candidates[-1]
    rng_path = latest.with_suffix(".rng.json")
    return (latest, rng_path) if rng_path.exists() else None


def run(config: TrainConfig, bundle: DatasetBundle, out_dir,
        resume: bool = False) -> RunResult:
    """Train for config.steps, checkpointing every checkpoint_every steps,
    then evaluate the final and best-on-heldout students on the target test
    split. All artifacts land under out_dir and are listed in its manifest."""
    t_setup = time.perf_counter()
    out = Path(out_dir)
    checkpoints = out / "checkpoints"
    checkpoints.mkdir(parents=True, exist_ok=True)

    config_path = out / "config.txt"
    snapshot = config_to_text(config)
    if resume and config_path.exists() and config_path.read_text() != snapshot:
        raise InputError("resume rejected: config differs from the checkpointed run")
    config_path.write_text(snapshot, encoding="utf-8")

    trainer = Trainer(config, bundle)
    heldout = trainer.heldout_items()

    best_path = out / "best.ckpt"
    best_file = out / "best.txt"
    metrics_path = out / "metrics.csv"
    best_step, best_score = -1, -np.inf

    start_step = 0
    if resume:
        latest = _latest_state(checkpoints)
        if latest is not None:
            trainer.load_train_state(*latest)
            start_step = trainer.step_index
            if best_file.exists():
                parts = best_file.read_text().split()
                best_step, best_score = int(parts[0]), float(parts[1])
    if start_step == 0:
        metrics_path.write_text(METRICS_HEADER + "\n", encoding="utf-8")
    else:
        # drop any step lines past the checkpoint so the log matches an
        # uninterrupted run exactly
        kept = metrics_path.read_text(encoding="utf-8").splitlines()[:start_step + 1]
        metrics_path.write_text("\n".join(kept) + "\n", encoding="utf-8")

    def heldout_score() -> float:
        if not heldout:
            return float("nan")
        return analysis.evaluate(trainer.student, heldout).miou

    def consider_best(step_done: int) -> None:
        nonlocal best_step, best_score
        score = heldout_score()
        if heldout and (score > best_score):
            best_step, best_score = step_done, score
            md.save_checkpoint(best_path, trainer.student.data_arrays())
            best_file.write_text(f"{best_step} {best_score!r}\n", encoding="utf-8")

    t_train_start = time.perf_counter()
    with metrics_path.open("a", encoding="utf-8") as log:
        for step in range(start_step, config.steps):
            try:
                record = trainer.train_step()
            except NumericError as failure:
                dump = out / "numeric_failure.txt"
                dump.write_text(f"{failure}\nstep={step}\n", encoding="utf-8")
                raise
            log.write(f"{record.step},{record.l_seg!r},{record.l_dap!r},"
                      f"{record.l_overall!r},{record.pseudo_acc!r},{record.lr!r}\n")
            done = step + 1
            if config.checkpoint_every and done % config.checkpoint_every == 0 \
                    and done < config.steps:
                state_path = checkpoints / f"state_{done:06d}.ckpt"
                trainer.save_train_state(state_path, state_path.with_suffix(".rng.json"))
                consider_best(done)
    t_train = time.perf_counter() - t_train_start

    final_path = out / "student_final.ckpt"
    md.save_checkpoint(final_path, trainer.student.data_arrays())
    state_path = checkpoints / f"state_{config.steps:06d}.ckpt"
    trainer.save_train_state(state_path, state_path.with_suffix(".rng.json"))
    consider_best(config.steps)
    if best_step < 0:  # no heldout split: the final model is the best model
        best_step = config.steps
        md.save_checkpoint(best_path, trainer.student.data_arrays())
        best_file.write_text(f"{best_step} nan\n", encoding="utf-8")

    t_eval_start = time.perf_counter()
    test_items = [bundle.test(i) for i in range(bundle.n_test)]
    final_metrics = analysis.evaluate(trainer.student, test_items)
    best_state = md.state_from_arrays(md.load_checkpoint(best_path), "student")
    best_metrics = analysis.evaluate(best_state, test_items)
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
        "best_step": best_step,
        "wallclock.setup": f"{t_train_start - t_setup:.3f}",
        "wallclock.train": f"{t_train:.3f}",
        "wallclock.eval": f"{t_eval:.3f}",
    })

    return RunResult(final_metrics, best_metrics, best_step,
                     final_metrics.miou, best_metrics.miou, out)
