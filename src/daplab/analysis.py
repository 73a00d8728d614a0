"""Evaluation and diagnostics: segmentation metrics, per-class feature
Gaussians, Monte-Carlo distribution-overlap scores, and relationship
matrices of normalized vectors."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .classes import CLASS_NAMES, IGNORE_ID, NUM_CLASSES
from .datagen import write_pgm
from .errors import DimensionError, InputError, read_input_text
from . import model as md
from . import tensor as tc
from .tensor import Tensor


@dataclass
class Metrics:
    per_class_iou: np.ndarray   # [C], nan for classes absent from ground truth
    miou: float                 # mean over classes present in ground truth
    confusion: np.ndarray       # [C,C] counts, rows = truth, cols = prediction


@dataclass
class ClassGaussian:
    class_id: int
    mean: np.ndarray            # [F]
    variance: np.ndarray        # [F] diagonal covariance (eps-floored)
    count: int


VARIANCE_FLOOR = 1e-6


def argmax_labels(logits: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of a [C,H,W] logit volume; exact ties resolve to the
    lower class id, so ±0.0 and equal infinities tie.

    It walks the class planes with one compare, one masked write and one
    running maximum each, about twice as fast as `np.argmax(axis=0)` on
    [6,64,64], with the same labels. A NaN logit turns the running maximum
    NaN; then the labels come from `np.argmax`, which picks a pixel's first
    NaN."""
    best = logits[0].copy()
    labels = np.zeros(best.shape, np.uint8)
    above = np.empty(best.shape, bool)
    for c in range(1, logits.shape[0]):
        np.greater(logits[c], best, out=above)
        np.putmask(labels, above, c)
        np.maximum(best, logits[c], out=best)
    if np.isnan(best).any():
        return np.argmax(logits, axis=0).astype(np.uint8)
    return labels


def predict_labels(state: md.ModelState, image: np.ndarray) -> np.ndarray:
    with tc.no_grad():
        logits = md.forward(state, Tensor(image[None]), project=False).logits.data[0]
    return argmax_labels(logits)


def confusion_from_pairs(truth: np.ndarray, prediction: np.ndarray) -> np.ndarray:
    valid = truth != IGNORE_ID
    t = truth[valid].astype(np.int64)
    p = prediction[valid].astype(np.int64)
    flat = np.bincount(t * NUM_CLASSES + p, minlength=NUM_CLASSES * NUM_CLASSES)
    return flat.reshape(NUM_CLASSES, NUM_CLASSES)


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    confusion = np.asarray(confusion, dtype=np.int64)
    c = confusion.shape[0]
    tp = np.diag(confusion).astype(np.float64)
    fp = confusion.sum(axis=0) - tp
    fn = confusion.sum(axis=1) - tp
    present = confusion.sum(axis=1) > 0
    denom = tp + fp + fn
    iou = np.full(c, np.nan)
    iou[present] = tp[present] / denom[present]  # present: denom >= fn + tp > 0
    miou = float(np.nanmean(iou[present])) if present.any() else float("nan")
    return Metrics(iou, miou, confusion)


def evaluate(state: md.ModelState, items: Iterable) -> Metrics:
    """Accumulate a confusion matrix over the labeled items of a split, which
    may come from a generator; sample order is irrelevant because only counts
    are kept."""
    confusion = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    count = 0
    for count, item in enumerate(items, 1):
        prediction = predict_labels(state, item.image)
        confusion += confusion_from_pairs(item.labels, prediction)
    if count == 0:
        raise InputError("cannot evaluate an empty split")
    return metrics_from_confusion(confusion)


# ---------------------------------------------------------------------------
# per-class feature statistics


def fit_class_gaussians(samples_by_class: dict) -> dict:
    """Diagonal-Gaussian fit per class from [count, F] sample blocks; empty
    blocks are marked absent (None), never zero."""
    stats = {}
    for c, blocks in samples_by_class.items():
        if not blocks:
            stats[c] = None
            continue
        block = np.concatenate(blocks, axis=0)
        variance = np.maximum(block.var(axis=0), VARIANCE_FLOOR)
        stats[c] = ClassGaussian(c, block.mean(axis=0), variance, block.shape[0])
    return stats


def class_feature_stats(state: md.ModelState, items: Sequence,
                        class_ids: Sequence[int]):
    """Fit a diagonal Gaussian to the backbone features of each class.

    Feature vectors are assigned to classes by the nearest-down-sampled
    ground-truth labels of each item. Returns ({class_id: ClassGaussian or
    None}, cosine table of the class means, NaN in an absent class's row and
    column).
    """
    collected = {c: [] for c in class_ids}
    for item in items:
        with tc.no_grad():
            features = md.forward(state, Tensor(item.image[None])).features.data[0]
        fh, fw = features.shape[1:]
        small = nearest_labels(item.labels, fh, fw)
        for c in class_ids:
            hit = small == c
            if hit.any():
                collected[c].append(features[:, hit].T)
    stats = fit_class_gaussians(collected)

    present = [i for i, c in enumerate(class_ids) if stats[c] is not None]
    cosine = np.full((len(class_ids), len(class_ids)), np.nan)
    if present:
        cosine[np.ix_(present, present)] = relationship_matrix(
            [stats[class_ids[i]].mean for i in present],
            [f"the feature mean of class {class_ids[i]}" for i in present])
    return stats, cosine


def nearest_labels(labels: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Down-sample a label map with the same nearest convention the tensor
    kernels use."""
    h, w = labels.shape
    ys = np.argmax(tc._resize_matrix(h, out_h, "nearest"), axis=1)
    xs = np.argmax(tc._resize_matrix(w, out_w, "nearest"), axis=1)
    return labels[ys[:, None], xs[None, :]]


# ---------------------------------------------------------------------------
# Monte-Carlo overlap of two fitted Gaussians


def _log_density(points: np.ndarray, g: ClassGaussian) -> np.ndarray:
    centered = points - g.mean
    centered *= centered
    centered /= g.variance
    return -0.5 * (centered.sum(axis=1)
                   + np.log(g.variance).sum()
                   + g.mean.size * np.log(2.0 * np.pi))


def gaussian_iou(a: ClassGaussian, b: ClassGaussian, n_samples: int,
                 rng: np.random.Generator) -> float:
    """Overlap score (r_a + r_b) / (2 - r_a - r_b), where r_a is the
    probability that a draw from A has higher density under B (exact density
    ties count one half, so identical Gaussians score 1). Densities are
    compared in log space.
    """
    if n_samples < 1000:
        raise InputError("gaussian_iou needs n_samples >= 1000")
    for g in (a, b):
        if not np.isfinite(g.variance).all() or (g.variance <= 0).any():
            raise InputError(f"degenerate covariance for class {g.class_id}")
        if not np.isfinite(g.mean).all():
            raise InputError(f"non-finite mean for class {g.class_id}")

    def rate(src: ClassGaussian, other: ClassGaussian) -> float:
        draws = rng.standard_normal((n_samples, src.mean.size))
        draws *= np.sqrt(src.variance)
        draws += src.mean
        lp_src = _log_density(draws, src)
        lp_other = _log_density(draws, other)
        return float(((lp_other > lp_src) + 0.5 * (lp_other == lp_src)).mean())

    r_a = rate(a, b)
    r_b = rate(b, a)
    return (r_a + r_b) / (2.0 - r_a - r_b)


# ---------------------------------------------------------------------------
# relationship matrix and rendering


def relationship_matrix(vectors: np.ndarray, names: Optional[Sequence[str]] = None
                        ) -> np.ndarray:
    """Inner products of row-normalized vectors: symmetric, unit diagonal."""
    vectors = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1)
    if (norms == 0).any():
        which = int(np.argmin(norms))
        label = names[which] if names else f"row {which}"
        raise InputError(f"zero vector for {label}")
    unit = vectors / norms[:, None]
    return unit @ unit.T


def emit_heatmap(matrix: np.ndarray, path) -> None:
    """Render a matrix as an 8-bit grayscale pixmap (values clipped to
    [-1, 1]) with a CSV sidecar holding the numbers at 6 decimals."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if not np.isfinite(matrix).all():
        raise InputError("heatmap values must be finite")
    clipped = np.clip(matrix, -1.0, 1.0)
    path = Path(path)
    write_pgm(path, np.rint((clipped + 1.0) / 2.0 * 255.0).astype(np.uint8))
    sidecar = path.with_suffix(path.suffix + ".csv")
    lines = [",".join(f"{v:.6f}" for v in row) for row in clipped]
    sidecar.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# CSV writers


def write_metrics_csv(metrics: Metrics, path) -> None:
    lines = ["class,iou"]
    for c, name in enumerate(CLASS_NAMES):
        value = metrics.per_class_iou[c]
        lines.append(f"{name},{'' if np.isnan(value) else f'{value:.6f}'}")
    lines.append(f"miou,{metrics.miou:.6f}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_confusion_csv(confusion: np.ndarray, path) -> None:
    lines = [",".join(str(int(v)) for v in row) for row in confusion]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_confusion_csv(path) -> np.ndarray:
    """The [C,C] table write_confusion_csv writes: NUM_CLASSES lines of NUM_CLASSES
    counts of 1-18 digits; any other is an InputError naming the file and line."""
    lines = read_input_text(path, "confusion CSV").splitlines()
    if len(lines) != NUM_CLASSES:
        raise InputError(f"{path}:{min(len(lines), NUM_CLASSES) + 1}: expected "
                         f"{NUM_CLASSES} rows, got {len(lines)}")
    for lineno, line in enumerate(lines, 1):
        cells = line.split(",")
        if len(cells) != NUM_CLASSES or not all(c.isdecimal() and len(c) <= 18 for c in cells):
            raise InputError(f"{path}:{lineno}: expected {NUM_CLASSES} counts split by "
                             f"commas, got {line!r}")
    return np.array([[int(c) for c in line.split(",")] for line in lines], dtype=np.int64)
