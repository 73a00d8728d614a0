"""Label-guided image mixing: paste the pixels of a random half of the
source image's classes onto a target image, mixing the label maps the same
way, then photometrically augment the mixed image."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .classes import IGNORE_ID
from .datagen import LabeledImage
from .errors import DimensionError, InputError


@dataclass
class MixedSample:
    image: np.ndarray          # [3,H,W]
    labels: np.ndarray         # [H,W]
    mask: np.ndarray           # [H,W] uint8, 1 where the source pixel won


def sample_class_subset(source_labels: np.ndarray, rng: np.random.Generator) -> frozenset:
    """Uniformly pick ceil(k/2) of the k distinct classes present in a uint8
    label map."""
    present = np.flatnonzero(np.bincount(source_labels.ravel(), minlength=256)[:IGNORE_ID])
    if present.size == 0:
        raise InputError("label map contains no valid class")
    take = math.ceil(present.size / 2)
    chosen = rng.choice(present, size=take, replace=False)
    return frozenset(int(c) for c in chosen)


def classmix(source: LabeledImage, target_image: np.ndarray,
             pseudo_labels: np.ndarray, subset) -> MixedSample:
    """Per-pixel mix: source wins where its label is in `subset`, the target
    (with its pseudo label) everywhere else. Ignore-labeled source pixels
    never win, so they cannot overwrite pseudo labels."""
    if source.image.shape != target_image.shape:
        raise DimensionError(f"image shapes differ: "
                             f"{source.image.shape} vs {target_image.shape}")
    if source.labels.shape != pseudo_labels.shape:
        raise DimensionError("label map shapes differ")
    if source.labels.shape != source.image.shape[1:]:
        raise DimensionError("source labels do not match image size")

    wins = np.zeros(256, dtype=bool)   # by uint8 label value
    wins[[c for c in subset if 0 <= c < IGNORE_ID]] = True
    mask = wins[source.labels]
    image = np.where(mask[None], source.image, target_image)
    labels = np.where(mask, source.labels, pseudo_labels).astype(source.labels.dtype)
    return MixedSample(image, labels, mask.astype(np.uint8))


# The fixed photometric augmentation of the mixed image, as in DACS: a
# brightness and contrast jitter, then a Gaussian blur.
JITTER_STRENGTH = 0.2
BLUR_SIGMA = 0.5

_BLUR_RADIUS = math.ceil(3.0 * BLUR_SIGMA)
BLUR_KERNEL = np.exp(-0.5 * (np.arange(-_BLUR_RADIUS, _BLUR_RADIUS + 1,
                                       dtype=np.float64) / BLUR_SIGMA) ** 2)
BLUR_KERNEL /= BLUR_KERNEL.sum()


def _blur(image: np.ndarray) -> np.ndarray:
    """Separable Gaussian blur with BLUR_KERNEL and clamped (edge-replicated)
    borders. Each axis pads by repeating its edge indices, then adds the
    weighted taps in kernel order into a zeroed sum."""
    out = image
    for axis in (1, 2):
        size = out.shape[axis]
        padded = out.take(np.clip(np.arange(-_BLUR_RADIUS, size + _BLUR_RADIUS), 0, size - 1),
                          axis=axis)
        acc = np.zeros_like(out)
        tap = np.empty_like(out)
        for k, weight in enumerate(BLUR_KERNEL):
            sl = [slice(None)] * 3
            sl[axis] = slice(k, k + size)
            np.multiply(weight, padded[tuple(sl)], out=tap)
            acc += tap
        out = acc
    return out


def augment_mixed(sample: MixedSample, rng: np.random.Generator) -> MixedSample:
    """Brightness/contrast jitter plus Gaussian blur on the image only;
    labels and mask are untouched."""
    brightness = rng.uniform(-JITTER_STRENGTH, JITTER_STRENGTH)
    contrast = 1.0 + rng.uniform(-JITTER_STRENGTH, JITTER_STRENGTH)
    image = sample.image - 0.5
    image *= contrast
    image += 0.5
    image += brightness
    np.clip(image, 0.0, 1.0, out=image)
    return replace(sample, image=_blur(image))
