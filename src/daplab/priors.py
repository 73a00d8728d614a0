"""Fixed per-class embedding vectors and the label-to-embedding-map pipeline.

An EmbeddingSet assigns every class one frozen vector that carries no
information about either visual domain. `proj` pastes each pixel's class
vector into a dense map and `downsample_embedding` shrinks a map to feature
resolution. The training path pastes the one-hot class indicators and
shrinks them to each feature cell's class fractions. Each step projects the
class table once into the common space (`model.project_anchors`, one anchor
per class) and blends the anchors by those fractions, so it builds no map
as wide as the vectors, at any resolution. No gradient ever reaches the
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classes import CLASS_ALIASES, CLASS_NAMES, IGNORE_ID, NUM_CLASSES
from .errors import DimensionError, InputError, read_input_text
from .model import finite_in
from .tensor import Tensor, bilinear_resize, nearest_resize

# the built-in priors; any other prior value names a vector file
PRIOR_KINDS = ("onehot", "random")


@dataclass(frozen=True)
class EmbeddingSet:
    vectors: np.ndarray     # [NUM_CLASSES, dim] float64 in CLASS_NAMES order, write-protected

    def __post_init__(self):
        self.vectors.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def build_one_hot() -> EmbeddingSet:
    """Standard basis vectors, one per class."""
    return EmbeddingSet(np.eye(NUM_CLASSES))


def build_random(dim: int, seed: int) -> EmbeddingSet:
    """I.i.d. standard-normal rows, L2-normalized; deterministic per seed."""
    if dim < 2:
        raise InputError("random embeddings need dim >= 2")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((NUM_CLASSES, dim))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingSet(rows)


def load_vectors(path) -> EmbeddingSet:
    """Parse a word-vector text file and order rows by the class table.

    Format: first line `D <int>`, then one `<name> <v1> ... <vD>` line per
    word, UTF-8, LF endings. Class names match case-insensitively, with the
    alias table tried when the canonical name is absent. A word given twice
    (in any case) and a value that is not finite in float32, the model's
    dtype, are rejected. Vectors are used as-is, without re-normalization.
    """
    lines = read_input_text(path, "vector file").splitlines()
    if not lines:
        raise InputError(f"{path}: empty vector file")
    header = lines[0].split()
    if len(header) != 2 or header[0] != "D":
        raise InputError(f"{path}:1: expected header 'D <int>'")
    try:
        dim = int(header[1])
    except ValueError:
        raise InputError(f"{path}:1: bad dimension {header[1]!r}") from None
    if dim < 1:
        raise InputError(f"{path}:1: dimension must be at least 1, got {dim}")

    table, word_line = {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != dim + 1:
            raise InputError(f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}")
        word = parts[0].lower()
        if word in table:
            raise InputError(f"{path}:{lineno}: word {parts[0]!r} is already given "
                             f"on line {word_line[word]}")
        try:
            row = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise InputError(f"{path}:{lineno}: bad float value") from None
        if not finite_in(row, np.float32):
            raise InputError(f"{path}:{lineno}: a value is not finite in float32")
        table[word], word_line[word] = row, lineno

    rows = []
    for name in CLASS_NAMES:
        candidates = (name,) + CLASS_ALIASES.get(name, ())
        for candidate in candidates:
            if candidate.lower() in table:
                rows.append(table[candidate.lower()])
                break
        else:
            raise InputError(f"class {name} unresolved in {path}")
    return EmbeddingSet(np.stack(rows))


def save_vectors(path, embeddings: EmbeddingSet) -> None:
    """Inverse of load_vectors; float repr keeps the round trip exact."""
    lines = [f"D {embeddings.dim}"]
    for name, row in zip(CLASS_NAMES, embeddings.vectors):
        lines.append(name + " " + " ".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def proj(labels: np.ndarray, embeddings: EmbeddingSet) -> Tensor:
    """Paste each pixel's class vector into a dense [N,D,H,W] map.

    Ignore pixels carry the zero vector; any other id outside [0,
    NUM_CLASSES), negative ones included, is an InputError. The map is
    gathered sample by sample into one array. The result is a constant: no
    gradient flows into the embedding table. Training calls this with the
    one-hot set only: `trainer.dap_term` resizes the indicators to class
    fractions and blends the projected class anchors by them. Any set works
    here.
    """
    labels = np.asarray(labels)
    if labels.ndim == 2:
        labels = labels[None]
    if labels.ndim != 3:
        raise DimensionError("proj expects [H,W] or [N,H,W] labels")
    ignored = labels == IGNORE_ID
    idx = np.where(ignored, 0, labels).astype(np.int64)
    if idx.min() < 0 or idx.max() >= NUM_CLASSES:
        raise InputError("label id outside the embedding table")
    idx[ignored] = NUM_CLASSES
    # the ignore row last; columns, so each sample gathers channels-first
    table = np.vstack([embeddings.vectors, np.zeros((1, embeddings.dim))]).T.copy()
    grid = np.empty((len(idx), embeddings.dim) + idx.shape[1:])
    for sample, ids in zip(grid, idx):
        # the ids are checked, so take need not check them into a buffer
        np.take(table, ids, axis=1, out=sample, mode="clip")
    return Tensor(grid)


def downsample_embedding(embedding_map: Tensor, out_h: int, out_w: int,
                         mode: str = "bilinear") -> Tensor:
    """Shrink an embedding map to feature resolution.

    Bilinear blending lets sub-grid minority objects leave a trace in the
    output; nearest sampling can drop them entirely.
    """
    n, d, h, w = embedding_map.data.shape
    if out_h > h or out_w > w:
        raise DimensionError("downsample_embedding cannot enlarge the map")
    if mode == "bilinear":
        return bilinear_resize(embedding_map, out_h, out_w)
    if mode == "nearest":
        return nearest_resize(embedding_map, out_h, out_w)
    raise InputError(f"unknown interpolation mode {mode!r}")


def make_embeddings(prior: str, *, dim: int = 300, seed: int = 0) -> EmbeddingSet:
    """Config-level constructor: `prior` is one of PRIOR_KINDS, or else the
    path of a vector file."""
    if prior == "onehot":
        return build_one_hot()
    if prior == "random":
        return build_random(dim, seed)
    return load_vectors(prior)
