"""Tiny segmentation network: a 3-block convolutional backbone at 1/4
resolution, a 1x1 segmentation head with bilinear up-sampling, and the two
1x1 projectors that map visual features and prior embeddings into a common
space."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classes import NUM_CLASSES
from .errors import DimensionError, InputError
from . import tensor as tc
from .tensor import Tensor

FEATURE_CHANNELS = 32
COMMON_CHANNELS = 32

# Projector weights start small so the alignment loss begins at the same
# order of magnitude as the segmentation loss instead of swamping it.
PROJECTOR_INIT_SCALE = 0.2

CHECKPOINT_MAGIC = b"DAPLCKP1"


@dataclass
class ModelState:
    """Named parameter tensors plus a student/teacher role tag. Teacher
    parameters never require gradients."""

    params: dict
    role: str = "student"

    def named(self):
        return self.params.items()

    def data_arrays(self) -> dict:
        return {name: p.data for name, p in self.params.items()}


@dataclass
class ForwardOutput:
    features: Tensor            # [N,F,H/4,W/4]
    logits: Tensor              # [N,C,H,W]
    projected_features: Tensor  # [N,P,H/4,W/4]; None when projection skipped


def _he_init(rng: np.random.Generator, shape) -> np.ndarray:
    fan_in = shape[1] * shape[2] * shape[3]
    return rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)


def init_student(seed: int, num_classes: int = NUM_CLASSES,
                 prior_dim: int = NUM_CLASSES) -> ModelState:
    """Fresh student parameters; the backbone halves resolution twice."""
    rng = np.random.default_rng(seed)
    shapes = {
        "backbone.conv1": (16, 3, 3, 3),
        "backbone.conv2": (32, 16, 3, 3),
        "backbone.conv3": (FEATURE_CHANNELS, 32, 3, 3),
        "head.conv": (num_classes, FEATURE_CHANNELS, 1, 1),
        "gvi.conv": (COMMON_CHANNELS, FEATURE_CHANNELS, 1, 1),
        "gpr.conv": (COMMON_CHANNELS, prior_dim, 1, 1),
    }
    params = {}
    for name, shape in shapes.items():
        weight = _he_init(rng, shape)
        if name.startswith(("gvi.", "gpr.")):
            weight *= PROJECTOR_INIT_SCALE
        params[name] = Tensor(weight, requires_grad=True)
    return ModelState(params, role="student")


def make_teacher(student: ModelState) -> ModelState:
    """Teacher starts as a frozen copy of the student."""
    params = {name: Tensor(p.data.copy(), requires_grad=False)
              for name, p in student.named()}
    return ModelState(params, role="teacher")


def forward(state: ModelState, image: Tensor, project: bool = True) -> ForwardOutput:
    """Backbone (stride pattern 1,2,2) -> features; 1x1 head up-sampled to
    input resolution -> logits; 1x1 projection of the features (skippable
    for inference paths that only want logits)."""
    n, c, h, w = image.data.shape
    if c != 3:
        raise DimensionError(f"expected 3 input channels, got {c}")
    if h % 4 or w % 4:
        raise DimensionError(f"input size {h}x{w} must be divisible by 4")
    p = state.params
    x = tc.relu(tc.conv2d(image, p["backbone.conv1"], stride=1, padding=1))
    x = tc.relu(tc.conv2d(x, p["backbone.conv2"], stride=2, padding=1))
    features = tc.relu(tc.conv2d(x, p["backbone.conv3"], stride=2, padding=1))
    logits = tc.bilinear_resize(tc.conv2d(features, p["head.conv"]), h, w)
    projected = tc.conv2d(features, p["gvi.conv"]) if project else None
    return ForwardOutput(features, logits, projected)


def project_prior(state: ModelState, embedding_map: Tensor) -> Tensor:
    """Map a [N,D,h,w] embedding map into the common space."""
    d = embedding_map.data.shape[1]
    expected = state.params["gpr.conv"].data.shape[1]
    if d != expected:
        raise DimensionError(
            f"embedding map has {d} channels but the projector expects {expected}")
    return tc.conv2d(embedding_map, state.params["gpr.conv"])


def ema_update(teacher: ModelState, student: ModelState, decay: float) -> None:
    """teacher <- decay * teacher + (1 - decay) * student, in place."""
    if not 0.0 <= decay <= 1.0:
        raise InputError(f"ema decay {decay} outside [0, 1]")
    t_names, s_names = set(teacher.params), set(student.params)
    if t_names != s_names:
        raise InputError("teacher/student parameter names differ")
    for name, tp in teacher.named():
        sp = student.params[name]
        if tp.data.shape != sp.data.shape:
            raise InputError(f"shape mismatch for {name}")
        tp.data = decay * tp.data + (1.0 - decay) * sp.data


# ---------------------------------------------------------------------------
# checkpoints: 8-byte magic, then little-endian records of
# (u32 name length, name bytes, u32 rank, u32 dims..., float64 payload)


def write_atomic(path, data: bytes) -> None:
    """Write `data` to a temporary sibling `.<name>.tmp`, then rename it over
    `path`: readers see the old file or the new one, never a partial write,
    and the temporary name matches no checkpoint glob."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, arrays: dict) -> None:
    blob = bytearray(CHECKPOINT_MAGIC)
    for name, arr in arrays.items():
        encoded = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        blob += struct.pack("<I", len(encoded))
        blob += encoded
        blob += struct.pack("<I", arr.ndim)
        blob += struct.pack(f"<{arr.ndim}I", *arr.shape)
        blob += arr.astype("<f8").tobytes()
    write_atomic(path, bytes(blob))


def load_checkpoint(path) -> dict:
    try:
        blob = Path(path).read_bytes()
    except OSError as failure:
        raise InputError(f"{path}: cannot read checkpoint ({failure.strerror})") from None
    if blob[:8] != CHECKPOINT_MAGIC:
        raise InputError(f"{path}: not a checkpoint file")
    arrays = {}
    offset = 8
    try:
        while offset < len(blob):
            (name_len,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            name = blob[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            dims = struct.unpack_from(f"<{rank}I", blob, offset)
            offset += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            offset += count * 8
            arrays[name] = arr.reshape(dims).astype(np.float64)
    except (struct.error, ValueError):
        raise InputError(f"{path}: truncated or corrupt checkpoint") from None
    return arrays


def state_from_arrays(arrays: dict, role: str) -> ModelState:
    requires_grad = role == "student"
    return ModelState({name: Tensor(arr, requires_grad=requires_grad)
                       for name, arr in arrays.items()}, role=role)
