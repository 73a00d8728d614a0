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
from .errors import DimensionError, InputError, read_input
from . import tensor as tc
from .tensor import Tensor

FEATURE_CHANNELS = 32
COMMON_CHANNELS = 32
# the backbone halves the resolution twice, so each input side is a multiple of 4
INPUT_SIZE_MULTIPLE = 4

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


def parameter_shapes(prior_dim: int = NUM_CLASSES) -> dict:
    """Name -> kernel shape of every model parameter."""
    return {
        "backbone.conv1": (16, 3, 3, 3),
        "backbone.conv2": (32, 16, 3, 3),
        "backbone.conv3": (FEATURE_CHANNELS, 32, 3, 3),
        "head.conv": (NUM_CLASSES, FEATURE_CHANNELS, 1, 1),
        "gvi.conv": (COMMON_CHANNELS, FEATURE_CHANNELS, 1, 1),
        "gpr.conv": (COMMON_CHANNELS, prior_dim, 1, 1),
    }


def init_student(seed: int, prior_dim: int = NUM_CLASSES) -> ModelState:
    """Fresh float64 student parameters; the backbone halves resolution
    twice. The trainer runs them in float32 (`to_float32`)."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in parameter_shapes(prior_dim).items():
        weight = _he_init(rng, shape)
        if name.startswith(("gvi.", "gpr.")):
            weight *= PROJECTOR_INIT_SCALE
        params[name] = Tensor(weight, requires_grad=True)
    return ModelState(params, role="student")


def to_float32(state: ModelState) -> ModelState:
    """Round `state`'s parameters to float32 in place and return it. Every
    model the lab trains or loads runs in float32; a float32 -> float64 ->
    float32 checkpoint round trip is exact."""
    for p in state.params.values():
        p.data = p.data.astype(np.float32, copy=False)
    return state


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
    if h % INPUT_SIZE_MULTIPLE or w % INPUT_SIZE_MULTIPLE:
        raise DimensionError(f"input size {h}x{w} must be divisible by {INPUT_SIZE_MULTIPLE}")
    p = state.params
    x = tc.relu(tc.conv2d(image, p["backbone.conv1"], stride=1, padding=1))
    x = tc.relu(tc.conv2d(x, p["backbone.conv2"], stride=2, padding=1))
    features = tc.relu(tc.conv2d(x, p["backbone.conv3"], stride=2, padding=1))
    logits = tc.bilinear_resize(tc.conv2d(features, p["head.conv"]), h, w)
    projected = tc.conv2d(features, p["gvi.conv"]) if project else None
    return ForwardOutput(features, logits, projected)


def project_anchors(state: ModelState, vectors: np.ndarray) -> Tensor:
    """Map the prior's [C,D] class `vectors` into the common space, as a
    [P,C,1,1] kernel of the projector's dtype: the class anchors. The prior
    projector and the resize are both linear, so a 1x1 conv of an [N,C,h,w]
    grid of class fractions with the anchors is the projected prior map of
    those fractions, and no D-channel map is made. The projector's
    parameter is the conv's kernel, so its gradient flows back through the
    anchors."""
    c, d = vectors.shape
    kernel = state.params["gpr.conv"]
    expected = kernel.data.shape[1]
    if d != expected:
        raise DimensionError(
            f"embedding map has {d} channels but the projector expects {expected}")
    anchors = tc.conv2d(Tensor(vectors.T.reshape(1, d, c, 1)), kernel)  # [1,P,C,1]
    return tc.reshape(anchors, (anchors.shape[1], c, 1, 1))


def ema_update(teacher: ModelState, student: ModelState, decay: float) -> None:
    """teacher <- decay * teacher + (1 - decay) * student, written into the
    teacher's arrays, so a caller holding a teacher `p.data` sees the new
    values."""
    if not 0.0 <= decay <= 1.0:
        raise InputError(f"ema decay {decay} outside [0, 1]")
    t_names, s_names = set(teacher.params), set(student.params)
    if t_names != s_names:
        raise InputError("teacher/student parameter names differ")
    for name, tp in teacher.named():
        sp = student.params[name]
        if tp.data.shape != sp.data.shape:
            raise InputError(f"shape mismatch for {name}")
        tp.data *= decay
        tp.data += (1.0 - decay) * sp.data


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
    blob = read_input(path, "checkpoint")
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
            if name in arrays:
                raise InputError(f"{path}: record {name} is given twice")
            arrays[name] = arr.reshape(dims).astype(np.float64)
    except (struct.error, ValueError):
        raise InputError(f"{path}: truncated or corrupt checkpoint") from None
    return arrays


def finite_in(values: np.ndarray, dtype) -> bool:
    """Whether every value is finite and stays finite when cast to `dtype`."""
    return bool((np.abs(values) <= np.finfo(dtype).max).all())


def check_records(path, arrays: dict, expected: dict, exempt=()) -> None:
    """Reject `arrays` unless it holds exactly the records `expected` maps to
    (shape, dtype) pairs, each of its shape and, unless `exempt` names it,
    finite in its dtype. Every message names `path` and the record."""
    missing = sorted(expected.keys() - arrays.keys())
    unexpected = sorted(arrays.keys() - expected.keys())
    if missing or unexpected:
        raise InputError(f"{path}: missing {', '.join(missing) or 'none'}; "
                         f"unexpected {', '.join(unexpected) or 'none'}")
    for name, (shape, dtype) in expected.items():
        if arrays[name].shape != shape:
            raise InputError(f"{path}: record {name} has shape {arrays[name].shape}, "
                             f"expected {shape}")
        if name not in exempt and not finite_in(arrays[name], dtype):
            raise InputError(f"{path}: record {name} holds a value that is not finite "
                             f"in {np.dtype(dtype)}")


def state_from_arrays(arrays: dict, role: str, path="checkpoint") -> ModelState:
    """Float32 model parameters from checkpoint arrays, checked by
    `check_records`, whose messages name `path`. The prior width is read
    from `gpr.conv`, so a checkpoint trained with any prior loads."""
    gpr = np.shape(arrays.get("gpr.conv", ()))
    check_records(path, arrays, {name: (shape, np.float32) for name, shape in
                                 parameter_shapes(gpr[1] if len(gpr) > 1 else 0).items()})
    requires_grad = role == "student"
    return to_float32(ModelState({name: Tensor(arr, requires_grad=requires_grad)
                                  for name, arr in arrays.items()}, role=role))
