"""Procedural two-domain street-scene generator with exact pixel labels.

Scenes are composed from horizontal road/sidewalk strata with jittered
boundaries, a sky region with building blocks, and small bike/motorbike
objects that share one silhouette and differ only by a small rectangular
appendage. The domain gap between two DomainSpecs is carried by hue shift,
texture noise and class-frequency skew.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .classes import CLASS_NAMES, IGNORE_ID, NUM_CLASSES
from .errors import InputError, read_input, read_input_text
from .model import INPUT_SIZE_MULTIPLE

ROAD, SIDEWALK, SKY, BUILDING, BIKE, MOTORBIKE = range(NUM_CLASSES)

MANIFEST_NAME = "manifest.txt"
MANIFEST_FORMAT = "daplab-benchmark-v2"
RUN_MANIFEST_NAME = "run_manifest.txt"
MIN_SCENE_SIDE = 16       # the smallest scene height or width generate_scene renders
MAX_SCENE_SIDE = math.isqrt(np.iinfo(np.intp).max // 24)  # largest side of a float64 RGB array
# the label values a label map may hold, by uint8 value: the class ids and IGNORE_ID
_LABEL_VALUES = np.zeros(256, dtype=bool)
_LABEL_VALUES[:NUM_CLASSES] = _LABEL_VALUES[IGNORE_ID] = True


@dataclass(frozen=True)
class DomainSpec:
    """Everything that determines a domain's rendering distribution.

    Two specs with identical fields generate identical datasets.
    """

    palette: tuple            # NUM_CLASSES triples of floats in [0,1]
    texture_noise_sigma: float
    hue_shift: float          # radians, rotation of RGB around the gray axis
    class_frequency: tuple    # NUM_CLASSES weights, sum 1
    seed: int

    def __post_init__(self):
        if len(self.palette) != NUM_CLASSES or any(len(color) != 3 for color in self.palette):
            raise InputError(f"palette needs {NUM_CLASSES} colors of 3 values")
        if len(self.class_frequency) != NUM_CLASSES:
            raise InputError(f"class_frequency needs {NUM_CLASSES} weights")
        for name in ("palette", "texture_noise_sigma", "hue_shift", "class_frequency"):
            if not np.isfinite(getattr(self, name)).all():
                raise InputError(f"{name} holds a value that is not finite")
        freq = np.asarray(self.class_frequency, dtype=np.float64)
        if (freq < 0).any():
            raise InputError("class_frequency entries must be >= 0")
        if abs(float(freq.sum()) - 1.0) > 1e-9:
            raise InputError(f"class_frequency sums to {freq.sum()!r}, expected 1")
        if self.texture_noise_sigma < 0:
            raise InputError("texture_noise_sigma must be >= 0")


@dataclass
class LabeledImage:
    image: np.ndarray   # [3,H,W] float64 in [0,1]
    labels: np.ndarray  # [H,W] uint8, values < NUM_CLASSES or IGNORE_ID


# ---------------------------------------------------------------------------
# scene synthesis

# Shared silhouette: a thin top bar, a solid body, two wheels with an open
# arch between them. The motorbike fills the arch with an engine block;
# nothing else differs. Bar and appendage stay under 4 px tall so coarse
# down-sampling can miss them.
_BASE_SILHOUETTE = [
    "....####....",
    ".##########.",
    ".##########.",
    ".##########.",
    ".##########.",
    ".##########.",
    ".##########.",
    ".##########.",
    ".###....###.",
    ".###....###.",
]
_APPENDAGE = [(8, 4), (8, 5), (8, 6), (8, 7), (9, 4), (9, 5), (9, 6), (9, 7)]


def _object_template(class_id: int) -> np.ndarray:
    mask = np.array([[c == "#" for c in row] for row in _BASE_SILHOUETTE], dtype=bool)
    if class_id == MOTORBIKE:
        for r, c in _APPENDAGE:
            mask[r, c] = True
    return mask


_TEMPLATES = {BIKE: _object_template(BIKE), MOTORBIKE: _object_template(MOTORBIKE)}


def hue_rotation_matrix(theta: float) -> np.ndarray:
    """Rodrigues rotation of RGB vectors around the gray axis (1,1,1)/sqrt(3)."""
    k = np.array([[0, -1, 1], [1, 0, -1], [-1, 1, 0]]) / math.sqrt(3.0)
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def _smooth_jitter(rng: np.random.Generator, width: int, amplitude: int) -> np.ndarray:
    raw = rng.integers(-amplitude, amplitude + 1, size=width).astype(np.float64)
    kernel = np.ones(5) / 5.0
    padded = np.pad(raw, 2, mode="edge")
    return np.rint(np.convolve(padded, kernel, mode="valid")).astype(np.int64)


def generate_scene(spec: DomainSpec, h: int, w: int, rng: np.random.Generator) -> LabeledImage:
    """Draw one scene's label map and paint it with render. Labels are exact
    by construction."""
    if h < MIN_SCENE_SIDE or w < MIN_SCENE_SIDE:
        raise InputError(f"scenes need h, w >= {MIN_SCENE_SIDE}")
    freq = np.asarray(spec.class_frequency, dtype=np.float64)
    total = h * w

    # Band budget: objects live on the bottom strata, so their frequency mass
    # is added there and split proportionally between road and sidewalk.
    bottom_budget = freq[ROAD] + freq[SIDEWALK] + freq[BIKE] + freq[MOTORBIKE]
    strata = freq[ROAD] + freq[SIDEWALK]
    road_share = freq[ROAD] / strata if strata > 0 else 0.5
    bottom_rows = int(round(bottom_budget * h))
    bottom_rows = min(max(bottom_rows, 2), h - 2)
    road_rows = min(max(int(round(bottom_rows * road_share)), 1), bottom_rows - 1)
    horizon = h - bottom_rows

    labels = np.full((h, w), SKY, dtype=np.uint8)

    # buildings standing on the horizon line
    n_buildings = int(rng.integers(2, 5))
    edges = [0, *sorted(rng.choice(np.arange(1, w), size=n_buildings - 1, replace=False)), w]
    coverage = rng.uniform(0.6, 0.92)
    base_height = freq[BUILDING] * total / max(int(coverage * w), 1)
    for start, stop in zip(edges, edges[1:]):
        seg_w = stop - start
        b_w = max(int(round(seg_w * coverage)), 1)
        x0 = start + int(rng.integers(0, seg_w - b_w + 1))
        b_h = int(round(base_height * rng.uniform(0.8, 1.2)))
        b_h = min(max(b_h, 1), max(horizon - 1, 1))
        labels[horizon - b_h:horizon, x0:x0 + b_w] = BUILDING

    # sidewalk and road strata with jittered boundaries
    amplitude = max(1, h // 32)
    side_top = horizon + _smooth_jitter(rng, w, amplitude)
    road_top = (h - road_rows) + _smooth_jitter(rng, w, amplitude)
    side_top = np.clip(side_top, 0, h - 2)
    road_top = np.clip(road_top, side_top + 1, h - 1)
    rows = np.arange(h)[:, None]
    labels = np.where(rows >= road_top[None, :], ROAD,
                      np.where(rows >= side_top[None, :], SIDEWALK, labels)).astype(np.uint8)

    # small objects near the bottom strata; Poisson counts keep the long-run
    # pixel share at the requested frequency
    for class_id in (BIKE, MOTORBIKE):
        template = _TEMPLATES[class_id]
        th, tw = template.shape
        expected = freq[class_id] * total / template.sum()
        count = int(rng.poisson(expected))
        y_lo = min(max(horizon, 0), h - th)
        for _ in range(count):
            y0 = int(rng.integers(y_lo, h - th + 1))
            x0 = int(rng.integers(0, w - tw + 1))
            stamp = template[:, ::-1] if rng.integers(0, 2) else template
            region = labels[y0:y0 + th, x0:x0 + tw]
            region[stamp] = class_id

    return LabeledImage(render(labels, spec, rng), labels)


def render(labels: np.ndarray, spec: DomainSpec, rng: np.random.Generator) -> np.ndarray:
    """Paint the label map `labels` in `spec`'s style: its palette, hue-rotated and
    clipped, per pixel, plus clipped texture noise from `rng`; [3,H,W] float64."""
    palette = np.asarray(spec.palette, dtype=np.float64)
    colors = np.clip(palette @ hue_rotation_matrix(spec.hue_shift).T, 0.0, 1.0)
    image = colors[labels]                                    # [h,w,3]
    if spec.texture_noise_sigma > 0.0:
        image = np.clip(image + rng.normal(0.0, spec.texture_noise_sigma, image.shape),
                        0.0, 1.0)
    return np.ascontiguousarray(image.transpose(2, 0, 1))


def scene_rng(spec: DomainSpec, index: int) -> np.random.Generator:
    """Generator for scene `index`; rendering is pure given (spec, index)."""
    return np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, index])


# ---------------------------------------------------------------------------
# pixmap I/O (binary P6 images, binary P5 label maps, 255 = ignore)


def write_ppm(path, image: np.ndarray) -> bytes:
    arr = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    h, w = arr.shape[:2]
    data = f"P6\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()
    Path(path).write_bytes(data)
    return data


def write_pgm(path, labels: np.ndarray) -> bytes:
    arr = np.asarray(labels, dtype=np.uint8)
    h, w = arr.shape
    data = f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()
    Path(path).write_bytes(data)
    return data


def _read_pnm(path, magic: str, digest=None):
    data = read_input(path, "pixmap")
    if digest is not None:
        digest.update(data)
    header = re.match(rb"(P[56])\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None or header.group(1).decode() != magic:
        raise InputError(f"{path}: not a {magic} pixmap")
    w, h, maxval = (int(header.group(i)) for i in (2, 3, 4))
    if maxval != 255:
        raise InputError(f"{path}: unsupported maxval {maxval}")
    channels = 3 if magic == "P6" else 1
    payload = data[header.end():]
    if len(payload) != h * w * channels:
        raise InputError(f"{path}: truncated pixel data")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, channels)


def read_ppm(path, digest=None) -> np.ndarray:
    """The P6 image at `path` as its [3,H,W] uint8 pixels, as stored
    (unit_image makes them floats); `digest`, a hashlib object, if given,
    is updated with the bytes that were read."""
    return np.ascontiguousarray(_read_pnm(path, "P6", digest).transpose(2, 0, 1))


def unit_image(pixels: np.ndarray) -> np.ndarray:
    """8-bit pixels as a new float64 array in [0, 1]: each value over 255."""
    image = pixels.astype(np.float64)
    image /= 255.0
    return image


def read_pgm(path, digest=None) -> np.ndarray:
    """The P5 label map at `path` as [H,W] uint8; `digest` as in read_ppm."""
    return _read_pnm(path, "P5", digest)[:, :, 0].copy()


# ---------------------------------------------------------------------------
# benchmark bundles


def _text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


# how the manifest spells each DomainSpec field: its writer, its reader (which
# raises ValueError on a malformed value) and what that reader takes
_SPEC_FIELDS = {
    "palette": (lambda colors: ";".join(map(_text, colors)),
                lambda text: tuple(map(_floats, text.split(";"))), "colors split by ;"),
    "texture_noise_sigma": (repr, float, "a number"),
    "hue_shift": (repr, float, "a number"),
    "class_frequency": (_text, _floats, "numbers split by ,"),
    "seed": (str, int, "an integer"),
}


def item_files(split: str, i: int) -> tuple:
    """(image, label) names of item i of a split: paths under the dataset
    root, as the manifest's `file.<name>` keys spell them. target_train keeps
    its labels sealed in a hidden/ subdirectory the trainer never reads."""
    labels = f"{split}/hidden" if split == "target_train" else split
    return f"{split}/img_{i:03d}.ppm", f"{labels}/lab_{i:03d}.pgm"


def _item_indices(root, split: str) -> set:
    """Indices of the item files (images or labels) present in a split."""
    image_dir, label_dir = ((root / name).parent for name in item_files(split, 0))
    stems = [path.stem for path in (*image_dir.glob("img_*.ppm"),
                                    *label_dir.glob("lab_*.pgm"))]
    return {int(stem[4:]) for stem in stems if stem[4:].isdecimal()}


def make_benchmark(source_spec: DomainSpec, target_spec: DomainSpec,
                   n_source: int, n_target: int, n_test: int,
                   out_dir, height: int = 64, width: int = 64) -> Path:
    """Write a three-split benchmark under `out_dir` and return the manifest
    path, which gives each image and label file's sha256 as `file.<name>`.
    Test scene i is target scene n_target + i. Regenerating from the manifest
    reproduces every file byte for byte. Item files that an earlier, larger
    benchmark left in `out_dir` are removed; no other file is. A bad side or
    count raises InputError before anything is written."""
    sizes = dict(height=height, width=width, n_source=n_source, n_target=n_target,
                 n_test=n_test)
    for key, value in sizes.items():
        check = check_scene_side if key in ("height", "width") else check_count
        check(key, value)
    root = Path(out_dir)
    lines = [f"format={MANIFEST_FORMAT}", *(f"{key}={value}" for key, value in sizes.items())]
    lines += [f"{prefix}.{name}={write(getattr(spec, name))}"
              for prefix, spec in (("source", source_spec), ("target", target_spec))
              for name, (write, _, _) in _SPEC_FIELDS.items()]
    for split, spec, count, first_scene in (("source", source_spec, n_source, 0),
                                            ("target_train", target_spec, n_target, 0),
                                            ("target_test", target_spec, n_test, n_target)):
        for name in item_files(split, 0):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
        for i in range(count):
            scene = generate_scene(spec, height, width, scene_rng(spec, first_scene + i))
            image, label = item_files(split, i)
            for name, data in ((image, write_ppm(root / image, scene.image)),
                               (label, write_pgm(root / label, scene.labels))):
                lines.append(f"file.{name}={hashlib.sha256(data).hexdigest()}")
        for i in _item_indices(root, split):
            if i >= count:
                for name in item_files(split, i):
                    (root / name).unlink(missing_ok=True)
    manifest = root / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def parse_manifest(path) -> dict:
    """The key=value lines of a manifest or config file. Blank lines and
    whole lines that start with # are skipped; a line splits at its first =,
    and both sides are stripped. A key given twice is rejected."""
    entries = {}
    key_line = {}
    for lineno, raw in enumerate(read_input_text(path, "key=value file").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, value = (side.strip() for side in line.split("=", 1))
        if key in entries:
            raise InputError(f"{path}:{lineno}: key {key!r} is already set "
                             f"on line {key_line[key]}")
        entries[key] = value
        key_line[key] = lineno
    return entries


def write_run_manifest(out_dir, command: str, fields: dict) -> None:
    """Write out_dir/run_manifest.txt in the key=value format parse_manifest
    reads: `command=<command>`, then `fields` in order, then
    `artifact.<relpath>=present` for every file under out_dir except the
    manifest itself."""
    out = Path(out_dir)
    path = out / RUN_MANIFEST_NAME
    lines = [f"command={command}"] + [f"{key}={value}" for key, value in fields.items()]
    lines += [f"artifact.{p.relative_to(out)}=present"
              for p in sorted(out.rglob("*")) if p.is_file() and p != path]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def regenerate_from_manifest(root, out_dir) -> Path:
    """Rebuild the dataset at `root`, as its manifest describes it, into
    `out_dir`; the manifest is read and checked as DatasetBundle reads it."""
    bundle = DatasetBundle(root)
    return make_benchmark(bundle.source_spec, bundle.target_spec, bundle.n_source,
                          bundle.n_target, bundle.n_test, out_dir, bundle.height, bundle.width)


def check_scene_side(name: str, size: int) -> None:
    """Reject a scene side that is not a multiple of INPUT_SIZE_MULTIPLE (the
    model's), below MIN_SCENE_SIDE (generate_scene's) or above MAX_SCENE_SIDE."""
    if size % INPUT_SIZE_MULTIPLE:
        raise InputError(f"{name} must be a multiple of {INPUT_SIZE_MULTIPLE}, got {size}")
    if size < MIN_SCENE_SIDE:
        raise InputError(f"{name} must be at least {MIN_SCENE_SIDE}, got {size}")
    if size > MAX_SCENE_SIDE:
        raise InputError(f"{name} must be at most {MAX_SCENE_SIDE}, got {size}")


def check_count(name: str, count: int) -> None:
    """Reject a negative scene count."""
    if count < 0:
        raise InputError(f"{name} must be >= 0, got {count}")


class DatasetBundle:
    """Read access to an on-disk benchmark.

    Opening it parses and checks each manifest value once (_value), the
    domains' source_spec and target_spec included. Trainer-facing methods are
    source() and target_image(); hidden target labels are reachable only
    through target_hidden_labels(), the evaluation-only accessor. Every
    pixmap passes one check on its first read (_pixmap), sealed labels and
    target-train images included.

    Each item file is read once. The bundle keeps an image as its 8-bit
    pixels, 1 byte per channel-pixel, and hands out a new float64 image
    (unit_image) on every call. The pixels and label maps it keeps and hands
    out are read-only.
    """

    def __init__(self, root):
        self.root = Path(root)
        manifest = self.root / MANIFEST_NAME
        self.entries = parse_manifest(manifest)
        form = self._value("format", str, "text")
        if form != MANIFEST_FORMAT:
            raise InputError(f"{manifest}: format {form!r} is not {MANIFEST_FORMAT}; "
                             "regenerate the dataset with `daplab gen`")
        for key in ("n_source", "n_target", "n_test", "height", "width"):
            setattr(self, key, self._value(key, int, "an integer"))
            check = check_scene_side if key in ("height", "width") else check_count
            check(f"{manifest}: {key}", getattr(self, key))
        for prefix in ("source", "target"):
            fields = {name: self._value(f"{prefix}.{name}", read, what)
                      for name, (_, read, what) in _SPEC_FIELDS.items()}
            try:
                setattr(self, f"{prefix}_spec", DomainSpec(**fields))
            except InputError as bad:  # its message starts with the field's name
                raise InputError(f"{manifest}: {prefix}.{bad}") from None
        self._cache: dict = {}

    def _value(self, key: str, parse, what: str):
        """The manifest's `key` read with `parse`, which takes `what`; a missing
        key or a ValueError from `parse` is an InputError naming both."""
        if key not in self.entries:
            raise InputError(f"{self.root / MANIFEST_NAME}: missing key {key!r}")
        try:
            return parse(self.entries[key])
        except ValueError:
            raise InputError(f"{self.root / MANIFEST_NAME}: {key} is not {what}: "
                             f"{self.entries[key]!r}") from None

    def dataset_checksum(self) -> str:
        """The sha256 of the manifest's file digests, in manifest order."""
        return hashlib.sha256("".join(v for k, v in self.entries.items()
                                      if k.startswith("file.")).encode()).hexdigest()

    def _cached(self, key, loader):
        if key not in self._cache:
            self._cache[key] = loader()
        return self._cache[key]

    def _pixmap(self, read, name: str) -> np.ndarray:
        """The pixmap `name` under the root, read with `read` (read_ppm or
        read_pgm) and made read-only, once it passes the one check: it is
        height x width, its bytes (the bytes kept) match the manifest's
        `file.<name>` digest, and a label map holds only class ids and
        IGNORE_ID."""
        path = self.root / name
        digest = hashlib.sha256()
        pixels = read(path, digest)
        if pixels.shape[-2:] != (self.height, self.width):
            raise InputError(f"{path}: pixmap is {pixels.shape[-2]}x{pixels.shape[-1]}, but "
                             f"{self.root / MANIFEST_NAME} gives {self.height}x{self.width}")
        key = "file." + name
        if digest.hexdigest() != self.entries.get(key):
            raise InputError(f"{path}: does not match {key} in {self.root / MANIFEST_NAME}")
        if pixels.ndim == 2 and not _LABEL_VALUES[pixels].all():  # a label map
            raise InputError(f"{path}: label id {pixels[~_LABEL_VALUES[pixels]][0]} is "
                             f"neither a class id below {NUM_CLASSES} nor {IGNORE_ID}")
        pixels.flags.writeable = False
        return pixels

    def _item(self, split: str, i: int):
        """The kept bytes of item i of `split`, named as its accessor: the
        (pixels, labels) of a "source" or "test" item, the pixels of a
        "target_image", the labels of a "target_hidden_labels"."""
        def load():
            if split == "target_image":
                return self._pixmap(read_ppm, item_files("target_train", i)[0])
            if split == "target_hidden_labels":
                return self._pixmap(read_pgm, item_files("target_train", i)[1])
            image, label = item_files("target_test" if split == "test" else split, i)
            return self._pixmap(read_ppm, image), self._pixmap(read_pgm, label)
        return self._cached((split, i), load)

    def check_split(self, split: str) -> int:
        """Read and check every item of `split` ("source", "target_image",
        "target_hidden_labels" or "test"), keeping its bytes but decoding no
        image, and return its item count; an empty split is an InputError."""
        key = {"source": "n_source", "target_image": "n_target",
               "target_hidden_labels": "n_target", "test": "n_test"}[split]
        count = getattr(self, key)
        if count < 1:
            raise InputError(f"{self.root / MANIFEST_NAME}: {key} is {count}: "
                             f"the dataset has no {split} items")
        for i in range(count):
            self._item(split, i)
        return count

    def source(self, i: int) -> LabeledImage:
        pixels, labels = self._item("source", i)
        return LabeledImage(unit_image(pixels), labels)

    def target_image(self, i: int) -> np.ndarray:
        return unit_image(self._item("target_image", i))

    def target_hidden_labels(self, i: int) -> np.ndarray:
        """Evaluation-only accessor for sealed target-train labels."""
        return self._item("target_hidden_labels", i)

    def test(self, i: int) -> LabeledImage:
        pixels, labels = self._item("test", i)
        return LabeledImage(unit_image(pixels), labels)


# ---------------------------------------------------------------------------
# presets

BASE_PALETTE = (
    (0.25, 0.25, 0.28),   # road: dark asphalt
    (0.46, 0.44, 0.43),   # sidewalk: lighter gray, close enough to confuse
    (0.55, 0.72, 0.92),   # sky
    (0.62, 0.45, 0.36),   # building
    (0.33, 0.40, 0.36),   # bike
    (0.40, 0.35, 0.31),   # motorbike: near the bike color on purpose
)
SOURCE_FREQUENCY = (0.28, 0.14, 0.24, 0.28, 0.03, 0.03)
TARGET_FREQUENCY = (0.355, 0.12, 0.225, 0.252, 0.026, 0.022)


# each preset's target: the source spec with these fields changed.
# 'gap-default' is the standard benchmark; 'gap-none' draws both domains
# from one distribution
_TARGET_SHIFTS = {
    "gap-default": dict(texture_noise_sigma=0.05, hue_shift=0.6,
                        class_frequency=TARGET_FREQUENCY),
    "gap-none": {},
}
PRESETS = tuple(_TARGET_SHIFTS)


def preset_specs(name: str, seed: int):
    """The (source, target) spec pair of the preset `name`, one of PRESETS."""
    if name not in PRESETS:
        raise InputError(f"unknown preset {name!r}")
    source = DomainSpec(palette=BASE_PALETTE, texture_noise_sigma=0.02,
                        hue_shift=0.0, class_frequency=SOURCE_FREQUENCY, seed=seed)
    return source, replace(source, seed=seed + 1_000_003, **_TARGET_SHIFTS[name])
