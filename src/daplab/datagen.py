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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classes import CLASS_NAMES, IGNORE_ID, NUM_CLASSES
from .errors import InputError

ROAD, SIDEWALK, SKY, BUILDING, BIKE, MOTORBIKE = range(NUM_CLASSES)

MANIFEST_NAME = "manifest.txt"
RUN_MANIFEST_NAME = "run_manifest.txt"
_SPLITS = ("source", "target_train", "target_test")


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
        if len(self.palette) != NUM_CLASSES:
            raise InputError(f"palette needs {NUM_CLASSES} colors")
        if len(self.class_frequency) != NUM_CLASSES:
            raise InputError(f"class_frequency needs {NUM_CLASSES} weights")
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
    axis = np.ones(3) / math.sqrt(3.0)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(theta) * k + (1.0 - math.cos(theta)) * (k @ k)


def _smooth_jitter(rng: np.random.Generator, width: int, amplitude: int) -> np.ndarray:
    raw = rng.integers(-amplitude, amplitude + 1, size=width).astype(np.float64)
    kernel = np.ones(5) / 5.0
    padded = np.pad(raw, 2, mode="edge")
    return np.rint(np.convolve(padded, kernel, mode="valid")).astype(np.int64)


def generate_scene(spec: DomainSpec, h: int, w: int, rng: np.random.Generator) -> LabeledImage:
    """Render one scene. Labels are exact by construction; the image is the
    palette lookup followed by hue rotation and additive texture noise."""
    if h < 16 or w < 16:
        raise InputError("scenes need h, w >= 16")
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
    edges = np.sort(rng.choice(np.arange(1, w), size=n_buildings - 1, replace=False)) \
        if n_buildings > 1 else np.array([], dtype=np.int64)
    segments = np.split(np.arange(w), edges)
    coverage = rng.uniform(0.6, 0.92)
    target_area = freq[BUILDING] * total
    covered = max(int(coverage * w), 1)
    base_height = target_area / covered
    for segment in segments:
        seg_w = len(segment)
        b_w = max(int(round(seg_w * coverage)), 1)
        x0 = segment[0] + int(rng.integers(0, seg_w - b_w + 1))
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

    # render
    palette = np.asarray(spec.palette, dtype=np.float64)
    image = palette[labels]                                   # [h,w,3]
    if spec.hue_shift != 0.0:
        image = np.clip(image @ hue_rotation_matrix(spec.hue_shift).T, 0.0, 1.0)
    if spec.texture_noise_sigma > 0.0:
        image = np.clip(image + rng.normal(0.0, spec.texture_noise_sigma, image.shape),
                        0.0, 1.0)
    return LabeledImage(np.ascontiguousarray(image.transpose(2, 0, 1)), labels)


def scene_rng(spec: DomainSpec, index: int) -> np.random.Generator:
    """Generator for scene `index`; rendering is pure given (spec, index)."""
    return np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, index])


# ---------------------------------------------------------------------------
# pixmap I/O (binary P6 images, binary P5 label maps, 255 = ignore)


def write_ppm(path, image: np.ndarray) -> None:
    arr = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8).transpose(1, 2, 0)
    h, w = arr.shape[:2]
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + arr.tobytes())


def write_pgm(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype=np.uint8)
    h, w = arr.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes())


def _read_pnm(path, magic: str):
    data = Path(path).read_bytes()
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


def read_ppm(path) -> np.ndarray:
    arr = _read_pnm(path, "P6")
    return np.ascontiguousarray(arr.transpose(2, 0, 1).astype(np.float64) / 255.0)


def read_pgm(path) -> np.ndarray:
    return _read_pnm(path, "P5")[:, :, 0].copy()


# ---------------------------------------------------------------------------
# benchmark bundles


def _spec_to_lines(prefix: str, spec: DomainSpec) -> list:
    palette = ";".join(",".join(repr(float(v)) for v in color) for color in spec.palette)
    freq = ",".join(repr(float(v)) for v in spec.class_frequency)
    return [
        f"{prefix}.palette={palette}",
        f"{prefix}.texture_noise_sigma={spec.texture_noise_sigma!r}",
        f"{prefix}.hue_shift={spec.hue_shift!r}",
        f"{prefix}.class_frequency={freq}",
        f"{prefix}.seed={spec.seed}",
    ]


def _spec_from_entries(entries: dict, prefix: str) -> DomainSpec:
    palette = tuple(tuple(float(v) for v in color.split(","))
                    for color in entries[f"{prefix}.palette"].split(";"))
    return DomainSpec(
        palette=palette,
        texture_noise_sigma=float(entries[f"{prefix}.texture_noise_sigma"]),
        hue_shift=float(entries[f"{prefix}.hue_shift"]),
        class_frequency=tuple(float(v) for v in
                              entries[f"{prefix}.class_frequency"].split(",")),
        seed=int(entries[f"{prefix}.seed"]),
    )


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def make_benchmark(source_spec: DomainSpec, target_spec: DomainSpec,
                   n_source: int, n_target: int, n_test: int,
                   out_dir, height: int = 64, width: int = 64) -> Path:
    """Write a three-split benchmark under `out_dir` and return the manifest
    path. target_train keeps its labels sealed in a hidden/ subdirectory the
    trainer never reads. Regenerating from the manifest reproduces every
    file byte for byte."""
    root = Path(out_dir)
    for split in _SPLITS:
        (root / split).mkdir(parents=True, exist_ok=True)
    (root / "target_train" / "hidden").mkdir(exist_ok=True)

    item_lines = []
    split_hashes = {split: [] for split in _SPLITS}

    def emit(split, index, scene, image_path, label_path):
        write_ppm(image_path, scene.image)
        write_pgm(label_path, scene.labels)
        digest = _sha256(image_path.read_bytes(), label_path.read_bytes())
        item_lines.append(f"item.{split}/{index:03d}={digest}")
        split_hashes[split].append(digest)

    for i in range(n_source):
        scene = generate_scene(source_spec, height, width, scene_rng(source_spec, i))
        emit("source", i, scene,
             root / "source" / f"img_{i:03d}.ppm",
             root / "source" / f"lab_{i:03d}.pgm")
    for i in range(n_target):
        scene = generate_scene(target_spec, height, width, scene_rng(target_spec, i))
        emit("target_train", i, scene,
             root / "target_train" / f"img_{i:03d}.ppm",
             root / "target_train" / "hidden" / f"lab_{i:03d}.pgm")
    for i in range(n_test):
        scene = generate_scene(target_spec, height, width,
                               scene_rng(target_spec, n_target + i))
        emit("target_test", i, scene,
             root / "target_test" / f"img_{i:03d}.ppm",
             root / "target_test" / f"lab_{i:03d}.pgm")

    lines = [
        "format=daplab-benchmark-v1",
        f"height={height}",
        f"width={width}",
        f"n_source={n_source}",
        f"n_target={n_target}",
        f"n_test={n_test}",
    ]
    lines += _spec_to_lines("source", source_spec)
    lines += _spec_to_lines("target", target_spec)
    lines += item_lines
    for split in _SPLITS:
        lines.append(f"split_checksum.{split}="
                     + _sha256(*(h.encode() for h in split_hashes[split])))
    manifest = root / MANIFEST_NAME
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


def parse_manifest(path) -> dict:
    entries = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
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


def specs_from_manifest(entries: dict):
    return _spec_from_entries(entries, "source"), _spec_from_entries(entries, "target")


def regenerate_from_manifest(manifest_path, out_dir) -> Path:
    """Rebuild the full bundle described by a manifest into `out_dir`."""
    entries = parse_manifest(manifest_path)
    source_spec, target_spec = specs_from_manifest(entries)
    return make_benchmark(source_spec, target_spec,
                          int(entries["n_source"]), int(entries["n_target"]),
                          int(entries["n_test"]), out_dir,
                          height=int(entries["height"]), width=int(entries["width"]))


class DatasetBundle:
    """Read access to an on-disk benchmark.

    Trainer-facing methods are source() and target_image(); hidden target
    labels are reachable only through target_hidden_labels(), the
    evaluation-only accessor.
    """

    def __init__(self, root):
        self.root = Path(root)
        manifest = self.root / MANIFEST_NAME
        if not manifest.exists():
            raise InputError(f"no {MANIFEST_NAME} under {self.root}")
        self.entries = parse_manifest(manifest)
        try:
            self.n_source, self.n_target, self.n_test, self.height, self.width = (
                int(self.entries[key])
                for key in ("n_source", "n_target", "n_test", "height", "width"))
            self.dataset_checksum()
        except KeyError as missing:
            raise InputError(f"{manifest}: missing key {missing.args[0]!r}") from None
        except ValueError as bad:
            raise InputError(f"{manifest}: {bad}") from None
        self._cache: dict = {}

    def dataset_checksum(self) -> str:
        return _sha256(*(self.entries[f"split_checksum.{s}"].encode() for s in _SPLITS))

    def _cached(self, key, loader):
        if key not in self._cache:
            self._cache[key] = loader()
        return self._cache[key]

    def source(self, i: int) -> LabeledImage:
        return self._cached(("source", i), lambda: LabeledImage(
            read_ppm(self.root / "source" / f"img_{i:03d}.ppm"),
            read_pgm(self.root / "source" / f"lab_{i:03d}.pgm")))

    def target_image(self, i: int) -> np.ndarray:
        return self._cached(("target_image", i), lambda: read_ppm(
            self.root / "target_train" / f"img_{i:03d}.ppm"))

    def target_hidden_labels(self, i: int) -> np.ndarray:
        """Evaluation-only accessor for sealed target-train labels."""
        return read_pgm(self.root / "target_train" / "hidden" / f"lab_{i:03d}.pgm")

    def test(self, i: int) -> LabeledImage:
        return self._cached(("test", i), lambda: LabeledImage(
            read_ppm(self.root / "target_test" / f"img_{i:03d}.ppm"),
            read_pgm(self.root / "target_test" / f"lab_{i:03d}.pgm")))


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


def preset_specs(name: str, seed: int):
    """Named (source, target) spec pairs; 'gap-default' is the standard
    benchmark, 'gap-none' draws both domains from one distribution."""
    source = DomainSpec(palette=BASE_PALETTE, texture_noise_sigma=0.02,
                        hue_shift=0.0, class_frequency=SOURCE_FREQUENCY, seed=seed)
    if name == "gap-default":
        target = DomainSpec(palette=BASE_PALETTE, texture_noise_sigma=0.05,
                            hue_shift=0.6, class_frequency=TARGET_FREQUENCY,
                            seed=seed + 1_000_003)
    elif name == "gap-none":
        target = DomainSpec(palette=BASE_PALETTE, texture_noise_sigma=0.02,
                            hue_shift=0.0, class_frequency=SOURCE_FREQUENCY,
                            seed=seed + 1_000_003)
    else:
        raise InputError(f"unknown preset {name!r}")
    return source, target
