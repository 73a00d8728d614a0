import hashlib
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from daplab import datagen as dg
from daplab.classes import NUM_CLASSES
from daplab.errors import InputError


def flat_spec(seed=3, sigma=0.0, hue=0.0, freq=dg.SOURCE_FREQUENCY):
    return dg.DomainSpec(palette=dg.BASE_PALETTE, texture_noise_sigma=sigma,
                         hue_shift=hue, class_frequency=freq, seed=seed)


class TestDomainSpec:
    def test_frequencies_must_sum_to_one(self):
        with pytest.raises(InputError):
            flat_spec(freq=(0.5, 0.1, 0.1, 0.1, 0.1, 0.05))

    def test_negative_frequency_rejected(self):
        with pytest.raises(InputError):
            flat_spec(freq=(1.1, -0.1, 0.0, 0.0, 0.0, 0.0))

    def test_preset_frequencies_are_valid(self):
        for name in ("gap-default", "gap-none"):
            src, tgt = dg.preset_specs(name, seed=1)
            assert abs(sum(src.class_frequency) - 1.0) <= 1e-9
            assert abs(sum(tgt.class_frequency) - 1.0) <= 1e-9


class TestGenerateScene:
    def test_noise_free_rendering_is_pure_palette(self):
        spec = flat_spec()
        scene = dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, 0))
        palette = np.asarray(spec.palette)
        expected = palette[scene.labels].transpose(2, 0, 1)
        np.testing.assert_array_equal(scene.image, expected)
        np.testing.assert_array_equal(dg.render(scene.labels, spec, dg.scene_rng(spec, 1)),
                                      expected)

    def test_all_labels_valid(self):
        spec = flat_spec(sigma=0.05, hue=0.2)
        scene = dg.generate_scene(spec, 48, 80, dg.scene_rng(spec, 4))
        assert scene.labels.max() < NUM_CLASSES
        assert scene.image.shape == (3, 48, 80)
        assert scene.labels.shape == (48, 80)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_deterministic_given_spec_and_index(self):
        spec = flat_spec(seed=11, sigma=0.04, hue=0.3)
        a = dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, 7))
        b = dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, 7))
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_indices_differ(self):
        spec = flat_spec(seed=11)
        a = dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, 0))
        b = dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, 1))
        assert (a.labels != b.labels).any()

    def test_too_small_scene_rejected(self):
        spec = flat_spec()
        with pytest.raises(InputError):
            dg.generate_scene(spec, 8, 64, dg.scene_rng(spec, 0))

    def test_class_frequencies_track_targets(self):
        spec = flat_spec(seed=29)
        counts = np.zeros(NUM_CLASSES)
        n_scenes = 200
        for i in range(n_scenes):
            scene = dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, i))
            counts += np.bincount(scene.labels.ravel(), minlength=NUM_CLASSES)
        measured = counts / counts.sum()
        for c, target in enumerate(spec.class_frequency):
            if target >= 0.05:
                assert abs(measured[c] - target) / target < 0.20, \
                    f"class {c}: measured {measured[c]:.4f}, target {target}"

    def test_confusable_pair_stays_rare_in_target_domain(self):
        _, target = dg.preset_specs("gap-default", seed=5)
        counts = np.zeros(NUM_CLASSES)
        for i in range(50):
            scene = dg.generate_scene(target, 64, 64, dg.scene_rng(target, i))
            counts += np.bincount(scene.labels.ravel(), minlength=NUM_CLASSES)
        small = (counts[dg.BIKE] + counts[dg.MOTORBIKE]) / counts.sum()
        assert small < 0.05

    @pytest.mark.parametrize("preset", dg.PRESETS)
    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_render_equals_the_per_pixel_formula_bit_for_bit(self, preset, seed):
        for spec in dg.preset_specs(preset, seed):
            labels = dg.generate_scene(spec, 48, 64, dg.scene_rng(spec, seed)).labels
            rng = np.random.default_rng(seed)
            twin = np.random.default_rng()
            twin.bit_generator.state = rng.bit_generator.state
            rotation = dg.hue_rotation_matrix(spec.hue_shift)
            image = np.clip(np.asarray(spec.palette)[labels] @ rotation.T, 0.0, 1.0)
            image = np.clip(image + twin.normal(0.0, spec.texture_noise_sigma, image.shape),
                            0.0, 1.0)
            painted = dg.render(labels, spec, rng)
            assert painted.dtype == np.float64 and painted.flags.c_contiguous
            assert painted.tobytes() == image.transpose(2, 0, 1).tobytes()

    def test_target_style_render_keeps_the_source_layout(self):
        source, target = dg.preset_specs("gap-default", seed=4)
        scene = dg.generate_scene(source, 64, 64, dg.scene_rng(source, 0))
        labels = scene.labels.copy()
        twin = dg.render(scene.labels, target, dg.scene_rng(target, 0))
        np.testing.assert_array_equal(scene.labels, labels)
        assert twin.shape == scene.image.shape and twin.min() >= 0.0 and twin.max() <= 1.0
        assert (np.abs(twin - scene.image) > 0.1).any()
        # noise aside, each class keeps one color: the target palette's, hue-rotated
        rotation = dg.hue_rotation_matrix(target.hue_shift)
        colors = np.clip(np.asarray(target.palette) @ rotation.T, 0.0, 1.0)
        for class_id in np.unique(labels):
            mean = twin[:, labels == class_id].mean(axis=1)
            np.testing.assert_allclose(mean, colors[class_id], atol=0.03)

    def test_silhouettes_differ_only_by_appendage(self):
        bike = dg._object_template(dg.BIKE)
        motor = dg._object_template(dg.MOTORBIKE)
        extra = motor & ~bike
        assert bike.shape == motor.shape
        assert (bike & ~motor).sum() == 0
        assert 0 < extra.sum() <= 8


class TestPixmapIO:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(3, 5, 7)).astype(np.uint8)
        path = tmp_path / "x.ppm"
        dg.write_ppm(path, pixels / 255.0)
        read = dg.read_ppm(path)
        assert read.dtype == np.uint8
        np.testing.assert_array_equal(read, pixels)

    def test_decoded_image_is_the_pixels_over_255(self):
        pixels = np.arange(3 * 16 * 16).reshape(3, 16, 16).astype(np.uint8)
        image = dg.unit_image(pixels)
        assert image.dtype == np.float64
        np.testing.assert_array_equal(image, pixels.astype(np.float64) / 255)

    def test_pgm_round_trip(self, tmp_path):
        labels = np.array([[0, 1, 255], [4, 5, 2]], dtype=np.uint8)
        path = tmp_path / "x.pgm"
        dg.write_pgm(path, labels)
        np.testing.assert_array_equal(dg.read_pgm(path), labels)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(InputError):
            dg.read_pgm(path)


class TestMakeBenchmark:
    def test_manifest_gives_every_file_one_digest(self, tmp_path):
        src, tgt = dg.preset_specs("gap-default", seed=7)
        root = tmp_path / "data"
        manifest = dg.make_benchmark(src, tgt, 64, 64, 16, root, height=32, width=32)
        entries = dg.parse_manifest(manifest)
        assert entries["format"] == "daplab-benchmark-v2"
        files = {k[len("file."):]: v for k, v in entries.items() if k.startswith("file.")}
        on_disk = {p.relative_to(root).as_posix() for p in root.rglob("*")
                   if p.is_file() and p != manifest}
        assert len(files) == 288 and files.keys() == on_disk
        assert "target_train/hidden/lab_063.pgm" in files
        for name, digest in files.items():
            assert hashlib.sha256((root / name).read_bytes()).hexdigest() == digest, name
        assert not [k for k in entries if k.startswith(("item.", "split_checksum."))]

    @pytest.mark.parametrize("counts, side", [((2, 2, 1), 8), ((2, 2, 1), 30),
                                              ((2, 2, 1), 2 ** 40), ((2, -1, 1), 32)],
                             ids=["below-smallest-scene", "not-a-multiple-of-4",
                                  "too-large-for-one-array", "negative-count"])
    def test_bad_sizes_and_counts_are_rejected_before_any_directory(self, tmp_path,
                                                                    counts, side):
        src, tgt = dg.preset_specs("gap-default", seed=7)
        with pytest.raises(InputError):
            dg.make_benchmark(src, tgt, *counts, tmp_path, height=side, width=side)
        assert not list(tmp_path.iterdir())

    def test_regeneration_is_byte_identical(self, tmp_path):
        src, tgt = dg.preset_specs("gap-default", seed=9)
        first = dg.make_benchmark(src, tgt, 4, 4, 2, tmp_path / "a",
                                  height=32, width=32)
        dg.regenerate_from_manifest(tmp_path / "a", tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a")
                          for p in (tmp_path / "a").rglob("*") if p.is_file()):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes(), rel

    def test_same_seed_same_checksums(self, tmp_path):
        src, tgt = dg.preset_specs("gap-default", seed=13)
        m1 = dg.make_benchmark(src, tgt, 3, 3, 2, tmp_path / "a", 32, 32)
        m2 = dg.make_benchmark(src, tgt, 3, 3, 2, tmp_path / "b", 32, 32)
        e1, e2 = dg.parse_manifest(m1), dg.parse_manifest(m2)
        digests = [{k: v for k, v in e.items() if k.startswith("file.")} for e in (e1, e2)]
        assert len(digests[0]) == 16 and digests[0] == digests[1]

    def test_bundle_accessors(self, tmp_path):
        src, tgt = dg.preset_specs("gap-default", seed=15)
        dg.make_benchmark(src, tgt, 3, 4, 2, tmp_path / "data", 32, 32)
        bundle = dg.DatasetBundle(tmp_path / "data")
        assert (bundle.n_source, bundle.n_target, bundle.n_test) == (3, 4, 2)

        sample = bundle.source(0)
        assert sample.image.shape == (3, 32, 32)
        assert sample.labels.shape == (32, 32)

        image = bundle.target_image(1)
        assert image.shape == (3, 32, 32)

        assert bundle.target_hidden_labels(1).shape == (32, 32)

        test_item = bundle.test(0)
        assert test_item.labels.max() < NUM_CLASSES

    def test_bundle_decodes_each_call_and_keeps_read_only_bytes(self, tmp_path):
        src, tgt = dg.preset_specs("gap-default", seed=15)
        root = tmp_path / "data"
        dg.make_benchmark(src, tgt, 2, 2, 1, root, 32, 32)
        bundle = dg.DatasetBundle(root)
        first, again = bundle.source(0), bundle.source(0)
        assert first.image.dtype == np.float64 and first.labels.dtype == np.uint8
        np.testing.assert_array_equal(
            first.image, dg.read_ppm(root / "source" / "img_000.ppm").astype(np.float64) / 255)
        np.testing.assert_array_equal(again.image, first.image)
        assert not np.shares_memory(again.image, first.image)
        first.image[:] = 0       # a caller's image is its own to change
        assert bundle.source(0).image.max() > 0
        with pytest.raises(ValueError, match="read-only"):
            first.labels[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            bundle.test(0).labels[0, 0] = 1
        assert not np.shares_memory(bundle.target_image(1), bundle.target_image(1))

    def test_bundle_holds_under_6_bytes_per_item_pixel(self, tmp_path):
        # float64 images would hold 24 bytes per pixel, plus 1 for the labels
        src, tgt = dg.preset_specs("gap-default", seed=17)
        dg.make_benchmark(src, tgt, 8, 8, 4, tmp_path / "data", 32, 32)
        bundle = dg.DatasetBundle(tmp_path / "data")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for read, count in ((bundle.source, 8), (bundle.target_image, 8),
                                (bundle.test, 4)):
                for i in range(count):
                    read(i)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held / (20 * 32 * 32) < 6

    def test_labeled_item_files_are_read_once_and_checked(self, tmp_path, monkeypatch):
        src, tgt = dg.preset_specs("gap-default", seed=16)
        root = tmp_path / "data"
        dg.make_benchmark(src, tgt, 2, 1, 1, root, 16, 16)
        reads = Counter()
        read_input = dg.read_input

        def counting(path, what):
            reads[Path(path).relative_to(root).as_posix()] += 1
            return read_input(path, what)

        monkeypatch.setattr(dg, "read_input", counting)
        bundle = dg.DatasetBundle(root)
        reads.clear()
        for _ in range(2):
            bundle.source(1)
            bundle.test(0)
        assert reads == {"source/img_001.ppm": 1, "source/lab_001.pgm": 1,
                         "target_test/img_000.ppm": 1, "target_test/lab_000.pgm": 1}

        label = root / "source" / "lab_000.pgm"
        data = bytearray(label.read_bytes())
        data[-1] ^= 1
        label.write_bytes(bytes(data))
        with pytest.raises(InputError, match=r"lab_000.pgm: does not match "
                                             r"file\.source/lab_000\.pgm in"):
            bundle.source(0)
        assert reads["source/img_000.ppm"] == reads["source/lab_000.pgm"] == 1

    def test_test_split_continues_target_scene_indices(self, tmp_path):
        # test scene i is target scene n_target + i, so it never repeats a
        # target_train scene
        src, tgt = dg.preset_specs("gap-none", seed=33)
        manifest = dg.make_benchmark(src, tgt, 3, 4, 3, tmp_path / "data", 32, 32)
        bundle = dg.DatasetBundle(tmp_path / "data")
        for i in range(bundle.n_test):
            expected = dg.generate_scene(tgt, 32, 32,
                                         dg.scene_rng(tgt, bundle.n_target + i))
            np.testing.assert_array_equal(bundle.test(i).labels, expected.labels)

        entries = dg.parse_manifest(manifest)
        train = {v for k, v in entries.items() if k.startswith("file.target_train/img_")}
        test = {v for k, v in entries.items() if k.startswith("file.target_test/img_")}
        assert len(train) == 4 and len(test) == 3
        assert not train & test

    def test_hidden_labels_are_sealed_in_subdirectory(self, tmp_path):
        src, tgt = dg.preset_specs("gap-default", seed=15)
        dg.make_benchmark(src, tgt, 2, 2, 1, tmp_path / "data", 32, 32)
        train_dir = tmp_path / "data" / "target_train"
        assert not list(train_dir.glob("*.pgm"))
        assert list((train_dir / "hidden").glob("*.pgm"))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(InputError):
            dg.DatasetBundle(tmp_path)

    @pytest.mark.parametrize("key, value, message", [
        ("source.hue_shift", None, "missing key 'source.hue_shift'"),
        ("height", "1e9", "height is not an integer: '1e9'"),
        ("source.palette", "x", "source.palette is not colors split by ;: 'x'"),
        ("target.seed", "1.5", "target.seed is not an integer: '1.5'"),
        ("target.palette", "0,0;1,1;0,0;1,1;0,0;1,1",
         "target.palette needs 6 colors of 3 values"),
        ("target.hue_shift", "nan", "target.hue_shift holds a value that is not finite"),
        ("source.class_frequency", "0.5,0.5,0.5,0,0,0", "source.class_frequency sums to"),
        # a side that make_benchmark would not write is not read either
        ("width", "12", "width must be at least 16, got 12"),
    ], ids=["no-source-hue-shift", "height-1e9", "palette-x", "seed-1.5", "palette-pairs",
            "hue-shift-nan", "frequency-sum-1.5", "width-12"])
    def test_bad_manifest_value_is_rejected_naming_manifest_and_key(self, tmp_path,
                                                                    key, value, message):
        src, tgt = dg.preset_specs("gap-default", seed=7)
        root = tmp_path / "data"
        manifest = dg.make_benchmark(src, tgt, 1, 1, 1, root, 16, 16)
        manifest.write_text("".join(
            ("" if value is None else f"{key}={value}\n") if line.startswith(f"{key}=")
            else line for line in manifest.read_text().splitlines(True)))
        for read in (dg.DatasetBundle,
                     lambda root: dg.regenerate_from_manifest(root, tmp_path / "copy")):
            with pytest.raises(InputError, match=re.escape(f"{manifest}: {message}")):
                read(root)
        assert not (tmp_path / "copy").exists()


def test_hue_rotation_is_identity_at_zero():
    np.testing.assert_array_equal(dg.hue_rotation_matrix(0.0), np.eye(3))


@pytest.mark.parametrize("theta", [-2.0, 0.3, 0.6, 1.0])
def test_hue_rotation_is_a_rotation_that_keeps_gray(theta):
    rotation = dg.hue_rotation_matrix(theta)
    np.testing.assert_allclose(rotation @ rotation.T, np.eye(3), atol=1e-12)
    np.testing.assert_allclose(rotation @ np.ones(3), np.ones(3), atol=1e-12)
    np.testing.assert_allclose(np.trace(rotation), 1 + 2 * np.cos(theta), atol=1e-12)
