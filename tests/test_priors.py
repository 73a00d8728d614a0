import tracemalloc

import numpy as np
import pytest

from daplab import priors
from daplab.classes import CLASS_NAMES, IGNORE_ID, NUM_CLASSES
from daplab.errors import DimensionError, InputError
from daplab.tensor import Tensor


class TestOneHot:
    def test_rows_are_standard_basis(self):
        e = priors.build_one_hot()
        np.testing.assert_array_equal(e.vectors, np.eye(NUM_CLASSES))
        assert e.dim == NUM_CLASSES

    def test_distinct_rows_orthogonal(self):
        e = priors.build_one_hot()
        gram = e.vectors @ e.vectors.T
        np.testing.assert_array_equal(gram, np.eye(NUM_CLASSES))

    def test_unit_norms(self):
        e = priors.build_one_hot()
        np.testing.assert_array_equal(np.linalg.norm(e.vectors, axis=1),
                                      np.ones(NUM_CLASSES))


class TestRandom:
    def test_unit_norms(self):
        e = priors.build_random(300, seed=0)
        assert e.vectors.shape == (NUM_CLASSES, 300)
        np.testing.assert_allclose(np.linalg.norm(e.vectors, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        a = priors.build_random(64, seed=9)
        b = priors.build_random(64, seed=9)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        assert (a.vectors != priors.build_random(64, seed=10).vectors).any()

    def test_high_dimensional_rows_nearly_orthogonal(self):
        acc = []
        for seed in range(20):
            v = priors.build_random(300, seed=seed).vectors
            gram = np.abs(v @ v.T)
            acc.append(gram[~np.eye(NUM_CLASSES, dtype=bool)].mean())
        assert np.mean(acc) < 0.15


class TestVectorFiles:
    def write(self, tmp_path, names, dim=4, missing=(), mangle_line=None):
        rng = np.random.default_rng(1)
        lines = [f"D {dim}"]
        for name in names:
            if name in missing:
                continue
            lines.append(name + " " + " ".join(str(v) for v in rng.normal(size=dim)))
        if mangle_line is not None:
            lines[mangle_line] = lines[mangle_line] + " 0.5"
        path = tmp_path / "vectors.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_parse_contract(self, tmp_path):
        path = self.write(tmp_path, CLASS_NAMES, dim=300)
        e = priors.load_vectors(path)
        assert e.dim == 300
        assert e.vectors.shape == (NUM_CLASSES, 300)

    def test_missing_class_named_in_error(self, tmp_path):
        path = self.write(tmp_path, CLASS_NAMES, missing=("sidewalk",))
        with pytest.raises(InputError, match="class sidewalk unresolved"):
            priors.load_vectors(path)

    def test_alias_resolves_missing_canonical_name(self, tmp_path):
        names = [n for n in CLASS_NAMES if n != "bike"] + ["bicycle"]
        path = self.write(tmp_path, names)
        e = priors.load_vectors(path)
        assert e.vectors.shape == (NUM_CLASSES, 4)

    def test_inconsistent_width_reports_line_number(self, tmp_path):
        path = self.write(tmp_path, CLASS_NAMES, mangle_line=3)
        with pytest.raises(InputError, match=":4:"):
            priors.load_vectors(path)

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, CLASS_NAMES, dim=7)
        first = priors.load_vectors(path)
        priors.save_vectors(tmp_path / "again.txt", first)
        second = priors.load_vectors(tmp_path / "again.txt")
        np.testing.assert_array_equal(first.vectors, second.vectors)

    def test_case_insensitive_match(self, tmp_path):
        path = self.write(tmp_path, [n.upper() for n in CLASS_NAMES])
        assert priors.load_vectors(path).vectors.shape[0] == NUM_CLASSES

    def test_loaded_vectors_not_renormalized(self, tmp_path):
        path = tmp_path / "v.txt"
        rows = "\n".join(f"{name} 2.0 0.0" for name in CLASS_NAMES)
        path.write_text(f"D 2\n{rows}\n")
        e = priors.load_vectors(path)
        np.testing.assert_array_equal(np.linalg.norm(e.vectors, axis=1),
                                      np.full(NUM_CLASSES, 2.0))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_a_value_not_finite_in_float32_is_rejected_naming_its_line(self, tmp_path,
                                                                       value):
        # 1e39 parses as a finite float64 but overflows the float32 model
        path = tmp_path / "v.txt"
        rows = [f"{name} 0.5 0.25" for name in CLASS_NAMES]
        rows[2] = f"{CLASS_NAMES[2]} 0.5 {value}"
        path.write_text("D 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=f"{path}:4: a value is not finite in float32"):
            priors.load_vectors(path)

    def test_the_largest_float32_value_is_accepted(self, tmp_path):
        path = tmp_path / "v.txt"
        big = float(np.finfo(np.float32).max)
        path.write_text("D 1\n" + "".join(f"{name} {-big!r}\n" for name in CLASS_NAMES))
        np.testing.assert_array_equal(priors.load_vectors(path).vectors, -big)

    def test_a_word_given_twice_in_any_case_is_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "v.txt"
        rows = [f"{name} 0.5 0.25" for name in CLASS_NAMES] + ["Road 1 2"]
        path.write_text("D 2\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputError, match=f"{path}:{NUM_CLASSES + 2}: word 'Road' is "
                                             "already given on line 2"):
            priors.load_vectors(path)


class TestProj:
    def test_uniform_map_carries_single_vector(self):
        e = priors.build_random(8, seed=2)
        labels = np.full((4, 5), 3, dtype=np.uint8)
        out = priors.proj(labels, e)
        assert out.shape == (1, 8, 4, 5)
        for y in range(4):
            for x in range(5):
                np.testing.assert_array_equal(out.data[0, :, y, x], e.vectors[3])

    def test_two_by_two_layout(self):
        # label map [[1,1],[2,3]] pastes e_1, e_1, e_2, e_3
        e = priors.build_one_hot()
        labels = np.array([[1, 1], [2, 3]], dtype=np.uint8)
        out = priors.proj(labels, e).data[0]
        np.testing.assert_array_equal(out[:, 0, 0], e.vectors[1])
        np.testing.assert_array_equal(out[:, 0, 1], e.vectors[1])
        np.testing.assert_array_equal(out[:, 1, 0], e.vectors[2])
        np.testing.assert_array_equal(out[:, 1, 1], e.vectors[3])

    def test_random_labels_match_lookup(self):
        rng = np.random.default_rng(3)
        e = priors.build_random(16, seed=4)
        labels = rng.integers(0, NUM_CLASSES, size=(4, 4)).astype(np.uint8)
        out = priors.proj(labels, e).data[0]
        for y in range(4):
            for x in range(4):
                np.testing.assert_array_equal(out[:, y, x], e.vectors[labels[y, x]])

    def test_batch_matches_each_image(self):
        rng = np.random.default_rng(5)
        e = priors.build_random(16, seed=6)
        labels = rng.integers(0, NUM_CLASSES, size=(3, 4, 5)).astype(np.uint8)
        labels[1, 2, 3] = IGNORE_ID
        out = priors.proj(labels, e).data
        assert out.shape == (3, 16, 4, 5) and out.flags["C_CONTIGUOUS"]
        for i in range(3):
            np.testing.assert_array_equal(out[i], priors.proj(labels[i], e).data[0])

    def test_ignore_pixels_carry_zero_vector(self):
        e = priors.build_one_hot()
        labels = np.array([[0, IGNORE_ID]], dtype=np.uint8)
        out = priors.proj(labels, e).data[0]
        np.testing.assert_array_equal(out[:, 0, 1], np.zeros(NUM_CLASSES))

    @pytest.mark.parametrize("bad_id", [-1, -2, NUM_CLASSES])
    def test_label_id_outside_the_table_is_rejected(self, bad_id):
        # -1 and NUM_CLASSES once read the ignore row, and -2 the last class
        labels = np.zeros((2, 3), dtype=np.int16)
        labels[1, 2] = bad_id
        with pytest.raises(InputError, match="label id outside the embedding table"):
            priors.proj(labels, priors.build_one_hot())

    def test_the_map_is_the_one_map_sized_allocation(self):
        labels = np.random.default_rng(7).integers(0, NUM_CLASSES, size=(2, 32, 32))
        e = priors.build_random(64, seed=8)
        tracemalloc.start()
        try:
            out = priors.proj(labels, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        map_bytes = out.data.nbytes
        assert map_bytes <= peak < map_bytes + map_bytes // 4, (peak, map_bytes)

    def test_result_requires_no_grad(self):
        e = priors.build_one_hot()
        out = priors.proj(np.zeros((2, 2), dtype=np.uint8), e)
        assert not out.requires_grad and out.op is None

    def test_one_hot_channel_sum_is_one_off_ignore(self):
        e = priors.build_one_hot()
        labels = np.array([[0, 1], [IGNORE_ID, 5]], dtype=np.uint8)
        sums = priors.proj(labels, e).data[0].sum(axis=0)
        np.testing.assert_array_equal(sums, [[1.0, 1.0], [0.0, 1.0]])


class TestDownsample:
    def test_uniform_map_unchanged_both_modes(self):
        e = priors.build_random(8, seed=5)
        labels = np.full((8, 8), 2, dtype=np.uint8)
        full = priors.proj(labels, e)
        for mode in ("bilinear", "nearest"):
            out = priors.downsample_embedding(full, 2, 2, mode)
            for y in range(2):
                for x in range(2):
                    np.testing.assert_allclose(out.data[0, :, y, x], e.vectors[2],
                                               atol=1e-12)

    def test_minority_pixel_survives_bilinear_not_nearest(self):
        # 8 -> 2 samples source coordinate 1.5: bilinear blends pixels 1 and 2,
        # nearest takes pixel 1. A lone class at (2, 2) is therefore visible
        # to bilinear only.
        e = priors.build_one_hot()
        labels = np.zeros((8, 8), dtype=np.uint8)
        labels[2, 2] = 5
        full = priors.proj(labels, e)
        bilinear = priors.downsample_embedding(full, 2, 2, "bilinear").data[0, 5]
        nearest = priors.downsample_embedding(full, 2, 2, "nearest").data[0, 5]
        assert bilinear.max() > 0.0
        assert nearest.max() == 0.0

    def test_nearest_2x_decimation_is_subsampling(self):
        e = priors.build_random(4, seed=6)
        rng = np.random.default_rng(7)
        labels = rng.integers(0, NUM_CLASSES, size=(8, 10)).astype(np.uint8)
        full = priors.proj(labels, e)
        out = priors.downsample_embedding(full, 4, 5, "nearest")
        # source coordinate (d+0.5)*2-0.5 = 2d+0.5, ties resolve downward
        np.testing.assert_array_equal(out.data, full.data[:, :, ::2, ::2])

    def test_identity_at_full_resolution(self):
        e = priors.build_random(4, seed=8)
        rng = np.random.default_rng(9)
        labels = rng.integers(0, NUM_CLASSES, size=(6, 6)).astype(np.uint8)
        full = priors.proj(labels, e)
        for mode in ("bilinear", "nearest"):
            out = priors.downsample_embedding(full, 6, 6, mode)
            np.testing.assert_array_equal(out.data, full.data)

    def test_enlarging_rejected(self):
        e = priors.build_one_hot()
        full = priors.proj(np.zeros((4, 4), dtype=np.uint8), e)
        with pytest.raises(DimensionError):
            priors.downsample_embedding(full, 8, 8)

    def test_unknown_mode_rejected(self):
        e = priors.build_one_hot()
        full = priors.proj(np.zeros((4, 4), dtype=np.uint8), e)
        with pytest.raises(InputError):
            priors.downsample_embedding(full, 2, 2, "area")


class TestFrozenContract:
    def test_vectors_write_protected(self):
        e = priors.build_one_hot()
        with pytest.raises(ValueError):
            e.vectors[0, 0] = 2.0

    def test_make_embeddings_dispatch(self, tmp_path):
        np.testing.assert_array_equal(priors.make_embeddings("onehot").vectors,
                                      np.eye(NUM_CLASSES))
        assert priors.make_embeddings("random", dim=32, seed=1).dim == 32
        # any other value is the path of a vector file
        path = tmp_path / "vectors.txt"
        saved = priors.build_random(4, seed=2)
        priors.save_vectors(path, saved)
        np.testing.assert_array_equal(priors.make_embeddings(str(path)).vectors,
                                      saved.vectors)
        with pytest.raises(InputError, match="clip"):
            priors.make_embeddings("clip")
