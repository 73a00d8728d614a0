import math
import re

import numpy as np
import pytest

from daplab import analysis
from daplab import model as m
from daplab.classes import IGNORE_ID, NUM_CLASSES
from daplab.datagen import LabeledImage, read_pgm
from daplab.errors import InputError


def gaussian(mean, variance, class_id=0):
    return analysis.ClassGaussian(class_id, np.asarray(mean, dtype=np.float64),
                                  np.asarray(variance, dtype=np.float64), 1000)


def argmax_cases():
    """(name, [C,H,W] logits) volumes whose labels must equal np.argmax's."""
    rng = np.random.default_rng(41)
    inf, nan = np.inf, np.nan
    yield "float32", rng.normal(size=(6, 64, 64)).astype(np.float32)
    yield "float64", rng.normal(size=(6, 17, 9))
    # drawn from three values, so most pixels hold exact ties across classes
    yield "ties", rng.integers(-1, 2, size=(6, 16, 16)).astype(np.float32)
    yield "one_class", rng.normal(size=(1, 4, 4)).astype(np.float32)
    yield "signed_zeros", rng.choice(np.array([-0.0, 0.0], np.float32), size=(6, 8, 8))
    pixels = np.array([
        [-0.0, 0.0, 0.0, -0.0, -1.0, -2.0],
        [0.0, -0.0, -0.0, 0.0, -1.0, -2.0],
        [inf, inf, 1.0, 2.0, 3.0, 4.0],
        [1.0, inf, 2.0, inf, 3.0, 4.0],
        [-inf, -inf, -inf, -inf, -inf, -inf],
        [-inf, -inf, -inf, -inf, -inf, -1e30],
        [inf, -inf, inf, -inf, inf, -inf],
    ], np.float32)
    yield "infinities", pixels.T[:, :, None]
    nans = np.array([
        [nan, 1.0, 2.0, 3.0, 4.0, 5.0],
        [1.0, 2.0, nan, 3.0, nan, 5.0],
        [5.0, 4.0, 3.0, 2.0, 1.0, nan],
        [nan, nan, nan, nan, nan, nan],
        [inf, 1.0, nan, -inf, 0.0, 2.0],
        [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    ], np.float32)
    yield "nans", nans.T[:, :, None]
    one_nan = rng.normal(size=(6, 32, 32)).astype(np.float32)
    one_nan[3, 7, 11] = nan
    yield "one_nan", one_nan


class TestArgmaxLabels:
    @pytest.mark.parametrize("logits", [pytest.param(logits, id=name)
                                        for name, logits in argmax_cases()])
    def test_labels_equal_numpy_argmax(self, logits):
        got = analysis.argmax_labels(logits)
        assert got.dtype == np.uint8 and got.shape == logits.shape[1:]
        np.testing.assert_array_equal(got, np.argmax(logits, axis=0))

    def test_logits_are_left_unchanged(self):
        logits = np.random.default_rng(42).normal(size=(6, 8, 8)).astype(np.float32)
        before = logits.copy()
        analysis.argmax_labels(logits)
        assert logits.tobytes() == before.tobytes()


class TestEvaluate:
    def test_perfect_prediction_scores_one(self):
        state = m.init_student(seed=0)
        rng = np.random.default_rng(0)
        items = []
        for _ in range(3):
            image = rng.uniform(size=(3, 16, 16))
            items.append(LabeledImage(image, analysis.predict_labels(state, image)))
        metrics = analysis.evaluate(state, items)
        present = ~np.isnan(metrics.per_class_iou)
        assert metrics.miou == 1.0
        np.testing.assert_array_equal(metrics.per_class_iou[present], 1.0)

    def test_hand_counted_iou(self):
        # class 1: TP=4, FP=2, FN=1 -> IOU = 4/7
        truth = np.zeros((4, 4), dtype=np.uint8)
        truth[0, :4] = 1
        truth[1, 0] = 1
        pred = np.zeros((4, 4), dtype=np.uint8)
        pred[0, :4] = 1          # 4 true positives
        pred[1, 0] = 0           # 1 false negative
        pred[2, 0] = 1           # 2 false positives
        pred[2, 1] = 1
        confusion = analysis.confusion_from_pairs(truth, pred)
        metrics = analysis.metrics_from_confusion(confusion)
        assert metrics.per_class_iou[1] == pytest.approx(4.0 / 7.0)

    def test_confusion_row_sums_match_truth_counts(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, NUM_CLASSES, size=(8, 8)).astype(np.uint8)
        pred = rng.integers(0, NUM_CLASSES, size=(8, 8)).astype(np.uint8)
        confusion = analysis.confusion_from_pairs(truth, pred)
        np.testing.assert_array_equal(
            confusion.sum(axis=1),
            np.bincount(truth.ravel(), minlength=NUM_CLASSES))

    def test_ignore_pixels_excluded(self):
        truth = np.array([[0, IGNORE_ID]], dtype=np.uint8)
        pred = np.array([[0, 3]], dtype=np.uint8)
        confusion = analysis.confusion_from_pairs(truth, pred)
        assert confusion.sum() == 1

    def test_absent_class_excluded_from_miou(self):
        confusion = np.zeros((3, 3), dtype=np.int64)
        confusion[0, 0] = 5
        confusion[1, 1] = 3
        confusion[1, 0] = 1
        metrics = analysis.metrics_from_confusion(confusion)
        assert np.isnan(metrics.per_class_iou[2])
        # class 0: TP=5, FP=1 -> 5/6; class 1: TP=3, FN=1 -> 3/4
        assert metrics.miou == pytest.approx((5.0 / 6.0 + 3.0 / 4.0) / 2.0)

    def test_order_invariance(self):
        state = m.init_student(seed=2)
        rng = np.random.default_rng(3)
        items = [LabeledImage(rng.uniform(size=(3, 16, 16)),
                              rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8))
                 for _ in range(4)]
        a = analysis.evaluate(state, items)
        b = analysis.evaluate(state, items[::-1])
        np.testing.assert_array_equal(a.confusion, b.confusion)
        assert a.miou == b.miou

    def test_empty_split_rejected(self):
        with pytest.raises(InputError):
            analysis.evaluate(m.init_student(seed=0), [])

    def test_generator_of_items_is_accepted_and_an_empty_one_rejected(self):
        state = m.init_student(seed=2)
        rng = np.random.default_rng(4)
        items = [LabeledImage(rng.uniform(size=(3, 16, 16)),
                              rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8))
                 for _ in range(3)]
        from_list = analysis.evaluate(state, items)
        from_generator = analysis.evaluate(state, (item for item in items))
        np.testing.assert_array_equal(from_generator.confusion, from_list.confusion)
        with pytest.raises(InputError, match="empty split"):
            analysis.evaluate(state, (item for item in []))


class TestClassFeatureStats:
    def test_identical_features_give_exact_mean_floored_variance(self):
        v = np.array([1.0, -2.0, 3.0])
        stats = analysis.fit_class_gaussians({0: [np.tile(v, (40, 1))]})
        np.testing.assert_array_equal(stats[0].mean, v)
        np.testing.assert_array_equal(stats[0].variance,
                                      np.full(3, analysis.VARIANCE_FLOOR))
        assert stats[0].count == 40

    def test_synthetic_clouds_match_closed_form(self):
        rng = np.random.default_rng(4)
        mean_a, mean_b = np.array([2.0, 0.0]), np.array([1.0, 1.0])
        cloud_a = mean_a + rng.normal(size=(500, 2))
        cloud_b = mean_b + rng.normal(size=(500, 2))
        # recenter so the sample means are exactly the targets
        cloud_a += mean_a - cloud_a.mean(axis=0)
        cloud_b += mean_b - cloud_b.mean(axis=0)
        stats = analysis.fit_class_gaussians({0: [cloud_a], 1: [cloud_b]})
        np.testing.assert_allclose(stats[0].mean, mean_a, atol=1e-12)
        np.testing.assert_allclose(stats[1].mean, mean_b, atol=1e-12)
        expected = (mean_a @ mean_b) / (np.linalg.norm(mean_a) * np.linalg.norm(mean_b))
        cosine = analysis.relationship_matrix([stats[0].mean, stats[1].mean])
        assert cosine[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_absent_class_marked_none(self):
        state = m.init_student(seed=5)
        rng = np.random.default_rng(6)
        image = rng.uniform(size=(3, 16, 16))
        labels = np.zeros((16, 16), dtype=np.uint8)   # only class 0 present
        stats, cosine = analysis.class_feature_stats(
            state, [LabeledImage(image, labels)], [0, 5])
        assert stats[0] is not None and stats[0].count > 0
        assert stats[5] is None
        assert np.isnan(cosine[0, 1]) and np.isnan(cosine[1, 1])
        assert cosine[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_a_zero_class_mean_names_the_class(self):
        # all-zero weights give all-zero features, so no class mean has a cosine
        state = m.init_student(seed=5)
        for p in state.params.values():
            p.data = np.zeros_like(p.data)
        item = LabeledImage(np.full((3, 16, 16), 0.5), np.full((16, 16), 3, np.uint8))
        with pytest.raises(InputError, match="zero vector for the feature mean of class 3"):
            analysis.class_feature_stats(state, [item], [0, 3])

    def test_nearest_label_downsampling_convention(self):
        labels = np.arange(64, dtype=np.uint8).reshape(8, 8) % NUM_CLASSES
        small = analysis.nearest_labels(labels, 4, 4)
        np.testing.assert_array_equal(small, labels[::2, ::2])


class TestGaussianIOU:
    def test_identical_gaussians_score_one(self):
        a = gaussian([0.0, 1.0], [1.0, 2.0])
        b = gaussian([0.0, 1.0], [1.0, 2.0], class_id=1)
        iou = analysis.gaussian_iou(a, b, 100_000, np.random.default_rng(0))
        assert 0.98 <= iou <= 1.0

    def test_far_apart_gaussians_barely_overlap(self):
        a = gaussian([0.0], [1.0])
        b = gaussian([20.0], [1.0], class_id=1)
        iou = analysis.gaussian_iou(a, b, 10_000, np.random.default_rng(1))
        assert iou < 0.01

    def test_one_dimensional_closed_form(self):
        # means 0 and 2, unit variance: the density boundary is x = 1, so
        # r = Phi(-1) on both sides and the score is 2*Phi(-1)/(2-2*Phi(-1))
        phi = 0.5 * (1.0 + math.erf(-1.0 / math.sqrt(2.0)))
        expected = 2.0 * phi / (2.0 - 2.0 * phi)
        assert expected == pytest.approx(0.1886, abs=5e-4)
        a = gaussian([0.0], [1.0])
        b = gaussian([2.0], [1.0], class_id=1)
        iou = analysis.gaussian_iou(a, b, 100_000, np.random.default_rng(2))
        assert iou == pytest.approx(expected, abs=0.01)

    def test_symmetry_in_expectation(self):
        a = gaussian([0.0, 0.0], [1.0, 1.0])
        b = gaussian([1.0, 0.5], [2.0, 1.0], class_id=1)
        ab = analysis.gaussian_iou(a, b, 100_000, np.random.default_rng(3))
        ba = analysis.gaussian_iou(b, a, 100_000, np.random.default_rng(4))
        assert abs(ab - ba) < 0.02

    def test_monotone_decrease_with_separation(self):
        rng = np.random.default_rng(5)
        scores = []
        for offset in (0.0, 0.5, 1.0, 2.0, 4.0):
            a = gaussian([0.0, 0.0], [1.0, 1.0])
            b = gaussian([offset, 0.0], [1.0, 1.0], class_id=1)
            scores.append(analysis.gaussian_iou(a, b, 50_000, rng))
        assert all(x > y for x, y in zip(scores, scores[1:]))

    @staticmethod
    def allocating_formula(a, b, n_samples, rng):
        """The score as computed with a fresh array for every term."""
        def log_density(points, g):
            centered = points - g.mean
            return -0.5 * ((centered * centered / g.variance).sum(axis=1)
                           + np.log(g.variance).sum()
                           + g.mean.size * np.log(2.0 * np.pi))

        def rate(src, other):
            draws = src.mean + np.sqrt(src.variance) * rng.standard_normal(
                (n_samples, src.mean.size))
            lp_src = log_density(draws, src)
            lp_other = log_density(draws, other)
            return float(((lp_other > lp_src) + 0.5 * (lp_other == lp_src)).mean())

        r_a = rate(a, b)
        r_b = rate(b, a)
        return (r_a + r_b) / (2.0 - r_a - r_b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_score_and_draws_are_bit_identical_to_the_allocating_formula(self, dtype):
        # float32 means and variances are what class_feature_stats fits
        rng = np.random.default_rng(14)
        a, b = (analysis.ClassGaussian(c, rng.normal(size=32).astype(dtype),
                                       rng.uniform(0.1, 2.0, size=32).astype(dtype), 500)
                for c in (4, 5))
        ours, theirs = np.random.default_rng(77), np.random.default_rng(77)
        score = analysis.gaussian_iou(a, b, 4000, ours)
        assert score == self.allocating_formula(a, b, 4000, theirs)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_small_sample_count_rejected(self):
        a = gaussian([0.0], [1.0])
        with pytest.raises(InputError):
            analysis.gaussian_iou(a, a, 10, np.random.default_rng(6))

    def test_degenerate_covariance_rejected(self):
        a = gaussian([0.0], [1.0])
        bad = gaussian([0.0], [0.0], class_id=1)
        with pytest.raises(InputError):
            analysis.gaussian_iou(a, bad, 1000, np.random.default_rng(7))


class TestRelationshipMatrix:
    def test_orthonormal_rows_give_identity(self):
        np.testing.assert_allclose(analysis.relationship_matrix(np.eye(4)),
                                   np.eye(4), atol=1e-15)

    def test_one_hot_embeddings_give_identity(self):
        from daplab.priors import build_one_hot
        e = build_one_hot()
        np.testing.assert_allclose(analysis.relationship_matrix(e.vectors),
                                   np.eye(NUM_CLASSES), atol=1e-15)

    def test_known_planar_angles(self):
        vectors = np.array([[1.0, 0.0],
                            [math.cos(math.pi / 3), math.sin(math.pi / 3)],
                            [0.0, 2.0]])
        rel = analysis.relationship_matrix(vectors)
        assert rel[0, 1] == pytest.approx(math.cos(math.pi / 3), abs=1e-12)
        assert rel[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert rel[1, 2] == pytest.approx(math.cos(math.pi / 6), abs=1e-12)
        np.testing.assert_allclose(rel, rel.T, atol=1e-15)
        np.testing.assert_allclose(np.diag(rel), 1.0, atol=1e-12)

    def test_zero_row_names_class(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(InputError, match="sidewalk"):
            analysis.relationship_matrix(vectors, names=("road", "sidewalk"))


class TestHeatmap:
    def test_identity_matrix_bins(self, tmp_path):
        path = tmp_path / "rel.pgm"
        analysis.emit_heatmap(np.eye(3), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 3\n255\n")
        pixels = np.frombuffer(data[-9:], dtype=np.uint8).reshape(3, 3)
        assert (np.diag(pixels) == 255).all()
        off = pixels[~np.eye(3, dtype=bool)]
        assert (off < 255).all() and (off == off[0]).all()

    def test_constant_matrix_uniform_image(self, tmp_path):
        path = tmp_path / "c.pgm"
        analysis.emit_heatmap(np.full((2, 2), 0.25), path)
        pixels = np.frombuffer(path.read_bytes()[-4:], dtype=np.uint8)
        assert (pixels == pixels[0]).all()

    def test_sidecar_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        matrix = rng.uniform(-1, 1, size=(4, 4))
        path = tmp_path / "m.pgm"
        analysis.emit_heatmap(matrix, path)
        parsed = np.loadtxt(tmp_path / "m.pgm.csv", delimiter=",", ndmin=2)
        np.testing.assert_allclose(parsed, matrix, atol=5e-7)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(InputError):
            analysis.emit_heatmap(np.array([[np.inf]]), tmp_path / "x.pgm")

    def test_a_2x3_matrix_reads_back_as_a_2x3_pixmap(self, tmp_path):
        path = tmp_path / "wide.pgm"
        analysis.emit_heatmap(np.array([[-1.0, 0.0, 1.0], [1.0, 1.0, -1.0]]), path)
        assert path.read_bytes().startswith(b"P5\n3 2\n255\n")
        np.testing.assert_array_equal(read_pgm(path), [[0, 128, 255], [255, 255, 0]])

    def test_values_clipped(self, tmp_path):
        path = tmp_path / "clip.pgm"
        analysis.emit_heatmap(np.array([[5.0, -5.0]]), path)
        pixels = np.frombuffer(path.read_bytes()[-2:], dtype=np.uint8)
        np.testing.assert_array_equal(pixels, [255, 0])


class TestMetricsCSV:
    def test_metrics_csv_layout(self, tmp_path):
        metrics = analysis.metrics_from_confusion(np.eye(NUM_CLASSES, dtype=np.int64))
        path = tmp_path / "metrics.csv"
        analysis.write_metrics_csv(metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,iou"
        assert lines[1].startswith("road,")
        assert lines[-1] == "miou,1.000000"

    def test_confusion_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        confusion = rng.integers(0, 50, size=(NUM_CLASSES, NUM_CLASSES))
        path = tmp_path / "confusion.csv"
        analysis.write_confusion_csv(confusion, path)
        np.testing.assert_array_equal(analysis.read_confusion_csv(path), confusion)

    @pytest.mark.parametrize("cell, row, line", [("x", 2, 3), ("-1", 3, 4), ("1,2", 0, 1),
                                                 ("2.5", 5, 6)],
                             ids=["not-an-integer", "negative", "ragged", "fraction"])
    def test_confusion_csv_with_a_bad_cell_or_row_is_rejected_naming_its_line(
            self, tmp_path, cell, row, line):
        rows = [["7"] * NUM_CLASSES for _ in range(NUM_CLASSES)]
        rows[row][1] = cell
        path = tmp_path / "confusion.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        with pytest.raises(InputError, match=f"^{re.escape(str(path))}:{line}: "):
            analysis.read_confusion_csv(path)

    @pytest.mark.parametrize("text, line", [("1,2\n3,4\n", 3), ("", 1),
                                            ("1,1,1,1,1,1\n" * 7, 7)],
                             ids=["2x2", "empty", "7-rows"])
    def test_confusion_csv_that_is_not_num_classes_square_is_rejected(self, tmp_path,
                                                                      text, line):
        path = tmp_path / "confusion.csv"
        path.write_text(text)
        with pytest.raises(InputError,
                           match=f"^{re.escape(str(path))}:{line}: expected {NUM_CLASSES} rows"):
            analysis.read_confusion_csv(path)
