import math

import numpy as np
import pytest

from daplab import mixing
from daplab.classes import IGNORE_ID
from daplab.datagen import LabeledImage
from daplab.errors import DimensionError, InputError


def toy_pair(seed=0, size=4):
    rng = np.random.default_rng(seed)
    source = LabeledImage(rng.uniform(size=(3, size, size)),
                          rng.integers(0, 4, size=(size, size)).astype(np.uint8))
    target = rng.uniform(size=(3, size, size))
    pseudo = rng.integers(0, 4, size=(size, size)).astype(np.uint8)
    return source, target, pseudo


class TestSampleClassSubset:
    def test_single_class_map_selects_it(self):
        labels = np.full((4, 4), 3, dtype=np.uint8)
        subset = mixing.sample_class_subset(labels, np.random.default_rng(0))
        assert subset == {3}

    def test_four_classes_give_two_present_ones(self):
        labels = np.array([[0, 1], [2, 5]], dtype=np.uint8)
        for seed in range(20):
            subset = mixing.sample_class_subset(labels, np.random.default_rng(seed))
            assert len(subset) == 2
            assert subset <= {0, 1, 2, 5}

    def test_empty_valid_set_raises(self):
        with pytest.raises(InputError):
            mixing.sample_class_subset(np.full((2, 2), IGNORE_ID, dtype=np.uint8),
                                       np.random.default_rng(0))

    def test_three_class_selection_frequency(self):
        # 2 of 3 chosen uniformly: each class appears with probability 2/3
        labels = np.array([[0, 1, 2]], dtype=np.uint8)
        rng = np.random.default_rng(42)
        hits = np.zeros(3)
        draws = 10_000
        for _ in range(draws):
            for c in mixing.sample_class_subset(labels, rng):
                hits[c] += 1
        np.testing.assert_allclose(hits / draws, 2.0 / 3.0, atol=0.02)


def random_label_maps(count, seed):
    """uint8 maps over a random subset of classes, with ignored pixels."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        classes = rng.choice(np.arange(8), size=int(rng.integers(1, 9)), replace=False)
        labels = rng.choice(classes, size=(12, 10)).astype(np.uint8)
        labels[rng.uniform(size=labels.shape) < 0.15] = IGNORE_ID
        yield labels


class TestSubsetFormulas:
    """The table lookups give what np.unique and np.isin gave, bit for bit."""

    def test_subset_draw_and_generator_state_match_np_unique(self):
        for k, labels in enumerate(random_label_maps(50, seed=11)):
            rng_new, rng_old = np.random.default_rng(k), np.random.default_rng(k)
            present = np.unique(labels)
            present = present[present != IGNORE_ID]
            expected = frozenset(int(c) for c in rng_old.choice(
                present, size=math.ceil(present.size / 2), replace=False))
            assert mixing.sample_class_subset(labels, rng_new) == expected
            assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_classmix_mask_matches_np_isin(self):
        rng = np.random.default_rng(12)
        for labels in random_label_maps(50, seed=13):
            source = LabeledImage(rng.uniform(size=(3, *labels.shape)), labels)
            target = rng.uniform(size=(3, *labels.shape))
            pseudo = rng.integers(0, 6, size=labels.shape).astype(np.uint8)
            subset = frozenset(int(c) for c in rng.choice(
                [0, 1, 2, 3, 4, 5, 6, 7, IGNORE_ID], size=int(rng.integers(0, 6)),
                replace=False))
            expected = np.isin(labels, list(subset)) & (labels != IGNORE_ID)
            mixed = mixing.classmix(source, target, pseudo, subset)
            np.testing.assert_array_equal(mixed.mask, expected.astype(np.uint8))
            np.testing.assert_array_equal(mixed.labels, np.where(expected, labels, pseudo))
            np.testing.assert_array_equal(
                mixed.image, np.where(expected[None], source.image, target))


class TestClassmix:
    def test_full_subset_reproduces_source(self):
        source, target, pseudo = toy_pair(1)
        subset = frozenset(np.unique(source.labels).tolist())
        mixed = mixing.classmix(source, target, pseudo, subset)
        np.testing.assert_array_equal(mixed.image, source.image)
        np.testing.assert_array_equal(mixed.labels, source.labels)
        np.testing.assert_array_equal(mixed.mask, 1)

    def test_empty_subset_reproduces_target(self):
        source, target, pseudo = toy_pair(2)
        mixed = mixing.classmix(source, target, pseudo, frozenset())
        np.testing.assert_array_equal(mixed.image, target)
        np.testing.assert_array_equal(mixed.labels, pseudo)
        np.testing.assert_array_equal(mixed.mask, 0)

    def test_hand_built_case_matches_pixel_loop(self):
        source, target, pseudo = toy_pair(3)
        subset = frozenset({1})
        mixed = mixing.classmix(source, target, pseudo, subset)
        for y in range(4):
            for x in range(4):
                if source.labels[y, x] == 1:
                    assert mixed.mask[y, x] == 1
                    assert mixed.labels[y, x] == source.labels[y, x]
                    np.testing.assert_array_equal(mixed.image[:, y, x],
                                                  source.image[:, y, x])
                else:
                    assert mixed.mask[y, x] == 0
                    assert mixed.labels[y, x] == pseudo[y, x]
                    np.testing.assert_array_equal(mixed.image[:, y, x],
                                                  target[:, y, x])

    def test_ignored_source_pixels_never_masked(self):
        source, target, pseudo = toy_pair(4)
        source.labels[0, 0] = IGNORE_ID
        mixed = mixing.classmix(source, target, pseudo,
                                frozenset({0, 1, 2, 3, IGNORE_ID}))
        assert mixed.mask[0, 0] == 0
        assert mixed.labels[0, 0] == pseudo[0, 0]

    def test_mask_partitions_every_pixel(self):
        source, target, pseudo = toy_pair(5)
        mixed = mixing.classmix(source, target, pseudo, frozenset({0, 2}))
        from_source = mixed.mask.astype(bool)
        np.testing.assert_array_equal(
            mixed.image, np.where(from_source[None], source.image, target))
        assert set(np.unique(mixed.mask)) <= {0, 1}

    def test_idempotent_in_labels_on_masked_pixels(self):
        source, target, pseudo = toy_pair(6)
        subset = frozenset({1, 3})
        first = mixing.classmix(source, target, pseudo, subset)
        again = mixing.classmix(LabeledImage(first.image, first.labels),
                                target, pseudo, subset)
        masked = first.mask.astype(bool)
        np.testing.assert_array_equal(again.labels[masked], first.labels[masked])

    def test_size_mismatch_rejected(self):
        source, target, pseudo = toy_pair(7)
        with pytest.raises(DimensionError):
            mixing.classmix(source, target[:, :2], pseudo, frozenset({0}))


class TestAugmentMixed:
    def sample(self, seed=8):
        source, target, pseudo = toy_pair(seed, size=16)
        return mixing.classmix(source, target, pseudo, frozenset({0, 1}))

    def test_labels_and_mask_always_untouched(self):
        sample = self.sample()
        out = mixing.augment_mixed(sample, np.random.default_rng(1))
        np.testing.assert_array_equal(out.labels, sample.labels)
        np.testing.assert_array_equal(out.mask, sample.mask)

    def test_blur_kernel_mass_preserves_constant_image(self):
        # normalized kernel + clamped edges reproduce a constant exactly,
        # so the mean pixel value survives blurring
        out = mixing._blur(np.full((3, 16, 16), 0.4))
        assert abs(out.mean() - 0.4) < 1e-6
        np.testing.assert_allclose(out, 0.4, atol=1e-6)

    def test_the_blur_kernel_is_the_normalized_gaussian_of_blur_sigma(self):
        kernel = mixing.BLUR_KERNEL
        assert mixing.BLUR_SIGMA == 0.5 and kernel.size == 5   # radius ceil(3 sigma)
        np.testing.assert_array_equal(kernel, kernel[::-1])
        assert kernel.sum() == pytest.approx(1.0, abs=1e-15)
        # a tap d pixels from the centre weighs exp(-d^2 / (2 sigma^2)) of it
        np.testing.assert_allclose(kernel[3:] / kernel[2], np.exp([-2.0, -8.0]), rtol=1e-14)

    @staticmethod
    def allocating_formula(image, brightness, contrast):
        """The jitter and blur as computed with np.clip of fresh arrays,
        np.pad edge padding and one product array per tap."""
        image = np.clip((image - 0.5) * contrast + 0.5 + brightness, 0.0, 1.0)
        radius = mixing.BLUR_KERNEL.size // 2
        for axis in (1, 2):
            padding = [(0, 0), (0, 0), (0, 0)]
            padding[axis] = (radius, radius)
            padded = np.pad(image, padding, mode="edge")
            acc = np.zeros_like(image)
            for k, weight in enumerate(mixing.BLUR_KERNEL):
                sl = [slice(None)] * 3
                sl[axis] = slice(k, k + image.shape[axis])
                acc += weight * padded[tuple(sl)]
            image = acc
        return image

    def test_image_is_bit_identical_to_the_allocating_formula(self):
        sample = self.sample(seed=11)
        sample = mixing.MixedSample(sample.image[:, :, :13].copy(), sample.labels[:, :13],
                                    sample.mask[:, :13])
        given = sample.image.copy()
        rng, draws = np.random.default_rng(5), np.random.default_rng(5)
        out = mixing.augment_mixed(sample, rng)
        brightness = draws.uniform(-mixing.JITTER_STRENGTH, mixing.JITTER_STRENGTH)
        contrast = 1.0 + draws.uniform(-mixing.JITTER_STRENGTH, mixing.JITTER_STRENGTH)
        expected = self.allocating_formula(given, brightness, contrast)
        assert out.image.dtype == expected.dtype and out.image.tobytes() == expected.tobytes()
        assert sample.image.tobytes() == given.tobytes()  # the input image is not written
