import math
import os
import time

import numpy as np
import pytest

from daplab import analysis
from daplab import datagen as dg
from daplab import model as md
from daplab import tensor as tc
from daplab import trainer as tr
from daplab.classes import NUM_CLASSES
from daplab.datagen import DatasetBundle
from daplab.errors import InputError
from daplab.priors import build_one_hot, build_random
from daplab.tensor import Tensor


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    src, tgt = dg.preset_specs("gap-default", seed=21)
    dg.make_benchmark(src, tgt, 8, 8, 3, root, height=32, width=32)
    return DatasetBundle(root)


def small_config(**overrides):
    defaults = dict(steps=6, heldout_source=0, checkpoint_every=0, seed=5)
    defaults.update(overrides)
    return tr.TrainConfig(**defaults)


class TestConfig:
    def test_round_trip_through_file(self, tmp_path):
        config = tr.TrainConfig(alpha=0.75, ema_lambda=0.5, steps=12,
                                prior="random", prior_dim=64, interp="nearest",
                                pseudo_acc_diagnostic=True)
        path = tmp_path / "config.txt"
        path.write_text(tr.config_to_text(config))
        assert tr.parse_config(path) == config

    def test_lambda_key_spelling(self, tmp_path):
        assert "lambda = 0.99" in tr.config_to_text(tr.TrainConfig())
        path = tmp_path / "c.txt"
        path.write_text("lambda = 0.5\nsteps = 3\n# a comment\nalpha = 2.0\n")
        config = tr.parse_config(path)
        assert config.ema_lambda == 0.5 and config.steps == 3 and config.alpha == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("warp_factor = 9\n")
        with pytest.raises(InputError):
            tr.parse_config(path)

    def test_invalid_values_rejected(self):
        with pytest.raises(InputError):
            tr.TrainConfig(alpha=-1.0)
        with pytest.raises(InputError):
            tr.TrainConfig(ema_lambda=1.5)


class TestPseudoLabel:
    def test_dominant_logits_give_uniform_map(self):
        logits = np.zeros((NUM_CLASSES, 4, 4))
        logits[2] = 5.0
        np.testing.assert_array_equal(analysis.argmax_labels(logits), 2)

    def test_exact_tie_takes_lower_class_id(self):
        logits = np.zeros((NUM_CLASSES, 2, 2))
        logits[1] = 3.0
        logits[4] = 3.0
        np.testing.assert_array_equal(analysis.argmax_labels(logits), 1)

    def test_random_logits_match_scalar_argmax(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(6, 4, 4))
        got = analysis.argmax_labels(logits)
        for y in range(4):
            for x in range(4):
                best, best_v = 0, logits[0, y, x]
                for c in range(1, 6):
                    if logits[c, y, x] > best_v:
                        best, best_v = c, logits[c, y, x]
                assert got[y, x] == best

    def test_teacher_evaluated_without_gradient(self, bundle):
        trainer = tr.Trainer(small_config(), bundle)
        pseudo = tr.pseudo_label(trainer.teacher, bundle.target_image(0))
        assert pseudo.shape == (32, 32)
        assert all(p.grad is None for p in trainer.teacher.params.values())


def dap_loss(state, image, labels, embeddings):
    """The DAP term of one [3,H,W] image, from a fresh forward pass."""
    out = md.forward(state, Tensor(image[None]))
    return tr.dap_term(state, out.projected_features, labels, embeddings, "bilinear")


class TestDapLoss:
    def test_zero_projectors_give_zero_loss(self):
        state = md.init_student(seed=1)
        state.params["gvi.conv"].data[:] = 0.0
        state.params["gpr.conv"].data[:] = 0.0
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(3, 16, 16))
        labels = rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8)
        loss = dap_loss(state, image, labels, build_one_hot(NUM_CLASSES))
        assert loss.item() == 0.0

    def test_invariant_to_joint_class_permutation(self):
        state = md.init_student(seed=3)
        rng = np.random.default_rng(4)
        image = rng.uniform(size=(3, 16, 16))
        labels = rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8)
        embeddings = build_one_hot(NUM_CLASSES)

        perm = np.array([2, 0, 4, 1, 5, 3])
        permuted_labels = perm[labels].astype(np.uint8)
        inverse = np.argsort(perm)
        permuted_vectors = embeddings.vectors[inverse]
        from daplab.priors import EmbeddingSet
        permuted = EmbeddingSet("one_hot", NUM_CLASSES,
                                permuted_vectors.copy(), embeddings.class_names)

        base = dap_loss(state, image, labels, embeddings).item()
        swapped = dap_loss(state, image, permuted_labels, permuted).item()
        assert abs(base - swapped) < 1e-10

    def test_gradient_reaches_projectors_and_backbone_not_head(self):
        state = md.init_student(seed=5, prior_dim=16)
        rng = np.random.default_rng(6)
        image = rng.uniform(size=(3, 16, 16))
        labels = rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8)
        loss = dap_loss(state, image, labels, build_random(NUM_CLASSES, 16, 7))
        tc.backward(loss)
        assert state.params["gpr.conv"].grad is not None
        assert state.params["gvi.conv"].grad is not None
        assert state.params["backbone.conv1"].grad is not None
        assert state.params["head.conv"].grad is None

    def test_finite_difference_on_prior_projector(self):
        state = md.init_student(seed=8)
        rng = np.random.default_rng(9)
        image = rng.uniform(size=(3, 8, 8))
        labels = rng.integers(0, NUM_CLASSES, (8, 8)).astype(np.uint8)
        embeddings = build_one_hot(NUM_CLASSES)

        loss = dap_loss(state, image, labels, embeddings)
        tc.backward(loss)
        analytic = state.params["gpr.conv"].grad.copy()

        p = state.params["gpr.conv"]
        eps = 1e-4
        numeric = np.zeros_like(p.data)
        flat, nflat = p.data.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = dap_loss(state, image, labels, embeddings).item()
            flat[i] = keep - eps
            lo = dap_loss(state, image, labels, embeddings).item()
            flat[i] = keep
            nflat[i] = (hi - lo) / (2 * eps)
        denom = max(np.abs(analytic).max(), np.abs(numeric).max())
        assert np.abs(analytic - numeric).max() / denom < 1e-3


class TestTrainStep:
    def test_alpha_zero_degenerates_to_seg_loss(self, bundle):
        trainer = tr.Trainer(small_config(alpha=0.0), bundle)
        record = trainer.train_step()
        assert record.l_overall == record.l_seg
        assert record.l_dap == 0.0
        assert trainer.student.params["gpr.conv"].grad is None
        assert trainer.student.params["gvi.conv"].grad is None

    def test_overall_loss_composition_logged_exactly(self, bundle):
        trainer = tr.Trainer(small_config(alpha=0.7), bundle)
        for _ in range(3):
            record = trainer.train_step()
            assert abs(record.l_overall - (record.l_seg + 0.7 * record.l_dap)) < 1e-9

    def test_teacher_and_priors_never_receive_gradients(self, bundle):
        trainer = tr.Trainer(small_config(), bundle)
        frozen_vectors = trainer.embeddings.vectors.copy()
        for _ in range(4):
            trainer.train_step()
        assert all(p.grad is None for p in trainer.teacher.params.values())
        np.testing.assert_array_equal(trainer.embeddings.vectors, frozen_vectors)

    def test_seg_loss_decreases_with_training(self, bundle):
        for seed in range(5):
            trainer = tr.Trainer(small_config(steps=200, seed=seed), bundle)
            records = [trainer.train_step() for _ in range(200)]
            early = np.mean([r.l_seg for r in records[:10]])
            assert records[-1].l_seg < early, f"seed {seed}"


class TestRun:
    def test_zero_steps_writes_initialization_checkpoint(self, bundle, tmp_path):
        config = small_config(steps=0)
        result = tr.run(config, bundle, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines == [tr.METRICS_HEADER]
        arrays = md.load_checkpoint(tmp_path / "run" / "student_final.ckpt")
        fresh = md.init_student(config.seed, NUM_CLASSES, NUM_CLASSES)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, fresh.params[name].data)
        assert result.best_step == 0

    def test_metrics_csv_schema_and_composition(self, bundle, tmp_path):
        config = small_config(steps=4, alpha=1.0)
        tr.run(config, bundle, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == tr.METRICS_HEADER
        assert len(lines) == 5
        for line in lines[1:]:
            fields = line.split(",")
            l_seg, l_dap, l_overall = map(float, fields[1:4])
            assert abs(l_overall - (l_seg + config.alpha * l_dap)) < 1e-9

    def test_trainer_level_resume_is_bit_identical(self, bundle, tmp_path):
        config = small_config(steps=20)
        solid = tr.Trainer(config, bundle)
        for _ in range(20):
            solid.train_step()

        first = tr.Trainer(config, bundle)
        for _ in range(10):
            first.train_step()
        ckpt = tmp_path / "state.ckpt"
        rngs = tmp_path / "state.rng.json"
        first.save_train_state(ckpt, rngs)

        second = tr.Trainer(config, bundle)
        second.load_train_state(ckpt, rngs)
        assert second.step_index == 10
        for _ in range(10):
            second.train_step()

        for name in solid.student.params:
            np.testing.assert_array_equal(solid.student.params[name].data,
                                          second.student.params[name].data)
            np.testing.assert_array_equal(solid.teacher.params[name].data,
                                          second.teacher.params[name].data)

    def test_run_level_resume_continues_to_same_state(self, bundle, tmp_path):
        config = small_config(steps=12, checkpoint_every=4)
        straight = tr.run(config, bundle, tmp_path / "straight")

        interrupted_dir = tmp_path / "interrupted"
        short = small_config(steps=12, checkpoint_every=4)
        trainer = tr.Trainer(short, bundle)
        (interrupted_dir / "checkpoints").mkdir(parents=True)
        (interrupted_dir / "config.txt").write_text(tr.config_to_text(short))
        (interrupted_dir / "metrics.csv").write_text(tr.METRICS_HEADER + "\n")
        with (interrupted_dir / "metrics.csv").open("a") as log:
            for _ in range(8):
                r = trainer.train_step()
                log.write(f"{r.step},{r.l_seg!r},{r.l_dap!r},{r.l_overall!r},"
                          f"{r.pseudo_acc!r},{r.lr!r}\n")
        state = interrupted_dir / "checkpoints" / "state_000008.ckpt"
        trainer.save_train_state(state, state.with_suffix(".rng.json"))

        resumed = tr.run(short, bundle, interrupted_dir, resume=True)
        a = md.load_checkpoint(tmp_path / "straight" / "student_final.ckpt")
        b = md.load_checkpoint(interrupted_dir / "student_final.ckpt")
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert (tmp_path / "straight" / "metrics.csv").read_text() == \
            (interrupted_dir / "metrics.csv").read_text()
        assert straight.final_miou == resumed.final_miou

    def test_resume_rejects_changed_config(self, bundle, tmp_path):
        config = small_config(steps=4, checkpoint_every=2)
        tr.run(config, bundle, tmp_path / "run")
        changed = small_config(steps=4, checkpoint_every=2, alpha=0.5)
        with pytest.raises(InputError):
            tr.run(changed, bundle, tmp_path / "run", resume=True)

    def test_different_seeds_differ(self, bundle, tmp_path):
        a = tr.run(small_config(steps=5, seed=1), bundle, tmp_path / "a")
        b = tr.run(small_config(steps=5, seed=2), bundle, tmp_path / "b")
        arrays_a = md.load_checkpoint(tmp_path / "a" / "student_final.ckpt")
        arrays_b = md.load_checkpoint(tmp_path / "b" / "student_final.ckpt")
        assert any((arrays_a[name] != arrays_b[name]).any() for name in arrays_a)

    def test_run_manifest_lists_artifacts(self, bundle, tmp_path):
        tr.run(small_config(steps=2), bundle, tmp_path / "run")
        manifest = (tmp_path / "run" / "run_manifest.txt").read_text()
        for artifact in ("student_final.ckpt", "metrics.csv", "config.txt",
                         "eval_final_metrics.csv", "eval_best_confusion.csv"):
            assert f"artifact.{artifact}=present" in manifest
        listed = {line.split("=")[0].split(".", 1)[1]
                  for line in manifest.splitlines() if line.startswith("artifact.")}
        actual = {str(p.relative_to(tmp_path / "run"))
                  for p in (tmp_path / "run").rglob("*")
                  if p.is_file() and p.name != "run_manifest.txt"}
        assert listed == actual
        assert manifest.splitlines()[0] == "command=train"

    def test_wallclock_setup_counts_trainer_construction(self, bundle, tmp_path,
                                                         monkeypatch):
        build = tr.Trainer.__init__

        def slow_build(self, *args, **kwargs):
            time.sleep(0.02)
            build(self, *args, **kwargs)

        monkeypatch.setattr(tr.Trainer, "__init__", slow_build)
        tr.run(small_config(steps=1), bundle, tmp_path / "run")
        entries = dg.parse_manifest(tmp_path / "run" / "run_manifest.txt")
        assert float(entries["wallclock.setup"]) >= 0.02

    @pytest.mark.parametrize("failing", [".ckpt", ".rng.json"])
    def test_failed_rename_leaves_no_partial_state(self, bundle, tmp_path,
                                                   monkeypatch, failing):
        trainer = tr.Trainer(small_config(), bundle)
        old = tmp_path / "old" / "state_000001.ckpt"
        old.parent.mkdir()
        trainer.save_train_state(old, old.with_suffix(".rng.json"))
        before = {p.name: p.read_bytes() for p in old.parent.iterdir()}
        trainer.train_step()

        replace = os.replace

        def flaky_replace(src, dst):
            if str(dst).endswith(failing):
                raise OSError("simulated rename failure")
            replace(src, dst)

        monkeypatch.setattr(md.os, "replace", flaky_replace)
        new = tmp_path / "new" / "state_000002.ckpt"
        new.parent.mkdir()
        for target in (old, new):
            with pytest.raises(OSError):
                trainer.save_train_state(target, target.with_suffix(".rng.json"))

        assert not [p for p in new.parent.iterdir() if p.name.endswith(failing)]
        assert not list(new.parent.glob(".*")) and not list(old.parent.glob(".*"))
        assert tr._latest_state(new.parent) is None
        for name, data in before.items():
            if name.endswith(failing):
                assert (old.parent / name).read_bytes() == data


class TripwireBundle(DatasetBundle):
    def __init__(self, root):
        super().__init__(root)
        self.trips = 0

    def target_hidden_labels(self, i):
        self.trips += 1
        return super().target_hidden_labels(i)


class TestHiddenLabelTripwire:
    def test_default_run_never_touches_hidden_labels(self, bundle, tmp_path):
        wired = TripwireBundle(bundle.root)
        tr.run(small_config(steps=8, checkpoint_every=4), wired, tmp_path / "run")
        assert wired.trips == 0

    def test_diagnostic_mode_uses_evaluation_accessor(self, bundle, tmp_path):
        wired = TripwireBundle(bundle.root)
        config = small_config(steps=4, pseudo_acc_diagnostic=True)
        tr.run(config, wired, tmp_path / "run")
        assert wired.trips == 4
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
        accs = [float(line.split(",")[4]) for line in lines]
        assert all(0.0 <= a <= 1.0 for a in accs)


class TestSupervisedControl:
    def test_identical_domains_close_transfer_gap(self, tmp_path):
        # with no domain gap, training on source labels vs (hidden) target
        # labels gives nearly the same test accuracy
        src, tgt = dg.preset_specs("gap-none", seed=33)
        root = tmp_path / "flat"
        dg.make_benchmark(src, tgt, 16, 16, 8, root, height=32, width=32)
        bundle = DatasetBundle(root)

        source_items = [bundle.source(i) for i in range(bundle.n_source)]
        oracle_items = [dg.LabeledImage(bundle.target_image(i),
                                        bundle.target_hidden_labels(i))
                        for i in range(bundle.n_target)]
        test_items = [bundle.test(i) for i in range(bundle.n_test)]

        source_only = tr.train_supervised(source_items, steps=500, seed=1)
        oracle = tr.train_supervised(oracle_items, steps=500, seed=1)
        miou_source = analysis.evaluate(source_only, test_items).miou
        miou_oracle = analysis.evaluate(oracle, test_items).miou
        assert abs(miou_oracle - miou_source) < 0.03
