import dataclasses
import math
import os
import time
import tracemalloc
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from daplab import analysis
from daplab import cli
from daplab import datagen as dg
from daplab import model as md
from daplab import tensor as tc
from daplab import trainer as tr
from daplab.classes import NUM_CLASSES
from daplab.datagen import DatasetBundle
from daplab.errors import InputError, NumericError
from daplab.priors import build_one_hot, build_random, downsample_embedding, proj
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


def non_default_value(field, kind):
    """A valid value other than the field's default, chosen by its type."""
    choices = {"prior": "random", "interp": "nearest"}
    if field.name in choices:
        return choices[field.name]
    if kind is bool:
        return not field.default
    if kind is int:
        return field.default + 1
    if kind is float:
        return field.default / 2


# `daplab train` options that are not TrainConfig fields
RUN_OPTIONS = {"data", "out", "config"}


class TestConfig:
    def test_round_trip_through_file(self, tmp_path):
        kinds = get_type_hints(tr.TrainConfig)
        values = {f.name: non_default_value(f, kinds[f.name])
                  for f in fields(tr.TrainConfig)}
        config = tr.TrainConfig(**values)
        assert all(values[f.name] != f.default for f in fields(tr.TrainConfig))
        path = tmp_path / "config.txt"
        path.write_text(tr.config_to_text(config))
        assert tr.parse_config(path) == config

        # no flag left unset on the command line overrides a file value, and
        # every flag reaches a config field or is a run option
        args = cli.build_parser().parse_args(["train", "--data", "d", "--out", "o",
                                              "--config", str(path)])
        assert cli._train_config(args) == config
        dests = set(vars(args)) - {"command", "func"}
        assert dests <= {f.name for f in fields(tr.TrainConfig)} | RUN_OPTIONS

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

    def test_the_base_rate_is_the_recipe_constant(self, bundle):
        assert "lr" not in {f.name for f in fields(tr.TrainConfig)}
        assert tr.Trainer(small_config(), bundle).optimizer.lr == tr.LR == 0.01
        assert "lr = " not in tr.config_to_text(tr.TrainConfig())

    def test_invalid_values_rejected(self):
        with pytest.raises(InputError):
            tr.TrainConfig(alpha=-1.0)
        with pytest.raises(InputError):
            tr.TrainConfig(ema_lambda=1.5)
        for bad in (dict(checkpoint_every=-1), dict(heldout_source=-1),
                    dict(prior="clip"), dict(interp="cubic")):
            with pytest.raises(InputError, match=next(iter(bad))):
                tr.TrainConfig(**bad)


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


def class_anchors(state, embeddings):
    """The state's anchors for `embeddings`, as Trainer.train_step makes them."""
    return md.project_anchors(state, embeddings.vectors)


def dap_loss(state, image, labels, embeddings):
    """The DAP term of one [3,H,W] image, from a fresh forward pass."""
    out = md.forward(state, Tensor(image[None]))
    return tr.dap_term(class_anchors(state, embeddings), out.projected_features, labels,
                       "bilinear")


class TestDapLoss:
    def test_zero_projectors_give_zero_loss(self):
        state = md.init_student(seed=1)
        state.params["gvi.conv"].data[:] = 0.0
        state.params["gpr.conv"].data[:] = 0.0
        rng = np.random.default_rng(2)
        image = rng.uniform(size=(3, 16, 16))
        labels = rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8)
        loss = dap_loss(state, image, labels, build_one_hot())
        assert loss.item() == 0.0

    def test_invariant_to_joint_class_permutation(self):
        state = md.init_student(seed=3)
        rng = np.random.default_rng(4)
        image = rng.uniform(size=(3, 16, 16))
        labels = rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8)
        embeddings = build_one_hot()

        perm = np.array([2, 0, 4, 1, 5, 3])
        permuted_labels = perm[labels].astype(np.uint8)
        inverse = np.argsort(perm)
        permuted_vectors = embeddings.vectors[inverse]
        from daplab.priors import EmbeddingSet
        permuted = EmbeddingSet(permuted_vectors.copy())

        base = dap_loss(state, image, labels, embeddings).item()
        swapped = dap_loss(state, image, permuted_labels, permuted).item()
        assert abs(base - swapped) < 1e-10

    def test_gradient_reaches_projectors_and_backbone_not_head(self):
        state = md.init_student(seed=5, prior_dim=16)
        rng = np.random.default_rng(6)
        image = rng.uniform(size=(3, 16, 16))
        labels = rng.integers(0, NUM_CLASSES, (16, 16)).astype(np.uint8)
        loss = dap_loss(state, image, labels, build_random(16, 7))
        tc.backward(loss)
        assert state.params["gpr.conv"].grad is not None
        assert state.params["gvi.conv"].grad is not None
        assert state.params["backbone.conv1"].grad is not None
        assert state.params["head.conv"].grad is None

    @pytest.mark.parametrize("embeddings", [build_one_hot(), build_random(16, seed=3)],
                             ids=["onehot", "random16"])
    def test_finite_difference_on_prior_projector(self, embeddings):
        state = md.init_student(seed=8, prior_dim=embeddings.dim)
        rng = np.random.default_rng(9)
        image = rng.uniform(size=(3, 8, 8))
        labels = rng.integers(0, NUM_CLASSES, (8, 8)).astype(np.uint8)

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

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_batch_term_doubled_equals_the_sum_of_per_image_terms(self, dtype):
        # train_step takes the term once over its batch of two and doubles
        # it; 48x48 does not split the float64 loss sum at the image boundary
        embeddings = build_random(16, seed=11)
        rng = np.random.default_rng(12)
        images = rng.uniform(size=(2, 3, 48, 48))
        labels = rng.integers(0, NUM_CLASSES, (2, 48, 48)).astype(np.uint8)
        labels[rng.uniform(size=labels.shape) < 0.1] = 255

        def loss_and_grads(term):
            state = md.init_student(seed=13, prior_dim=16)
            if dtype is np.float32:
                md.to_float32(state)
            out = md.forward(state, Tensor(images))
            loss = term(state, out.projected_features)
            tc.backward(loss)
            return loss.item(), {name: p.grad for name, p in state.named()}

        def pair_term(state, projected):
            anchors = class_anchors(state, embeddings)  # shared by both images
            return tc.add(*(tr.dap_term(anchors, tc.take_batch(projected, i), labels[i],
                                        "bilinear") for i in range(2)))

        batch, batch_grads = loss_and_grads(lambda state, projected: tc.scale(
            tr.dap_term(class_anchors(state, embeddings), projected, labels, "bilinear"),
            2.0))
        pair, pair_grads = loss_and_grads(pair_term)
        assert abs(batch - pair) <= 1e-15 * abs(pair)
        assert batch_grads["head.conv"] is None and pair_grads["head.conv"] is None
        del batch_grads["head.conv"]
        for name, grad in batch_grads.items():
            assert grad.dtype == dtype, name
            np.testing.assert_array_equal(grad, pair_grads[name], err_msg=name)

    @pytest.mark.parametrize("size,feature", [(64, 16), (30, 7)])
    @pytest.mark.parametrize("mode", ["bilinear", "nearest"])
    @pytest.mark.parametrize("embeddings", [build_one_hot(), build_random(300, seed=5)],
                             ids=["onehot", "random300"])
    def test_prior_map_matches_the_resized_dense_map(self, monkeypatch, embeddings, mode,
                                                     size, feature):
        rng = np.random.default_rng(size)
        labels = rng.integers(0, NUM_CLASSES, (size, size)).astype(np.uint8)
        labels[rng.uniform(size=labels.shape) < 0.2] = 255
        labels[:size // 4, :size // 4] = 255           # whole feature cells ignored
        maps = []
        monkeypatch.setattr(tc, "sum_squared_error", lambda a, b: maps.append(b.data))
        # the unprojected table as the anchors makes the prior map the
        # D-channel embedding map; only the features' h x w is read
        anchors = Tensor(embeddings.vectors.T[:, :, None, None])
        projected = Tensor(np.zeros((1, 1, feature, feature)))
        tr.dap_term(anchors, projected, labels, mode)
        dense = downsample_embedding(proj(labels, embeddings), feature, feature, mode).data
        assert maps[0].shape == dense.shape
        if embeddings.dim == NUM_CLASSES or mode == "nearest":
            np.testing.assert_array_equal(maps[0], dense)
        else:
            assert np.abs(maps[0] - dense).max() <= 1e-15
        assert not maps[0][:, :, 0, 0].any()


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

    def test_nan_first_layer_weight_raises_numeric_error(self, bundle):
        # ReLU passes the NaN on, so the step cannot train on with a
        # poisoned layer whose activations read as zero
        trainer = tr.Trainer(small_config(), bundle)
        trainer.student.params["backbone.conv1"].data[0, 0, 1, 1] = np.nan
        with pytest.raises(NumericError, match="non-finite loss at step 0"):
            trainer.train_step()

    def test_a_step_takes_the_prior_term_once_over_its_batch(self, bundle, monkeypatch):
        kinds, prior_maps = [], []

        class CountedRecord(tc.OpRecord):
            __slots__ = ()

            def __init__(self, kind, *args):
                kinds.append(kind)
                super().__init__(kind, *args)

        monkeypatch.setattr(tc, "OpRecord", CountedRecord)
        monkeypatch.setattr(tr, "proj", lambda *args: prior_maps.append(args) or proj(*args))
        tr.Trainer(small_config(alpha=1.0), bundle).train_step()
        assert len(prior_maps) == 1 and prior_maps[0][0].shape == (2, 32, 32)
        # the cross-entropy pair takes its two images apart; the prior term does not
        assert (kinds.count("sum_squared_error"), kinds.count("take_batch")) == (1, 2)
        # of which the anchors' conv2d and reshape are two
        assert len(kinds) == 20

    def test_a_wide_prior_is_projected_as_its_class_table_only(self, bundle, monkeypatch):
        # the 300-d vectors reach one conv, as the [1,300,C,1] table; the
        # step convolves no 300-channel map at feature resolution
        inputs = []
        conv2d = tc.conv2d
        monkeypatch.setattr(tc, "conv2d", lambda x, *args, **kwargs: (
            inputs.append(x.shape) or conv2d(x, *args, **kwargs)))
        tr.Trainer(small_config(prior="random", prior_dim=300), bundle).train_step()
        wide = [shape for shape in inputs if shape[1] == 300]
        assert wide == [(1, 300, NUM_CLASSES, 1)]

    def test_a_32x32_step_allocates_under_1_2_mb_at_its_peak(self, bundle):
        # tracemalloc peak of one step at 32x32 with alpha=1, numpy 2.4: 2.23 MB
        # when ReLU kept a mask and cross-entropy, mixing, SGD and the EMA
        # made a new array for each term; 2.13 MB with them writing in place;
        # 2.12 MB when op records kept their input tensors and the step its
        # decoded float64 images; 1.67 MB with records keeping their
        # producers and the step dropping its images, batch and forward
        # outputs early; 1.04 MB with backward freeing each record's arrays
        # after their last read, a ReLU keeping a bool mask, conv2d's input
        # gradient built one sample at a time, and the step dropping its
        # float64 batch after the forward and its logits before the prior map
        trainer = tr.Trainer(small_config(), bundle)
        for i in range(bundle.n_source):
            bundle.source(i)
        for i in range(bundle.n_target):
            bundle.target_image(i)
        trainer.train_step()
        peaks = []
        for _ in range(3):
            tracemalloc.start()
            try:
                trainer.train_step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 1.2e6, peaks

    def test_seg_loss_decreases_with_training(self, bundle):
        for seed in range(5):
            trainer = tr.Trainer(small_config(steps=200, seed=seed), bundle)
            records = [trainer.train_step() for _ in range(200)]
            early = np.mean([r.l_seg for r in records[:10]])
            assert records[-1].l_seg < early, f"seed {seed}"


def record_steps(monkeypatch):
    """The step index of every train_step that runs from here on."""
    steps = []
    train_step = tr.Trainer.train_step
    monkeypatch.setattr(tr.Trainer, "train_step",
                        lambda self: steps.append(self.step_index) or train_step(self))
    return steps


def cut_log_behind_state(out):
    """Leave state_000004.ckpt the newest train state and metrics.csv holding
    only steps 0 and 1."""
    (out / "checkpoints" / "state_000008.ckpt").unlink()
    lines = (out / "metrics.csv").read_text().splitlines(keepends=True)
    (out / "metrics.csv").write_text("".join(lines[:3]))


def run_files(out):
    """Every file of a run directory but its manifest, which holds wall-clock
    times, mapped to its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.txt"}


class Killed(BaseException):
    """Stands in for a kill: no handler in the program catches it."""


def kill_in_heldout_evaluation(patch):
    def killed(*args, **kwargs):
        raise Killed
    patch.setattr(analysis, "evaluate", killed)


def kill_in_state_write(patch):
    replace = os.replace

    def killed_at_step_4(src, dst):
        if str(dst).endswith("state_000004.ckpt"):
            raise Killed
        replace(src, dst)
    patch.setattr(md.os, "replace", killed_at_step_4)


class TestRun:
    def test_zero_steps_writes_initialization_checkpoint(self, bundle, tmp_path):
        config = small_config(steps=0)
        result = tr.run(config, bundle, tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines == [tr.METRICS_HEADER]
        arrays = md.load_checkpoint(tmp_path / "run" / "student_final.ckpt")
        # training runs in float32, so the checkpoint holds init's float32 rounding
        fresh = md.init_student(config.seed)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, fresh.params[name].data.astype(np.float32))
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
        first.save_train_state(ckpt)

        second = tr.Trainer(config, bundle)
        second.load_train_state(ckpt)
        assert second.step_index == 10
        for _ in range(10):
            second.train_step()

        for name in solid.student.params:
            np.testing.assert_array_equal(solid.student.params[name].data,
                                          second.student.params[name].data)
            np.testing.assert_array_equal(solid.teacher.params[name].data,
                                          second.teacher.params[name].data)

    def test_run_level_resume_continues_to_same_state(self, bundle, tmp_path,
                                                      monkeypatch):
        config = small_config(steps=12, checkpoint_every=4)
        straight = tr.run(config, bundle, tmp_path / "straight")

        # a run killed after its step-8 state: the trainer's first 8 steps,
        # the run's own record of its inputs, the log and the state
        interrupted_dir = tmp_path / "interrupted"
        trainer = tr.Trainer(config, bundle)
        (interrupted_dir / "checkpoints").mkdir(parents=True)
        (interrupted_dir / "config.txt").write_bytes(
            (tmp_path / "straight" / "config.txt").read_bytes())
        (interrupted_dir / "metrics.csv").write_text(tr.METRICS_HEADER + "\n")
        with (interrupted_dir / "metrics.csv").open("a") as log:
            for _ in range(8):
                log.write(trainer.train_step().csv_line())
        state = interrupted_dir / "checkpoints" / "state_000008.ckpt"
        trainer.save_train_state(state)

        steps_run = record_steps(monkeypatch)
        resumed = tr.run(config, bundle, interrupted_dir)
        assert steps_run == [8, 9, 10, 11]
        a = md.load_checkpoint(tmp_path / "straight" / "student_final.ckpt")
        b = md.load_checkpoint(interrupted_dir / "student_final.ckpt")
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])
        assert (tmp_path / "straight" / "metrics.csv").read_text() == \
            (interrupted_dir / "metrics.csv").read_text()
        assert straight.final_miou == resumed.final_miou

    @pytest.mark.parametrize("kill", [kill_in_heldout_evaluation, kill_in_state_write],
                             ids=["heldout-evaluation", "state-write"])
    def test_run_killed_at_first_checkpoint_resumes_to_same_files(self, bundle, tmp_path,
                                                                  monkeypatch, kill):
        # with training seed 1 the held-out score is best at step 4, so a
        # resume that skipped the step-4 check would choose step 8
        config = small_config(steps=8, heldout_source=2, checkpoint_every=4, seed=1)
        straight = tr.run(config, bundle, tmp_path / "straight")
        assert straight.best_step == 4

        out = tmp_path / "killed"
        with monkeypatch.context() as patch:
            kill(patch)
            with pytest.raises(Killed):
                tr.run(config, bundle, out)
        resumed = tr.run(config, bundle, out)

        assert resumed.best_step == straight.best_step
        assert resumed.final_miou == straight.final_miou
        for name in ("best.ckpt", "metrics.csv"):
            assert (out / name).read_bytes() == (tmp_path / "straight" / name).read_bytes()

    def test_a_kill_while_resume_rewrites_the_step_log_leaves_the_run_resumable(
            self, bundle, tmp_path, monkeypatch):
        # resuming from step 4 rewrites the log without the steps past it; a
        # kill halfway through that write must not cut the log short of step 4
        config = small_config(steps=8, checkpoint_every=4)
        tr.run(config, bundle, tmp_path / "straight")
        out = tmp_path / "killed"
        tr.run(config, bundle, out)
        (out / "checkpoints" / "state_000008.ckpt").unlink()

        def half_then_killed(write):
            def written(self, data, *args, **kwargs):
                if "metrics.csv" in self.name:
                    write(self, data[:len(data) // 2], *args, **kwargs)
                    raise Killed
                return write(self, data, *args, **kwargs)
            return written
        with monkeypatch.context() as patch:
            for method in ("write_text", "write_bytes"):
                patch.setattr(Path, method, half_then_killed(getattr(Path, method)))
            with pytest.raises(Killed):
                tr.run(config, bundle, out)
        steps_run = record_steps(monkeypatch)
        tr.run(config, bundle, out)
        assert steps_run == [4, 5, 6, 7]
        assert run_files(out) == run_files(tmp_path / "straight")

    def test_step_log_on_disk_reaches_each_train_state(self, bundle, tmp_path,
                                                       monkeypatch):
        # a kill that skips Python's cleanup loses the log's write buffer; the
        # steps a train state records must already be in the file
        out = tmp_path / "run"
        logged_at_save = []
        save = tr.Trainer.save_train_state

        def counting_save(self, path):
            lines = (out / "metrics.csv").read_text().splitlines()
            logged_at_save.append((self.step_index, len(lines) - 1))
            save(self, path)
        monkeypatch.setattr(tr.Trainer, "save_train_state", counting_save)
        tr.run(small_config(steps=8, checkpoint_every=4), bundle, out)
        assert logged_at_save == [(4, 4), (8, 8)]

    def test_resume_continues_from_the_newest_state_checkpoint(self, bundle, tmp_path,
                                                               monkeypatch):
        config = small_config(steps=8, checkpoint_every=4)
        out = tmp_path / "run"
        straight = tr.run(config, bundle, out)
        final = md.load_checkpoint(out / "student_final.ckpt")
        checkpoints = out / "checkpoints"
        (checkpoints / "state_000008.ckpt").unlink()
        assert tr._latest_state(checkpoints) == checkpoints / "state_000004.ckpt"

        steps_run = []
        train_step = tr.Trainer.train_step
        monkeypatch.setattr(tr.Trainer, "train_step",
                            lambda self: steps_run.append(1) or train_step(self))
        resumed = tr.run(config, bundle, out)
        assert len(steps_run) == 4
        for name, arr in md.load_checkpoint(out / "student_final.ckpt").items():
            np.testing.assert_array_equal(arr, final[name])
        assert straight.final_miou == resumed.final_miou

    def test_resume_names_a_record_the_state_checkpoint_lacks(self, bundle, tmp_path):
        config = small_config(steps=8, checkpoint_every=4)
        out = tmp_path / "run"
        tr.run(config, bundle, out)
        state = out / "checkpoints" / "state_000008.ckpt"
        complete = md.load_checkpoint(state)
        # "step" is also what a state checkpoint written before the step
        # record existed lacks, and "best_step" and "best_score" what one
        # written before the best held-out choice moved into it lacks
        for record in ("velocity.gpr.conv", "step", "best_step", "best_score"):
            arrays = dict(complete)
            del arrays[record]
            md.save_checkpoint(state, arrays)
            with pytest.raises(InputError, match=f"missing {record}; unexpected none$"):
                tr.run(config, bundle, out)

    def test_resume_picks_the_newest_state_by_step_number(self, bundle, tmp_path):
        # as text, state_999999.ckpt sorts after state_1000000.ckpt
        trainer = tr.Trainer(small_config(), bundle)
        checkpoints = tmp_path / "checkpoints"
        checkpoints.mkdir()
        for step in (999_999, 1_000_000):
            trainer.step_index = step
            trainer.save_train_state(checkpoints / f"state_{step:06d}.ckpt")
        # names that are not state_<digits>.ckpt are no train states
        for stray in ("state_2000000a.ckpt", "state_.ckpt", "state_x.ckpt"):
            (checkpoints / stray).write_bytes(b"")
        latest = tr._latest_state(checkpoints)
        assert latest == checkpoints / "state_1000000.ckpt"
        resumed = tr.Trainer(small_config(), bundle)
        resumed.load_train_state(latest)
        assert resumed.step_index == 1_000_000

    def test_resume_names_a_misshapen_state_record(self, bundle, tmp_path):
        config = small_config(steps=8, checkpoint_every=4)
        out = tmp_path / "run"
        tr.run(config, bundle, out)
        state = out / "checkpoints" / "state_000008.ckpt"
        arrays = md.load_checkpoint(state)
        arrays["velocity.head.conv"] = np.zeros((5, 32, 1, 1))
        md.save_checkpoint(state, arrays)
        with pytest.raises(InputError, match=r"velocity\.head\.conv has shape "
                                             r"\(5, 32, 1, 1\), expected \(6, 32, 1, 1\)"):
            tr.run(config, bundle, out)

    @pytest.mark.parametrize("record", ["teacher.gvi.conv", "student.backbone.conv1",
                                        "velocity.head.conv", "step"])
    def test_resume_rejects_a_non_finite_state_record(self, bundle, tmp_path, record):
        config = small_config(steps=8, checkpoint_every=4)
        out = tmp_path / "run"
        tr.run(config, bundle, out)
        # best_score is left unchecked: without a held-out split the final
        # state's is NaN, and each earlier state's is -inf
        finished = tr.Trainer(config, bundle)
        finished.load_train_state(out / "checkpoints" / "state_000008.ckpt")
        assert math.isnan(finished.best_score)
        (out / "checkpoints" / "state_000008.ckpt").unlink()
        state = out / "checkpoints" / "state_000004.ckpt"
        arrays = md.load_checkpoint(state)
        assert arrays["best_score"][0] == -np.inf
        arrays[record].flat[0] = np.nan
        md.save_checkpoint(state, arrays)
        with pytest.raises(InputError, match=f"record {record} holds a value that is not "
                                             "finite in float"):
            tr.run(config, bundle, out)

    @pytest.mark.parametrize("damage", [
        lambda out: (out / "metrics.csv").unlink(),
        cut_log_behind_state,
    ], ids=["missing-metrics", "short-metrics"])
    def test_resume_names_an_unreadable_run_file(self, bundle, tmp_path, damage):
        config = small_config(steps=8, checkpoint_every=4)
        out = tmp_path / "run"
        tr.run(config, bundle, out)
        damage(out)
        with pytest.raises(InputError, match="metrics.csv"):
            tr.run(config, bundle, out)

    def test_a_record_holding_the_removed_lr_line_starts_at_step_0(self, bundle, tmp_path,
                                                                   monkeypatch):
        # config.txt once recorded the base rate; such a run directory's
        # record no longer matches, so its states are deleted, not resumed
        config = small_config(steps=4, checkpoint_every=2)
        out = tmp_path / "run"
        tr.run(config, bundle, out)
        record = (out / "config.txt").read_text()
        (out / "config.txt").write_text(record.replace("steps = ", "lr = 0.01\nsteps = "))
        (out / "checkpoints" / "state_000004.ckpt").unlink()
        steps_run = record_steps(monkeypatch)
        tr.run(config, bundle, out)
        assert steps_run == [0, 1, 2, 3]
        assert (out / "config.txt").read_text() == record

    def test_changed_config_starts_at_step_0_without_old_states(self, bundle, tmp_path,
                                                                monkeypatch):
        out = tmp_path / "run"
        tr.run(small_config(steps=4, checkpoint_every=2), bundle, out)
        changed = small_config(steps=4, checkpoint_every=3, alpha=0.5)
        steps_run = record_steps(monkeypatch)
        tr.run(changed, bundle, out)
        assert steps_run == [0, 1, 2, 3]
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == [
            "state_000003.ckpt", "state_000004.ckpt"]
        assert tr.parse_config(out / "config.txt") == changed

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

    def test_checked_items_are_kept_undecoded(self, bundle, tmp_path, monkeypatch):
        # with no step and no held-out split, the final test evaluation is the
        # only decode; the check phase reads every item and decodes none
        decodes = []
        decode = dg.unit_image
        monkeypatch.setattr(dg, "unit_image", lambda pixels: decodes.append(1) or
                            decode(pixels))
        fresh = DatasetBundle(bundle.root)
        tr.run(small_config(steps=0), fresh, tmp_path / "run")
        assert len(decodes) == fresh.n_test
        assert len(fresh._cache) == fresh.n_source + fresh.n_target + fresh.n_test

    def test_a_final_best_student_is_evaluated_once(self, bundle, tmp_path, monkeypatch):
        evaluations = []
        evaluate = analysis.evaluate
        monkeypatch.setattr(analysis, "evaluate", lambda state, items: evaluations.append(
            state) or evaluate(state, items))
        result = tr.run(small_config(steps=2), bundle, tmp_path / "run")
        assert result.best_step == 2 and len(evaluations) == 1
        assert result.best_miou == result.final_miou
        for kind in ("metrics", "confusion"):
            assert (tmp_path / "run" / f"eval_best_{kind}.csv").read_bytes() == \
                (tmp_path / "run" / f"eval_final_{kind}.csv").read_bytes()

    def test_an_earlier_best_student_is_evaluated_apart(self, bundle, tmp_path,
                                                        monkeypatch):
        # the held-out score falls from step 2 to step 4, so step 2 is the best
        evaluations = []
        evaluate = analysis.evaluate

        def scored(state, items):
            metrics = evaluate(state, items)
            evaluations.append(state)
            heldout_scores = (0.9, 0.1)
            if len(evaluations) <= len(heldout_scores):
                return dataclasses.replace(metrics, miou=heldout_scores[len(evaluations) - 1])
            return metrics

        monkeypatch.setattr(analysis, "evaluate", scored)
        config = small_config(steps=4, checkpoint_every=2, heldout_source=2)
        result = tr.run(config, bundle, tmp_path / "run")
        assert result.best_step == 2
        # two held-out checks, then the final and the best student on the test split
        assert len(evaluations) == 4
        assert evaluations[2] is not evaluations[3]
        best = md.load_checkpoint(tmp_path / "run" / "best.ckpt")
        for name, p in evaluations[3].named():
            np.testing.assert_array_equal(p.data, best[name].astype(np.float32))

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

    @pytest.mark.parametrize("failing", [".ckpt"])
    def test_failed_rename_leaves_no_partial_state(self, bundle, tmp_path,
                                                   monkeypatch, failing):
        trainer = tr.Trainer(small_config(), bundle)
        old = tmp_path / "old" / "state_000001.ckpt"
        old.parent.mkdir()
        trainer.save_train_state(old)
        before = old.read_bytes()
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
                trainer.save_train_state(target)

        assert not list(new.parent.iterdir())
        assert not list(old.parent.glob(".*"))
        assert tr._latest_state(new.parent) is None
        assert old.read_bytes() == before


class TestFloat32Training:
    """The trainer and the checkpoint loader run float32; checkpoints hold
    <f8 records."""

    def test_every_op_of_a_step_computes_in_float32(self, bundle, monkeypatch):
        # (op kind, what, dtype) of every non-scalar output and gradient of
        # the ops that reach a parameter; the prior's class fractions are a
        # float64 constant until project_prior casts them
        arrays = []
        emit = tc._emit

        def recording(kind, inputs, out_data, backward_fn):
            def back(g):
                grads = backward_fn(g)
                arrays.extend((kind, "grad", grad.dtype) for grad in grads
                              if grad is not None and grad.ndim)
                return grads

            if np.ndim(out_data) and any(t.requires_grad for t in inputs):
                arrays.append((kind, "output", out_data.dtype))
            return emit(kind, inputs, out_data, back)

        monkeypatch.setattr(tc, "_emit", recording)
        trainer = tr.Trainer(small_config(alpha=1.0), bundle)
        trainer.train_step()
        kinds = {kind for kind, _, _ in arrays}
        assert {"conv2d", "relu", "resize_bilinear", "take_batch"} <= kinds
        assert [entry for entry in arrays if entry[2] != np.float32] == []

    def test_a_step_leaves_gradients_teacher_and_velocity_float32(self, bundle):
        trainer = tr.Trainer(small_config(alpha=1.0), bundle)
        trainer.train_step()
        for name, p in trainer.student.named():
            assert p.data.dtype == p.grad.dtype == np.float32, name
        for name, p in trainer.teacher.named():
            assert p.data.dtype == np.float32, name
        for name, v in trainer.optimizer.velocity.items():
            assert v.dtype == np.float32, name

    def test_train_state_is_f8_on_disk_and_float32_once_loaded(self, bundle, tmp_path):
        first = tr.Trainer(small_config(), bundle)
        for _ in range(2):
            first.train_step()
        ckpt = tmp_path / "state.ckpt"
        first.save_train_state(ckpt)
        records = first._state_arrays()
        header = sum(4 + len(name.encode()) + 4 + 4 * arr.ndim
                     for name, arr in records.items())
        values = sum(arr.size for arr in records.values())
        assert ckpt.stat().st_size == len(md.CHECKPOINT_MAGIC) + header + 8 * values

        second = tr.Trainer(small_config(), bundle)
        second.load_train_state(ckpt)
        for role in ("student", "teacher"):
            for name, p in getattr(second, role).named():
                assert p.data.dtype == np.float32, (role, name)
                np.testing.assert_array_equal(p.data, getattr(first, role).params[name].data)
        for name, v in second.optimizer.velocity.items():
            assert v.dtype == np.float32, name
            np.testing.assert_array_equal(v, first.optimizer.velocity[name])

    def test_supervised_controls_train_in_float32(self, bundle):
        state = tr.train_supervised([bundle.source(0)], steps=1, seed=2)
        for name, p in state.named():
            assert p.data.dtype == np.float32, name
            # the projectors are outside the cross-entropy graph
            assert p.grad is None if name.startswith(("gvi.", "gpr.")) \
                else p.grad.dtype == np.float32, name

    def test_loaded_checkpoint_state_is_float32(self):
        fresh = md.init_student(4)
        loaded = md.state_from_arrays(fresh.data_arrays(), "student")
        for name, p in loaded.named():
            assert fresh.params[name].data.dtype == np.float64
            assert p.data.dtype == np.float32, name
            np.testing.assert_array_equal(p.data, fresh.params[name].data.astype(np.float32))


class TripwireBundle(DatasetBundle):
    def __init__(self, root):
        super().__init__(root)
        self.trips = 0

    def target_hidden_labels(self, i):
        self.trips += 1
        return super().target_hidden_labels(i)


def count_sealed_label_reads(monkeypatch) -> Counter:
    """Count datagen.read_input calls on each file under target_train/hidden/,
    whatever reads it."""
    reads = Counter()
    read_input = dg.read_input

    def counting(path, what):
        if Path(path).parent.name == "hidden":
            reads[Path(path).name] += 1
        return read_input(path, what)

    monkeypatch.setattr(dg, "read_input", counting)
    return reads


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

    def test_default_run_reads_no_sealed_label_file(self, bundle, tmp_path, monkeypatch):
        reads = count_sealed_label_reads(monkeypatch)
        tr.run(small_config(steps=8, checkpoint_every=4), DatasetBundle(bundle.root),
               tmp_path / "run")
        assert reads == {}

    def test_diagnostic_run_reads_each_sealed_label_once(self, bundle, tmp_path,
                                                         monkeypatch):
        reads = count_sealed_label_reads(monkeypatch)
        config = small_config(steps=12, pseudo_acc_diagnostic=True)
        tr.run(config, DatasetBundle(bundle.root), tmp_path / "run")
        assert reads == {f"lab_{i:03d}.pgm": 1 for i in range(bundle.n_target)}


# Road, sidewalk, sky and building cover at least 1033 pixels of every
# measured 8-image 32x32 test split. Bike and motorbike are 86- and 94-pixel
# stamps placed by Poisson count (about 0.36 and 0.33 per scene), so a single
# object swings their IoU by 0.2 and the 6-class mIOU by more than 0.03.
LARGE_CLASSES = [dg.ROAD, dg.SIDEWALK, dg.SKY, dg.BUILDING]


def supervised_control_gap(preset, tmp_path):
    """Train source-only and oracle (hidden target labels) models with one
    recipe on the preset's seed-33 16/16/8 split. Return the oracle minus
    source-only gap in mean IoU over LARGE_CLASSES, and a report of both
    models' per-class IoU and the per-class test pixel counts."""
    src, tgt = dg.preset_specs(preset, seed=33)
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
    m_source = analysis.evaluate(source_only, test_items)
    m_oracle = analysis.evaluate(oracle, test_items)
    gap = float(m_oracle.per_class_iou[LARGE_CLASSES].mean()
                - m_source.per_class_iou[LARGE_CLASSES].mean())
    report = (f"{preset}: large-class gap {gap:.4f}\n"
              f"  source-only per_class_iou {np.round(m_source.per_class_iou, 3)}\n"
              f"  oracle      per_class_iou {np.round(m_oracle.per_class_iou, 3)}\n"
              f"  test pixels per class     {m_source.confusion.sum(1)}")
    return gap, report


class TestSupervisedControl:
    def test_nan_first_layer_weight_raises_numeric_error(self, bundle, monkeypatch):
        init_student = md.init_student

        def poisoned(*args, **kwargs):
            state = init_student(*args, **kwargs)
            state.params["backbone.conv1"].data[0, 0, 1, 1] = np.nan
            return state

        monkeypatch.setattr(md, "init_student", poisoned)
        with pytest.raises(NumericError, match="non-finite loss at step 0"):
            tr.train_supervised([bundle.source(0)], steps=2, seed=2)

    def test_three_64x64_steps_allocate_under_2_8_mb_at_their_peak(self):
        # tracemalloc peak of train_supervised over 3 steps at 64x64, numpy
        # 2.4: 4.04 MB when each step held its forward outputs, and through
        # them its whole graph, into the next step's forward; 3.17 MB when
        # only the loss is held, and only through descend; 2.38 MB with
        # backward freeing each record's arrays after their last read and a
        # ReLU keeping a bool mask
        spec, _ = dg.preset_specs("gap-default", seed=21)
        items = [dg.generate_scene(spec, 64, 64, dg.scene_rng(spec, i)) for i in range(2)]
        tr.train_supervised(items, steps=1, seed=0)
        peaks = []
        for seed in range(3):
            tracemalloc.start()
            try:
                tr.train_supervised(items, steps=3, seed=seed)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 2.8e6, peaks

    def test_identical_domains_close_transfer_gap(self, tmp_path):
        # with no domain gap, training on source labels vs (hidden) target
        # labels gives nearly the same test IoU on road, sidewalk, sky and
        # building; bike and motorbike are left out because the 8-image test
        # split holds about one object of each (see LARGE_CLASSES)
        gap, report = supervised_control_gap("gap-none", tmp_path)
        assert abs(gap) < 0.03, report

    def test_domain_gap_opens_transfer_gap(self, tmp_path):
        # negative control: the same recipe and bound on gap-default, where
        # the target is hue-rotated, noisier and re-weighted, must fail
        gap, report = supervised_control_gap("gap-default", tmp_path)
        assert gap >= 0.03, report
