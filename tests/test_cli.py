import csv
import errno
import hashlib
import multiprocessing
import os
import shutil
import sys

import numpy as np
import pytest

from daplab import analysis
from daplab import cli
from daplab import datagen as dg
from daplab import model as md
from daplab import priors
from daplab import trainer as tr
from daplab.classes import CLASS_NAMES
from daplab.datagen import DatasetBundle
from daplab.errors import InputError


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    code = cli.main(["gen", "--preset", "gap-default", "--out", str(root),
                     "--seed", "7", "--n-source", "6", "--n-target", "6",
                     "--n-test", "3", "--size", "32"])
    assert code == 0
    return root


def fast_train_args(data_dir, out, extra=()):
    return ["train", "--data", str(data_dir), "--out", str(out),
            "--steps", "4", "--seed", "3", "--heldout-source", "0",
            "--checkpoint-every", "0", *extra]


def write_vectors(path, seed=0, dim=4):
    priors.save_vectors(path, priors.build_random(dim, seed))
    return path


def count_steps(monkeypatch):
    """Record the step index of every train_step that runs in this process
    (sweeps run their cells here when DAP_LAB_THREADS is 1)."""
    calls = []
    step = tr.Trainer.train_step

    def counted(self):
        calls.append(self.step_index)
        return step(self)

    monkeypatch.setattr(tr.Trainer, "train_step", counted)
    return calls


def run_files(out):
    """Every file of a run or sweep directory but its manifest, which holds
    wall-clock times, mapped to its bytes."""
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "run_manifest.txt"}


def reseal_file(root, name):
    """Record the current bytes of the dataset file `name` as its manifest
    digest, as `gen` would have written it."""
    digest = hashlib.sha256((root / name).read_bytes()).hexdigest()
    key = f"file.{name}="
    manifest = root / "manifest.txt"
    manifest.write_text("".join(key + digest + "\n" if line.startswith(key) else line
                                for line in manifest.read_text().splitlines(True)))


def flip_last_byte(path):
    data = bytearray(path.read_bytes())
    data[-1] ^= 1
    path.write_bytes(bytes(data))


def assert_manifest_lists_every_file(out, command):
    manifest = out / "run_manifest.txt"
    lines = manifest.read_text().splitlines()
    assert lines[0] == f"command={command}"
    listed = {line[len("artifact."):-len("=present")]
              for line in lines if line.startswith("artifact.")}
    assert listed == {str(p.relative_to(out)) for p in out.rglob("*")
                      if p.is_file() and p != manifest}


class TestGen:
    def test_manifest_has_all_items(self, data_dir):
        entries = dg.parse_manifest(data_dir / "manifest.txt")
        assert entries["format"] == "daplab-benchmark-v2"
        # one image and one label file per item, sealed labels included
        assert sum(1 for k in entries if k.startswith("file.")) == 30
        assert "file.target_train/hidden/lab_005.pgm" in entries
        assert_manifest_lists_every_file(data_dir, "gen")

    def test_missing_out_is_usage_error(self, capsys):
        assert cli.main(["gen"]) == 2
        capsys.readouterr()

    def test_same_seed_gives_identical_checksums(self, tmp_path):
        args = ["gen", "--out", None, "--seed", "11", "--n-source", "3",
                "--n-target", "3", "--n-test", "2", "--size", "32"]
        sums = []
        for sub in ("a", "b"):
            args[2] = str(tmp_path / sub)
            assert cli.main(args) == 0
            sums.append(DatasetBundle(tmp_path / sub).dataset_checksum())
        assert sums[0] == sums[1]

    def test_smaller_gen_into_the_same_out_leaves_only_live_items(self, tmp_path):
        out = tmp_path / "data"
        args = ["gen", "--out", str(out), "--size", "16", "--n-target", "3",
                "--n-test", "2", "--n-source"]
        assert cli.main(args + ["6"]) == 0
        keep = out / "source" / "img_keep.ppm"
        keep.write_bytes(b"not an item")
        assert cli.main(args + ["2"]) == 0
        assert sorted(p.name for p in (out / "source").iterdir()) == [
            "img_000.ppm", "img_001.ppm", "img_keep.ppm", "lab_000.pgm", "lab_001.pgm"]
        artifacts = [line for line in (out / "run_manifest.txt").read_text().splitlines()
                     if line.startswith("artifact.source/")]
        assert artifacts == [f"artifact.source/{name}=present" for name in (
            "img_000.ppm", "img_001.ppm", "img_keep.ppm", "lab_000.pgm", "lab_001.pgm")]
        assert_manifest_lists_every_file(out, "gen")
        DatasetBundle(out).source(1)


class TestTrain:
    def test_removed_no_dap_flag_is_a_usage_error(self, data_dir, tmp_path, capsys):
        # `--alpha 0` is the baseline; `--no-dap` overrode an explicit --alpha
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--alpha", "0.5", "--no-dap"])) == 2
        assert "--no-dap" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_vector_class_exits_3_and_names_it(self, data_dir, tmp_path,
                                                       capsys):
        vec = tmp_path / "vectors.txt"
        rows = [f"{name} 0.1 0.2" for name in CLASS_NAMES if name != "sky"]
        vec.write_text("D 2\n" + "\n".join(rows) + "\n")
        code = cli.main(fast_train_args(data_dir, tmp_path / "run",
                                        ["--prior", str(vec)]))
        assert code == 3
        assert "sky" in capsys.readouterr().err

    @pytest.mark.parametrize("dim", ["0", "-2"])
    def test_vector_file_without_a_positive_dimension_exits_3(self, data_dir, tmp_path,
                                                              capsys, dim):
        vec = tmp_path / "vectors.txt"
        vec.write_text(f"D {dim}\n" + "".join(f"{name}\n" for name in CLASS_NAMES))
        # an exception escaping main is what the installed command prints as a traceback
        code = cli.main(fast_train_args(data_dir, tmp_path / "run",
                                        ["--prior", str(vec)]))
        assert code == 3
        assert f"{vec}:1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_zero_steps_writes_initialization_checkpoint(self, data_dir, tmp_path):
        out = tmp_path / "zero"
        args = ["train", "--data", str(data_dir), "--out", str(out),
                "--steps", "0", "--seed", "9", "--heldout-source", "0"]
        assert cli.main(args) == 0
        arrays = md.load_checkpoint(out / "student_final.ckpt")
        # training runs in float32, so the checkpoint holds init's float32 rounding
        fresh = md.init_student(9, prior_dim=6)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, fresh.params[name].data.astype(np.float32))

    def test_nan_prior_file_exits_4(self, data_dir, tmp_path, capsys):
        vec = tmp_path / "nan_vectors.txt"
        vec.write_text("D 2\n" + "\n".join(f"{n} nan nan" for n in CLASS_NAMES) + "\n")
        code = cli.main(fast_train_args(data_dir, tmp_path / "nanrun",
                                        ["--prior", str(vec)]))
        assert code == 4
        capsys.readouterr()

    def test_nan_first_layer_weight_exits_4(self, data_dir, tmp_path, monkeypatch, capsys):
        # ReLU passes the NaN on to the loss instead of zeroing it
        init_student = md.init_student

        def poisoned(*args, **kwargs):
            state = init_student(*args, **kwargs)
            state.params["backbone.conv1"].data[0, 0, 1, 1] = np.nan
            return state

        monkeypatch.setattr(md, "init_student", poisoned)
        code = cli.main(fast_train_args(data_dir, tmp_path / "run"))
        assert code == 4
        assert "non-finite loss at step 0" in capsys.readouterr().err

    def test_heldout_source_covering_the_source_split_exits_3_without_a_run_dir(
            self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli.main(fast_train_args(data_dir, out, ["--heldout-source", "6"]))
        assert code == 3
        err = capsys.readouterr().err
        assert "heldout_source 6" in err and "n_source is 6" in err
        assert not out.exists()

    def test_negative_heldout_source_exits_3(self, data_dir, tmp_path, capsys):
        code = cli.main(fast_train_args(data_dir, tmp_path / "run",
                                        ["--heldout-source", "-1"]))
        assert code == 3
        assert "heldout_source" in capsys.readouterr().err

    def test_negative_seed_exits_3_and_names_it(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--seed", "-1"])) == 3
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_second_train_with_same_inputs_runs_no_step(self, data_dir, tmp_path,
                                                        monkeypatch):
        out = tmp_path / "run"
        args = fast_train_args(data_dir, out, ["--checkpoint-every", "2"])
        assert cli.main(args) == 0
        first = run_files(out)
        calls = count_steps(monkeypatch)
        assert cli.main(args) == 0
        assert calls == []
        assert run_files(out) == first

    def test_run_config_reads_back_through_config_flag(self, data_dir, tmp_path,
                                                       monkeypatch):
        vec = write_vectors(tmp_path / "v.txt")
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--prior", str(vec), "--lambda",
                                                        "0.9", "--interp", "nearest"])) == 0
        text = (out / "config.txt").read_text()
        vectors = priors.load_vectors(vec).vectors
        assert text.splitlines()[-2:] == [
            f"# dataset_checksum {DatasetBundle(data_dir).dataset_checksum()}",
            f"# prior_sha256 {hashlib.sha256(vectors.tobytes()).hexdigest()}"]
        rerun = ["train", "--data", str(data_dir), "--out", str(out),
                 "--config", str(out / "config.txt")]
        args = cli.build_parser().parse_args(rerun)
        assert cli._train_config(args) == tr.TrainConfig(
            steps=4, seed=3, heldout_source=0, checkpoint_every=0, prior=str(vec),
            ema_lambda=0.9, interp="nearest")
        # the file reproduces the record it came from, so the run continues
        calls = count_steps(monkeypatch)
        assert cli.main(rerun) == 0
        assert calls == []
        assert (out / "config.txt").read_text() == text

    def test_prior_file_named_with_a_hash_reads_back_through_config_flag(
            self, data_dir, tmp_path, monkeypatch):
        vec = write_vectors(tmp_path / "v#1.txt")
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--prior", str(vec)])) == 0
        rerun = ["train", "--data", str(data_dir), "--out", str(out),
                 "--config", str(out / "config.txt")]
        assert cli._train_config(cli.build_parser().parse_args(rerun)) == tr.TrainConfig(
            steps=4, seed=3, heldout_source=0, checkpoint_every=0, prior=str(vec))
        calls = count_steps(monkeypatch)
        assert cli.main(rerun) == 0
        assert calls == []

    @pytest.mark.parametrize("path, command", [("source/img_005.ppm", "train"),
                                               ("target_train/img_003.ppm", "train"),
                                               ("target_test/lab_000.pgm", "eval")])
    def test_changed_dataset_item_exits_3_naming_file_and_manifest(
            self, data_dir, tmp_path, capsys, path, command):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        flip_last_byte(broken / path)
        out = tmp_path / "out"
        if command == "train":
            # the one held-out image is source 5, scored before the first step
            args = fast_train_args(broken, out, ["--heldout-source", "1"])
        else:
            ckpt = tmp_path / "student.ckpt"
            md.save_checkpoint(ckpt, md.init_student(0).data_arrays())
            args = ["eval", "--ckpt", str(ckpt), "--data", str(broken), "--out", str(out)]
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert str(broken / path) in err and str(broken / "manifest.txt") in err
        assert f"file.{path}" in err
        assert not out.exists()

    def test_bad_data_dir_exits_3(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "out"), "--steps", "1"])
        assert code == 3
        capsys.readouterr()


class TestEval:
    def test_oracle_checkpoint_scores_one_on_its_own_labels(self, data_dir,
                                                            tmp_path):
        out = tmp_path / "trained"
        assert cli.main(fast_train_args(data_dir, out)) == 0

        # rewrite the test labels as the checkpoint's own predictions
        cheat = tmp_path / "cheat_data"
        dg.regenerate_from_manifest(data_dir / "manifest.txt", cheat)
        arrays = md.load_checkpoint(out / "student_final.ckpt")
        state = md.state_from_arrays(arrays, "student")
        bundle = DatasetBundle(cheat)
        for i in range(bundle.n_test):
            prediction = analysis.predict_labels(state, bundle.test(i).image)
            dg.write_pgm(cheat / "target_test" / f"lab_{i:03d}.pgm", prediction)
            reseal_file(cheat, f"target_test/lab_{i:03d}.pgm")

        result_dir = tmp_path / "eval_oracle"
        assert cli.main(["eval", "--ckpt", str(out / "student_final.ckpt"),
                         "--data", str(cheat), "--out", str(result_dir)]) == 0
        lines = (result_dir / "metrics.csv").read_text().splitlines()
        assert lines[-1] == "miou,1.000000"

    @pytest.mark.parametrize("split, count", [("test", 3), ("source", 6)])
    def test_eval_decodes_each_image_once(self, data_dir, tmp_path, monkeypatch,
                                          split, count):
        ckpt = tmp_path / "init.ckpt"
        md.save_checkpoint(ckpt, md.init_student(0).data_arrays())
        decodes = []
        decode = dg.unit_image
        monkeypatch.setattr(dg, "unit_image", lambda pixels: decodes.append(1) or
                            decode(pixels))
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                         "--split", split, "--out", str(tmp_path / "e")]) == 0
        assert len(decodes) == count

    def test_eval_of_a_tampered_label_exits_3_naming_it_before_any_output(
            self, data_dir, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        label = data / "target_test" / "lab_002.pgm"
        raw = bytearray(label.read_bytes())
        raw[-1] = (raw[-1] + 1) % 6        # still a valid class id
        label.write_bytes(bytes(raw))
        ckpt = tmp_path / "init.ckpt"
        md.save_checkpoint(ckpt, md.init_student(0).data_arrays())
        out = tmp_path / "e"
        assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"{label}: does not match file.target_test/lab_002.pgm" in err
        assert not out.exists()

    def test_eval_twice_identical_outputs(self, data_dir, tmp_path):
        out = tmp_path / "trained"
        assert cli.main(fast_train_args(data_dir, out)) == 0
        for sub in ("e1", "e2"):
            assert cli.main(["eval", "--ckpt", str(out / "student_final.ckpt"),
                             "--data", str(data_dir),
                             "--out", str(tmp_path / sub)]) == 0
        assert (tmp_path / "e1" / "metrics.csv").read_text() == \
            (tmp_path / "e2" / "metrics.csv").read_text()
        assert (tmp_path / "e1" / "confusion.csv").read_text() == \
            (tmp_path / "e2" / "confusion.csv").read_text()
        assert_manifest_lists_every_file(tmp_path / "e1", "eval")

    def test_eval_of_the_final_checkpoint_reproduces_the_runs_final_miou(
            self, data_dir, tmp_path):
        # the run scores its float32 student; eval must load the same model
        out = tmp_path / "trained"
        assert cli.main(fast_train_args(data_dir, out, ["--steps", "12"])) == 0
        result_dir = tmp_path / "eval_final"
        assert cli.main(["eval", "--ckpt", str(out / "student_final.ckpt"),
                         "--data", str(data_dir), "--split", "test",
                         "--out", str(result_dir)]) == 0
        run = dg.parse_manifest(out / "run_manifest.txt")
        assert dg.parse_manifest(result_dir / "run_manifest.txt")["miou"] == run["final_miou"]
        assert (result_dir / "confusion.csv").read_bytes() == \
            (out / "eval_final_confusion.csv").read_bytes()

    def test_eval_of_the_final_train_state_matches_the_final_student(self, data_dir,
                                                                     tmp_path):
        # a train state's student records are the model eval scores
        out = tmp_path / "trained"
        assert cli.main(fast_train_args(data_dir, out)) == 0
        state = max((out / "checkpoints").glob("state_*.ckpt"))
        for ckpt, sub in ((out / "student_final.ckpt", "e_student"), (state, "e_state")):
            assert cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                             "--out", str(tmp_path / sub)]) == 0
        for name in ("metrics.csv", "confusion.csv"):
            assert (tmp_path / "e_state" / name).read_bytes() == \
                (tmp_path / "e_student" / name).read_bytes()

    def test_iou_recomputed_from_confusion_matches(self, data_dir, tmp_path):
        out = tmp_path / "trained2"
        assert cli.main(fast_train_args(data_dir, out)) == 0
        result_dir = tmp_path / "eval_sc"
        assert cli.main(["eval", "--ckpt", str(out / "student_final.ckpt"),
                         "--data", str(data_dir), "--out", str(result_dir)]) == 0

        confusion = analysis.read_confusion_csv(result_dir / "confusion.csv")
        recomputed = analysis.metrics_from_confusion(confusion)
        reported = {}
        for line in (result_dir / "metrics.csv").read_text().splitlines()[1:]:
            key, value = line.split(",")
            reported[key] = float(value) if value else float("nan")
        for c, name in enumerate(CLASS_NAMES):
            expected = recomputed.per_class_iou[c]
            if np.isnan(expected):
                assert np.isnan(reported[name])
            else:
                assert reported[name] == pytest.approx(expected, abs=1e-6)
        assert reported["miou"] == pytest.approx(recomputed.miou, abs=1e-6)


    @pytest.mark.parametrize("split, counts, key", [("test", (3, 3, 0), "n_test"),
                                                    ("source", (0, 3, 2), "n_source")])
    def test_empty_split_exits_3_and_names_it(self, tmp_path, capsys, split, counts, key):
        src, tgt = dg.preset_specs("gap-default", seed=7)
        dg.make_benchmark(src, tgt, *counts, tmp_path / "data", height=32, width=32)
        ckpt = tmp_path / "student.ckpt"
        md.save_checkpoint(ckpt, md.init_student(0).data_arrays())
        out = tmp_path / "eval"
        code = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"),
                         "--split", split, "--out", str(out)])
        assert code == 3
        assert f"--split {split}: {key} is 0" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    def test_alpha_grid_emits_complete_table(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        assert cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--alphas", "0.5,1.0,1.5", "--seeds", "2",
                         "--steps", "2", "--heldout-source", "0"]) == 0
        table = (out / "sweep_table.csv").read_text().splitlines()
        assert table[0] == "alpha,mean_miou,std_miou,n_ok,n_failed"
        assert len(table) == 4
        for line in table[1:]:
            fields = line.split(",")
            assert int(fields[3]) == 2 and int(fields[4]) == 0
        cells = (out / "sweep_cells.csv").read_text().splitlines()
        assert len(cells) == 7

    def test_resumed_sweep_skips_completed_cells(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")
        out = tmp_path / "sweep_resume"
        args = ["sweep", "--data", str(data_dir), "--out", str(out),
                "--alphas", "1.0", "--seeds", "2", "--steps", "2",
                "--heldout-source", "0"]
        assert cli.main(args) == 0
        first = run_files(out)
        calls = count_steps(monkeypatch)
        assert cli.main(args) == 0
        # each finished cell resumed at its last step, so no step ran again and
        # every score and file came out the same
        assert calls == []
        assert run_files(out) == first
        assert all(line.endswith(",ok")
                   for line in first["sweep_cells.csv"].decode().splitlines()[1:])

    def test_killed_cell_continues_from_its_train_state(self, data_dir, tmp_path,
                                                        monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")
        config = tmp_path / "base.cfg"
        config.write_text("checkpoint_every = 2\n")

        def sweep(out):
            return cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                             "--alphas", "1.0", "--seeds", "1", "--steps", "6",
                             "--heldout-source", "2", "--config", str(config)])

        assert sweep(tmp_path / "whole") == 0
        step = tr.Trainer.train_step

        def killed_at_step_3(self):
            if self.step_index == 3:
                raise RuntimeError("killed")
            return step(self)

        monkeypatch.setattr(tr.Trainer, "train_step", killed_at_step_3)
        killed = tmp_path / "killed"
        assert sweep(killed) == 0
        assert "failed: killed" in (killed / "sweep_cells.csv").read_text()
        cell = killed / "cells" / "alpha_1.0_seed0"
        assert [p.name for p in (cell / "checkpoints").iterdir()] == ["state_000002.ckpt"]

        monkeypatch.setattr(tr.Trainer, "train_step", step)
        calls = count_steps(monkeypatch)
        assert sweep(killed) == 0
        assert calls == [2, 3, 4, 5]
        assert run_files(killed) == run_files(tmp_path / "whole")

    def test_changed_cell_config_trains_from_scratch(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")
        config = tmp_path / "base.cfg"
        config.write_text("checkpoint_every = 2\n")
        out = tmp_path / "sweep"

        def sweep(steps):
            return cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                             "--alphas", "1.0", "--seeds", "1", "--steps", str(steps),
                             "--heldout-source", "0", "--config", str(config)])

        assert sweep(4) == 0
        calls = count_steps(monkeypatch)
        assert sweep(2) == 0
        assert calls == [0, 1]
        # the 4-step run's last state is gone, so the next re-run resumes the
        # 2-step run and runs no step
        cell = out / "cells" / "alpha_1.0_seed0"
        assert [p.name for p in (cell / "checkpoints").iterdir()] == ["state_000002.ckpt"]
        assert sweep(2) == 0
        assert calls == [0, 1]
        assert (out / "sweep_cells.csv").read_text().splitlines()[1].endswith(",ok")

    def test_rewritten_vector_file_retrains_its_cell(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")
        vec = write_vectors(tmp_path / "v.txt", seed=1)

        def sweep(out):
            return cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                             "--priors", str(vec), "--seeds", "1", "--steps", "2",
                             "--heldout-source", "0"])

        assert sweep(tmp_path / "rerun") == 0
        write_vectors(vec, seed=2)
        calls = count_steps(monkeypatch)
        assert sweep(tmp_path / "rerun") == 0
        assert calls == [0, 1]
        assert sweep(tmp_path / "fresh") == 0
        assert run_files(tmp_path / "rerun") == run_files(tmp_path / "fresh")

    def test_other_data_retrains_the_cell(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")
        other = tmp_path / "other_data"
        assert cli.main(["gen", "--out", str(other), "--seed", "8", "--n-source", "6",
                         "--n-target", "6", "--n-test", "3", "--size", "32"]) == 0

        def sweep(data, out):
            return cli.main(["sweep", "--data", str(data), "--out", str(out),
                             "--alphas", "1.0", "--seeds", "1", "--steps", "2",
                             "--heldout-source", "0"])

        assert sweep(data_dir, tmp_path / "rerun") == 0
        calls = count_steps(monkeypatch)
        assert sweep(other, tmp_path / "rerun") == 0
        assert calls == [0, 1]
        assert sweep(other, tmp_path / "fresh") == 0
        assert run_files(tmp_path / "rerun") == run_files(tmp_path / "fresh")

    def test_prior_sweep_shares_dataset_checksum(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        environment = dict(os.environ)
        seen = {}
        get_context = multiprocessing.get_context

        def spying_get_context(method):
            seen.update({name: os.environ.get(name) for name in cli.BLAS_THREAD_VARIABLES})
            return get_context(method)

        monkeypatch.setattr(multiprocessing, "get_context", spying_get_context)
        out = tmp_path / "sweep_priors"
        assert cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--priors", "onehot,random", "--seeds", "1",
                         "--steps", "2", "--heldout-source", "0"]) == 0
        manifest = dg.parse_manifest(out / "run_manifest.txt")
        assert manifest["dataset_checksum"] == \
            DatasetBundle(data_dir).dataset_checksum()
        assert manifest["n_failed"] == "0"
        assert_manifest_lists_every_file(out, "sweep")
        # the two workers started with one BLAS thread each, and this
        # process's environment is as it was
        assert manifest["workers"] == "2" and manifest["worker_blas_threads"] == "1"
        assert seen == dict.fromkeys(cli.BLAS_THREAD_VARIABLES, "1")
        assert dict(os.environ) == environment

    def test_prior_values_mix_kinds_and_vector_files(self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")
        a = write_vectors(tmp_path / "A.txt", seed=1)
        b = write_vectors(tmp_path / "B.txt", seed=2, dim=5)
        out = tmp_path / "sweep_files"
        assert cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--priors", f"onehot,{a},{b}", "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0"]) == 0
        table = (out / "sweep_table.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in table] == ["onehot", str(a), str(b)]
        assert all(line.split(",")[3:] == ["1", "0"] for line in table)
        cells = out / "cells"
        assert sorted(p.name for p in cells.iterdir()) == [
            "prior_A.txt_seed0", "prior_B.txt_seed0", "prior_onehot_seed0"]
        # each cell trained with its own file: the prior projector takes its width
        for name, width in (("onehot", 6), ("A.txt", 4), ("B.txt", 5)):
            final = md.load_checkpoint(cells / f"prior_{name}_seed0" / "student_final.ckpt")
            assert final["gpr.conv"].shape[1] == width
        assert f"prior = {b}\n" in (cells / "prior_B.txt_seed0" / "config.txt").read_text()

    @pytest.mark.parametrize("values, named", [("missing.txt", "missing.txt"),
                                               ("a.txt,x/a.txt", "x/a.txt"),
                                               ("onehot,bad.txt", "bad.txt:3: expected 3 "
                                                                  "values, got 2")],
                             ids=["missing-file", "same-file-name", "malformed-file"])
    def test_bad_prior_value_exits_3_before_creating_out(self, data_dir, tmp_path, capsys,
                                                         monkeypatch, values, named):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir()
        write_vectors(tmp_path / "a.txt")
        write_vectors(tmp_path / "x" / "a.txt")
        (tmp_path / "bad.txt").write_text("D 3\nroad 1 2 3\nsidewalk 1 2\n")
        out = tmp_path / "sweep_bad"
        code = cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--priors", values, "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0"])
        assert code == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_a_malformed_base_prior_file_exits_3_before_creating_out(self, data_dir,
                                                                     tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("D 2\nroad 1 2\nsidewalk 1 2 3\n")
        config = tmp_path / "base.cfg"
        config.write_text(f"prior = {bad}\n")
        out = tmp_path / "sweep_bad_base"
        code = cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--alphas", "0,1", "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0", "--config", str(config)])
        assert code == 3
        assert "bad.txt:3: expected 2 values, got 3" in capsys.readouterr().err
        assert not out.exists()

    def test_a_failure_message_with_a_comma_keeps_the_header_field_count(
            self, data_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "1")

        def failing(config, bundle, out_dir):
            raise RuntimeError('seed 0, step 3: "stopped"')
        monkeypatch.setattr(tr, "run", failing)
        out = tmp_path / "sweep_failed"
        assert cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--alphas", "1.0,0.5", "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0"]) == 0
        for name in ("sweep_cells.csv", "sweep_table.csv"):
            with (out / name).open(newline="") as f:
                header, *rows = csv.reader(f)
            assert len(rows) == 2 and all(len(row) == len(header) for row in rows)
        assert rows == [["1.0", "nan", "nan", "0", "1"], ["0.5", "nan", "nan", "0", "1"]]
        with (out / "sweep_cells.csv").open(newline="") as f:
            statuses = [row[-1] for row in csv.reader(f)][1:]
        assert statuses == ['failed: seed 0, step 3: "stopped"'] * 2

    def test_unknown_prior_exits_3_before_any_cell(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep_clip"
        code = cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--priors", "onehot,clip", "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0"])
        assert code == 3
        assert "clip" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid, key", [(["--alphas", "1.0", "--seeds", "0"], "--seeds"),
                                           (["--alphas", ",", "--seeds", "1"], "--alphas")])
    def test_empty_grid_exits_3_before_creating_out(self, data_dir, tmp_path, capsys,
                                                    grid, key):
        out = tmp_path / "sweep_empty"
        code = cli.main(["sweep", "--data", str(data_dir), "--out", str(out), *grid,
                         "--steps", "2", "--heldout-source", "0"])
        assert code == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_values_run_once(self, data_dir, tmp_path):
        out = tmp_path / "sweep_repeated"
        assert cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--alphas", "1,1.0,0.5", "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0"]) == 0
        table = (out / "sweep_table.csv").read_text().splitlines()[1:]
        assert [line.split(",")[0] for line in table] == ["1.0", "0.5"]
        assert all(line.split(",")[3:] == ["1", "0"] for line in table)
        assert len((out / "sweep_cells.csv").read_text().splitlines()) == 3
        assert dg.parse_manifest(out / "run_manifest.txt")["n_cells"] == "2"

    def test_worker_cap_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("DAP_LAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli.worker_cap() == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli.worker_cap() == 2
        monkeypatch.setenv("DAP_LAB_THREADS", "3")
        assert cli.worker_cap() == 3
        for bad in ("0", "-2", "two"):
            monkeypatch.setenv("DAP_LAB_THREADS", bad)
            with pytest.raises(InputError, match=f"DAP_LAB_THREADS .*{bad}"):
                cli.worker_cap()

    def test_thread_cap_below_1_exits_3_before_creating_out(self, data_dir, tmp_path,
                                                            capsys, monkeypatch):
        monkeypatch.setenv("DAP_LAB_THREADS", "0")
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--alphas", "1.0", "--seeds", "1", "--steps", "2",
                         "--heldout-source", "0"])
        assert code == 3
        assert "DAP_LAB_THREADS" in capsys.readouterr().err
        assert not out.exists()

    # each input makes `train` exit 3 without a run directory
    @pytest.mark.parametrize("tampered, heldout, named", [
        ("source/img_003.ppm", "0", "file.source/img_003.ppm"),
        (None, "6", "heldout_source 6 leaves no training images")],
        ids=["tampered-item", "heldout-covers-source"])
    def test_a_sweep_exits_3_before_creating_out_where_train_would(
            self, data_dir, tmp_path, capsys, tampered, heldout, named):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        if tampered:
            flip_last_byte(data / tampered)
        out = tmp_path / "sweep"
        code = cli.main(["sweep", "--data", str(data), "--out", str(out), "--alphas", "0,1",
                         "--seeds", "2", "--steps", "5", "--heldout-source", heldout])
        assert code == 3
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_both_axes_rejected(self, data_dir, tmp_path, capsys):
        code = cli.main(["sweep", "--data", str(data_dir),
                         "--out", str(tmp_path / "s"),
                         "--alphas", "1.0", "--priors", "onehot"])
        assert code == 3
        capsys.readouterr()


def _missing_item(rel):
    def damage(data, tmp_path):
        (data / rel).unlink()
        return fast_train_args(data, tmp_path / "run"), [str(data / rel)]
    return damage


def _missing_sealed_label_with_pseudo_acc(data, tmp_path):
    label = data / "target_train" / "hidden" / "lab_005.pgm"
    label.unlink()
    return fast_train_args(data, tmp_path / "run", ["--pseudo-acc"]), [str(label)]


def _config_not_utf8(data, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"alpha = 1.0\n# caf\xe9\n")
    return fast_train_args(data, tmp_path / "run", ["--config", str(config)]), [str(config)]


def _manifest_not_utf8(data, tmp_path):
    manifest = data / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes() + b"# caf\xe9\n")
    return fast_train_args(data, tmp_path / "run"), [str(manifest)]


def _vectors_not_utf8(data, tmp_path):
    vec = write_vectors(tmp_path / "v.txt")
    vec.write_bytes(vec.read_bytes() + b"caf\xe9 1 2 3 4\n")
    return fast_train_args(data, tmp_path / "run", ["--prior", str(vec)]), [str(vec)]


def _manifest_is_a_directory(data, tmp_path):
    manifest = data / "manifest.txt"
    manifest.unlink()
    manifest.mkdir()
    return fast_train_args(data, tmp_path / "run"), [str(manifest)]


def _target_image_of_the_wrong_size(data, tmp_path):
    image = data / "target_train" / "img_001.ppm"
    dg.write_ppm(image, np.zeros((3, 16, 16)))
    return fast_train_args(data, tmp_path / "run"), [str(image), "32x32"]


def _out_is_a_file(command):
    def damage(data, tmp_path):
        out = tmp_path / "file"
        out.write_text("")
        args = (fast_train_args(data, out) if command == "train" else
                ["gen", "--out", str(out), "--size", "32", "--n-source", "1"])
        return args, [str(out)]
    return damage


# each reproduces an input that once ended in a traceback (exit 1)
UNREADABLE_INPUTS = {
    "missing-target-image": _missing_item("target_train/img_002.ppm"),
    "missing-test-image": _missing_item("target_test/img_000.ppm"),
    "missing-sealed-label-with-pseudo-acc": _missing_sealed_label_with_pseudo_acc,
    "config-not-utf8": _config_not_utf8,
    "manifest-not-utf8": _manifest_not_utf8,
    "vectors-not-utf8": _vectors_not_utf8,
    "manifest-is-a-directory": _manifest_is_a_directory,
    "target-image-16x16": _target_image_of_the_wrong_size,
    "train-out-is-a-file": _out_is_a_file("train"),
    "gen-out-is-a-file": _out_is_a_file("gen"),
}


class TestMalformedInput:
    @pytest.mark.parametrize("line, key", [("alpha = abc", "alpha"),
                                           ("alpha =", "alpha"),
                                           ("lambda = 0.9x", "lambda"),
                                           ("dap_enabled = false", "dap_enabled"),
                                           ("interp = cubic", "interp"),
                                           ("heldout_source = -1", "heldout_source"),
                                           ("momentum = 0.9", "momentum"),
                                           # the EMA decay's key is `lambda` only
                                           ("ema_lambda = 0.5", "ema_lambda"),
                                           ("alpha = nan", "alpha"),
                                           # the base rate is fixed, as momentum is
                                           ("lr = 0.01", "lr"),
                                           ("prior = clip", "prior"),
                                           ("seed = -1", "seed")])
    def test_bad_config_value_exits_3_and_names_key(self, data_dir, tmp_path,
                                                    capsys, line, key):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        code = cli.main(fast_train_args(data_dir, tmp_path / "run",
                                        ["--config", str(config)]))
        assert code == 3
        assert key in capsys.readouterr().err

    def test_config_key_given_twice_exits_3_naming_it_and_both_lines(self, data_dir,
                                                                     tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 1.0\n# a comment\nsteps = 2\nalpha = 0.5\n")
        out = tmp_path / "run"
        code = cli.main(fast_train_args(data_dir, out, ["--config", str(config)]))
        assert code == 3
        assert f"{config}:4: key 'alpha' is already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("split, i, command", [("target_test", 1, "eval"),
                                                   ("source", 2, "train")])
    def test_label_id_outside_the_class_table_exits_3_naming_file_and_value(
            self, data_dir, tmp_path, capsys, split, i, command):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        label = data / split / f"lab_{i:03d}.pgm"
        raw = bytearray(label.read_bytes())
        raw[-1] = 9        # between the class ids and the ignore id
        label.write_bytes(bytes(raw))
        reseal_file(data, f"{split}/lab_{i:03d}.pgm")
        out = tmp_path / "out"
        if command == "train":
            args = fast_train_args(data, out)
        else:
            ckpt = tmp_path / "student.ckpt"
            md.save_checkpoint(ckpt, md.init_student(0).data_arrays())
            args = ["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out)]
        assert cli.main(args) == 3
        assert f"{label}: label id 9 " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", UNREADABLE_INPUTS)
    def test_unreadable_input_exits_3_naming_it_before_any_step(
            self, data_dir, tmp_path, capsys, monkeypatch, case):
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        args, named = UNREADABLE_INPUTS[case](data, tmp_path)
        calls = count_steps(monkeypatch)
        assert cli.main(args) == 3
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert calls == []
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("failure, message", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), "error: standard output: Broken pipe"),
        (OSError(errno.EIO, "Input/output error"), "error: Input/output error"),
    ], ids=["broken-pipe", "no-filename"])
    def test_unwritable_stdout_exits_3_without_printing_none(self, tmp_path, capsys,
                                                             monkeypatch, failure, message):
        class FailingStdout:
            def write(self, text):
                raise failure

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", FailingStdout())
        code = cli.main(["gen", "--out", str(tmp_path / "data"), "--size", "16",
                         "--n-source", "1", "--n-target", "1", "--n-test", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert err == message + "\n"

    def test_bad_checkpoint_exits_3_and_names_file(self, data_dir, tmp_path, capsys):
        truncated = tmp_path / "truncated.ckpt"
        md.save_checkpoint(truncated, md.init_student(0).data_arrays())
        truncated.write_bytes(truncated.read_bytes()[:-5])
        for ckpt in (truncated, tmp_path / "missing.ckpt"):
            code = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                             "--out", str(tmp_path / "eval")])
            assert code == 3
            assert ckpt.name in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--config"], ["--prior"]],
                             ids=["config", "vectors"])
    def test_missing_input_file_exits_3_and_names_it(self, data_dir, tmp_path, capsys,
                                                     flag):
        missing = tmp_path / "absent.txt"
        code = cli.main(fast_train_args(data_dir, tmp_path / "run", [*flag, str(missing)]))
        assert code == 3
        assert missing.name in capsys.readouterr().err

    def test_removed_vector_file_setting_is_rejected(self, data_dir, tmp_path, capsys):
        vec = write_vectors(tmp_path / "vectors.txt")
        config = tmp_path / "run.cfg"
        config.write_text(f"prior = file\nvector_file = {vec}\n")
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--config", str(config)])) == 3
        assert "vector_file" in capsys.readouterr().err
        assert cli.main(fast_train_args(data_dir, out, ["--vectors", str(vec)])) == 2
        assert "--vectors" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_lr_flag_is_a_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--lr", "0.01"])) == 2
        assert "--lr" in capsys.readouterr().err
        assert not out.exists()

    def test_removed_resume_flag_is_a_usage_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(fast_train_args(data_dir, out, ["--resume"])) == 2
        assert "--resume" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_missing_a_parameter_exits_3_and_names_it(self, data_dir,
                                                                 tmp_path, capsys):
        arrays = md.init_student(0).data_arrays()
        del arrays["head.conv"]
        partial = tmp_path / "partial.ckpt"
        md.save_checkpoint(partial, arrays)
        code = cli.main(["eval", "--ckpt", str(partial), "--data", str(data_dir),
                         "--out", str(tmp_path / "eval")])
        assert code == 3
        assert "head.conv" in capsys.readouterr().err

    def test_checkpoint_with_a_misshapen_parameter_exits_3_and_names_it(
            self, data_dir, tmp_path, capsys):
        arrays = md.init_student(0).data_arrays()
        arrays["head.conv"] = np.zeros((5, 32, 1, 1))
        misshapen = tmp_path / "misshapen.ckpt"
        md.save_checkpoint(misshapen, arrays)
        code = cli.main(["eval", "--ckpt", str(misshapen), "--data", str(data_dir),
                         "--out", str(tmp_path / "eval")])
        assert code == 3
        err = capsys.readouterr().err
        assert "head.conv" in err and "(5, 32, 1, 1)" in err and "(6, 32, 1, 1)" in err

    # 1e39 is finite in the checkpoint's <f8 but overflows the float32 model
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_checkpoint_with_a_non_finite_parameter_exits_3_and_names_it(
            self, data_dir, tmp_path, capsys, value):
        arrays = md.init_student(0).data_arrays()
        arrays["backbone.conv1"][0, 0, 1, 1] = value
        poisoned = tmp_path / "student_final.ckpt"
        md.save_checkpoint(poisoned, arrays)
        out = tmp_path / "eval"
        code = cli.main(["eval", "--ckpt", str(poisoned), "--data", str(data_dir),
                         "--out", str(out)])
        assert code == 3
        assert "backbone.conv1" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_trained_with_a_300d_prior_evaluates(self, data_dir, tmp_path,
                                                            capsys):
        wide = tmp_path / "wide.ckpt"
        md.save_checkpoint(wide, md.init_student(0, prior_dim=300).data_arrays())
        assert cli.main(["eval", "--ckpt", str(wide), "--data", str(data_dir),
                         "--out", str(tmp_path / "eval")]) == 0
        capsys.readouterr()

    def test_dataset_manifest_missing_key_exits_3_and_names_it(self, data_dir,
                                                              tmp_path, capsys):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        manifest = broken / "manifest.txt"
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if not line.startswith("n_test=")))
        code = cli.main(fast_train_args(broken, tmp_path / "run"))
        assert code == 3
        assert "n_test" in capsys.readouterr().err

    def test_dataset_manifest_key_given_twice_exits_3_naming_it(self, data_dir, tmp_path,
                                                               capsys):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        manifest = broken / "manifest.txt"
        lines = manifest.read_text().splitlines(True)
        first = next(n for n, line in enumerate(lines, 1) if line.startswith("n_source="))
        manifest.write_text("".join(lines) + "n_source=2\n")
        out = tmp_path / "run"
        code = cli.main(fast_train_args(broken, out))
        assert code == 3
        assert (f"{manifest}:{len(lines) + 1}: key 'n_source' is already set on line {first}"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("counts, size, key", [((3, 3, 2), 30, "height"),
                                                   ((3, 0, 2), 32, "n_target"),
                                                   ((3, 3, 0), 32, "n_test")],
                             ids=["size-30", "no-target", "no-test"])
    def test_unusable_dataset_exits_3_before_any_step(self, tmp_path, capsys,
                                                      counts, size, key):
        src, tgt = dg.preset_specs("gap-default", seed=7)
        dg.make_benchmark(src, tgt, *counts, tmp_path / "data", height=size, width=size)
        out = tmp_path / "run"
        code = cli.main(fast_train_args(tmp_path / "data", out))
        assert code == 3
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_source", "n_target", "n_test"])
    def test_negative_manifest_count_exits_3_and_names_it(self, data_dir, tmp_path, capsys,
                                                          key):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        manifest = broken / "manifest.txt"
        manifest.write_text("".join(f"{key}=-1\n" if line.startswith(f"{key}=") else line
                                    for line in manifest.read_text().splitlines(True)))
        code = cli.main(fast_train_args(broken, tmp_path / "run"))
        assert code == 3
        assert f"{key} must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag", ["--n-source", "--n-target", "--n-test"])
    def test_gen_negative_count_exits_3_before_writing(self, tmp_path, capsys, flag):
        out = tmp_path / "data"
        code = cli.main(["gen", "--out", str(out), "--size", "32", flag, "-2"])
        assert code == 3
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_gen_size_not_a_multiple_of_4_exits_3_before_writing(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = cli.main(["gen", "--out", str(out), "--size", "30"])
        assert code == 3
        assert "--size" in capsys.readouterr().err
        assert not out.exists()

    def test_gen_size_below_the_smallest_scene_exits_3_before_writing(self, tmp_path,
                                                                      capsys):
        out = tmp_path / "data"
        code = cli.main(["gen", "--out", str(out), "--size", "8"])
        assert code == 3
        assert "--size must be at least 16, got 8" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("form", ["daplab-benchmark-v1", "daplab-benchmark-v3"])
    def test_dataset_manifest_of_another_format_exits_3_naming_it(self, data_dir, tmp_path,
                                                                  capsys, form):
        broken = tmp_path / "broken"
        shutil.copytree(data_dir, broken)
        manifest = broken / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("format=daplab-benchmark-v2",
                                                         f"format={form}"))
        out = tmp_path / "run"
        assert cli.main(fast_train_args(broken, out)) == 3
        err = capsys.readouterr().err
        assert f"format '{form}'" in err and "daplab gen" in err
        assert not out.exists()
