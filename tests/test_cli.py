import shutil

import numpy as np
import pytest

from daplab import analysis
from daplab import cli
from daplab import datagen as dg
from daplab import model as md
from daplab.classes import CLASS_NAMES
from daplab.datagen import DatasetBundle


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
        assert sum(1 for k in entries if k.startswith("item.")) == 15
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


class TestTrain:
    def test_no_dap_equals_alpha_zero(self, data_dir, tmp_path):
        assert cli.main(fast_train_args(data_dir, tmp_path / "no_dap",
                                        ["--no-dap"])) == 0
        assert cli.main(fast_train_args(data_dir, tmp_path / "alpha0",
                                        ["--alpha", "0"])) == 0
        a = md.load_checkpoint(tmp_path / "no_dap" / "student_final.ckpt")
        b = md.load_checkpoint(tmp_path / "alpha0" / "student_final.ckpt")
        assert set(a) == set(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_missing_vector_class_exits_3_and_names_it(self, data_dir, tmp_path,
                                                       capsys):
        vec = tmp_path / "vectors.txt"
        rows = [f"{name} 0.1 0.2" for name in CLASS_NAMES if name != "sky"]
        vec.write_text("D 2\n" + "\n".join(rows) + "\n")
        code = cli.main(fast_train_args(data_dir, tmp_path / "run",
                                        ["--prior", "file", "--vectors", str(vec)]))
        assert code == 3
        assert "sky" in capsys.readouterr().err

    def test_zero_steps_writes_initialization_checkpoint(self, data_dir, tmp_path):
        out = tmp_path / "zero"
        args = ["train", "--data", str(data_dir), "--out", str(out),
                "--steps", "0", "--seed", "9", "--heldout-source", "0"]
        assert cli.main(args) == 0
        arrays = md.load_checkpoint(out / "student_final.ckpt")
        fresh = md.init_student(9, prior_dim=6)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, fresh.params[name].data)

    def test_nan_prior_file_exits_4(self, data_dir, tmp_path, capsys):
        vec = tmp_path / "nan_vectors.txt"
        vec.write_text("D 2\n" + "\n".join(f"{n} nan nan" for n in CLASS_NAMES) + "\n")
        code = cli.main(fast_train_args(data_dir, tmp_path / "nanrun",
                                        ["--prior", "file", "--vectors", str(vec)]))
        assert code == 4
        capsys.readouterr()

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

        result_dir = tmp_path / "eval_oracle"
        assert cli.main(["eval", "--ckpt", str(out / "student_final.ckpt"),
                         "--data", str(cheat), "--out", str(result_dir)]) == 0
        lines = (result_dir / "metrics.csv").read_text().splitlines()
        assert lines[-1] == "miou,1.000000"

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

    def test_resumed_sweep_skips_completed_cells(self, data_dir, tmp_path):
        out = tmp_path / "sweep_resume"
        args = ["sweep", "--data", str(data_dir), "--out", str(out),
                "--alphas", "1.0", "--seeds", "2", "--steps", "2",
                "--heldout-source", "0"]
        assert cli.main(args) == 0
        first = (out / "sweep_cells.csv").read_text()
        assert cli.main(args) == 0
        second = (out / "sweep_cells.csv").read_text()
        assert "cached" in second
        first_scores = [line.split(",")[2] for line in first.splitlines()[1:]]
        second_scores = [line.split(",")[2] for line in second.splitlines()[1:]]
        assert first_scores == second_scores

    def test_prior_sweep_shares_dataset_checksum(self, data_dir, tmp_path):
        out = tmp_path / "sweep_priors"
        assert cli.main(["sweep", "--data", str(data_dir), "--out", str(out),
                         "--priors", "onehot,random", "--seeds", "1",
                         "--steps", "2", "--heldout-source", "0"]) == 0
        manifest = dg.parse_manifest(out / "run_manifest.txt")
        assert manifest["dataset_checksum"] == \
            DatasetBundle(data_dir).dataset_checksum()
        assert manifest["n_failed"] == "0"
        assert_manifest_lists_every_file(out, "sweep")

    def test_both_axes_rejected(self, data_dir, tmp_path, capsys):
        code = cli.main(["sweep", "--data", str(data_dir),
                         "--out", str(tmp_path / "s"),
                         "--alphas", "1.0", "--priors", "onehot"])
        assert code == 3
        capsys.readouterr()


class TestMalformedInput:
    @pytest.mark.parametrize("line, key", [("alpha = abc", "alpha"),
                                           ("lambda = 0.9x", "lambda"),
                                           ("dap_enabled = false", "dap_enabled")])
    def test_bad_config_value_exits_3_and_names_key(self, data_dir, tmp_path,
                                                    capsys, line, key):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        code = cli.main(fast_train_args(data_dir, tmp_path / "run",
                                        ["--config", str(config)]))
        assert code == 3
        assert key in capsys.readouterr().err

    def test_bad_checkpoint_exits_3_and_names_file(self, data_dir, tmp_path, capsys):
        truncated = tmp_path / "truncated.ckpt"
        md.save_checkpoint(truncated, md.init_student(0).data_arrays())
        truncated.write_bytes(truncated.read_bytes()[:-5])
        for ckpt in (truncated, tmp_path / "missing.ckpt"):
            code = cli.main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
                             "--out", str(tmp_path / "eval")])
            assert code == 3
            assert ckpt.name in capsys.readouterr().err

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
