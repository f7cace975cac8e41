"""Command-line entry points, exercised end to end in a temp directory."""

import configparser
import dataclasses
import json
import logging
import os
import shutil

import numpy as np
import pytest

from tapgkit import cli, evaluation
from tapgkit.autodiff.checkpoint import load_checkpoint, save_checkpoint
from tapgkit.cli import main
from tapgkit.config import RunConfig, load_run_config, render
from tapgkit.data.features import VideoFeatureSequence, load_features, save_features
from tapgkit.inference import PRESETS

# A corpus and training profile small enough for fast CLI runs.
SMALL_INI = """
[synthetic]
num_videos = 4
num_snippets = 16
snippet_stride = 8
env_dim = 8
actor_dim = 8
object_dim = 8
max_action_len = 6

[representation]
feature_dim = 12
attention_hidden = 16

[boundary_net]
num_samples = 8
trunk_hidden = 16
trunk_out = 12
boundary_hidden = 16
proposal_conv3d_out = 24
proposal_conv2d_hidden = 12

[training]
epochs = 2
"""


@pytest.fixture(scope="module")
def small_ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.ini"
    path.write_text(SMALL_INI)
    return path


@pytest.fixture(scope="module")
def corpus_dir(small_ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    assert main(["synth", "--config", str(small_ini), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(small_ini, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--config", str(small_ini),
                 "--data", str(corpus_dir), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def three_epoch_run(small_ini, corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run3")
    assert main(["train", "--config", str(small_ini), "--data", str(corpus_dir),
                 "--out", str(out), "--epochs", "3"]) == 0
    return out


def _same_training(out, reference):
    for name in ("checkpoint.tapg", "epochs.jsonl"):
        assert (out / name).read_bytes() == (reference / name).read_bytes(), name


class TestConfigCommand:
    def test_writes_default_ini(self, tmp_path, capsys):
        out = tmp_path / "default.ini"
        assert main(["config", "--out", str(out)]) == 0
        assert "[training]" in out.read_text()

    def test_prints_to_stdout(self, capsys):
        assert main(["config"]) == 0
        assert "[synthetic]" in capsys.readouterr().out


class TestSynthCommand:
    def test_corpus_layout(self, corpus_dir):
        assert (corpus_dir / "annotations.json").exists()
        assert (corpus_dir / "vocabulary.json").exists()
        feats = sorted((corpus_dir / "features").glob("*.feat"))
        assert len(feats) == 4

    def test_manifest_line(self, small_ini, tmp_path, capsys):
        assert main(["synth", "--config", str(small_ini),
                     "--out", str(tmp_path / "c")]) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        manifest = json.loads(line)
        assert manifest["videos"] == 4
        assert manifest["config"]["data"]["root"] == str(tmp_path / "c")

    def test_seed_override_changes_data(self, small_ini, tmp_path):
        main(["synth", "--config", str(small_ini), "--out",
              str(tmp_path / "a"), "--seed", "1"])
        main(["synth", "--config", str(small_ini), "--out",
              str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "annotations.json").read_text()
        b = (tmp_path / "b" / "annotations.json").read_text()
        assert a != b


class TestTrainCommand:
    def test_artifacts(self, run_dir):
        assert (run_dir / "checkpoint.tapg").exists()
        assert (run_dir / "manifest.json").exists()
        lines = (run_dir / "epochs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["epoch"] == 0 and "mean_total" in first

    def test_manifest_contents(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["run"]["epochs_completed"] == 2
        assert manifest["run"]["videos"] == 4
        assert manifest["training"]["epochs"] == 2

    def test_manifest_counts_trainable_and_fixed_entries(self, run_dir):
        run = json.loads((run_dir / "manifest.json").read_text())["run"]
        state = load_checkpoint(run_dir / "checkpoint.tapg")
        model = sum(v.size for k, v in state.items() if not k.startswith(("optim.", "meta.")))
        moments = sum(v.size for k, v in state.items() if k.startswith("optim.m."))
        # the adaptive scorers: per stream, two [8, 16, 16] MLPs with biases
        assert run["fixed_parameters"] == 2 * 2 * (8 * 16 + 16 + 16 * 16 + 16)
        assert run["trainable_parameters"] == moments == model - run["fixed_parameters"]

    def test_manifest_records_numpy_and_blas_threads(self, run_dir):
        env = json.loads((run_dir / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            assert env[var] == os.environ.get(var)
        assert isinstance(env["cpu_affinity"], int) and env["cpu_affinity"] >= 1

    def test_resume_continues(self, small_ini, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "resumed"
        code = main(["train", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--out", str(out),
                     "--resume", str(run_dir / "checkpoint.tapg"),
                     "--epochs", "3"])
        assert code == 0
        lines = [json.loads(l) for l in
                 (out / "epochs.jsonl").read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [2]

    def test_resume_matches_uninterrupted_run(self, small_ini, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "split"
        args = ["train", "--config", str(small_ini), "--data", str(corpus_dir),
                "--out", str(out)]
        assert main(args + ["--epochs", "1"]) == 0
        assert main(args + ["--resume", str(out / "checkpoint.tapg")]) == 0
        for name in ("checkpoint.tapg", "epochs.jsonl"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_resume_after_a_failed_checkpoint_write(self, small_ini, corpus_dir,
                                                    three_epoch_run, tmp_path, monkeypatch):
        # the second epoch is logged, then writing its checkpoint fails
        out = tmp_path / "failed"
        args = ["train", "--config", str(small_ini), "--data", str(corpus_dir),
                "--out", str(out), "--epochs", "3"]
        save = cli.save_training_state

        def fail_at_epoch_two(path, model, epochs_completed, optimizer=None):
            if epochs_completed == 2:
                raise OSError("no space left on device")
            save(path, model, epochs_completed, optimizer)

        with monkeypatch.context() as patch:
            patch.setattr(cli, "save_training_state", fail_at_epoch_two)
            assert main(args) == 2
        assert len((out / "epochs.jsonl").read_text().splitlines()) == 2
        assert main(args + ["--resume", str(out / "checkpoint.tapg")]) == 0
        _same_training(out, three_epoch_run)

    def test_resume_drops_a_torn_last_line(self, small_ini, corpus_dir, three_epoch_run,
                                           tmp_path):
        out = tmp_path / "torn"
        args = ["train", "--config", str(small_ini), "--data", str(corpus_dir),
                "--out", str(out)]
        assert main(args) == 0
        with open(out / "epochs.jsonl", "a") as log:
            log.write('{"epoch": 2, "mean_tot')
        assert main(args + ["--epochs", "3", "--resume", str(out / "checkpoint.tapg")]) == 0
        _same_training(out, three_epoch_run)

    def test_seed_override(self, small_ini, corpus_dir, tmp_path):
        args = ["train", "--config", str(small_ini), "--data", str(corpus_dir), "--epochs", "1"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert main(args + ["--out", str(tmp_path / "seeded"), "--seed", "1"]) == 0
        default, seeded = ((tmp_path / d / "checkpoint.tapg").read_bytes()
                           for d in ("default", "seeded"))
        assert default != seeded
        manifest = json.loads((tmp_path / "seeded" / "manifest.json").read_text())
        assert manifest["training"]["seed"] == 1

    def test_manifest_records_the_extents_the_model_read(self, tmp_path):
        ini = tmp_path / "narrow.ini"
        ini.write_text(SMALL_INI.replace("actor_dim = 8", "actor_dim = 6"))
        assert main(["synth", "--config", str(ini), "--out", str(tmp_path / "corpus")]) == 0
        assert main(["train", "--config", str(ini), "--data", str(tmp_path / "corpus"),
                     "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["run"]["input"] == {"env_dim": 8, "actor_dim": 6, "object_dim": 8,
                                            "num_snippets": 16}
        assert not {"env_dim", "actor_dim", "object_dim"} & set(manifest["representation"])

    def test_zero_epochs_rejected(self, small_ini, corpus_dir, tmp_path, capsys):
        assert main(["train", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--out", str(tmp_path / "run"), "--epochs", "0"]) == 2
        assert _config_error(capsys) == "epochs must be at least 1"

    def test_epoch_override(self, small_ini, corpus_dir, tmp_path):
        out = tmp_path / "short"
        assert main(["train", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--out", str(out),
                     "--epochs", "1"]) == 0
        assert len((out / "epochs.jsonl").read_text().splitlines()) == 1

    def test_fresh_run_replaces_epoch_log(self, small_ini, corpus_dir, tmp_path):
        out = tmp_path / "twice"
        for _ in range(2):
            assert main(["train", "--config", str(small_ini),
                         "--data", str(corpus_dir), "--out", str(out)]) == 0
        assert len((out / "epochs.jsonl").read_text().splitlines()) == 2


class TestInferCommand:
    def test_proposals_file(self, small_ini, corpus_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "proposals.json"
        code = main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(out)])
        assert code == 0
        table = json.loads(out.read_text())
        assert len(table) == 4
        assert all(isinstance(v, list) for v in table.values())
        manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert manifest["videos"] == 4
        decode = manifest["decode"]
        kept = [len(v) for v in table.values()]
        assert decode["kept_per_video"] == {"mean": np.mean(kept), "max": max(kept)}
        before = decode["candidates_per_video"]
        assert before["max"] >= before["mean"] >= decode["kept_per_video"]["mean"]
        assert before["max"] >= max(kept) and before["max"] <= 16 * 15 // 2
        assert decode["seconds"] > 0.0

    def test_preset_override(self, small_ini, corpus_dir, run_dir, tmp_path):
        out = tmp_path / "proposals.json"
        assert main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(out), "--preset", "thumos-tad-nms"]) == 0
        assert out.exists()

    def test_preset_override_keeps_the_files_max_keep(self, small_ini, corpus_dir, run_dir,
                                                      tmp_path, capsys):
        ini = tmp_path / "keep.ini"
        ini.write_text(small_ini.read_text()
                       + "\n[inference]\npreset = anet-tapg-snms\nmax_keep = 2\n")
        out = tmp_path / "proposals.json"
        assert main(["infer", "--config", str(ini), "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(out), "--preset", "thumos-tapg-snms"]) == 0
        manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert manifest["config"]["inference"]["max_keep"] == 2
        assert manifest["config"]["inference"]["overlap_offset"] == 0.65
        assert max(len(v) for v in json.loads(out.read_text()).values()) <= 2


@pytest.fixture(scope="module")
def report_dir(small_ini, corpus_dir, run_dir, tmp_path_factory):
    proposals = tmp_path_factory.mktemp("inf") / "proposals.json"
    main(["infer", "--config", str(small_ini), "--data", str(corpus_dir),
          "--checkpoint", str(run_dir / "checkpoint.tapg"),
          "--out", str(proposals)])
    out = tmp_path_factory.mktemp("report")
    code = main(["eval", "--config", str(small_ini),
                 "--proposals", str(proposals),
                 "--annotations", str(corpus_dir / "annotations.json"),
                 "--out", str(out)])
    assert code == 0
    return out


class TestEvalCommand:
    def test_report_artifacts(self, report_dir):
        report = json.loads((report_dir / "report.json").read_text())
        assert "area_under_recall_curve" in report
        assert set(report["average_recall_at_budget"]) == {"1", "5", "10", "100"}
        assert (report_dir / "ar_curve.csv").exists()
        assert "<svg" in (report_dir / "ar_curve.svg").read_text()

    def test_curve_csv_shape(self, report_dir):
        lines = (report_dir / "ar_curve.csv").read_text().splitlines()
        assert lines[0] == "budget,average_recall"
        assert len(lines) == 101

    def test_one_warning_per_video_without_ground_truth(self, corpus_dir, tmp_path, caplog):
        annotations = json.loads((corpus_dir / "annotations.json").read_text())
        bare = sorted(annotations)[1]
        annotations[bare]["annotations"] = []
        (tmp_path / "annotations.json").write_text(json.dumps(annotations))
        (tmp_path / "proposals.json").write_text("{}")
        with caplog.at_level(logging.WARNING, logger="tapgkit.evaluation"):
            code = main(["eval", "--proposals", str(tmp_path / "proposals.json"),
                         "--annotations", str(tmp_path / "annotations.json"),
                         "--out", str(tmp_path / "report")])
        assert code == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"video {bare} has no ground truth, excluded from recall"]


    def test_one_recall_pass_per_curve_budget(self, small_ini, corpus_dir, run_dir, tmp_path,
                                              monkeypatch):
        # the report budgets are read off the curve, not recomputed
        proposals = tmp_path / "proposals.json"
        assert main(["infer", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(proposals)]) == 0
        passes = []
        recall_at_budget = evaluation.recall_at_budget

        def counted(*args, **kwargs):
            passes.append(args[2])
            return recall_at_budget(*args, **kwargs)

        monkeypatch.setattr(evaluation, "recall_at_budget", counted)
        # and any copy of the name the command module imported
        monkeypatch.setattr(cli, "recall_at_budget", counted, raising=False)
        out = tmp_path / "report"
        assert main(["eval", "--config", str(small_ini), "--proposals", str(proposals),
                     "--annotations", str(corpus_dir / "annotations.json"),
                     "--out", str(out)]) == 0
        assert passes == list(range(1, 101))
        report = json.loads((out / "report.json").read_text())
        curve = (out / "ar_curve.csv").read_text().splitlines()[1:]
        for budget, recall in report["average_recall_at_budget"].items():
            assert curve[int(budget) - 1] == f"{budget},{recall:.6f}"


class TestSweepCommand:
    def test_sweep_results(self, small_ini, corpus_dir, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--values", "1,10",
                     "--epochs", "1", "--out", str(out)])
        assert code == 0
        results = json.loads(out.read_text())
        assert [r["mse_weight"] for r in results] == [1.0, 10.0]
        assert all("average_recall_at_10" in r and "final_mean_loss" in r
                   for r in results)


class TestManifestConfig:
    """A manifest's ``config`` block is the INI file that reproduces the run."""

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_train_manifest_renders_the_runs_file(self, corpus_dir, tmp_path, capsys, preset):
        ini = tmp_path / "run.ini"
        ini.write_text(SMALL_INI.replace("[boundary_net]\n", "[boundary_net]\nmax_duration = 12\n")
                       + f"\n[inference]\npreset = {preset}\n")
        out = tmp_path / "run"
        assert main(["train", "--config", str(ini), "--data", str(corpus_dir),
                     "--out", str(out), "--epochs", "1", "--seed", "3"]) == 0
        config = json.loads(capsys.readouterr().out.splitlines()[0])["config"]
        saved = json.loads((out / "manifest.json").read_text())
        assert {k: v for k, v in saved.items() if k not in ("run", "environment")} == config
        rendered = tmp_path / "rendered.ini"
        rendered.write_text(render(config))
        expected = load_run_config(ini)
        expected.data_root = corpus_dir
        expected.training.epochs, expected.training.seed = 1, 3
        assert load_run_config(rendered) == expected

    def test_no_manifest_holds_a_key_the_file_may_not_set(self, small_ini, corpus_dir, run_dir,
                                                          tmp_path, capsys):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(render(RunConfig()))
        keys = {name: set(parser[name]) for name in parser.sections()}
        data = ["--config", str(small_ini), "--data", str(corpus_dir)]
        proposals = str(tmp_path / "proposals.json")
        for command in (
                ["synth", "--config", str(small_ini), "--out", str(tmp_path / "corpus")],
                ["train", *data, "--out", str(tmp_path / "run"), "--epochs", "1"],
                ["infer", *data, "--checkpoint", str(run_dir / "checkpoint.tapg"),
                 "--out", proposals],
                ["eval", "--config", str(small_ini), "--proposals", proposals,
                 "--annotations", str(corpus_dir / "annotations.json"),
                 "--out", str(tmp_path / "eval")],
                ["sweep", *data, "--values", "1", "--epochs", "1",
                 "--out", str(tmp_path / "sweep.json")]):
            assert main(command) == 0
            config = json.loads(capsys.readouterr().out.splitlines()[0])["config"]
            assert {name: set(values) for name, values in config.items()} == keys, command[0]
        saved = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(saved) == set(keys) | {"run", "environment"}
        assert {name: set(saved[name]) for name in keys} == keys


class TestNegativeSeeds:
    """A negative seed, from the command line or the file, stops every command
    that draws from one before it draws anything."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls, default_rng = [], np.random.default_rng

        def counted(*args, **kwargs):
            calls.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        return calls

    @pytest.mark.parametrize("command, source", [
        ("synth", "flag"), ("synth", "file"), ("train", "flag"), ("train", "file"),
        ("infer", "file"), ("sweep", "file")])
    def test_rejected_before_any_draw(self, small_ini, corpus_dir, run_dir, tmp_path, capsys,
                                      command, source, draws):
        section = "[synthetic]\n" if command == "synth" else "[training]\n"
        ini = tmp_path / "seed.ini"
        ini.write_text(SMALL_INI.replace(section, section + "seed = -1\n")
                       if source == "file" else SMALL_INI)
        out = tmp_path / "out"
        args = {
            "synth": ["--out", str(out)],
            "train": ["--data", str(corpus_dir), "--out", str(out)],
            "infer": ["--data", str(corpus_dir), "--checkpoint", str(run_dir / "checkpoint.tapg"),
                      "--out", str(out)],
            "sweep": ["--data", str(corpus_dir), "--values", "1", "--out", str(out)],
        }[command]
        flag = ["--seed", "-1"] if source == "flag" else []
        assert main([command, "--config", str(ini), *args, *flag]) == 2
        assert _config_error(capsys) == "seed must be non-negative, got -1"
        assert draws == []
        assert not out.exists()


class TestFailureModes:
    def test_bad_config_path(self, capsys):
        code = main(["train", "--config", "/nonexistent.ini",
                     "--data", "/nowhere", "--out", "/tmp/x"])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"]

    def test_config_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"[synthetic]\nnum_videos = 4\xff\n")
        code = main(["synth", "--config", str(bad), "--out", str(tmp_path / "corpus")])
        assert code == 2
        assert str(bad) in _config_error(capsys)

    def test_resume_from_a_bad_epoch_count(self, small_ini, corpus_dir, run_dir, tmp_path,
                                           capsys):
        state = load_checkpoint(run_dir / "checkpoint.tapg")
        state["meta.epochs_completed"] = np.array(-3.0)
        bad = tmp_path / "bad.tapg"
        save_checkpoint(bad, state)
        code = main(["train", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--out", str(tmp_path / "more"), "--resume", str(bad), "--epochs", "3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "FileFormatError"
        assert "meta.epochs_completed" in payload["message"]

    def test_missing_corpus(self, small_ini, tmp_path, capsys):
        code = main(["train", "--config", str(small_ini),
                     "--data", str(tmp_path / "void"),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]

    def test_bad_checkpoint(self, small_ini, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "bad.tapg"
        bad.write_bytes(b"not a checkpoint")
        code = main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir), "--checkpoint", str(bad),
                     "--out", str(tmp_path / "p.json")])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]

    def test_frame_count_off_the_snippet_axis(self, small_ini, corpus_dir, run_dir,
                                              tmp_path, capsys):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        path = data / "annotations.json"
        raw = json.loads(path.read_text())
        vid = sorted(raw)[1]
        raw[vid]["frame_count"] += 8
        raw[vid]["duration"] = raw[vid]["frame_count"] / raw[vid]["fps"]
        path.write_text(json.dumps(raw))
        for command in (["train", "--out", str(tmp_path / "run")],
                        ["infer", "--checkpoint", str(run_dir / "checkpoint.tapg"),
                         "--out", str(tmp_path / "p.json")]):
            code = main([command[0], "--config", str(small_ini), "--data", str(data),
                         *command[1:]])
            assert code == 2
            err = json.loads(capsys.readouterr().err.strip())
            assert err["error"] == "ConfigError" and vid in err["message"]

    def test_unknown_preset(self, small_ini, corpus_dir, run_dir, tmp_path, capsys):
        code = main(["infer", "--config", str(small_ini),
                     "--data", str(corpus_dir),
                     "--checkpoint", str(run_dir / "checkpoint.tapg"),
                     "--out", str(tmp_path / "p.json"),
                     "--preset", "bogus"])
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip())["error"]


def _config_error(capsys) -> str:
    """The message of the one-line JSON ConfigError a failed command printed."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "ConfigError"
    return payload["message"]


class TestCorpusRejections:
    """Every corpus ``load_corpus`` refuses, through its own file checks or
    ``check_corpus``, stops ``train`` with a ConfigError."""

    def _train(self, small_ini, data, tmp_path):
        return main(["train", "--config", str(small_ini), "--data", str(data),
                     "--out", str(tmp_path / "run")])

    def _copy(self, corpus_dir, tmp_path):
        data = tmp_path / "corpus"
        shutil.copytree(corpus_dir, data)
        return data, sorted(p.stem for p in (data / "features").iterdir())

    def test_annotation_file_without_videos(self, small_ini, corpus_dir, tmp_path, capsys):
        data, _ = self._copy(corpus_dir, tmp_path)
        (data / "annotations.json").write_text("{}")
        assert self._train(small_ini, data, tmp_path) == 2
        assert "lists no videos" in _config_error(capsys)

    def test_missing_feature_file(self, small_ini, corpus_dir, tmp_path, capsys):
        data, vids = self._copy(corpus_dir, tmp_path)
        (data / "features" / f"{vids[2]}.feat").unlink()
        assert self._train(small_ini, data, tmp_path) == 2
        assert vids[2] in _config_error(capsys)

    @pytest.mark.parametrize("change", ["snippet_count", "stream_width", "stride"])
    def test_video_unlike_the_rest(self, small_ini, corpus_dir, tmp_path, capsys, change):
        data, vids = self._copy(corpus_dir, tmp_path)
        path = data / "features" / f"{vids[1]}.feat"
        seq = load_features(path, vids[1])
        if change == "snippet_count":
            seq = VideoFeatureSequence.from_snippets(vids[1], seq.snippet_stride,
                                                     seq.snippets[:-1])
        elif change == "stream_width":
            seq = VideoFeatureSequence.from_snippets(vids[1], seq.snippet_stride, [
                dataclasses.replace(s, environment=s.environment[:-1]) for s in seq.snippets])
        else:
            seq.snippet_stride *= 2
        save_features(path, seq)
        assert self._train(small_ini, data, tmp_path) == 2
        message = _config_error(capsys)
        assert vids[1] in message
        assert ("stride" in message) == (change == "stride")

    def test_resume_at_final_epoch(self, small_ini, corpus_dir, run_dir, tmp_path, capsys):
        code = main(["train", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--out", str(tmp_path / "more"),
                     "--resume", str(run_dir / "checkpoint.tapg")])
        assert code == 2
        assert "nothing to do" in _config_error(capsys)
        assert not (tmp_path / "more" / "checkpoint.tapg").exists()

    @pytest.mark.parametrize("values", ["1,nan", "1,-1", "1,inf"])
    def test_sweep_checks_every_weight_before_training_any(self, small_ini, corpus_dir,
                                                          tmp_path, capsys, monkeypatch, values):
        calls, train = [], cli.train

        def counted(*args, **kwargs):
            calls.append(args)
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", counted)
        code = main(["sweep", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--values", values, "--epochs", "1", "--out", str(tmp_path / "sweep.json")])
        assert code == 2
        assert calls == []
        assert "mse_weight" in _config_error(capsys)

    @pytest.mark.parametrize("values", ["1,ten", "0x1", "", " , ,"])
    def test_sweep_values_not_a_number_list(self, small_ini, corpus_dir, tmp_path,
                                            capsys, values):
        code = main(["sweep", "--config", str(small_ini), "--data", str(corpus_dir),
                     "--values", values, "--out", str(tmp_path / "sweep.json")])
        assert code == 2
        assert "--values" in _config_error(capsys)
        assert not (tmp_path / "sweep.json").exists()
