"""End-to-end checks of the command-line surface.

Commands run in-process through cli.main so exit codes, stdout, stderr,
and produced artifacts can all be asserted without subprocesses.
"""

import contextlib
import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from diffcf import cli, config as cfgmod, dataset, eval as evaluation, graph
from diffcf import ndtensor as nd
from test_formats import CutFile

TINY_TRAIN = ["--latent-dim", "4", "--attn-dim", "2", "--layers", "1",
              "--steps", "5", "--epochs", "2", "--eval-every", "1",
              "--batch-size", "4", "--lr", "0.001", "--infer-steps", "2",
              "--topk", "3", "--eval-batch", "8", "--patience", "10"]


def write_ratings(path, num_users=12, num_items=16, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for u in range(num_users):
        items = rng.choice(num_items, size=int(rng.integers(7, 11)),
                           replace=False)
        for i in items:
            lines.append(f"{u}\t{i}\t{int(rng.integers(1, 6))}\t99")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-world")
    ratings = write_ratings(root / "ratings.tsv")
    data = root / "data"
    rc = cli.main(["prepare", "--input", str(ratings), "--out-dir", str(data),
                   "--split", "0.6,0.2,0.2"])
    assert rc == 0
    return {"root": root, "ratings": ratings, "data": data}


@pytest.fixture(scope="module")
def trained(prepared, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-run")
    rc = cli.main(["train", "--data", str(prepared["data"]),
                   "--out-dir", str(out)] + TINY_TRAIN)
    assert rc == 0
    return {"out": out, "checkpoint": out / "checkpoint.cfck", **prepared}


class TestPrepare:
    def test_artifacts_and_summary(self, prepared, capsys):
        data = prepared["data"]
        assert (data / "matrix.cfdm").exists()
        summary = json.loads((data / "prepare.json").read_text())
        assert summary["contexts"] == str(cli.context_cache_path(data / "matrix.cfdm", 3))
        assert summary["num_users"] == 12 and summary["num_items"] == 16
        assert set(summary["tag_counts"]) == {"train", "val", "test"}
        assert summary["tag_counts"]["val"] > 0
        assert summary["config"]["split"] == [0.6, 0.2, 0.2]
        matrix = dataset.load_matrix(data / "matrix.cfdm")
        assert matrix.num_interactions == summary["num_interactions"]
        ctxs = graph.load_contexts(summary["contexts"])
        assert ctxs.hop_list == (2, 3)

    def test_rerun_reproduces_identical_bytes(self, prepared, tmp_path):
        rc = cli.main(["prepare", "--input", str(prepared["ratings"]),
                       "--out-dir", str(tmp_path), "--split", "0.6,0.2,0.2"])
        assert rc == 0
        cache = cli.context_cache_path(tmp_path / "matrix.cfdm", 3).name
        for name in ("matrix.cfdm", cache):
            assert (tmp_path / name).read_bytes() == \
                (prepared["data"] / name).read_bytes()

    def test_min_rating_filters(self, prepared, tmp_path, capsys):
        rc = cli.main(["prepare", "--input", str(prepared["ratings"]),
                       "--out-dir", str(tmp_path), "--min-rating", "4"])
        assert rc == 0
        kept = json.loads(capsys.readouterr().out)["num_interactions"]
        full = json.loads((prepared["data"] / "prepare.json").read_text())
        assert 0 < kept < full["num_interactions"]

    def test_unknown_flag_exits_2(self, prepared, tmp_path):
        rc = cli.main(["prepare", "--input", str(prepared["ratings"]),
                       "--out-dir", str(tmp_path), "--no-such-flag"])
        assert rc == 2


class TestTrain:
    def test_artifacts(self, trained):
        out = trained["out"]
        assert trained["checkpoint"].exists()
        result = json.loads((out / "result.json").read_text())
        assert result["epochs_run"] == 2
        assert result["stopped"] == "completed all epochs"
        assert result["best_val_ndcg"] is not None
        assert result["checkpoint"] == str(trained["checkpoint"])
        assert result["last_checkpoint"] == str(out / "last.cfck")
        log = [json.loads(line)
               for line in (out / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2]
        assert all("val_ndcg@10" in r for r in log)  # eval every epoch
        echoed = cfgmod.parse_config_text((out / "config.echo").read_text())
        assert echoed["latent_dim"] == 4 and echoed["steps"] == 5
        params, adam, fields, _ = nd.load_checkpoint(trained["checkpoint"])
        assert fields[0] == 5 and adam is not None
        assert params["enc_items"].shape == (4, 16)

    FROZEN = ["--lr", "1e-12", "--epochs", "4", "--patience", "1"]

    def frozen_run(self, prepared, out):
        """A vanishing lr freezes the val metric, so patience=1 halts the
        run after epoch 2 with the best checkpoint from epoch 1."""
        assert cli.main(["train", "--data", str(prepared["data"]),
                         "--out-dir", str(out)] + TINY_TRAIN + self.FROZEN) == 0
        return [json.loads(line) for line in (out / "train_log.jsonl").read_text().splitlines()]

    def test_resume_continues_epoch_numbering(self, prepared, tmp_path):
        # Resuming under the identical config picks up at epoch 2 with the
        # stored best and patience, so it stops where the first run did.
        first, second = tmp_path / "a", tmp_path / "b"
        log = self.frozen_run(prepared, first)
        assert [r["epoch"] for r in log] == [1, 2]
        assert cli.main(["train", "--data", str(prepared["data"]),
                         "--out-dir", str(second), "--resume",
                         str(first / "checkpoint.cfck")] + TINY_TRAIN + self.FROZEN) == 0
        resumed = [json.loads(line)
                   for line in (second / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in resumed] == [2]
        assert {**resumed[0], "seconds": 0} == {**log[1], "seconds": 0}
        result = json.loads((second / "result.json").read_text())
        assert result["best_epoch"] == 1
        assert result["stopped"] == "no val improvement in 1 evals"

    def test_resume_keeps_a_checkpoint_it_does_not_beat(self, prepared, tmp_path):
        self.frozen_run(prepared, tmp_path)
        ckpt = tmp_path / "checkpoint.cfck"
        best = json.loads((tmp_path / "result.json").read_text())["best_val_ndcg"]
        assert nd.load_fit_state(ckpt) == {"best_metric": best, "best_epoch": 1, "stale": 0}
        params, adam, fields, text = nd.load_checkpoint(ckpt)
        # No NDCG reaches 2, so no evaluation after the resume may count
        # as an improvement and overwrite the checkpoint.
        nd.save_checkpoint(ckpt, params, text, fields, adam=adam,
                           fit={"best_metric": 2.0, "best_epoch": 1, "stale": 0})
        before = ckpt.read_bytes()
        assert cli.main(["train", "--data", str(prepared["data"]), "--out-dir", str(tmp_path),
                         "--resume", str(ckpt)] + TINY_TRAIN + self.FROZEN) == 0
        assert ckpt.read_bytes() == before
        result = json.loads((tmp_path / "result.json").read_text())
        assert result["best_val_ndcg"] == 2.0 and result["best_epoch"] == 1

    def test_resume_into_a_new_directory_keeps_the_last_state(self, prepared, tmp_path):
        # A resumed run that never beats the stored best writes no best
        # checkpoint, but its final state goes to last.cfck.
        first, second = tmp_path / "a", tmp_path / "b"
        self.frozen_run(prepared, first)
        ckpt = first / "checkpoint.cfck"
        params, adam, fields, text = nd.load_checkpoint(ckpt)
        nd.save_checkpoint(ckpt, params, text, fields, adam=adam,
                           fit={"best_metric": 2.0, "best_epoch": 1, "stale": 0})
        assert cli.main(["train", "--data", str(prepared["data"]), "--out-dir", str(second),
                         "--resume", str(ckpt)] + TINY_TRAIN + self.FROZEN) == 0
        result = json.loads((second / "result.json").read_text())
        assert result["checkpoint"] is None and not (second / "checkpoint.cfck").exists()
        assert result["last_checkpoint"] == str(second / "last.cfck")
        _, last_adam, _, last_text = nd.load_checkpoint(second / "last.cfck")
        # 12 users in batches of 4: one more epoch is three more steps.
        assert (adam.step, last_adam.step) == (3, 6) and last_text == text
        assert nd.load_fit_state(second / "last.cfck") == {
            "best_metric": 2.0, "best_epoch": 1, "stale": 1}

    def test_fresh_run_replaces_the_log(self, prepared, tmp_path):
        for _ in range(2):
            assert cli.main(["train", "--data", str(prepared["data"]),
                             "--out-dir", str(tmp_path)] + TINY_TRAIN) == 0
        log = [json.loads(line)
               for line in (tmp_path / "train_log.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in log] == [1, 2]

    @pytest.mark.parametrize("edit, message", [
        ("widen", "tensor 'enc_hop2' has shape (4, 16); the model needs (4, 12)"),
        ("drop", "tensor 'collapse' is missing; the model needs shape (2, 1)"),
        ("add", "tensor 'stray' of shape (1, 1) is not a model parameter"),
        ("moment", "tensor 'adam.m.enc_hop2' has shape (4, 16); the model needs (4, 12)")])
    def test_checkpoint_of_another_shape_exits_1(self, trained, tmp_path, capsys,
                                                  edit, message):
        # A checkpoint whose hop-2 encoder is (k, width), as written before
        # the hop encoders were sized to their hops, is one such file.
        params, adam, fields, text = nd.load_checkpoint(trained["checkpoint"])
        wide = np.zeros((4, 16), np.float32)
        if edit == "widen":
            params["enc_hop2"] = wide
        elif edit == "drop":
            del params["collapse"]
        elif edit == "add":
            params["stray"] = np.zeros((1, 1), np.float32)
        else:
            adam.m["enc_hop2"] = wide
        ckpt = tmp_path / "old.cfck"
        nd.save_checkpoint(ckpt, params, text, fields, adam=adam)
        commands = [["train", "--data", str(trained["data"]), "--out-dir",
                     str(tmp_path / "run"), "--resume", str(ckpt)] + TINY_TRAIN]
        if edit != "moment":  # evaluate reads no Adam state
            commands.append(["evaluate", "--data", str(trained["data"]),
                             "--checkpoint", str(ckpt)])
        for argv in commands:
            capsys.readouterr()
            assert cli.main(argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert f"diffcf: error: contract: {ckpt}: {message}" in err, argv[0]

    def test_inference_flags_reach_validation(self, prepared, tmp_path, monkeypatch):
        seen = []
        evaluate = evaluation.evaluate

        def spy(*args, **kwargs):
            seen.append((kwargs["infer_seed"], kwargs["stochastic"]))
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate", spy)
        assert cli.main(["train", "--data", str(prepared["data"]), "--out-dir", str(tmp_path),
                         "--infer-seed", "7", "--stochastic-infer"] + TINY_TRAIN) == 0
        assert seen == [(7, True), (7, True)]

    def test_resume_rejects_config_drift(self, trained, tmp_path, capsys):
        args = ["train", "--data", str(trained["data"]),
                "--out-dir", str(tmp_path), "--resume",
                str(trained["checkpoint"])] + TINY_TRAIN
        args[args.index("--lr") + 1] = "0.005"
        rc = cli.main(args)
        assert rc == 1
        assert "diffcf: error: contract:" in capsys.readouterr().err

    def test_ablation_flag_sets_variant(self, prepared, tmp_path):
        rc = cli.main(["train", "--data", str(prepared["data"]),
                       "--out-dir", str(tmp_path), "--self-attn",
                       "--epochs", "1"] + TINY_TRAIN[:-4])
        assert rc == 0
        echoed = cfgmod.parse_config_text((tmp_path / "config.echo").read_text())
        assert echoed["variant"] == "self-attn"


class TestAtomicOutputs:
    def test_write_failing_half_way_keeps_the_old_file(self, prepared, tmp_path,
                                                        monkeypatch, capsys):
        data, run = tmp_path / "data", tmp_path / "run"
        commands = [
            (["prepare", "--input", str(prepared["ratings"]), "--out-dir", str(data),
              "--split", "0.6,0.2,0.2"], data),
            (["train", "--data", str(data), "--out-dir", str(run)] + TINY_TRAIN, run),
            (["evaluate", "--data", str(data), "--checkpoint", str(run / "checkpoint.cfck"),
              "--json", str(run / "reports.json")], run),
        ]
        for argv, _ in commands:
            assert cli.main(argv) == 0
        outputs = [data / "prepare.json", run / "result.json", run / "config.echo",
                   run / "reports.json"]
        before = {path: path.read_bytes() for path in outputs}
        atomic_write = cli.atomic_write

        @contextlib.contextmanager
        def failing_write(target, mode="wb"):
            with atomic_write(target, mode) as f:
                yield CutFile(f, len(before[Path(target)]) // 2)

        monkeypatch.setattr(cli, "atomic_write", failing_write)
        capsys.readouterr()
        for argv, out in commands:
            assert cli.main(argv) == 2, argv[0]
            assert "disk full" in capsys.readouterr().err
            assert {path: path.read_bytes() for path in outputs} == before, argv[0]
            assert not list(out.glob("*.tmp")), argv[0]


class TestEvaluate:
    def test_stdout_table_and_json(self, trained, tmp_path, capsys):
        json_path = tmp_path / "reports.json"
        rc = cli.main(["evaluate", "--data", str(trained["data"]),
                       "--checkpoint", str(trained["checkpoint"]),
                       "--json", str(json_path), "--baseline"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model on test (" in out
        assert "popularity on test (" in out
        assert f"{'k':>6} {'recall':>10} {'ndcg':>10}" in out
        blobs = [json.loads(line)
                 for line in json_path.read_text().splitlines()]
        assert [b["scorer"] for b in blobs] == ["model", "popularity"]
        for blob in blobs:
            assert set(blob["recall"]) == {"3"}  # topk pinned at train time
            assert 0.0 <= blob["ndcg"]["3"] <= 1.0

    def test_val_split_and_topk_override(self, trained, capsys):
        rc = cli.main(["evaluate", "--data", str(trained["data"]),
                       "--checkpoint", str(trained["checkpoint"]),
                       "--split", "val", "--topk", "2,4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "model on val (" in out
        assert len(out.strip().splitlines()) == 4  # title, header, two rows


class TestGradcheckCommand:
    MICRO = ["gradcheck", "--users", "6", "--items", "8", "--latent-dim", "6",
             "--attn-dim", "4", "--layers", "1", "--steps", "20",
             "--max-entries", "60"]

    def test_passes_at_documented_tolerance(self, capsys):
        assert cli.main(self.MICRO) == 0
        assert capsys.readouterr().out.startswith("gradcheck: max_rel=")

    def test_fails_at_impossible_tolerance(self, capsys):
        assert cli.main(self.MICRO + ["--tol", "1e-15"]) == 1


class TestBenchCommands:
    def test_attn_probe_csv(self, tmp_path, capsys):
        out_path = tmp_path / "probe.csv"
        rc = cli.main(["bench-attn", "--n", "32", "--d", "4", "--ks", "4,8",
                       "--trials", "3", "--out", str(out_path)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert out_path.read_text() == printed
        assert printed.splitlines()[0] == "k,median_deviation,frac_within_eps"

    def test_scaling_sweep_csv(self, tmp_path, capsys):
        out_path = tmp_path / "scaling.csv"
        rc = cli.main(["bench-scaling", "--axis", "users",
                       "--sizes", "24,32,40,48",
                       "--fixed", "24", "--sparsity", "0.9", "--iters", "5",
                       "--warmup", "1", "--batch-size", "4",
                       "--out", str(out_path)])
        assert rc == 0
        captured = capsys.readouterr()
        assert out_path.read_text() == captured.out
        assert captured.out.startswith("size,median_seconds_per_iter,")
        assert "linear r2=" in captured.err


class TestErrorMapping:
    def test_missing_input_is_io(self, tmp_path, capsys):
        rc = cli.main(["prepare", "--input", str(tmp_path / "absent.tsv"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "diffcf: error: io:" in capsys.readouterr().err

    def test_malformed_ratings_is_parse(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("1\t2\t3\nnot a valid line\n")
        rc = cli.main(["prepare", "--input", str(bad),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "diffcf: error: parse:" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_format(self, trained, tmp_path, capsys):
        junk = tmp_path / "junk.cfck"
        junk.write_bytes(b"definitely not a checkpoint")
        rc = cli.main(["evaluate", "--data", str(trained["data"]),
                       "--checkpoint", str(junk)])
        assert rc == 2
        assert "diffcf: error: format:" in capsys.readouterr().err

    def test_unparsable_flag_value_is_contract(self, prepared, tmp_path,
                                               capsys):
        rc = cli.main(["train", "--data", str(prepared["data"]),
                       "--out-dir", str(tmp_path), "--lr", "fast"])
        assert rc == 1
        assert "diffcf: error: contract:" in capsys.readouterr().err

    def test_missing_data_dir_is_io(self, tmp_path, capsys):
        rc = cli.main(["train", "--data", str(tmp_path / "nothing"),
                       "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "diffcf: error: io:" in capsys.readouterr().err


class TestContextCache:
    def test_default_sits_beside_matrix(self, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        mpath = tmp_path / "matrix.cfdm"
        mpath.write_bytes(b"some matrix")
        digest = hashlib.sha256(b"some matrix").hexdigest()[:16]
        assert cli.context_cache_path(mpath, 3) == tmp_path / f"{digest}-h3.cfhc"
        assert cli.context_cache_path(mpath, 4) == tmp_path / f"{digest}-h4.cfhc"

    def test_env_redirects_to_content_address(self, prepared, tmp_path,
                                              monkeypatch):
        cache = tmp_path / "cache"
        monkeypatch.setenv(cli.CACHE_ENV, str(cache))
        out = tmp_path / "run"
        rc = cli.main(["train", "--data", str(prepared["data"]),
                       "--out-dir", str(out), "--epochs", "1"]
                      + TINY_TRAIN[:-4])
        assert rc == 0
        cached = list(cache.glob("*-h3.cfhc"))
        assert len(cached) == 1
        ctxs = graph.load_contexts(cached[0])
        assert ctxs.hop_list == (2, 3)

    def test_stale_cache_is_rebuilt(self, trained, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        data = tmp_path / "data"
        data.mkdir()
        (data / "matrix.cfdm").write_bytes((trained["data"] / "matrix.cfdm").read_bytes())
        cache = cli.context_cache_path(data / "matrix.cfdm", 3)
        fresh = (trained["data"] / cache.name).read_bytes()
        # A cache as the first format version wrote it: same header fields,
        # then per-user runs.
        stale = b"CFHC" + struct.pack("<HQQH", 1, 12, 16, 3) + bytes(8 * 12)
        cache.write_bytes(stale)
        rc = cli.main(["evaluate", "--data", str(data),
                       "--checkpoint", str(trained["checkpoint"])])
        assert rc == 0
        assert cache.read_bytes() == fresh

    def test_replaced_matrix_of_the_same_shape_gets_fresh_contexts(
            self, trained, tmp_path, monkeypatch):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        data = tmp_path / "data"
        data.mkdir()
        old_cache = cli.context_cache_path(trained["data"] / "matrix.cfdm", 3)
        (data / old_cache.name).write_bytes(old_cache.read_bytes())
        # The same ratings split with another seed: same users and items,
        # another train graph.
        other = tmp_path / "other"
        assert cli.main(["prepare", "--input", str(trained["ratings"]),
                         "--out-dir", str(other), "--split", "0.6,0.2,0.2",
                         "--split-seed", "1"]) == 0
        new = dataset.load_matrix(other / "matrix.cfdm")
        assert (new.num_users, new.num_items) == (12, 16)
        # It takes the place of the matrix whose contexts sit in data/.
        (data / "matrix.cfdm").write_bytes((other / "matrix.cfdm").read_bytes())
        built = []
        build = graph.build_contexts
        monkeypatch.setattr(graph, "build_contexts",
                            lambda *a, **k: built.append(1) or build(*a, **k))
        assert cli.main(["evaluate", "--data", str(data),
                         "--checkpoint", str(trained["checkpoint"])]) == 0
        assert built == [1]
        cache = cli.context_cache_path(data / "matrix.cfdm", 3)
        assert cache.read_bytes() == cli.context_cache_path(other / "matrix.cfdm", 3).read_bytes()
        assert cache.read_bytes() != old_cache.read_bytes()
