import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fishdbc
from helpers import canonical_labels, write_matrix
from fishdbc import dataio, distances, oracle
from fishdbc.cli import _make_engine, build_parser, main


def write_blobs(tmp_path, n=120, dim=2, centers=2, seed=0, sep=None):
    rng = np.random.default_rng(seed)
    X, labels = dataio.generate_blobs(n, dim, centers=centers, std=0.05, rng=rng)
    data = tmp_path / "data.csv"
    ref = tmp_path / "ref.csv"
    dataio.write_dataset("dense-csv", data, X)
    dataio.write_labels(ref, labels)
    return data, ref


class TestClusterCommand:
    def test_happy_path(self, tmp_path, capsys):
        data, _ = write_blobs(tmp_path)
        out = tmp_path / "run"
        code = main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "5", "--ef", "20",
            "--out", str(out), "--seed", "1",
        ])
        assert code == 0
        assert (out / "labels.csv").exists()
        assert (out / "tree.json").exists()
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines()
        )
        assert int(summary["n"]) == 120
        assert int(summary["distance_calls"]) > 0
        assert "build_seconds" in summary and "cluster_seconds" in summary
        stdout = capsys.readouterr().out
        assert "n=120" in stdout

    def test_unknown_distance_exit_1_lists_names(self, tmp_path, capsys):
        data, _ = write_blobs(tmp_path)
        code = main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "chebyshev", "--out", str(tmp_path / "x"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        for name in ("euclidean", "cosine", "jaccard", "jaro-winkler", "simpson", "hamming"):
            assert name in err

    def test_format_distance_mismatch_exit_1(self, tmp_path, capsys):
        data, _ = write_blobs(tmp_path)
        code = main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "jaccard", "--out", str(tmp_path / "x"),
        ])
        assert code == 1

    def test_missing_file_exit_2(self, tmp_path):
        code = main([
            "cluster", "--input", str(tmp_path / "nope.csv"), "--format",
            "dense-csv", "--distance", "euclidean", "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_bad_config_exit_1(self, tmp_path, capsys):
        # Rejected as usage errors before any work: reading the missing
        # dataset would exit 2, and eval would print its scores first.
        missing = str(tmp_path / "missing.csv")
        ref = tmp_path / "ref.csv"
        dataio.write_labels(ref, [0] * 5 + [1] * 5)
        data = ["--input", missing, "--format", "dense-csv", "--distance", "euclidean"]
        out = ["--out", str(tmp_path / "x")]
        scored = ["eval", "--pred", str(ref), "--labels", str(ref), "--input", missing]
        for argv in (
            ["cluster", *data, "--minpts", "1", *out],
            ["cluster", *data, "--minpts", "abc", *out],
            ["cluster", *data, "--minpts", "5", "--alpha", "4", *out],
            ["cluster", *data, "--min-cluster-size", "1", *out],
            ["stream", *data, "--chunk", "5", "--min-cluster-size", "1", *out],
            ["oracle", *data, "--min-cluster-size", "1", *out],
            ["oracle", *data, "--minpts", "1", *out],
            ["oracle", *data, "--minpts", "0", "--min-cluster-size", "5", *out],
            scored,
            [*scored, "--format", "dense-csv"],
            [*scored, "--format", "dense-csv", "--distance", "nope"],
            [*scored, "--format", "set-lines", "--distance", "euclidean"],
        ):
            assert main(argv) == 1, argv
            assert capsys.readouterr().out == "", argv

    def test_seed_reproducibility_byte_identical(self, tmp_path):
        data, _ = write_blobs(tmp_path)
        args = [
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "5", "--seed", "9",
        ]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "labels.csv").read_bytes()
        b = (tmp_path / "b" / "labels.csv").read_bytes()
        assert a == b

    def test_distance_log_written(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=40)
        out = tmp_path / "run"
        main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "3", "--out", str(out),
            "--log-distances",
        ])
        n, pairs = dataio.read_distance_log(out / "distances.log")
        assert n == 40
        assert pairs

    @pytest.mark.parametrize("command, extra", [
        ("cluster", []),
        ("stream", ["--chunk", "10"]),
    ])
    def test_engine_knobs_passed_through(self, command, extra):
        args = build_parser().parse_args([
            command, "--input", "x.csv", "--format", "dense-csv",
            "--distance", "euclidean", "--out", "x", *extra,
            "--minpts", "7", "--ef", "33", "--seed", "21",
        ])
        engine = _make_engine(args)
        assert engine._neighbors.minpts == 7
        assert engine._hnsw._ef == 33
        seeded = np.random.default_rng(21).bit_generator.state
        assert engine._hnsw._rng.bit_generator.state == seeded

    @pytest.mark.parametrize("command, extra, labels", [
        ("cluster", [], "labels.csv"),
        ("stream", ["--chunk", "120"], "step_00001/labels.csv"),
    ])
    def test_min_cluster_size_applied_when_clustering(self, tmp_path, command,
                                                      extra, labels):
        # Blobs of 68 and 52 items: two clusters at the default size
        # (minpts), none once a cluster needs 60 items.
        data, _ = write_blobs(tmp_path)
        clusters = []
        for size in ([], ["--min-cluster-size", "60"]):
            out = tmp_path / f"out{len(clusters)}"
            assert main([
                command, "--input", str(data), "--format", "dense-csv",
                "--distance", "euclidean", "--minpts", "4", *extra, *size,
                "--out", str(out),
            ]) == 0
            found = dataio.read_labels(out / labels)
            clusters.append(len(set(found.tolist()) - {-1}))
        assert clusters == [2, 0]

    def test_ef_increases_distance_calls(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=150)
        calls = {}
        for ef in (20, 50):
            total = 0
            for seed in range(5):
                out = tmp_path / f"ef{ef}_{seed}"
                main([
                    "cluster", "--input", str(data), "--format", "dense-csv",
                    "--distance", "euclidean", "--minpts", "5", "--ef", str(ef),
                    "--seed", str(seed), "--out", str(out),
                ])
                summary = dict(
                    line.split("=", 1)
                    for line in (out / "summary.txt").read_text().splitlines()
                )
                total += int(summary["distance_calls"])
            calls[ef] = total / 5
        # Distance calls dominate the cost; a wider beam uses at least as
        # many on average.
        assert calls[50] >= calls[20]


class TestStreamCommand:
    def test_single_chunk_equals_cluster(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=60)
        main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "4", "--seed", "3",
            "--out", str(tmp_path / "batch"),
        ])
        main([
            "stream", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "4", "--seed", "3",
            "--chunk", "60", "--out", str(tmp_path / "stream"),
        ])
        batch = (tmp_path / "batch" / "labels.csv").read_bytes()
        streamed = (tmp_path / "stream" / "step_00001" / "labels.csv").read_bytes()
        assert batch == streamed

    def test_chunk_one_makes_n_snapshots(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=10)
        main([
            "stream", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "3", "--seed", "3",
            "--chunk", "1", "--out", str(tmp_path / "s"),
        ])
        steps = sorted((tmp_path / "s").glob("step_*"))
        assert len(steps) == 10
        main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "3", "--seed", "3",
            "--out", str(tmp_path / "batch"),
        ])
        final = dataio.read_labels(steps[-1] / "labels.csv")
        batch = dataio.read_labels(tmp_path / "batch" / "labels.csv")
        assert canonical_labels(final) == canonical_labels(batch)

    def test_calls_series_written(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=50)
        main([
            "stream", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "3", "--chunk", "10",
            "--out", str(tmp_path / "s"),
        ])
        rows = (tmp_path / "s" / "calls.csv").read_text().splitlines()
        assert rows[0] == "n,calls,calls_per_item,calls_per_item_chunk"
        assert len(rows) == 6  # header + 5 snapshots
        last = rows[-1].split(",")
        assert int(last[0]) == 50

    def test_partial_last_chunk_gets_a_step(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=25)
        code = main([
            "stream", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "3", "--chunk", "10",
            "--out", str(tmp_path / "s"),
        ])
        assert code == 0
        steps = sorted((tmp_path / "s").glob("step_*"))
        assert len(steps) == 3  # ceil(25 / 10)
        rows = (tmp_path / "s" / "calls.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == [10, 20, 25]
        assert len(dataio.read_labels(steps[-1] / "labels.csv")) == 25

    def test_chunk_zero_rejected(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=10)
        code = main([
            "stream", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--chunk", "0", "--out", str(tmp_path / "s"),
        ])
        assert code == 1


class TestDataErrors:
    @pytest.mark.parametrize("command, extra", [
        ("cluster", []),
        ("stream", ["--chunk", "2"]),
        ("oracle", []),
    ])
    @pytest.mark.parametrize("text, distance, message", [
        ("0,0\n1,1\n2\n", "euclidean", "dimension mismatch"),
        ("1,0\n0,0\n", "cosine", "zero-norm"),
        ("", "euclidean", "no items"),
    ], ids=["ragged-row", "zero-row-cosine", "empty"])
    def test_bad_items_exit_2(self, tmp_path, capsys, command, extra, text,
                              distance, message):
        data = tmp_path / "data.csv"
        data.write_text(text)
        code = main([
            command, "--input", str(data), "--format", "dense-csv",
            "--distance", distance, "--out", str(tmp_path / "o"), *extra,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: {data}: " in err and message in err

    def test_failing_item_named(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0,0\n1,1\n2\n")
        main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--out", str(tmp_path / "o"),
        ])
        assert f"{data}: item 2: dimension mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("cluster", []),
        ("stream", ["--chunk", "50"]),
    ])
    def test_late_ragged_row_named(self, tmp_path, capsys, command, extra):
        # By item 250 the engine measures prepared payloads; the ragged
        # item still fails with euclidean's own error.
        rng = np.random.default_rng(0)
        rows = [",".join(repr(float(v)) for v in row) for row in rng.random((300, 2))]
        rows[250] += ",0.5"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        code = main([
            command, "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--out", str(tmp_path / "o"), *extra,
        ])
        assert code == 2
        assert f"{data}: item 250: dimension mismatch" in capsys.readouterr().err

    def test_ragged_bitmap_named(self, tmp_path, capsys):
        # Before the length check, simpson broadcast the one-bit row and
        # the engine reported a negative distance instead.
        data = tmp_path / "bits.csv"
        data.write_text("1,0,1\n1\n0,1,1\n")
        code = main([
            "cluster", "--input", str(data), "--format", "bitmap-csv",
            "--distance", "simpson", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{data}: item 1: length mismatch" in err

    @pytest.mark.parametrize("row", ["1 5 0.2", "0 1 nan"])
    def test_bad_distance_log_exit_2(self, tmp_path, row):
        log = tmp_path / "d.log"
        log.write_text(f"3\n0 2 1.0\n{row}\n")
        code = main([
            "oracle", "--mask-from", str(log), "--minpts", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        ["x\n1.0 2.0 1.0\n", "-2\n", "3\n1.0 x 1.0\n", "3\n1.0\n", "3\n-1.0 2.0 1.0\n",
         "0\n"],
        ids=["bad-count", "negative-count", "bad-entry", "entry-count", "negative-entry",
             "empty"],
    )
    def test_bad_matrix_exit_2(self, tmp_path, capsys, text):
        mfile = tmp_path / "m.txt"
        mfile.write_text(text)
        code = main([
            "oracle", "--matrix", str(mfile), "--minpts", "2",
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        assert f"error: {mfile}: " in capsys.readouterr().err

    def test_empty_distance_log_exit_2(self, tmp_path, capsys):
        log = tmp_path / "d.log"
        log.write_text("0\n")
        code = main(["oracle", "--mask-from", str(log), "--minpts", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: {log}: no items" in capsys.readouterr().err


class TestEvalCommand:
    def test_perfect_predictions(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        pred = tmp_path / "pred.csv"
        dataio.write_labels(ref, [0] * 10 + [1] * 10)
        dataio.write_labels(pred, [1] * 10 + [0] * 10)
        assert main(["eval", "--pred", str(pred), "--labels", str(ref)]) == 0
        out = dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )
        for key in ("ami", "ari", "ami_star", "ari_star"):
            assert float(out[key]) == pytest.approx(1.0)
        assert int(out["clustered"]) == 20

    def test_all_noise_warns_and_scores_starred(self, tmp_path, capsys):
        ref = tmp_path / "ref.csv"
        pred = tmp_path / "pred.csv"
        dataio.write_labels(ref, [0] * 5 + [1] * 5)
        dataio.write_labels(pred, [-1] * 10)
        assert main(["eval", "--pred", str(pred), "--labels", str(ref)]) == 0
        captured = capsys.readouterr()
        assert "noise" in captured.err
        out = dict(line.split("=", 1) for line in captured.out.splitlines())
        assert float(out["ami"]) == 0.0
        assert float(out["ami_star"]) == pytest.approx(0.0, abs=1e-9)

    def test_misaligned_files_exit_2(self, tmp_path):
        ref = tmp_path / "ref.csv"
        pred = tmp_path / "pred.csv"
        dataio.write_labels(ref, [0, 1])
        dataio.write_labels(pred, [0, 1, 1])
        assert main(["eval", "--pred", str(pred), "--labels", str(ref)]) == 2

    def test_shuffled_indexed_labels_exit_2(self, tmp_path, capsys):
        # labels.csv rows out of item order must not be scored against the
        # wrong items.
        ref = tmp_path / "ref.csv"
        pred = tmp_path / "pred.csv"
        dataio.write_labels(ref, [0, 0, 1, 1])
        pred.write_text("0,0\n2,1\n1,0\n3,1\n")
        assert main(["eval", "--pred", str(pred), "--labels", str(ref)]) == 2
        captured = capsys.readouterr()
        assert f"{pred}:2: index 2 should be 1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("ref_rows, pred_rows, named", [
        (0, 0, "ref"), (1, 1, "ref"), (2, 0, "pred"),
    ])
    def test_fewer_than_two_labels_exit_2(self, tmp_path, capsys, ref_rows,
                                               pred_rows, named):
        files = {"ref": tmp_path / "ref.csv", "pred": tmp_path / "pred.csv"}
        dataio.write_labels(files["ref"], [0, 1][:ref_rows])
        dataio.write_labels(files["pred"], [0, 1][:pred_rows])
        code = main(["eval", "--pred", str(files["pred"]),
                     "--labels", str(files["ref"])])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {files[named]}: need at least two labeled items" in captured.err
        assert captured.out == ""

    def test_internal_metrics_with_dataset(self, tmp_path, capsys):
        data, ref = write_blobs(tmp_path, n=40)
        out = tmp_path / "run"
        main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "4", "--out", str(out),
        ])
        code = main([
            "eval", "--pred", str(out / "labels.csv"), "--labels", str(ref),
            "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--sample-size", "500",
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "intra_cluster=" in text
        assert "silhouette=" in text

    @pytest.mark.parametrize("n_pred", [39, 41])
    def test_dataset_and_predictions_misaligned_exit_2(self, tmp_path, capsys, n_pred):
        data, _ = write_blobs(tmp_path, n=40)
        ref, pred = tmp_path / "ref1.csv", tmp_path / "pred1.csv"
        dataio.write_labels(ref, ([0, 1] * 21)[:n_pred])
        dataio.write_labels(pred, ([0, 1] * 21)[:n_pred])
        code = main([
            "eval", "--pred", str(pred), "--labels", str(ref), "--input", str(data),
            "--format", "dense-csv", "--distance", "euclidean",
        ])
        assert code == 2
        assert f"dataset has 40 items but {n_pred} predictions" in capsys.readouterr().err

    def test_internal_metrics_skipped_without_pairs(self, tmp_path, capsys):
        # One clustered item: no pair to sample, no two clusters to compare.
        data, _ = write_blobs(tmp_path, n=4)
        ref, pred = tmp_path / "ref1.csv", tmp_path / "pred1.csv"
        dataio.write_labels(ref, [0, 0, 1, 1])
        dataio.write_labels(pred, [-1, -1, -1, 0])
        with pytest.warns(UserWarning, match="fewer than two clustered items"):
            code = main([
                "eval", "--pred", str(pred), "--labels", str(ref), "--input", str(data),
                "--format", "dense-csv", "--distance", "euclidean",
            ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert "intra_cluster=skipped (no same-cluster or cross-cluster pairs to sample)" in out
        assert "inter_cluster=skipped (no same-cluster or cross-cluster pairs to sample)" in out
        assert "silhouette=skipped (silhouette needs at least two clusters)" in out

    @pytest.mark.parametrize("flag, value", [
        pytest.param("--sample-size", "0", id="0"),
        pytest.param("--sample-size", "-3", id="-3"),
        ("--silhouette-cap", "1"),
        ("--silhouette-cap", "0"),
        ("--silhouette-cap", "-5"),
    ])
    def test_sample_size_below_one_rejected(self, tmp_path, capsys, flag, value):
        # Rejected as a usage error before any file is read: none exists.
        missing = str(tmp_path / "missing.csv")
        code = main([
            "eval", "--pred", missing, "--labels", missing, "--input", missing,
            "--format", "dense-csv", "--distance", "euclidean", flag, value,
        ])
        assert code == 1
        assert flag in capsys.readouterr().err


class TestOracleCommand:
    def test_matrix_two_blobs(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.05, (30, 2))
        b = rng.normal(0, 0.05, (30, 2)) + 10
        pts = np.vstack([a, b])
        matrix = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        mfile = tmp_path / "m.txt"
        write_matrix(mfile, matrix)
        out = tmp_path / "o"
        code = main([
            "oracle", "--matrix", str(mfile), "--minpts", "5",
            "--min-cluster-size", "5", "--out", str(out),
        ])
        assert code == 0
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines()
        )
        assert int(summary["clusters"]) == 2

    def test_mask_from_empty_log_all_noise(self, tmp_path):
        log = tmp_path / "d.log"
        log.write_text("8\n")
        out = tmp_path / "o"
        code = main([
            "oracle", "--mask-from", str(log), "--minpts", "2", "--out", str(out),
        ])
        assert code == 0
        labels = dataio.read_labels(out / "labels.csv")
        assert labels.tolist() == [-1] * 8

    def test_masked_run_matches_engine(self, tmp_path):
        data, _ = write_blobs(tmp_path, n=150, centers=3, seed=5)
        run = tmp_path / "run"
        main([
            "cluster", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "5", "--seed", "2",
            "--out", str(run), "--log-distances",
        ])
        oracle_out = tmp_path / "oracle"
        code = main([
            "oracle", "--mask-from", str(run / "distances.log"), "--minpts", "5",
            "--min-cluster-size", "5", "--out", str(oracle_out),
        ])
        assert code == 0
        engine_labels = dataio.read_labels(run / "labels.csv")
        oracle_labels = dataio.read_labels(oracle_out / "labels.csv")
        assert canonical_labels(engine_labels) == canonical_labels(oracle_labels)

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["oracle", "--out", str(tmp_path / "o")]) == 1

    def test_module_entry_point_exits_with_main_code(self, tmp_path):
        env = dict(os.environ)
        root = str(Path(fishdbc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "fishdbc.cli", "oracle", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert "exactly one of" in proc.stderr

    def test_dataset_over_the_cap_exit_1_before_any_distance(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_N", 9)
        calls = []
        monkeypatch.setitem(distances.BUILTIN, "euclidean",
                            lambda a, b: calls.append(1) or 0.0)
        data, _ = write_blobs(tmp_path, n=oracle.MAX_N + 1)
        code = main([
            "oracle", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "4", "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "dataset too large for the oracle: 10 > 9" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "o").exists()

    def test_dataset_source_with_cap(self, tmp_path, capsys):
        data, _ = write_blobs(tmp_path, n=30)
        out = tmp_path / "o"
        code = main([
            "oracle", "--input", str(data), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "4", "--out", str(out),
        ])
        assert code == 0
        summary = dict(
            line.split("=", 1)
            for line in (out / "summary.txt").read_text().splitlines()
        )
        assert int(summary["distance_calls"]) == 30 * 29 // 2


class TestGenerateCommand:
    def test_blobs(self, tmp_path, capsys):
        out = tmp_path / "g"
        code = main([
            "generate", "--kind", "blobs", "--n", "50", "--dim", "4",
            "--centers", "3", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        data = list(dataio.read_dataset("dense-csv", out / "data.csv"))
        labels = dataio.read_labels(out / "labels.csv")
        assert len(data) == 50 and len(labels) == 50

    def test_transactions(self, tmp_path):
        out = tmp_path / "g"
        code = main([
            "generate", "--kind", "transactions", "--n", "30", "--dim", "64",
            "--clusters", "4", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        data = list(dataio.read_dataset("set-lines", out / "data.txt"))
        assert len(data) == 30

    @pytest.mark.parametrize("kind, flag, value", [
        ("blobs", "--n", "-1"),
        ("blobs", "--n", "0"),
        ("blobs", "--dim", "0"),
        ("blobs", "--centers", "0"),
        ("transactions", "--dim", "0"),
        ("transactions", "--clusters", "0"),
        ("blobs", "--std", "-1"),
        ("blobs", "--std", "nan"),
        ("blobs", "--std", "inf"),
        ("transactions", "--fill", "0"),
        ("transactions", "--fill", "1.5"),
        ("transactions", "--fill", "-0.5"),
        ("transactions", "--fill", "nan"),
    ])
    def test_sizes_below_one_rejected(self, tmp_path, capsys, kind, flag, value):
        args = {"--n": "20", "--dim": "4", "--centers": "3", "--clusters": "2"}
        args[flag] = value
        out = tmp_path / "g"
        code = main(["generate", "--kind", kind, "--out", str(out)]
                    + [tok for item in args.items() for tok in item])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_generate_then_cluster_round_trip(self, tmp_path):
        out = tmp_path / "g"
        main([
            "generate", "--kind", "blobs", "--n", "80", "--dim", "3",
            "--centers", "2", "--std", "0.05", "--seed", "4", "--out", str(out),
        ])
        run = tmp_path / "run"
        code = main([
            "cluster", "--input", str(out / "data.csv"), "--format", "dense-csv",
            "--distance", "euclidean", "--minpts", "5", "--out", str(run),
        ])
        assert code == 0
