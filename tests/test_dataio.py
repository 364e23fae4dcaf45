import json

import numpy as np
import pytest

from fishdbc import FISHDBC, dataio, distances
from fishdbc.dataio import ParseError


class TestDenseCsv:
    def test_two_vectors(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n3.0,4.0\n")
        got = list(dataio.read_dataset("dense-csv", path))
        assert len(got) == 2
        assert got[0].tolist() == [1.0, 2.0]
        assert got[1].tolist() == [3.0, 4.0]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        with pytest.raises(ParseError, match=":2"):
            list(dataio.read_dataset("dense-csv", path))

    def test_blank_lines_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n\n2.0\n")
        with caplog.at_level("WARNING"):
            got = list(dataio.read_dataset("dense-csv", path))
        assert len(got) == 2
        assert any("blank line" in r.message for r in caplog.records)

    def test_crlf_tolerated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"1.0,2.0\r\n3.0,4.0\r\n")
        got = list(dataio.read_dataset("dense-csv", path))
        assert got[1].tolist() == [3.0, 4.0]

    def test_reader_is_streaming(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n".join(f"{i}.0" for i in range(1000)))
        reader = dataio.read_dataset("dense-csv", path)
        first = next(reader)
        assert first.tolist() == [0.0]  # nothing forced the rest


class TestSetLines:
    def test_example(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("1 5 9\n2 5\n")
        got = list(dataio.read_dataset("set-lines", path))
        assert got == [frozenset({1, 5, 9}), frozenset({2, 5})]


class TestTextLines:
    def test_lines_kept_verbatim(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("hello world\nfoo  bar\n")
        assert list(dataio.read_dataset("text-lines", path)) == [
            "hello world",
            "foo  bar",
        ]


class TestBitmapCsv:
    def test_example(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,0,1\n0,1,1\n")
        got = list(dataio.read_dataset("bitmap-csv", path))
        assert got[0].tolist() == [True, False, True]

    def test_nonbinary_rejected(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1,2,0\n")
        with pytest.raises(ParseError, match="0 or 1"):
            list(dataio.read_dataset("bitmap-csv", path))


class TestBagOfWords:
    def test_three_document_round_trip(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text(
            "3\n5\n6\n"
            "1 1 2\n1 3 1\n"
            "2 2 4\n"
            "3 1 1\n3 4 2\n3 5 1\n"
        )
        docs = list(dataio.read_dataset("bag-of-words", path))
        assert docs == [
            {1: 2.0, 3: 1.0},
            {2: 4.0},
            {1: 1.0, 4: 2.0, 5: 1.0},
        ]

    def test_gap_documents_come_out_empty(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("3\n5\n2\n1 1 1\n3 2 1\n")
        docs = list(dataio.read_dataset("bag-of-words", path))
        assert docs == [{1: 1.0}, {}, {2: 1.0}]

    def test_unsorted_docs_rejected(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("2\n5\n2\n2 1 1\n1 2 1\n")
        with pytest.raises(ParseError, match="ascending"):
            list(dataio.read_dataset("bag-of-words", path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "docword.txt"
        path.write_text("3\n5\n")
        with pytest.raises(ParseError, match="header"):
            list(dataio.read_dataset("bag-of-words", path))


class TestFormatDistanceMatch:
    def test_accepts_matching(self):
        dataio.check_format_distance("dense-csv", "euclidean")
        dataio.check_format_distance("set-lines", "jaccard")
        dataio.check_format_distance("text-lines", "hamming")

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            dataio.check_format_distance("set-lines", "euclidean")

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            dataio.check_format_distance("parquet", "euclidean")


class TestLabels:
    def test_bare_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        dataio.write_labels(path, [0, 0, -1, 2])
        assert dataio.read_labels(path).tolist() == [0, 0, -1, 2]

    def test_indexed_rows_accepted(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,0\n1,0\n2,-1\n")
        assert dataio.read_labels(path).tolist() == [0, 0, -1]

    @pytest.mark.parametrize("text, line, index, position", [
        ("7,1\n7,1\n9,0\n", 1, 7, 0),
        ("0,1\n2,0\n1,0\n", 2, 2, 1),  # shuffled rows
        ("0,1\n0,1\n", 2, 0, 1),  # repeated index
        ("3\n0,1\n", 2, 0, 1),  # the index counts bare rows too
    ])
    def test_index_must_be_row_position(self, tmp_path, text, line, index, position):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(
            ParseError, match=f"labels.csv:{line}: index {index} should be {position}"
        ):
            dataio.read_labels(path)


class TestWriteResult:
    def run_result(self, rng):
        engine = FISHDBC(distances.euclidean, minpts=2, rng_seed=0)
        pts = np.vstack(
            [rng.normal(0, 0.01, (5, 2)), rng.normal(0, 0.01, (5, 2)) + 10]
        )
        for p in pts:
            engine.add(p)
        return engine.cluster()

    def test_files_written(self, tmp_path, rng):
        result = self.run_result(rng)
        summary = dataio.write_result(result, tmp_path / "out")
        assert (tmp_path / "out" / "labels.csv").exists()
        assert (tmp_path / "out" / "tree.json").exists()
        assert (tmp_path / "out" / "summary.txt").exists()
        assert summary["n"] == 10

    def test_labels_row_per_item(self, tmp_path):
        from fishdbc import ClusterResult
        from fishdbc.hierarchy import CondensedTree

        result = ClusterResult(
            labels=np.array([0, 0, -1]),
            condensed=CondensedTree(3, [], [], True),
        )
        summary = dataio.write_result(result, tmp_path / "out")
        rows = (tmp_path / "out" / "labels.csv").read_text().splitlines()
        assert rows == ["0,0", "1,0", "2,-1"]
        assert summary["clustered"] == 2
        assert summary["n"] == 3

    def test_round_trip_labels(self, tmp_path, rng):
        result = self.run_result(rng)
        dataio.write_result(result, tmp_path / "out")
        back = dataio.read_labels(tmp_path / "out" / "labels.csv")
        assert back.tolist() == result.labels.tolist()

    def test_tree_json_loads(self, tmp_path, rng):
        from fishdbc import hierarchy

        result = self.run_result(rng)
        dataio.write_result(result, tmp_path / "out")
        with open(tmp_path / "out" / "tree.json") as fh:
            doc = json.load(fh)
        assert doc == hierarchy.tree_to_dict(result.condensed)

    def test_summary_key_value_lines(self, tmp_path, rng):
        result = self.run_result(rng)
        dataio.write_result(result, tmp_path / "out", extra={"distance_calls": 42})
        text = (tmp_path / "out" / "summary.txt").read_text()
        entries = dict(line.split("=", 1) for line in text.splitlines())
        assert entries["distance_calls"] == "42"
        assert int(entries["n"]) == 10

    def test_empty_result_rejected(self, tmp_path):
        from fishdbc import ClusterResult
        from fishdbc.hierarchy import CondensedTree

        empty = ClusterResult(
            labels=np.empty(0, dtype=np.int64),
            condensed=CondensedTree(0, [], [], True),
        )
        with pytest.raises(ValueError, match="nothing to cluster"):
            dataio.write_result(empty, tmp_path / "out")


class TestDistanceLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "distances.log"
        pairs = {(0, 3): 1.25, (1, 2): 0.5}
        dataio.write_distance_log(path, 5, pairs)
        n, back = dataio.read_distance_log(path)
        assert n == 5
        assert back == pairs

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("4\n0 1\n")
        with pytest.raises(ParseError, match="i j distance"):
            dataio.read_distance_log(path)

    @pytest.mark.parametrize("row, message", [
        ("1 5 0.2", "outside 0..2"),
        ("-1 2 0.2", "outside 0..2"),
        ("1 1 0.2", "itself"),
        ("0 1 nan", "not >= 0"),
        ("0 1 -0.5", "not >= 0"),
    ])
    def test_bad_pairs_rejected(self, tmp_path, row, message):
        path = tmp_path / "bad.log"
        path.write_text(f"3\n0 2 1.0\n{row}\n")
        with pytest.raises(ParseError, match=f"bad.log:3: .*{message}"):
            dataio.read_distance_log(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text("-2\n")
        with pytest.raises(ParseError, match="item count"):
            dataio.read_distance_log(path)


class TestGenerators:
    def test_blobs_shapes_and_labels(self, rng):
        X, labels = dataio.generate_blobs(50, 4, centers=3, rng=rng)
        assert X.shape == (50, 4)
        assert labels.shape == (50,)
        assert set(labels.tolist()) <= {0, 1, 2}

    def test_blobs_cluster_spread(self, rng):
        X, labels = dataio.generate_blobs(200, 10, centers=4, std=0.5, rng=rng)
        for c in range(4):
            members = X[labels == c]
            if len(members) > 1:
                spread = np.linalg.norm(members - members.mean(0), axis=1).mean()
                assert spread < 5.0

    def test_transactions_disjoint_pools(self, rng):
        payloads, labels = dataio.generate_transactions(
            100, dim=64, clusters=4, rng=rng
        )
        assert len(payloads) == 100
        assert all(isinstance(p, frozenset) and p for p in payloads)
        pools = {}
        for p, lbl in zip(payloads, labels):
            pools.setdefault(int(lbl), set()).update(p)
        ids = sorted(pools)
        for a in ids:
            for b in ids:
                if a < b:
                    assert not (pools[a] & pools[b])

    def test_dataset_write_read_round_trip(self, tmp_path, rng):
        X, _ = dataio.generate_blobs(10, 3, centers=2, rng=rng)
        path = tmp_path / "blobs.csv"
        dataio.write_dataset("dense-csv", path, X)
        back = list(dataio.read_dataset("dense-csv", path))
        assert np.array_equal(np.vstack(back), X)

        payloads, _ = dataio.generate_transactions(10, dim=32, clusters=2, rng=rng)
        path = tmp_path / "tx.txt"
        dataio.write_dataset("set-lines", path, payloads)
        assert list(dataio.read_dataset("set-lines", path)) == payloads
