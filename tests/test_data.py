from pathlib import Path

import numpy as np
import pytest

from cmrec import data, embeddings, evaluation, selection
from cmrec.util import DataError


def to_dense(m) -> np.ndarray:
    """A SparseInteractionMatrix as an (n_users, n_items) rating array."""
    dense = np.zeros((m.n_users, m.n_items))
    for u in range(m.n_users):
        it, r = m.row(u)
        dense[u, it] = r
    return dense


def write_market(root, market, train_lines, extra=None):
    d = root / market
    d.mkdir(parents=True, exist_ok=True)
    (d / "train.tsv").write_text("userId\titemId\trating\n" +
                                 "".join(train_lines), encoding="utf-8")
    (d / "train_5core.tsv").write_text("userId\titemId\trating\n" +
                                       "".join(extra or []), encoding="utf-8")
    return d


def market_rows(columns):
    """The loaded columns as (user, item, rating, split name) tuples."""
    return list(zip(columns["user"].tolist(), columns["item"].tolist(),
                    columns["rating"].tolist(),
                    [data.SPLITS[k] for k in columns["split"].tolist()]))


class TestLoadMarket:
    def test_basic_parse(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t4.0\n", "u2\ti2\t5.0\n"])
        columns, report = data.load_market(d, "m1")
        assert market_rows(columns) == [("u1", "i1", 4.0, "train"),
                                        ("u2", "i2", 5.0, "train")]
        assert columns["rating"].dtype == np.float64
        assert columns["split"].dtype == np.int64
        assert report["malformed"] == 0 and report["rows"] == 2

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        d = write_market(tmp_path, "m1",
                         ["u1\ti1\t4.0\n", "only_two\tfields\n",
                          "\n", "u2\ti2\t3.0\n"])
        columns, report = data.load_market(d, "m1")
        assert columns["user"].tolist() == ["u1", "u2"]
        assert report["malformed"] == 1
        assert report["malformed_lines"][0].endswith(":3")

    def test_empty_ids_are_malformed(self, tmp_path):
        d = write_market(tmp_path, "m1",
                         ["u1\ti1\t4.0\n", "u2\t\t4\n", "\tix\t2\n",
                          "\t\t3\n", "u3\ti3\t5.0\n"])
        columns, report = data.load_market(d, "m1")
        assert columns["user"].tolist() == ["u1", "u3"]
        assert columns["item"].tolist() == ["i1", "i3"]
        assert report["malformed"] == 3
        assert [line.rsplit(":", 1)[1]
                for line in report["malformed_lines"]] == ["3", "4", "5"]

    def test_rating_parsed_like_float(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t 4 \n", "u2\ti2\t1e0\n",
                                          "u3\ti3\t4.50\n"])
        columns, _ = data.load_market(d, "m1")
        assert columns["rating"].tolist() == [4.0, 1.0, 4.5]

    def test_unparsable_rating_is_hard_error(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\tmany\n"])
        with pytest.raises(DataError, match="unparsable rating"):
            data.load_market(d, "m1")

    def test_rating_out_of_range(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t6.0\n"])
        with pytest.raises(DataError, match="outside"):
            data.load_market(d, "m1")

    def test_first_bad_rating_is_reported_at_its_line(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t4.0\n", "u2\ti2\tnan\n",
                                          "u3\ti3\tmany\n"])
        with pytest.raises(DataError, match=r"train.tsv:3: rating nan outside"):
            data.load_market(d, "m1")

    def test_nul_in_an_id_is_a_data_error(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t4.0\n", "u2\ti2\x00\t3\n"])
        with pytest.raises(DataError, match=r"train.tsv:3: NUL"):
            data.load_market(d, "m1")

    def test_missing_mandatory_file(self, tmp_path):
        d = tmp_path / "m1"
        d.mkdir()
        (d / "train.tsv").write_text("userId\titemId\trating\nu\ti\t3.0\n")
        with pytest.raises(DataError, match="train_5core"):
            data.load_market(d, "m1")

    def test_missing_dir_names_market(self, tmp_path):
        with pytest.raises(DataError, match="m9"):
            data.load_market(tmp_path / "nope", "m9")

    def test_optional_qrels_loaded(self, tmp_path):
        d = write_market(tmp_path, "t1", ["u1\ti1\t4.0\n"])
        (d / "valid_qrel.tsv").write_text("userId\titemId\trating\nu1\ti9\t5.0\n")
        columns, _ = data.load_market(d, "t1")
        assert {row[3] for row in market_rows(columns)} == {"train",
                                                            "valid_qrel"}


def code_rows(records):
    """(user, item, rating, market, split) code records as the columns
    dedupe_and_mark_5core takes."""
    user, item, rating, market, split = zip(*records)
    return {"user": np.array(user), "item": np.array(item),
            "rating": np.array(rating, dtype=np.float64),
            "market": np.array(market), "split": np.array(split)}


TRAIN, CORE, VALID = (data.SPLITS.index(s)
                      for s in ("train", "train_5core", "valid_qrel"))


class TestDedupe:
    def test_duplicates_keep_last_value_first_position(self):
        out = data.dedupe_and_mark_5core(code_rows([
            (0, 0, 2.0, 0, TRAIN), (0, 1, 3.0, 0, TRAIN),
            (0, 0, 4.0, 0, TRAIN), (0, 1, 1.0, 0, TRAIN),
            (0, 0, 5.0, 0, TRAIN)]))
        assert out["item"].tolist() == [0, 1]
        assert out["rating"].tolist() == [5.0, 1.0]

    def test_5core_ratings_forced(self):
        out = data.dedupe_and_mark_5core(code_rows([(0, 0, 3.0, 0, CORE),
                                                    (0, 0, 3.0, 0, TRAIN)]))
        assert out["rating"].tolist() == [5.0, 3.0]

    def test_same_pair_across_splits_kept(self):
        out = data.dedupe_and_mark_5core(code_rows([
            (0, 0, 2.0, 0, TRAIN), (0, 0, 5.0, 0, VALID),
            (0, 0, 4.0, 1, TRAIN)]))
        assert out["rating"].tolist() == [2.0, 5.0, 4.0]

    def test_matches_dict_oracle(self, rng):
        records = list(zip(rng.integers(0, 4, 300).tolist(),
                           rng.integers(0, 5, 300).tolist(),
                           rng.integers(1, 6, 300).astype(float).tolist(),
                           rng.integers(0, 2, 300).tolist(),
                           rng.integers(0, 4, 300).tolist()))
        last = {}
        for rec in records:
            key = (rec[0], rec[1], rec[3], rec[4])
            last[key] = rec  # a re-assigned key keeps its first position
        want = [(u, i, 5.0 if s == CORE else r, m, s)
                for u, i, r, m, s in last.values()]
        out = data.dedupe_and_mark_5core(code_rows(records))
        got = list(zip(*(out[k].tolist()
                         for k in ("user", "item", "rating", "market",
                                   "split"))))
        assert got == want


class TestEncoders:
    def test_ids_sorted_and_bijective(self):
        enc = data.IdEncoder.fit(["b", "a", "c", "a"])
        assert enc.ids.tolist() == ["a", "b", "c"]
        for i, v in enumerate(enc.ids.tolist()):
            assert enc.lookup([v]).tolist() == [i]
            assert str(enc.ids[i]) == v

    def test_lookup_marks_unknown_ids(self):
        enc = data.IdEncoder.fit(["b", "d"])
        assert enc.lookup(["a", "b", "c", "d", "e", "bb"]).tolist() == [
            -1, 0, -1, 1, -1, -1]
        assert data.IdEncoder.fit([]).lookup(["a"]).tolist() == [-1]

    def test_run_file_ids_included(self):
        run = data.RunFile.from_lists(["u2"], [["i2", "i1"]])
        users, items = data.fit_encoders(np.array(["u1"]), np.array(["i1"]),
                                         [run])
        assert users.ids.tolist() == ["u1", "u2"]
        assert items.ids.tolist() == ["i1", "i2"]


def run_entries(run):
    return list(zip(run.users.tolist(), run.candidate_lists()))


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        run = data.RunFile.from_lists(["u1", "u2"], [["i2", "i1"], ["i3"]])
        data.write_run(run, tmp_path / "r.tsv")
        back = data.load_run(tmp_path / "r.tsv")
        assert run_entries(back) == [("u1", ["i2", "i1"]), ("u2", ["i3"])]
        assert back.offsets.tolist() == [0, 2, 3]
        assert back.offsets.dtype == np.int64

    def test_written_atomically_with_the_same_bytes(self, tmp_path,
                                                   monkeypatch):
        run = data.RunFile.from_lists(["u1", "u2"], [["i2", "i1"], ["i3"]])
        written = []
        real = data.atomic_write_text

        def recording(path, text):
            written.append(Path(path))
            real(path, text)

        monkeypatch.setattr(data, "atomic_write_text", recording)
        data.write_run(run, tmp_path / "r.tsv")
        assert written == [tmp_path / "r.tsv"]
        assert (tmp_path / "r.tsv").read_bytes() == (
            b"userId\titemIds\nu1\ti2\ti1\nu2\ti3\n")

    def test_duplicate_user_rejected(self, tmp_path):
        (tmp_path / "r.tsv").write_text(
            "userId\titemIds\nu1\ti1\nu1\ti2\n")
        with pytest.raises(DataError, match="r.tsv:3: duplicate user 'u1'"):
            data.load_run(tmp_path / "r.tsv")

    def test_duplicate_candidate_rejected(self, tmp_path):
        (tmp_path / "r.tsv").write_text(
            "userId\titemIds\nu0\ti1\ti2\n\nu1\ti2\ti1\ti2\n")
        with pytest.raises(DataError,
                           match="r.tsv:4: duplicate candidates for user 'u1'"):
            data.load_run(tmp_path / "r.tsv")

    @pytest.mark.parametrize("line", ["u2\t", "u3\ti1\t\ti3", "\ti1",
                                      "u4\ti1\t"])
    def test_empty_id_rejected_at_its_line(self, tmp_path, line):
        (tmp_path / "r.tsv").write_text(
            f"userId\titemIds\nu1\ti1\n{line}\nu5\ti2\n")
        with pytest.raises(DataError, match="r.tsv:3: empty id"):
            data.load_run(tmp_path / "r.tsv")

    def test_user_without_candidates_rejected(self, tmp_path):
        (tmp_path / "r.tsv").write_text("userId\titemIds\nu1\ti1\nu2\n")
        with pytest.raises(DataError, match="r.tsv:3: run line needs"):
            data.load_run(tmp_path / "r.tsv")

    def test_nul_rejected(self, tmp_path):
        (tmp_path / "r.tsv").write_text("userId\titemIds\nu1\ti1\x00\n")
        with pytest.raises(DataError, match="r.tsv:2: NUL"):
            data.load_run(tmp_path / "r.tsv")


def interactions(pairs, market="m", split="train"):
    """(user, item, rating, market, split) records; lists concatenate."""
    return [(u, i, r, market, split) for u, i, r in pairs]


def columnar(records):
    """The records as columnar rows, through the data.Interactions constructor."""
    if not records:
        return data.Interactions([], [], [], [], [])
    return data.Interactions(*zip(*records))


def build_matrix_oracle(records, spec, n_users, n_items):
    """The per-row build_matrix: ban the target's valid pairs, then a dict
    merge that keeps each (user, item) pair's maximum rating."""
    market_set = set(spec.markets)
    for r in records:
        if r[3] not in market_set:
            raise DataError(f"row market {r[3]!r} outside combination {spec.combo_id}")
    if spec.exclude_valid_of_target:
        banned = {(u, i) for u, i, _, m, s in records
                  if m == spec.target and s == "valid_qrel"}
        records = [r for r in records if (r[0], r[1]) not in banned]
    merged: dict[tuple[int, int], float] = {}
    for u, i, rating, _, _ in records:
        prev = merged.get((u, i))
        if prev is None or rating > prev:
            merged[(u, i)] = rating
    keys = np.array(list(merged.keys()), dtype=np.int64).reshape(-1, 2)
    vals = np.array(list(merged.values()), dtype=np.float64)
    return data.SparseInteractionMatrix.from_pairs(keys[:, 0], keys[:, 1], vals,
                                                   n_users, n_items)


def records_of(rows):
    return list(zip(rows.user.tolist(), rows.item.tolist(), rows.rating.tolist(),
                    rows.market.tolist(), rows.split.tolist()))


def assert_same_matrix(got, want):
    assert (got.n_users, got.n_items) == (want.n_users, want.n_items)
    for name in ("user_ptr", "user_items", "user_ratings",
                 "item_ptr", "item_users", "item_ratings"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestBuildMatrix:
    def test_csr_csc_views_agree(self):
        rows = interactions([(0, 1, 3.0), (0, 0, 2.0), (1, 1, 5.0)])
        spec = data.CombinationSpec("m", ("m",))
        m = data.build_matrix(columnar(rows), spec, 2, 2)
        dense = np.zeros((2, 2))
        dense[0, 1] = 3.0
        dense[0, 0] = 2.0
        dense[1, 1] = 5.0
        assert np.array_equal(to_dense(m), dense)

    def test_max_rating_merge(self):
        rows = (interactions([(0, 0, 2.0)], split="train") +
                interactions([(0, 0, 5.0)], split="train_5core"))
        m = data.build_matrix(columnar(rows), data.CombinationSpec("m", ("m",)), 1, 1)
        assert to_dense(m)[0, 0] == 5.0

    def test_target_valid_positives_excluded(self):
        rows = (interactions([(0, 0, 3.0), (0, 1, 4.0)], market="t") +
                interactions([(0, 1, 5.0)], market="t", split="valid_qrel"))
        spec = data.CombinationSpec("t", ("t",))
        m = data.build_matrix(columnar(rows), spec, 1, 2)
        # the (0, 1) pair appears in valid_qrel, so it is banned entirely
        assert np.array_equal(to_dense(m), [[3.0, 0.0]])

    def test_exclusion_can_be_disabled(self):
        rows = (interactions([(0, 0, 3.0)], market="t") +
                interactions([(0, 1, 5.0)], market="t", split="valid_qrel"))
        spec = data.CombinationSpec("t", ("t",), exclude_valid_of_target=False)
        m = data.build_matrix(columnar(rows), spec, 1, 2)
        assert to_dense(m)[0, 1] == 5.0

    def test_row_outside_combination_rejected(self):
        rows = interactions([(0, 0, 3.0)], market="other")
        with pytest.raises(DataError, match="other"):
            data.build_matrix(columnar(rows), data.CombinationSpec("t", ("t",)), 1, 1)

    def test_target_must_be_in_markets(self):
        with pytest.raises(ValueError):
            data.CombinationSpec("t", ("s1", "s2"))

    def test_matches_dict_merge_oracle_on_hand_rows(self):
        rows = (interactions([(0, 0, 2.0), (1, 2, 4.0), (0, 0, 5.0)], market="t")
                + interactions([(0, 0, 3.0), (2, 1, 1.0)], market="s",
                               split="train_5core")
                + interactions([(1, 2, 5.0), (2, 2, 4.0)], market="t",
                               split="valid_qrel")
                + interactions([(2, 1, 4.0)], market="s", split="valid_qrel"))
        for exclude in (True, False):
            spec = data.CombinationSpec("t", ("s", "t"),
                                        exclude_valid_of_target=exclude)
            assert_same_matrix(data.build_matrix(columnar(rows), spec, 3, 3),
                               build_matrix_oracle(rows, spec, 3, 3))

    def test_matches_dict_merge_oracle_on_synth_snapshot(self, synth_snapshot):
        from cmrec.features import default_combinations
        snap, _ = synth_snapshot
        n_users, n_items = len(snap.users), len(snap.items)
        for target in snap.targets:
            for combo in default_combinations(target, snap.markets,
                                              snap.targets):
                rows = snap.rows.take(np.isin(snap.rows.market, combo.markets))
                records = records_of(rows)
                for exclude in (True, False):
                    spec = data.CombinationSpec(
                        target, combo.markets, exclude_valid_of_target=exclude)
                    assert_same_matrix(
                        data.build_matrix(rows, spec, n_users, n_items),
                        build_matrix_oracle(records, spec, n_users, n_items))

    def test_empty_matrix(self):
        m = data.build_matrix(columnar([]), data.CombinationSpec("t", ("t",)), 3, 4)
        assert to_dense(m).shape == (3, 4)
        assert m.nnz == 0


class TestInteractions:
    def test_columns_are_typed_and_taken_together(self):
        rows = data.Interactions([1, 0], [2, 3], [4, 5], ["t", "s"],
                                 ["train", "test_qrel"])
        assert rows.user.dtype == np.int64 and rows.rating.dtype == np.float64
        assert len(rows) == 2
        first = rows.take(rows.market == "t")
        assert records_of(first) == [(1, 2, 4.0, "t", "train")]

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="align"):
            data.Interactions([0, 1], [0], [1.0, 2.0], ["m", "m"],
                              ["train", "train"])


class TestSummarize:
    def test_counts_and_overlap(self):
        rows = (interactions([(0, 0, 4.0), (0, 1, 2.0)], market="a") +
                interactions([(1, 1, 3.0)], market="b"))
        s = data.summarize(columnar(rows))
        assert s["samples"] == {"a": 2, "b": 1}
        assert s["users"] == {"a": 1, "b": 1}
        assert s["overlap"]["a"]["b"] == 1
        assert s["rating_mean"]["a"] == pytest.approx(3.0)
        assert s["unique_items"] == 2


# reader, file name, and the file's valid text: the reader gets the
# file's path, and line 3 of the file gets a 0xff byte
NOT_UTF8_READERS = {
    "load_market": (lambda path: data.load_market(path.parent, "m"),
                    "train.tsv", "userId\titemId\trating\nu1\ti1\t4\n"
                    "u2\ti2\t5\n"),
    "load_run": (data.load_run, "valid_run.tsv",
                 "userId\tcandidates\nu1\ti1\ti2\nu2\ti2\n"),
    "read_run_file": (evaluation.read_run_file, "ranked.tsv",
                      "u1\ti1\t0.5\nu1\ti2\t0.25\nu2\ti2\t1.0\n"),
    "read_qrels": (evaluation.read_qrels, "qrels.tsv",
                   "userId\titemId\nu1\ti1\nu2\ti2\n"),
    "read_embedding_tsv": (embeddings.read_embedding_tsv, "vectors.tsv",
                           "i1\t0.5\t1.0\ni2\t1.0\t0.0\ni3\t0.0\t1.0\n"),
    "read_kept": (selection.read_kept, "kept.txt", "f\ng\nh\n"),
}


class TestNotUtf8:
    """A byte that is not UTF-8 is a DataError naming the file and line
    in every text reader, never a UnicodeDecodeError."""

    @pytest.mark.parametrize("reader", sorted(NOT_UTF8_READERS))
    def test_is_a_data_error_naming_file_and_line(self, tmp_path, reader):
        read, name, text = NOT_UTF8_READERS[reader]
        (tmp_path / "train_5core.tsv").write_text("userId\titemId\trating\n")
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        read(path)  # the valid file reads
        lines = text.encode("utf-8").split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataError, match=f"{name}:3: not UTF-8"):
            read(path)

    @pytest.mark.parametrize("breaks", [b"\n", b"\r\n", b"\r"])
    def test_the_line_counts_every_line_break(self, tmp_path, breaks):
        path = tmp_path / "f.tsv"
        path.write_bytes(breaks.join([b"a", b"b", b"c\xe9d", b""]))
        with pytest.raises(DataError, match="f.tsv:3: not UTF-8"):
            data.read_lines(path)
        path.write_bytes(breaks.join([b"a", b"b", b"c\xc3\xa9d", b""]))
        assert data.read_lines(path)[2] == ["b", "c\u00e9d"]
