from pathlib import Path

import numpy as np
import pytest

from cmrec import data
from cmrec.util import DataError


def write_market(root, market, train_lines, extra=None):
    d = root / market
    d.mkdir(parents=True, exist_ok=True)
    (d / "train.tsv").write_text("userId\titemId\trating\n" +
                                 "".join(train_lines), encoding="utf-8")
    (d / "train_5core.tsv").write_text("userId\titemId\trating\n" +
                                       "".join(extra or []), encoding="utf-8")
    return d


class TestLoadMarket:
    def test_basic_parse(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t4.0\n", "u2\ti2\t5.0\n"])
        rows, report = data.load_market(d, "m1")
        assert len(rows) == 2
        assert rows[0] == data.RawInteraction("u1", "i1", 4.0, "m1", "train")
        assert report["malformed"] == 0

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        d = write_market(tmp_path, "m1",
                         ["u1\ti1\t4.0\n", "only_two\tfields\n",
                          "\n", "u2\ti2\t3.0\n"])
        rows, report = data.load_market(d, "m1")
        assert [r.user for r in rows] == ["u1", "u2"]
        assert report["malformed"] == 1
        assert report["malformed_lines"][0].endswith(":3")

    def test_unparsable_rating_is_hard_error(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\tmany\n"])
        with pytest.raises(DataError, match="unparsable rating"):
            data.load_market(d, "m1")

    def test_rating_out_of_range(self, tmp_path):
        d = write_market(tmp_path, "m1", ["u1\ti1\t6.0\n"])
        with pytest.raises(DataError, match="outside"):
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
        rows, _ = data.load_market(d, "t1")
        assert {r.split for r in rows} == {"train", "valid_qrel"}


class TestDedupe:
    def test_duplicates_keep_last_value_first_position(self):
        rows = [
            data.RawInteraction("u", "i", 2.0, "m", "train"),
            data.RawInteraction("u", "j", 3.0, "m", "train"),
            data.RawInteraction("u", "i", 4.0, "m", "train"),
        ]
        out = data.dedupe_and_mark_5core(rows)
        assert [(r.item, r.rating) for r in out] == [("i", 4.0), ("j", 3.0)]

    def test_5core_ratings_forced(self):
        rows = [data.RawInteraction("u", "i", 3.0, "m", "train_5core")]
        out = data.dedupe_and_mark_5core(rows)
        assert out[0].rating == 5.0

    def test_same_pair_across_splits_kept(self):
        rows = [
            data.RawInteraction("u", "i", 2.0, "m", "train"),
            data.RawInteraction("u", "i", 5.0, "m", "valid_qrel"),
        ]
        assert len(data.dedupe_and_mark_5core(rows)) == 2


class TestEncoders:
    def test_ids_sorted_and_bijective(self):
        enc = data.IdEncoder.fit(["b", "a", "c", "a"])
        assert enc.reverse == ("a", "b", "c")
        for i, v in enumerate(enc.reverse):
            assert enc.encode(v) == i
            assert enc.decode(i) == v

    def test_unknown_id_raises(self):
        enc = data.IdEncoder.fit(["a"])
        with pytest.raises(DataError, match="zzz"):
            enc.encode("zzz")

    def test_run_file_ids_included(self):
        rows = [data.RawInteraction("u1", "i1", 3.0, "m", "train")]
        run = data.RunFile((("u2", ("i2", "i1")),))
        users, items = data.fit_encoders(rows, [run])
        assert set(users.reverse) == {"u1", "u2"}
        assert set(items.reverse) == {"i1", "i2"}


class TestRunFiles:
    def test_round_trip(self, tmp_path):
        run = data.RunFile((("u1", ("i2", "i1")), ("u2", ("i3",))))
        data.write_run(run, tmp_path / "r.tsv")
        assert data.load_run(tmp_path / "r.tsv") == run

    def test_written_atomically_with_the_same_bytes(self, tmp_path,
                                                   monkeypatch):
        run = data.RunFile((("u1", ("i2", "i1")), ("u2", ("i3",))))
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
        with pytest.raises(DataError, match="duplicate user"):
            data.load_run(tmp_path / "r.tsv")

    def test_duplicate_candidate_rejected(self, tmp_path):
        (tmp_path / "r.tsv").write_text("userId\titemIds\nu1\ti1\ti1\n")
        with pytest.raises(DataError, match="duplicate candidates"):
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
        assert np.array_equal(m.to_dense(), dense)

    def test_max_rating_merge(self):
        rows = (interactions([(0, 0, 2.0)], split="train") +
                interactions([(0, 0, 5.0)], split="train_5core"))
        m = data.build_matrix(columnar(rows), data.CombinationSpec("m", ("m",)), 1, 1)
        assert m.to_dense()[0, 0] == 5.0

    def test_target_valid_positives_excluded(self):
        rows = (interactions([(0, 0, 3.0), (0, 1, 4.0)], market="t") +
                interactions([(0, 1, 5.0)], market="t", split="valid_qrel"))
        spec = data.CombinationSpec("t", ("t",))
        m = data.build_matrix(columnar(rows), spec, 1, 2)
        # the (0, 1) pair appears in valid_qrel, so it is banned entirely
        assert np.array_equal(m.to_dense(), [[3.0, 0.0]])

    def test_exclusion_can_be_disabled(self):
        rows = (interactions([(0, 0, 3.0)], market="t") +
                interactions([(0, 1, 5.0)], market="t", split="valid_qrel"))
        spec = data.CombinationSpec("t", ("t",), exclude_valid_of_target=False)
        m = data.build_matrix(columnar(rows), spec, 1, 2)
        assert m.to_dense()[0, 1] == 5.0

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
            for combo in default_combinations(target, snap.markets):
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
        assert m.to_dense().shape == (3, 4)
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
