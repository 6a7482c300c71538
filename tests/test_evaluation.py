import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmrec import evaluation as ev
from cmrec.util import DataError


def ndcg_oracle(ranked_items, relevant, k=10):
    """From-definition NDCG@k written independently of the library code."""
    dcg = sum(1.0 / math.log2(pos + 2)
              for pos, item in enumerate(ranked_items[:k]) if item in relevant)
    ideal = sum(1.0 / math.log2(pos + 2)
                for pos in range(min(k, len(relevant))))
    return dcg / ideal if ideal else 0.0


def run_arrays(run):
    """The aligned (users, items, scores) arrays of a ranked run written
    as [(user, [(item, score), ...]), ...]."""
    rows = [(user, item, score) for user, ranked in run
            for item, score in ranked]
    users, items, scores = zip(*rows) if rows else ((), (), ())
    return (np.array(users, dtype=str), np.array(items, dtype=str),
            np.array(scores, dtype=np.float64))


def run_lists(users, items, scores):
    """A ranked run's arrays as [(user, [(item, score), ...]), ...], users
    in order of first appearance: the form run_arrays reads."""
    run: dict = {}
    for user, item, score in zip(users.tolist(), items.tolist(),
                                 scores.tolist(), strict=True):
        run.setdefault(user, []).append((item, score))
    return list(run.items())


def ndcg(run, qrels, **kw):
    """ndcg_at_k of a run written as run_arrays reads it."""
    return ev.ndcg_at_k(*run_arrays(run)[:2], qrels, **kw)


class TestNdcg:
    def test_relevant_at_rank_1(self):
        run = [("u", [("a", 9.0), ("b", 1.0)])]
        _, mean = ndcg(run, {"u": {"a"}})
        assert mean == pytest.approx(1.0)

    def test_relevant_at_rank_2(self):
        run = [("u", [("b", 9.0), ("a", 1.0)])]
        _, mean = ndcg(run, {"u": {"a"}})
        assert mean == pytest.approx(1.0 / math.log2(3))

    def test_matches_oracle_on_100_permutations(self):
        rng = np.random.default_rng(42)
        items = [f"i{j}" for j in range(100)]
        for trial in range(100):
            perm = rng.permutation(100)
            ranked = [(items[j], float(100 - pos))
                      for pos, j in enumerate(perm)]
            n_rel = int(rng.integers(1, 6))
            relevant = set(rng.choice(items, n_rel, replace=False))
            run = [("u", ranked)]
            _, got = ndcg(run, {"u": relevant})
            want = ndcg_oracle([i for i, _ in ranked], relevant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_mean_over_qrel_users_only(self):
        run = [("u1", [("a", 2.0)]), ("u2", [("a", 2.0)]),
               ("u3", [("b", 1.0)])]
        per_user, mean = ndcg(run, {"u1": {"a"}, "u3": {"a"}})
        assert set(per_user) == {"u1", "u3"}
        assert mean == pytest.approx(0.5)

    def test_qrel_user_missing_from_run_is_error(self):
        with pytest.raises(DataError, match="ghost"):
            ndcg([("u", [("a", 1.0)])], {"ghost": {"a"}})

    def test_runs_shorter_than_k_and_users_out_of_qrel_order(self):
        run = [("u2", [("c", 0.5)]), ("u1", [("a", 0.9), ("b", 0.1)])]
        per_user, _ = ndcg(run, {"u1": {"b"}, "u2": {"c", "d"}}, k=10)
        assert list(per_user) == ["u1", "u2"]
        assert per_user["u1"] == pytest.approx(1.0 / math.log2(3))
        assert per_user["u2"] == pytest.approx(1.0 / (1.0 + 1.0 / math.log2(3)))

    def test_truncation_at_k(self):
        ranked = [(f"i{j}", float(-j)) for j in range(20)]
        run = [("u", ranked)]
        _, at_10 = ndcg(run, {"u": {"i15"}}, k=10)
        assert at_10 == 0.0
        _, at_20 = ndcg(run, {"u": {"i15"}}, k=20)
        assert at_20 > 0.0


def rank_candidates(items, scores) -> list[tuple]:
    """Order candidates by score descending, ties by ascending item id."""
    return sorted(zip(items, (float(s) for s in scores)),
                  key=lambda pair: (-pair[1], pair[0]))


class TestRankCandidates:
    def test_sorts_by_score_then_item(self):
        out = rank_candidates(["b", "a", "c"], [1.0, 1.0, 2.0])
        assert [i for i, _ in out] == ["c", "a", "b"]

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    def test_scores_nonincreasing(self, scores):
        items = [f"i{j}" for j in range(len(scores))]
        out = rank_candidates(items, scores)
        vals = [s for _, s in out]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def group_ranked_run_oracle(users, items, scores):
    """The per-user dict and sort that group_ranked_run replaced."""
    by_user: dict = {}
    for user, item, score in zip(users, items, scores, strict=True):
        user_items, user_scores = by_user.setdefault(user, ([], []))
        user_items.append(item)
        user_scores.append(float(score))
    return [(u, rank_candidates(its, vals))
            for u, (its, vals) in by_user.items()]


class TestGroupRankedRun:
    def test_users_in_first_seen_order_items_ranked(self):
        users, items, scores = ev.group_ranked_run(
            np.array(["b", "a", "b", "a", "b"]),
            np.array(["i1", "i2", "i3", "i4", "i0"]),
            [0.5, 0.1, 0.9, 0.1, 0.5])
        assert users.tolist() == ["b", "b", "b", "a", "a"]
        assert items.tolist() == ["i3", "i0", "i1", "i2", "i4"]
        assert scores.tolist() == [0.9, 0.5, 0.5, 0.1, 0.1]
        assert scores.dtype == np.float64

    @pytest.mark.parametrize("pool", [
        None, [1.0, 0.5, -2.0], [0.0, -0.0, 1e-300, -1e-300, 0.0]])
    def test_matches_the_oracle(self, rng, pool):
        # pool: scores drawn from few values, so ties (and ties of -0.0
        # with 0.0) are common; None: distinct normal scores
        for n in (1, 2, 17, 400):
            users = np.array([f"u{k}" for k in rng.integers(0, 9, n)])
            items = np.array([f"i{k}" for k in rng.integers(0, 20, n)])
            scores = (rng.normal(size=n) if pool is None
                      else rng.choice(pool, size=n))
            got = ev.group_ranked_run(users, items, scores)
            want = run_arrays(group_ranked_run_oracle(users, items, scores))
            for column, expected in zip(got, want):
                assert column.tolist() == expected.tolist()
            assert np.array_equal(np.signbit(got[2]), np.signbit(want[2]))

    def test_empty_run(self):
        got = ev.group_ranked_run(np.array([], dtype=str),
                                  np.array([], dtype=str), np.zeros(0))
        assert [len(column) for column in got] == [0, 0, 0]

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError):
            ev.group_ranked_run(["u", "u"], ["i1", "i2"], [1.0])


class TestMarketWeights:
    def test_fit_weights_in_expected_band(self):
        w = ev.fit_market_weights()
        assert 0.32 <= w["t1"] <= 0.34
        assert w["t1"] + w["t2"] == pytest.approx(1.0)

    def test_reference_rows_reconstructed(self):
        w = ev.DEFAULT_MARKET_WEIGHTS
        for _, t1, t2, combined in ev.REFERENCE_COMBINATION_SCORES:
            pred = w["t1"] * t1 + w["t2"] * t2
            assert pred == pytest.approx(combined, abs=5e-4)

    def test_weighted_score_known_row(self):
        got = ev.weighted_market_score({"t1": 0.6776, "t2": 0.5589},
                                       ev.DEFAULT_MARKET_WEIGHTS)
        assert got == pytest.approx(0.5980, abs=5e-4)

    def test_weighted_score_renormalizes_subset(self):
        got = ev.weighted_market_score({"t1": 0.5},
                                       {"t1": 0.33, "t2": 0.67})
        assert got == pytest.approx(0.5)

    def test_unknown_market_rejected(self):
        with pytest.raises(DataError, match="t9"):
            ev.weighted_market_score({"t9": 0.5}, {"t1": 1.0})


class TestRunFileIo:
    def test_round_trip_order_and_scores(self, tmp_path):
        run = [("u1", [("a", 0.25), ("b", 0.125)]),
               ("u2", [("c", 1.0)])]
        ev.emit_run_file(*run_arrays(run), tmp_path / "run.tsv")
        got = ev.read_run_file(tmp_path / "run.tsv")
        assert run_lists(*got) == run

    def test_six_decimal_scores(self, tmp_path):
        ev.emit_run_file(*run_arrays([("u", [("a", 1 / 3)])]),
                         tmp_path / "run.tsv")
        assert (tmp_path / "run.tsv").read_text() == "u\ta\t0.333333\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "run.tsv"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(DataError, match="cannot write run file"):
            ev.emit_run_file(*run_arrays([("u", [("a", 0.5)])]), target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.tsv"]
        assert target.is_dir()

    def test_qrels_from_pairs_keeps_first_pair_order(self):
        qrels = ev.qrels_from_pairs(np.array(["b", "a", "b"]),
                                    np.array(["x", "y", "x"]))
        assert list(qrels.items()) == [("b", {"x"}), ("a", {"y"})]

    def test_read_qrels_with_header(self, tmp_path):
        (tmp_path / "q.tsv").write_text(
            "userId\titemId\trating\nu1\ta\t5.0\nu1\tb\t5.0\nu2\tc\t5.0\n")
        q = ev.read_qrels(tmp_path / "q.tsv")
        assert q == {"u1": {"a", "b"}, "u2": {"c"}}

    def test_read_qrels_without_header(self, tmp_path):
        (tmp_path / "q.tsv").write_text("u1\ta\n\nu2\tc\t5.0\textra\nu1\tb\n")
        q = ev.read_qrels(tmp_path / "q.tsv")
        assert list(q.items()) == [("u1", {"a", "b"}), ("u2", {"c"})]

    @pytest.mark.parametrize("text, line, problem", [
        ("\ti1\t5.0\n", 1, "empty id"),
        ("userId\titemId\nu1\ta\nu2\t\t5.0\n", 3, "empty id"),
        ("u1\ta\nu2\ti2\0\t5.0\n", 2, "NUL"),
        ("u1\ta\nu2\n", 2, "expected user and item"),
    ], ids=["empty-user", "empty-item-after-header", "nul", "no-item"])
    def test_read_qrels_rejects_bad_lines(self, tmp_path, text, line, problem):
        (tmp_path / "q.tsv").write_text(text)
        with pytest.raises(DataError, match=f"q.tsv:{line}: .*{problem}"):
            ev.read_qrels(tmp_path / "q.tsv")

    def test_read_run_file_rejects_a_repeated_user_item_pair(self, tmp_path):
        # NDCG would count the item at both ranks: 1.63 for one relevant item
        (tmp_path / "run.tsv").write_text(
            "u1\ta\t0.9\nu2\ta\t0.5\nu1\tb\t0.8\n\nu1\ta\t0.7\n")
        with pytest.raises(DataError,
                           match="run.tsv:5: duplicate item 'a' for user 'u1'"):
            ev.read_run_file(tmp_path / "run.tsv")

    def test_read_run_file_groups_users_in_first_seen_order(self, tmp_path):
        (tmp_path / "run.tsv").write_text(
            "u2\tb\t0.5\nu1\ta\t-0.0\n\nu2\tc\t1e-300\n")
        users, items, scores = ev.read_run_file(tmp_path / "run.tsv")
        assert run_lists(users, items, scores) == [
            ("u2", [("b", 0.5), ("c", 1e-300)]), ("u1", [("a", 0.0)])]
        assert users.tolist() == ["u2", "u2", "u1"]
        assert np.signbit(scores[2])

    @pytest.mark.parametrize("text, line, problem", [
        ("u1\ta\t0.5\n\tb\t0.25\n", 2, "empty id"),
        ("u1\t\t0.5\n", 1, "empty id"),
        ("u1\ta\t0.5\nu2\tb\0\t0.25\n", 2, "NUL"),
        ("u1\ta\t0.5\nu2\tb\n", 2, "expected user/item/score"),
        ("u1\ta\t0.5\nu2\tb\thigh\n", 2, "unparsable score 'high'"),
    ], ids=["empty-user", "empty-item", "nul", "two-fields", "bad-score"])
    def test_read_run_file_rejects_bad_lines(self, tmp_path, text, line,
                                             problem):
        (tmp_path / "run.tsv").write_text(text)
        with pytest.raises(DataError, match=f"run.tsv:{line}: .*{problem}"):
            ev.read_run_file(tmp_path / "run.tsv")


class TestMetricReport:
    def test_market_without_a_weight_is_a_data_error(self):
        with pytest.raises(DataError, match="'t2'"):
            ev.metric_report({"t1": 0.5, "t2": 0.4}, {"t1": 1.0})

    def test_combines_markets(self):
        rep = ev.metric_report({"t1": 0.6, "t2": 0.4},
                               {"t1": 0.25, "t2": 0.75})
        assert rep["weighted"] == pytest.approx(0.45)
        assert rep["per_market"] == {"t1": 0.6, "t2": 0.4}
