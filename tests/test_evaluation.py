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


class TestNdcg:
    def test_relevant_at_rank_1(self):
        run = [("u", [("a", 9.0), ("b", 1.0)])]
        _, mean = ev.ndcg_at_k(run, {"u": {"a"}})
        assert mean == pytest.approx(1.0)

    def test_relevant_at_rank_2(self):
        run = [("u", [("b", 9.0), ("a", 1.0)])]
        _, mean = ev.ndcg_at_k(run, {"u": {"a"}})
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
            _, got = ev.ndcg_at_k(run, {"u": relevant})
            want = ndcg_oracle([i for i, _ in ranked], relevant)
            assert got == pytest.approx(want, abs=1e-12)

    def test_mean_over_qrel_users_only(self):
        run = [("u1", [("a", 2.0)]), ("u2", [("a", 2.0)]),
               ("u3", [("b", 1.0)])]
        per_user, mean = ev.ndcg_at_k(run, {"u1": {"a"}, "u3": {"a"}})
        assert set(per_user) == {"u1", "u3"}
        assert mean == pytest.approx(0.5)

    def test_qrel_user_missing_from_run_is_error(self):
        with pytest.raises(DataError, match="ghost"):
            ev.ndcg_at_k([("u", [("a", 1.0)])], {"ghost": {"a"}})

    def test_truncation_at_k(self):
        ranked = [(f"i{j}", float(-j)) for j in range(20)]
        run = [("u", ranked)]
        _, at_10 = ev.ndcg_at_k(run, {"u": {"i15"}}, k=10)
        assert at_10 == 0.0
        _, at_20 = ev.ndcg_at_k(run, {"u": {"i15"}}, k=20)
        assert at_20 > 0.0


class TestRankCandidates:
    def test_sorts_by_score_then_item(self):
        out = ev.rank_candidates(["b", "a", "c"], [1.0, 1.0, 2.0])
        assert [i for i, _ in out] == ["c", "a", "b"]

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
    def test_scores_nonincreasing(self, scores):
        items = [f"i{j}" for j in range(len(scores))]
        out = ev.rank_candidates(items, scores)
        vals = [s for _, s in out]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def group_ranked_run_oracle(users, items, scores):
    """The per-user dict and sort that group_ranked_run replaced."""
    by_user: dict = {}
    for user, item, score in zip(users, items, scores, strict=True):
        user_items, user_scores = by_user.setdefault(user, ([], []))
        user_items.append(item)
        user_scores.append(float(score))
    return [(u, ev.rank_candidates(its, vals))
            for u, (its, vals) in by_user.items()]


class TestGroupRankedRun:
    def test_users_in_first_seen_order_items_ranked(self):
        run = ev.group_ranked_run(["b", "a", "b", "a", "b"],
                                  ["i1", "i2", "i3", "i4", "i0"],
                                  np.array([0.5, 0.1, 0.9, 0.1, 0.5]))
        assert run == [("b", [("i3", 0.9), ("i0", 0.5), ("i1", 0.5)]),
                       ("a", [("i2", 0.1), ("i4", 0.1)])]
        assert all(type(s) is float for _, ranked in run for _, s in ranked)

    @pytest.mark.parametrize("pool", [
        None, [1.0, 0.5, -2.0], [0.0, -0.0, 1e-300, -1e-300, 0.0]])
    def test_matches_the_oracle(self, rng, pool):
        # pool: scores drawn from few values, so ties (and ties of -0.0
        # with 0.0) are common; None: distinct normal scores. Some items
        # differ only in trailing NULs, which numpy strings do not keep.
        for n in (1, 2, 17, 400):
            users = [f"u{k}" for k in rng.integers(0, 9, n)]
            items = [f"i{k // 3}" + "\0" * (k % 3)
                     for k in rng.integers(0, 60, n)]
            scores = (rng.normal(size=n) if pool is None
                      else rng.choice(pool, size=n))
            got = ev.group_ranked_run(users, items, scores)
            want = group_ranked_run_oracle(users, items, scores)
            assert got == want
            signs = [[np.signbit(s) for _, s in ranked] for _, ranked in got]
            assert signs == [[np.signbit(s) for _, s in ranked]
                             for _, ranked in want]

    def test_empty_run(self):
        assert ev.group_ranked_run([], [], np.zeros(0)) == []

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
        ev.emit_run_file(run, tmp_path / "run.tsv")
        got = ev.read_run_file(tmp_path / "run.tsv")
        assert [(u, [i for i, _ in ranked]) for u, ranked in got] == \
            [("u1", ["a", "b"]), ("u2", ["c"])]

    def test_six_decimal_scores(self, tmp_path):
        ev.emit_run_file([("u", [("a", 1 / 3)])], tmp_path / "run.tsv")
        assert (tmp_path / "run.tsv").read_text() == "u\ta\t0.333333\n"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "run.tsv"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(DataError, match="cannot write run file"):
            ev.emit_run_file([("u", [("a", 0.5)])], target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.tsv"]
        assert target.is_dir()

    def test_read_qrels_with_header(self, tmp_path):
        (tmp_path / "q.tsv").write_text(
            "userId\titemId\trating\nu1\ta\t5.0\nu1\tb\t5.0\nu2\tc\t5.0\n")
        q = ev.read_qrels(tmp_path / "q.tsv")
        assert q == {"u1": {"a", "b"}, "u2": {"c"}}


class TestMetricReport:
    def test_combines_markets(self):
        rep = ev.metric_report({"t1": 0.6, "t2": 0.4},
                               {"t1": 0.25, "t2": 0.75})
        assert rep["weighted"] == pytest.approx(0.45)
        assert rep["per_market"] == {"t1": 0.6, "t2": 0.4}

    def test_quantiles_present_when_per_user_given(self):
        rep = ev.metric_report({"t1": 0.5}, {"t1": 1.0},
                               per_user={"t1": {"u1": 0.2, "u2": 0.8}})
        assert "per_user_quantiles" in rep
        assert rep["per_user_quantiles"]["t1"]["p50"] == pytest.approx(0.5)
