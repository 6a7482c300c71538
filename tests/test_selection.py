"""Feature-selection stages against from-definition oracles: Mann-Whitney
rank AUC by literal pair counting, covariate-shift screening, backward CV
group elimination, and the null-importance filter."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cmrec import gbdt, selection
from cmrec.features import FeatureTable
from cmrec.util import DataError, StageError


def auc_oracle(neg, pos):
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


TRAINER = gbdt.GbdtParams(num_leaves=3, n_rounds=8, learning_rate=0.3,
                          min_data_in_leaf=5, seed=0)


def ranked_table(rng, columns, n_users=20, per_user=6, with_labels=True):
    """One positive per user; `columns` maps name -> builder(labels, rng)."""
    users, items, labels = [], [], []
    for u in range(n_users):
        pos = rng.integers(0, per_user)
        for c in range(per_user):
            users.append(f"u{u}")
            items.append(f"i{c}")
            labels.append(int(c == pos))
    labels = np.array(labels, dtype=np.int8)
    mat = np.column_stack([build(labels, rng) for build in columns.values()])
    return FeatureTable(tuple(users), tuple(items), tuple(columns),
                        mat, labels if with_labels else None)


def signal(labels, rng):
    return labels + rng.normal(0, 0.3, len(labels))


def noise(labels, rng):
    return rng.normal(size=len(labels))


class TestMidranks:
    def test_distinct_values_rank_by_position(self):
        assert selection.midranks(np.array([30.0, 10.0, 20.0])).tolist() \
            == [3.0, 1.0, 2.0]

    def test_ties_share_average_rank(self):
        assert selection.midranks(np.array([1.0, 2.0, 2.0, 3.0])).tolist() \
            == [1.0, 2.5, 2.5, 4.0]
        assert selection.midranks(np.zeros(5)).tolist() == [3.0] * 5

    @given(hnp.arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(-5, 5, allow_nan=False)))
    def test_ranks_sum_to_triangular_number(self, values):
        n = len(values)
        assert selection.midranks(values).sum() == pytest.approx(n * (n + 1) / 2)


class TestRankAuc:
    def test_hand_cases(self):
        assert selection.rank_auc([1.0, 2.0], [3.0, 4.0]) == 1.0
        assert selection.rank_auc([3.0, 4.0], [1.0, 2.0]) == 0.0
        assert selection.rank_auc([1.0, 1.0], [1.0, 1.0]) == 0.5
        assert selection.rank_auc([0.0], [0.0, 1.0]) == 0.75

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pair_counting(self, seed):
        rng = np.random.default_rng(seed)
        neg = np.round(rng.normal(size=rng.integers(5, 40)), 1)
        pos = np.round(rng.normal(0.4, 1.0, size=rng.integers(5, 40)), 1)
        assert selection.rank_auc(neg, pos) == pytest.approx(
            auc_oracle(neg, pos), abs=1e-12)

    @given(hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(-3, 3, allow_nan=False)),
           hnp.arrays(np.float64, st.integers(1, 30),
                      elements=st.floats(-3, 3, allow_nan=False)))
    def test_antisymmetric_under_swap(self, a, b):
        assert selection.rank_auc(a, b) == pytest.approx(
            1.0 - selection.rank_auc(b, a), abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(DataError):
            selection.rank_auc([], [1.0])
        with pytest.raises(DataError):
            selection.rank_auc([1.0], [])


class TestCovariateShift:
    def tables(self, rng):
        valid = ranked_table(rng, {"stable__f": noise, "moved__f": noise})
        test = ranked_table(rng, {"stable__f": noise,
                                  "moved__f": lambda y, r: noise(y, r) + 3.0},
                            with_labels=False)
        return valid, test

    def test_shifted_column_dropped_stable_kept(self, rng):
        valid, test = self.tables(rng)
        records = {r["name"]: r
                   for r in selection.covariate_shift_test(valid, test, 0.10)}
        assert records["moved__f"]["decision"] == "drop"
        assert records["moved__f"]["reason"] == "covariate_shift"
        assert records["moved__f"]["auc_shift"] > 0.9
        assert records["stable__f"]["decision"] == "keep"
        assert abs(records["stable__f"]["auc_shift"] - 0.5) <= 0.10

    def test_threshold_is_a_band_around_half(self, rng):
        valid, test = self.tables(rng)
        records = {r["name"]: r
                   for r in selection.covariate_shift_test(valid, test, 0.49)}
        assert records["moved__f"]["decision"] == "keep"

    def test_column_mismatch_rejected(self, rng):
        valid = ranked_table(rng, {"a__f": noise})
        test = ranked_table(rng, {"b__f": noise}, with_labels=False)
        with pytest.raises(DataError, match="columns"):
            selection.covariate_shift_test(valid, test)


class TestDefaultGroups:
    def test_family_is_prefix_before_first_dunder(self):
        cols = ("item_cf__aa__s1-t1", "item_cf__aa__s1-t1__missing",
                "item_cf__bb__t1", "stat__user_mean_rating__all",
                "ext_emb__mean_cos")
        groups = dict(selection.default_groups(cols))
        assert set(groups) == {"item_cf", "stat", "ext_emb"}
        assert groups["item_cf"] == ("item_cf__aa__s1-t1",
                                     "item_cf__aa__s1-t1__missing",
                                     "item_cf__bb__t1")
        assert list(dict(selection.default_groups(cols))) \
            == sorted({"item_cf", "stat", "ext_emb"})


class TestCvElimination:
    def test_exact_duplicate_group_dropped_for_free(self, rng):
        table = ranked_table(rng, {"sig__f": signal})
        dup = table.with_columns(["dup__f"], table.values[:, :1].copy(),
                                 {"dup__f": {}})
        records = selection.heuristic_cv_elimination(
            dup, selection.default_groups(dup.columns), TRAINER, folds=4)
        by_name = {r["name"]: r for r in records}
        assert by_name["dup__f"]["decision"] == "drop"
        assert by_name["dup__f"]["cv_delta"] == 0.0
        assert by_name["sig__f"]["reason"] == "last_group_guard"

    def test_informative_group_kept_noise_dropped(self, rng):
        table = ranked_table(rng, {"sig__f": signal, "junk__f": noise})
        groups = [("sig", ("sig__f",)), ("junk", ("junk__f",))]
        records = {r["name"]: r for r in selection.heuristic_cv_elimination(
            table, groups, TRAINER, folds=4)}
        assert records["sig__f"]["decision"] == "keep"
        assert records["sig__f"]["cv_delta"] > 0
        assert records["junk__f"]["decision"] == "drop"

    def test_epsilon_tolerates_small_losses(self, rng):
        table = ranked_table(rng, {"sig__f": signal, "junk__f": noise})
        groups = [("sig", ("sig__f",)), ("junk", ("junk__f",))]
        records = {r["name"]: r for r in selection.heuristic_cv_elimination(
            table, groups, TRAINER, folds=4, epsilon=1.0)}
        # a full NDCG point of tolerance lets everything except the
        # guarded last group go
        assert records["sig__f"]["decision"] == "drop"
        assert records["junk__f"]["reason"] == "last_group_guard"

    def test_columns_outside_groups_pass_through(self, rng):
        table = ranked_table(rng, {"sig__f": signal, "free__f": noise})
        records = {r["name"]: r for r in selection.heuristic_cv_elimination(
            table, [("sig", ("sig__f",))], TRAINER, folds=4)}
        assert records["free__f"]["decision"] == "keep"
        assert records["free__f"]["reason"] == "outside_groups"
        assert records["free__f"]["cv_delta"] is None
        # the ungrouped column keeps the candidate set nonempty, so the
        # remaining group is evaluated on its merits rather than guarded
        assert records["sig__f"]["decision"] == "keep"
        assert records["sig__f"]["cv_delta"] > 0

    def test_unlabeled_table_rejected(self, rng):
        table = ranked_table(rng, {"sig__f": signal}, with_labels=False)
        with pytest.raises(DataError, match="label"):
            selection.heuristic_cv_elimination(
                table, selection.default_groups(table.columns), TRAINER, 4)


class TestNullImportance:
    def test_signal_kept_constant_and_noise_dropped(self, rng):
        table = ranked_table(rng, {
            "sig__f": signal,
            "flat__f": lambda y, r: np.zeros(len(y)),
            "junk__f": noise,
        })
        records = {r["name"]: r for r in selection.null_importance_select(
            table, TRAINER, n_shuffles=12, seed=5)}
        assert records["sig__f"]["decision"] == "keep"
        assert records["sig__f"]["actual_gain"] > records["sig__f"]["null_gain_p75"]
        # a constant column can never split, whatever the labels say
        assert records["flat__f"]["decision"] == "drop"
        assert records["flat__f"]["actual_gain"] == 0.0
        assert records["junk__f"]["decision"] == "drop"
        assert records["junk__f"]["reason"] == "null_importance"

    def test_shuffle_count_validated(self, rng):
        table = ranked_table(rng, {"sig__f": signal})
        with pytest.raises(ValueError):
            selection.null_importance_select(table, TRAINER, n_shuffles=0)

    def test_unlabeled_table_rejected(self, rng):
        table = ranked_table(rng, {"sig__f": signal}, with_labels=False)
        with pytest.raises(DataError, match="label"):
            selection.null_importance_select(table, TRAINER, n_shuffles=2)


class TestRunSelection:
    def build_tables(self, rng):
        valid = ranked_table(rng, {
            "sig__a": signal,
            "shift__b": noise,
            "flat__d": lambda y, r: np.zeros(len(y)),
        })
        valid = valid.with_columns(["dupsig__c"], valid.values[:, :1].copy(),
                                   {"dupsig__c": {}})
        test = ranked_table(rng, {
            "sig__a": noise,
            "shift__b": lambda y, r: noise(y, r) + 4.0,
            "flat__d": lambda y, r: np.zeros(len(y)),
        }, with_labels=False)
        test = test.with_columns(["dupsig__c"],
                                 rng.normal(size=(test.n_rows, 1)),
                                 {"dupsig__c": {}})
        return valid, test

    def test_stages_fire_in_order_and_merge_into_one_report(self, rng):
        valid, test = self.build_tables(rng)
        kept, report = selection.run_selection(
            valid, test, TRAINER, folds=4, shift_threshold=0.10,
            cv_epsilon=0.0, n_shuffles=12, seed=9)
        assert kept == ["sig__a"]
        assert [r["name"] for r in report] == list(valid.columns)
        by_name = {r["name"]: r for r in report}
        assert by_name["shift__b"]["reason"] == "covariate_shift"
        assert by_name["shift__b"]["cv_delta"] is None  # never reached CV
        assert by_name["dupsig__c"]["reason"] == "cv_elimination"
        assert by_name["dupsig__c"]["cv_delta"] == 0.0
        assert by_name["flat__d"]["reason"] == "cv_elimination"
        assert by_name["sig__a"]["decision"] == "keep"
        assert by_name["sig__a"]["auc_shift"] is not None
        assert by_name["sig__a"]["actual_gain"] is not None

    def test_every_feature_shifted_is_a_stage_error(self, rng):
        valid = ranked_table(rng, {"a__f": noise, "b__f": noise})
        test = ranked_table(rng, {"a__f": lambda y, r: noise(y, r) + 4.0,
                                  "b__f": lambda y, r: noise(y, r) - 4.0},
                            with_labels=False)
        with pytest.raises(StageError, match="covariate shift"):
            selection.run_selection(valid, test, TRAINER, folds=4)

    def test_nothing_informative_is_a_stage_error(self, rng):
        valid = ranked_table(rng, {
            "flat__a": lambda y, r: np.zeros(len(y)),
            "flat__b": lambda y, r: np.ones(len(y)),
        })
        test = ranked_table(rng, {
            "flat__a": lambda y, r: np.zeros(len(y)),
            "flat__b": lambda y, r: np.ones(len(y)),
        }, with_labels=False)
        with pytest.raises(StageError, match="dropped every feature"):
            selection.run_selection(valid, test, TRAINER, folds=4,
                                    n_shuffles=4)

    def test_fixed_seed_reproduces_selection(self, rng):
        valid, test = self.build_tables(rng)
        args = dict(trainer=TRAINER, folds=4, shift_threshold=0.10,
                    cv_epsilon=0.0, n_shuffles=8, seed=3)
        kept1, rep1 = selection.run_selection(valid, test, **args)
        kept2, rep2 = selection.run_selection(valid, test, **args)
        assert kept1 == kept2 and rep1 == rep2


class TestReportFiles:
    RECORDS = [
        {"name": "sig__a", "auc_shift": 0.5125, "cv_delta": 0.03,
         "actual_gain": 1.5, "null_gain_p75": 0.2,
         "decision": "keep", "reason": ""},
        {"name": "shift__b", "auc_shift": 0.91, "cv_delta": None,
         "actual_gain": None, "null_gain_p75": None,
         "decision": "drop", "reason": "covariate_shift"},
    ]

    def test_tsv_layout_and_json_round_trip(self, tmp_path):
        selection.write_selection_report(self.RECORDS, tmp_path / "r.tsv",
                                         tmp_path / "r.json")
        lines = (tmp_path / "r.tsv").read_text().splitlines()
        assert lines[0].split("\t") == list(selection.REPORT_FIELDS)
        first = dict(zip(selection.REPORT_FIELDS, lines[1].split("\t")))
        assert first["name"] == "sig__a"
        assert float(first["auc_shift"]) == 0.5125
        second = dict(zip(selection.REPORT_FIELDS, lines[2].split("\t")))
        assert second["cv_delta"] == ""  # None renders empty
        assert json.loads((tmp_path / "r.json").read_text()) == self.RECORDS

    def test_kept_list_round_trip(self, tmp_path):
        selection.write_kept(["b__x", "a__y"], tmp_path / "kept.txt")
        assert selection.read_kept(tmp_path / "kept.txt") == ["b__x", "a__y"]

    def test_empty_kept_file_rejected(self, tmp_path):
        (tmp_path / "kept.txt").write_text("\n")
        with pytest.raises(DataError, match="no features"):
            selection.read_kept(tmp_path / "kept.txt")

    def test_missing_kept_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            selection.read_kept(tmp_path / "absent.txt")
