"""Feature assembly: plan execution over run files, the on-disk column
cache, leakage rules for combination matrices, global statistics, and the
correlation report."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cmrec import embeddings as emb
from cmrec import features, memory_cf, util
from cmrec.config import PipelineConfig
from cmrec.data import (CombinationSpec, IdEncoder, Interactions, RunFile,
                        load_run)
from cmrec.features import (Catalog, FeatureTable, PlanContext, ScorerSpec,
                            combination_matrix, default_combinations,
                            empty_table, external_embedding_features,
                            feature_correlation, global_statistic_features,
                            read_table, run_plan, write_table)
from cmrec.util import ConfigError, DataError, read_artifact, write_tsv

from test_data import to_dense


RAW_ROWS = [
    # (user, item, rating, market, split)
    ("a", "i0", 5.0, "t1", "train"),
    ("a", "i1", 3.0, "t1", "train"),
    ("a", "i2", 4.0, "t1", "valid_qrel"),
    ("a", "i4", 5.0, "t1", "test_qrel"),
    ("b", "i1", 4.0, "t1", "train"),
    ("b", "i2", 2.0, "t1", "train_5core"),
    ("c", "i0", 5.0, "s1", "train"),
    ("c", "i2", 4.0, "s1", "train"),
    ("c", "i3", 3.0, "s1", "train"),
    ("d", "i1", 5.0, "s1", "train"),
    ("d", "i3", 4.0, "s1", "valid_qrel"),
]

def run_of(entries):
    """A RunFile of (user, candidates) entries."""
    return RunFile.from_lists([u for u, _ in entries], [c for _, c in entries])


def entries_of(run):
    """The (user, candidates tuple) entries of a RunFile."""
    return tuple(zip(run.users.tolist(),
                     map(tuple, run.candidate_lists())))


def pairs_of(run):
    """The (user, candidate) pairs of a RunFile, in order."""
    return [(u, c) for u, cands in entries_of(run) for c in cands]


RUN_ENTRIES = (("a", ("i0", "i1", "i2", "i3")),
               ("b", ("i1", "i2", "i4")),
               ("ghost", ("i0", "i1")))
RUN = run_of(RUN_ENTRIES)


# column keys as long as prerank's: a cache file is named by the first 32
# hex digits of its key
KEY = "0123456789abcdef" * 4
OTHER_KEY = "fedcba9876543210" * 4


def plan_run(plan, ctx, run, key=KEY):
    """run_plan over a RunFile's pairs, encoded by ctx's encoders, as the
    run's table, without the provenance: (table, failures). With a
    cache_dir the columns are stored under key."""
    names, values, _, failures = run_plan(
        plan, ctx, *features.encode_run(run, ctx.users, ctx.items),
        None if ctx.cache_dir is None else key)
    return empty_table(run).with_columns(names, values), failures


def count_calls(monkeypatch, name="item_cf"):
    """Counts of the fit and score calls of scorer name, by kind."""
    counts = {"fit": 0, "score": 0}
    scorer = features.SCORERS[name]

    def counting(kind, inner):
        def call(*args):
            counts[kind] += 1
            return inner(*args)
        return call

    monkeypatch.setitem(features.SCORERS, name, dataclasses.replace(
        scorer, fit=counting("fit", scorer.fit),
        score=counting("score", scorer.score)))
    return counts


def count_parses(monkeypatch):
    """The argument tuples of every features._parse_values call, which
    read_table makes when it parses a table's values."""
    calls = []
    real = features._parse_values

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(features, "_parse_values", counting)
    return calls


def run_statistics(ctx, run, target):
    """global_statistic_features of a RunFile's pairs."""
    return global_statistic_features(
        ctx, *features.encode_run(run, ctx.users, ctx.items), target)


def run_external(vectors, run, matrix, ctx):
    """external_embedding_features of a RunFile's pairs."""
    return external_embedding_features(
        vectors, *features.encode_run(run, ctx.users, ctx.items), matrix, ctx)


def lookup(encoder, value):
    """The id of value, -1 when the encoder does not know it."""
    return int(encoder.lookup([value])[0])


def every_id(users, items):
    """Fit ids of every user and item the encoders know."""
    return np.arange(len(users)), np.arange(len(items))


def tiny_context(cache_dir=None):
    """A context over RAW_ROWS whose fits cover every id it encodes."""
    users = IdEncoder.fit([r[0] for r in RAW_ROWS] + RUN.users.tolist())
    items = IdEncoder.fit([r[1] for r in RAW_ROWS] + RUN.candidates.tolist())
    user, item, rating, market, split = zip(*RAW_ROWS)
    rows = Interactions(users.lookup(user), items.lookup(item),
                        rating, market, split)
    return PlanContext(rows=rows, users=users, items=items,
                       fit_ids=every_id(users, items), cache_dir=cache_dir)


def spec_for(scorer="item_cf", params=None, markets=("s1", "t1"), target="t1",
             **combo_kw):
    if params is None:
        params = {} if scorer == "bigraph" else {"top_k": 10}
    return ScorerSpec(scorer, params,
                      CombinationSpec(target, tuple(sorted(markets)),
                                      **combo_kw))


class TestFeatureNames:
    def test_name_encodes_scorer_params_and_combination(self):
        spec = spec_for("swing", {"alpha": 0.5, "top_k": 20})
        name = spec.feature_name
        scorer, digest, combo = name.split("__")
        assert scorer == "swing"
        assert combo == "s1-t1"
        assert len(digest) == 8

    def test_param_order_does_not_change_the_name(self):
        a = spec_for("swing", {"alpha": 0.5, "top_k": 20})
        b = spec_for("swing", {"top_k": 20, "alpha": 0.5})
        assert a.feature_name == b.feature_name

    def test_different_params_different_name(self):
        assert (spec_for(params={"top_k": 10}).feature_name
                != spec_for(params={"top_k": 50}).feature_name)

    def test_unknown_scorer_rejected(self):
        with pytest.raises(ConfigError, match="scorer"):
            spec_for("matrix_factorization")


class TestDefaultCombinations:
    MARKETS = ("s1", "s2", "s3", "t1", "t2")

    def test_ten_combinations_for_t1(self):
        combos = default_combinations("t1", self.MARKETS, targets=("t1", "t2"))
        ids = [c.combo_id for c in combos]
        assert ids == ["s1-s2-s3-t1-t2", "s1-s2-s3-t1", "t1", "t1-t2",
                       "s1-s3-t1", "s1-s2-t1", "s2-s3-t1",
                       "s1-t1", "s2-t1", "s3-t1"]
        assert all("t1" in c.markets for c in combos)
        assert all(c.target == "t1" for c in combos)
        assert all(c.exclude_valid_of_target for c in combos)

    def test_t2_combinations_mirror_t1(self):
        combos = default_combinations("t2", self.MARKETS, targets=("t1", "t2"))
        assert len(combos) == 10
        assert all("t2" in c.markets for c in combos)
        assert {c.combo_id for c in combos} & {"t2", "t1-t2", "s1-s2-s3-t1-t2"}

    def test_unbalanced_market_split_rejected(self):
        # checked at config load, before any combination is built
        with pytest.raises(ConfigError, match="3 source"):
            PipelineConfig.from_dict({"data_dir": "d", "workspace": "w",
                                      "markets": ["s1", "s2", "t1"],
                                      "targets": ["t1"]})


class TestCombinationMatrix:
    def test_target_valid_positives_never_enter(self):
        ctx = tiny_context()
        m = combination_matrix(ctx, CombinationSpec("t1", ("s1", "t1")))
        dense = to_dense(m)
        a, i2 = lookup(ctx.users, "a"), lookup(ctx.items, "i2")
        assert dense[a, i2] == 0.0  # t1 valid positive excluded
        d, i3 = lookup(ctx.users, "d"), lookup(ctx.items, "i3")
        assert dense[d, i3] == 4.0  # source-market valid rows stay

    def test_test_positives_never_enter_even_unguarded(self):
        ctx = tiny_context()
        spec = CombinationSpec("t1", ("s1", "t1"), exclude_valid_of_target=False)
        dense = to_dense(combination_matrix(ctx, spec))
        a = lookup(ctx.users, "a")
        assert dense[a, lookup(ctx.items, "i2")] == 4.0  # guard disabled
        assert dense[a, lookup(ctx.items, "i4")] == 0.0  # test rows always out

    def test_markets_outside_combination_filtered(self):
        ctx = tiny_context()
        dense = to_dense(combination_matrix(ctx, CombinationSpec("t1", ("t1",))))
        c = lookup(ctx.users, "c")
        assert np.all(dense[c] == 0.0)
        assert dense[lookup(ctx.users, "a"), lookup(ctx.items, "i0")] == 5.0


def _per_spec_columns(specs):
    """(name, column) of every spec planned on its own."""
    for spec in specs:
        table, _ = plan_run([spec], tiny_context(), RUN)
        yield from ((name, table.column(name)) for name in table.columns)


class TestRunPlan:
    def test_rows_follow_run_file_order(self):
        ctx = tiny_context()
        table, failures = plan_run([spec_for()], ctx, RUN)
        assert failures == []
        assert list(zip(table.users, table.items)) == pairs_of(RUN)
        name = spec_for().feature_name
        assert table.columns == (name, f"{name}__missing")

    def test_item_cf_column_matches_direct_scoring(self):
        ctx = tiny_context()
        spec = spec_for(params={"top_k": 10})
        table, _ = plan_run([spec], ctx, RUN)
        matrix = combination_matrix(ctx, spec.combination)
        sims = memory_cf.item_cosine_similarity(
            matrix, 10, rows=np.arange(matrix.n_items))
        want, want_miss = [], []
        for user, cands in RUN_ENTRIES:
            u = lookup(ctx.users, user)
            c_ids = np.array([lookup(ctx.items, c) for c in cands])
            scores, cold = memory_cf.score_candidates(
                sims, matrix, np.full(len(c_ids), u), c_ids)
            want.extend(scores)
            want_miss.extend(cold.astype(float))
        assert np.array_equal(table.column(spec.feature_name), want)
        assert np.array_equal(table.column(f"{spec.feature_name}__missing"),
                              want_miss)

    def test_unknown_user_flagged_missing_not_fatal(self):
        ctx = tiny_context()
        spec = spec_for()
        table, failures = plan_run([spec], ctx, RUN)
        assert failures == []
        miss = table.column(f"{spec.feature_name}__missing")
        ghost_rows = [r for r, u in enumerate(table.users) if u == "ghost"]
        assert all(miss[r] == 1.0 for r in ghost_rows)

    def test_failing_scorer_recorded_and_plan_continues(self):
        ctx = tiny_context()
        good = spec_for()
        bad = spec_for("swing", {"alpha": -1.0})
        table, failures = plan_run([good, bad], ctx, RUN)
        assert good.feature_name in table.columns
        assert bad.feature_name not in table.columns
        assert len(failures) == 1
        assert failures[0]["feature"] == bad.feature_name
        assert "alpha" in failures[0]["error"]

    def test_fit_ids_that_miss_a_run_user_fail_the_scorer(self):
        ctx = tiny_context()
        user_ids, item_ids = features.encode_run(RUN, ctx.users, ctx.items)
        a = lookup(ctx.users, "a")
        users, items = features.known_ids(user_ids, item_ids)
        ctx = dataclasses.replace(ctx, fit_ids=(users[users != a], items))
        good, bad = spec_for(), spec_for("user_cf")
        table, failures = plan_run([good, bad], ctx, RUN)
        assert good.feature_name in table.columns
        assert bad.feature_name not in table.columns
        assert failures == [{"feature": bad.feature_name, "error":
                             f"ValueError: entity {a} has no fitted "
                             f"neighbor list"}]

    def test_one_values_block_per_plan(self):
        specs = [spec_for(), spec_for("swing"), spec_for("llr"),
                 spec_for(markets=("t1",))]
        want = list(_per_spec_columns(specs))
        ctx = tiny_context()
        names, values, _, failures = run_plan(
            specs, ctx, *features.encode_run(RUN, ctx.users, ctx.items))
        assert failures == []
        assert values.shape == (len(pairs_of(RUN)), len(names))
        table = empty_table(RUN).with_columns(names, values)
        for name, col in want:
            assert np.array_equal(table.column(name).view(np.int64),
                                  col.view(np.int64))

    def test_duplicate_feature_names_rejected(self):
        ctx = tiny_context()
        with pytest.raises(ConfigError, match="duplicate"):
            plan_run([spec_for(), spec_for()], ctx, RUN)

    def test_provenance_records_combination_and_guard(self, tmp_path):
        ctx = tiny_context()
        spec = spec_for(params={"top_k": 5})
        names, values, provenance, _ = run_plan(
            [spec], ctx, *features.encode_run(RUN, ctx.users, ctx.items))
        assert list(provenance) == names
        table = empty_table(RUN).with_columns(names, values)
        catalog = tmp_path / "features.catalog.json"
        write_table(table, tmp_path / "features.tsv", catalog, provenance)
        provenance = json.loads(catalog.read_text())["provenance"]
        prov = provenance[spec.feature_name]
        assert prov["kind"] == "scorer"
        assert prov["scorer"] == "item_cf"
        assert prov["params"] == {"top_k": 5}
        assert prov["combination"] == ["s1", "t1"]
        assert prov["excludes_target_valid"] is True
        miss = provenance[f"{spec.feature_name}__missing"]
        assert miss["kind"] == "missing_indicator"


class TestScorerRegistry:
    def test_every_scorer_scores_every_run_pair(self):
        # "stranger" is unknown to the encoders: missing, not fatal
        ctx = tiny_context()
        run = run_of(RUN_ENTRIES + (("stranger", ("i0",)),))
        small = {"dim": 4, "epochs": 1, "walks_per_node": 1, "walk_length": 4,
                 "batch_size": 8, "seed": 1}
        for name, scorer in features.SCORERS.items():
            known = {f.name for f in dataclasses.fields(scorer.params)}
            params = {k: v for k, v in (small if scorer.seeded
                                        else {"top_k": 10}).items()
                      if k in known}
            spec = spec_for(name, params)
            table, failures = plan_run([spec], ctx, run)
            assert failures == [], name
            assert list(zip(table.users, table.items)) == pairs_of(run)
            miss = table.column(f"{spec.feature_name}__missing")
            assert set(miss) <= {0.0, 1.0}
            assert miss[-1] == 1.0, name

    @pytest.mark.parametrize("scorer, kernel", [
        ("item_cf", "score_candidates"), ("swing", "score_candidates"),
        ("llr", "score_candidates"),
        ("user_cf", "score_candidates_user_based"),
        ("bigraph", "score_candidates_bigraph")])
    def test_memory_scorers_score_the_whole_run_in_one_call(
            self, monkeypatch, scorer, kernel):
        calls = []
        inner = getattr(memory_cf, kernel)

        def spy(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(memory_cf, kernel, spy)
        ctx = tiny_context()
        plan_run([spec_for(scorer)], ctx, RUN)
        [args] = calls
        users, items = features.encode_run(RUN, ctx.users, ctx.items)
        assert np.array_equal(args[-2], users)
        assert np.array_equal(args[-1], items)

    def test_embedding_adapter_calls_once_per_spec_and_run(
            self, monkeypatch):
        calls = []
        inner = emb.embedding_score

        def spy(table, users, candidates, metric):
            calls.append((np.asarray(users).tolist(),
                          np.asarray(candidates).tolist()))
            return inner(table, users, candidates, metric=metric)

        monkeypatch.setattr(emb, "embedding_score", spy)
        ctx = tiny_context()
        run = run_of(RUN_ENTRIES + (("stranger", ("i0",)),))
        spec = spec_for("word2vec", {"dim": 4, "epochs": 1, "seed": 1})
        table, _ = plan_run([spec], ctx, run)
        assert calls == [(
            [lookup(ctx.users, u) for u, _ in pairs_of(run)],
            [lookup(ctx.items, c) for _, c in pairs_of(run)])]
        assert table.column(f"{spec.feature_name}__missing")[-1] == 1.0

    def test_node2vec_walks_and_trains_on_one_typed_params(self, monkeypatch):
        got = []

        def spy(inner):
            def call(data, params, *rest):
                got.append(params)
                return inner(data, params, *rest)
            return call

        for name in ("generate_walks", "train_skipgram"):
            monkeypatch.setattr(emb, name, spy(getattr(emb, name)))
        spec = spec_for("node2vec_dfs", {"dim": 4, "epochs": 1, "seed": 1,
                                         "walks_per_node": 1, "walk_length": 4})
        _, failures = plan_run([spec], tiny_context(), RUN)
        assert failures == []
        [walks, skipgram] = got
        assert walks is skipgram
        assert walks == features.Node2VecDfsParams(
            dim=4, epochs=1, seed=1, walks_per_node=1, walk_length=4)

    def test_unknown_param_is_a_per_spec_failure(self):
        table, failures = plan_run([spec_for(params={"topk": 5})],
                                   tiny_context(), RUN)
        assert table.columns == ()
        [failure] = failures
        assert failure["error"] == ("ConfigError: unknown config keys in "
                                    "scorer 'item_cf' params: ['topk']")

    def test_seeded_entries_are_the_embedding_scorers(self):
        assert [n for n, s in features.SCORERS.items() if s.seeded] == [
            "word2vec", "node2vec_dfs", "node2vec_bfs", "lightgcn"]

    def test_unknown_candidate_item_is_a_per_spec_failure(self):
        ctx = tiny_context()
        run = run_of((("a", ("i0", "nobody_knows")),))
        good, other = spec_for(), spec_for("bigraph", {})
        table, failures = plan_run([good, other], ctx, run)
        assert [f["feature"] for f in failures] == [good.feature_name,
                                                    other.feature_name]
        assert all(f["error"] == "DataError: unknown candidate in 1 pairs"
                   for f in failures)
        assert table.columns == ()

    def test_bigraph_column_matches_direct_lookup(self):
        ctx = tiny_context()
        spec = spec_for("bigraph", {"retain_seed": False})
        table, _ = plan_run([spec], ctx, RUN)
        matrix = combination_matrix(ctx, spec.combination)
        want, want_miss = [], []
        for user, cands in RUN_ENTRIES:
            nz, mass = memory_cf.bigraph_scores(
                matrix, lookup(ctx.users, user), retain_seed=False)
            by_item = dict(zip(nz.tolist(), mass.tolist()))
            want += [by_item.get(lookup(ctx.items, c), 0.0) for c in cands]
            want_miss += [float(len(nz) == 0)] * len(cands)
        assert table.column(spec.feature_name).tolist() == want
        assert table.column(f"{spec.feature_name}__missing").tolist() == want_miss


def cached_column(cache_dir, spec):
    """The one cache file of spec's column."""
    [path] = cache_dir.glob(f"{spec.feature_name}.*.npy")
    return path


class TestColumnCache:
    def test_second_run_reads_cache_without_refitting(self, tmp_path,
                                                       monkeypatch):
        first = tiny_context(cache_dir=tmp_path)
        spec = spec_for()
        table1, _ = plan_run([spec], first, RUN)
        assert cached_column(tmp_path, spec).exists()

        counts = count_calls(monkeypatch)
        table2, _ = plan_run([spec], tiny_context(cache_dir=tmp_path), RUN)
        assert counts == {"fit": 0, "score": 0}  # nothing was computed
        assert np.array_equal(table1.values, table2.values)

    def test_cache_dir_without_a_key_is_an_error(self, tmp_path):
        ctx = tiny_context(cache_dir=tmp_path)
        with pytest.raises(ValueError, match="needs a key"):
            run_plan([spec_for()], ctx,
                     *features.encode_run(RUN, ctx.users, ctx.items))
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_cache_recomputed(self, tmp_path):
        ctx = tiny_context(cache_dir=tmp_path)
        spec = spec_for()
        table1, _ = plan_run([spec], ctx, RUN)
        cached_column(tmp_path, spec).write_text("garbage\n")
        table2, failures = plan_run([spec], tiny_context(cache_dir=tmp_path), RUN)
        assert failures == []
        assert np.array_equal(table1.values, table2.values)

    def test_cache_for_other_run_file_ignored(self, tmp_path):
        spec = spec_for()
        plan_run([spec], tiny_context(cache_dir=tmp_path), RUN)
        other = run_of((("b", ("i0", "i3")),))
        table, failures = plan_run([spec], tiny_context(cache_dir=tmp_path),
                                   other)
        assert failures == []
        assert list(zip(table.users, table.items)) == pairs_of(other)

    @pytest.mark.parametrize("stored", [
        np.zeros((3, len(pairs_of(RUN)))),
        np.zeros((2, len(pairs_of(RUN))), dtype=np.float32),
        np.zeros(2 * len(pairs_of(RUN))),
        np.zeros((2, len(pairs_of(RUN))), dtype=np.int64),
    ])
    def test_wrong_shape_or_dtype_recomputed(self, tmp_path, monkeypatch,
                                             stored):
        spec = spec_for()
        table1, _ = plan_run([spec], tiny_context(cache_dir=tmp_path), RUN)
        path = cached_column(tmp_path, spec)
        features._store(tmp_path, spec.feature_name, KEY, [stored])
        counts = count_calls(monkeypatch)
        table2, failures = plan_run([spec], tiny_context(cache_dir=tmp_path),
                                    RUN)
        assert failures == [] and counts == {"fit": 1, "score": 1}
        assert np.array_equal(table1.values, table2.values)
        assert cached_column(tmp_path, spec) == path
        [reloaded] = features._fetch(tmp_path, spec.feature_name, KEY,
                                     [("d", 2)])
        assert np.array_equal(reloaded.T, table1.values)

    @pytest.mark.parametrize("key", [OTHER_KEY, KEY[:32] + OTHER_KEY[32:]],
                             ids=["copied under another key",
                                  "a key with the same file name"])
    def test_a_column_file_is_read_only_under_its_own_key(self, tmp_path,
                                                          monkeypatch, key):
        # a right-shaped float64 file of the same pairs, under key's name
        spec = spec_for()
        plan_run([spec], tiny_context(cache_dir=tmp_path), RUN)
        target = tmp_path / f"{spec.feature_name}.{key[:32]}.npy"
        if not target.exists():
            shutil.copy(cached_column(tmp_path, spec), target)
        counts = count_calls(monkeypatch)
        table, failures = plan_run([spec], tiny_context(cache_dir=tmp_path),
                                   RUN, key)
        assert failures == [] and counts == {"fit": 1, "score": 1}
        fresh, _ = plan_run([spec], tiny_context(), RUN)
        assert np.array_equal(table.values, fresh.values)

    def test_another_key_is_a_miss_stored_beside_the_old_file(
            self, tmp_path, monkeypatch):
        spec = spec_for()
        plan_run([spec], tiny_context(cache_dir=tmp_path), RUN)
        old = cached_column(tmp_path, spec)
        counts = count_calls(monkeypatch)
        _, failures = plan_run([spec], tiny_context(cache_dir=tmp_path), RUN,
                               OTHER_KEY)
        assert failures == [] and counts == {"fit": 1, "score": 1}
        # storing removes nothing: sweep_cache does
        assert sorted(tmp_path.iterdir()) == sorted(
            tmp_path / f"{spec.feature_name}.{key[:32]}.npy"
            for key in (KEY, OTHER_KEY))
        assert old.exists()

    def test_no_cache_dir_still_works(self):
        table, failures = plan_run([spec_for()], tiny_context(), RUN)
        assert failures == [] and table.n_rows == len(pairs_of(RUN))


class TestSweepCache:
    def test_keeps_exactly_the_named_entries(self, tmp_path):
        spec, dropped = spec_for(), spec_for("swing", {"top_k": 10})
        plan_run([spec, dropped], tiny_context(cache_dir=tmp_path), RUN)
        plan_run([spec], tiny_context(cache_dir=tmp_path), RUN, OTHER_KEY)
        name = spec.feature_name
        table = tmp_path / f"features_valid.{OTHER_KEY[:32]}.npy"
        table.write_bytes(b"")
        # what a killed write, the per-run layout and other tools leave
        leftovers = [tmp_path / f"{name}.{KEY[:32]}.npy.tmp",
                     tmp_path / f"{name}.tsv", tmp_path / "valid" / "x.npy",
                     tmp_path / "test" / "deeper" / "y.npy"]
        for path in leftovers:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"")
        features.sweep_cache(tmp_path, {name: OTHER_KEY,
                                        "features_valid": OTHER_KEY,
                                        "features_test": OTHER_KEY})
        assert sorted(tmp_path.iterdir()) == [
            table, tmp_path / f"{name}.{OTHER_KEY[:32]}.npy"]

    def test_a_missing_cache_dir_is_no_error(self, tmp_path):
        features.sweep_cache(tmp_path / "cache", {"f": KEY})
        assert not (tmp_path / "cache").exists()


def global_statistics_oracle(ctx, run, target):
    """The per-row global_statistic_features: dict counts and running
    rating sums keyed by the decoded ids, three passes over the rows."""
    rows = list(zip(ctx.rows.user.tolist(), ctx.rows.item.tolist(),
                    ctx.rows.rating.tolist(), ctx.rows.market.tolist(),
                    ctx.rows.split.tolist()))
    markets = sorted({m for _, _, _, m, _ in rows})
    scopes = {"all": set(markets), "target": {target}}
    pairs = list(pairs_of(run))
    columns, mats, prov = [], [], {}
    item_markets = {}
    for _, i, _, m, s in rows:
        if s in ("train", "train_5core"):
            item_markets.setdefault(str(ctx.items.ids[i]), set()).add(m)

    def push(name, vals, miss=None):
        columns.append(name)
        mats.append(np.asarray(vals, dtype=np.float64))
        prov[name] = {"kind": "statistic", "statistic": name}
        if miss is not None:
            columns.append(f"{name}__missing")
            mats.append(np.asarray(miss, dtype=np.float64))
            prov[f"{name}__missing"] = {"kind": "missing_indicator",
                                        "statistic": name}

    for scope, scope_markets in scopes.items():
        item_count, item_sum, user_count, user_sum = {}, {}, {}, {}
        for u, i, rating, m, s in rows:
            if s not in ("train", "train_5core") or m not in scope_markets:
                continue
            item, user = str(ctx.items.ids[i]), str(ctx.users.ids[u])
            item_count[item] = item_count.get(item, 0) + 1
            item_sum[item] = item_sum.get(item, 0.0) + rating
            user_count[user] = user_count.get(user, 0) + 1
            user_sum[user] = user_sum.get(user, 0.0) + rating
        ic = np.array([item_count.get(i, 0) for _, i in pairs], dtype=np.float64)
        im = np.array([item_sum.get(i, 0.0) / item_count[i]
                       if i in item_count else 0.0 for _, i in pairs])
        uc = np.array([user_count.get(u, 0) for u, _ in pairs], dtype=np.float64)
        um = np.array([user_sum.get(u, 0.0) / user_count[u]
                       if u in user_count else 0.0 for u, _ in pairs])
        push(f"stat__item_count__{scope}", ic)
        push(f"stat__item_count_log1p__{scope}", np.log1p(ic))
        push(f"stat__item_mean_rating__{scope}", im,
             miss=[0.0 if i in item_count else 1.0 for _, i in pairs])
        push(f"stat__user_history_len__{scope}", uc)
        push(f"stat__user_history_len_log1p__{scope}", np.log1p(uc))
        push(f"stat__user_mean_rating__{scope}", um,
             miss=[0.0 if u in user_count else 1.0 for u, _ in pairs])
    push("stat__item_market_overlap__all",
         np.array([len(item_markets.get(i, ())) for _, i in pairs],
                  dtype=np.float64))
    return columns, np.column_stack(mats), prov


def assert_same_statistics(got, want):
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype and np.array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestGlobalStatistics:
    def test_matches_dict_loop_oracle_on_tiny_context(self):
        # RUN holds the "ghost" user, who has no rows, and the candidate
        # i4, which has no training rows; a third run adds ids the
        # encoders have never seen.
        ctx = tiny_context()
        unseen = run_of((("a", ("i0", "nobody_knows")), ("stranger", ("i1",))))
        for target in ("t1", "s1"):
            for run in (RUN, unseen):
                assert_same_statistics(
                    run_statistics(ctx, run, target),
                    global_statistics_oracle(ctx, run, target))

    def test_matches_dict_loop_oracle_on_synth_snapshot(self, synth_snapshot):
        snap, ws = synth_snapshot
        ctx = PlanContext(snap.rows, snap.users, snap.items,
                          every_id(snap.users, snap.items))
        # the last encoded user and item have training rows, so an unknown
        # id (-1) must not be read as the last one
        last_user, last_item = str(snap.users.ids[-1]), str(snap.items.ids[-1])
        train = np.isin(snap.rows.split, ("train", "train_5core"))
        assert len(snap.users) - 1 in snap.rows.user[train]
        assert len(snap.items) - 1 in snap.rows.item[train]
        for target in snap.targets:
            for which in ("valid", "test"):
                run = load_run(ws.run_path(target, which))
                unseen = run_of(entries_of(run) + (
                    ("no_such_user", (last_item, "no_such_item")),
                    (last_user, ("no_such_item", last_item))))
                for r in (run, unseen):
                    assert_same_statistics(
                        run_statistics(ctx, r, target),
                        global_statistics_oracle(ctx, r, target))

    def count_oracle(self, scope_markets):
        item_count, item_sum, user_count, user_sum = {}, {}, {}, {}
        for u, i, rating, m, s in RAW_ROWS:
            if s not in ("train", "train_5core") or m not in scope_markets:
                continue
            item_count[i] = item_count.get(i, 0) + 1
            item_sum[i] = item_sum.get(i, 0.0) + rating
            user_count[u] = user_count.get(u, 0) + 1
            user_sum[u] = user_sum.get(u, 0.0) + rating
        return item_count, item_sum, user_count, user_sum

    def test_counts_and_means_match_recount(self):
        ctx = tiny_context()
        columns, mat, prov = run_statistics(ctx, RUN, "t1")
        got = dict(zip(columns, mat.T))
        pairs = pairs_of(RUN)
        for scope, markets in (("all", {"s1", "t1"}), ("target", {"t1"})):
            ic, isum, uc, usum = self.count_oracle(markets)
            want_ic = [ic.get(i, 0) for _, i in pairs]
            want_im = [isum[i] / ic[i] if i in ic else 0.0 for _, i in pairs]
            want_uc = [uc.get(u, 0) for u, _ in pairs]
            assert got[f"stat__item_count__{scope}"].tolist() == want_ic
            assert got[f"stat__item_mean_rating__{scope}"].tolist() == want_im
            assert got[f"stat__user_history_len__{scope}"].tolist() == want_uc
            assert np.allclose(got[f"stat__item_count_log1p__{scope}"],
                               np.log1p(want_ic))
            assert got[f"stat__item_mean_rating__{scope}__missing"].tolist() \
                == [0.0 if i in ic else 1.0 for _, i in pairs]

    def test_overlap_counts_markets_per_item(self):
        ctx = tiny_context()
        columns, mat, _ = run_statistics(ctx, RUN, "t1")
        got = dict(zip(columns, mat.T))
        # i1 trains in both markets; i0 in both; i2 in s1 train + t1 5core;
        # i3 only in s1; i4 appears only in a test qrel -> overlap 0
        want = {"i0": 2, "i1": 2, "i2": 2, "i3": 1, "i4": 0}
        overlap = got["stat__item_market_overlap__all"]
        assert overlap.tolist() == [want[i] for _, i in pairs_of(RUN)]

    def test_qrel_splits_do_not_leak_into_statistics(self):
        ctx = tiny_context()
        columns, mat, _ = run_statistics(ctx, RUN, "t1")
        got = dict(zip(columns, mat.T))
        pairs = pairs_of(RUN)
        i4_rows = [r for r, (_, i) in enumerate(pairs) if i == "i4"]
        assert i4_rows  # the test positive appears as a candidate
        assert all(got["stat__item_count__all"][r] == 0 for r in i4_rows)

    def test_catalog_is_seventeen_columns(self):
        columns, mat, prov = run_statistics(tiny_context(), RUN, "t1")
        assert len(columns) == 17 and mat.shape == (len(pairs_of(RUN)), 17)
        assert set(prov) == set(columns)
        assert all(columns.count(c) == 1 for c in columns)


class TestExternalEmbeddings:
    def embedding(self):
        return {"i0": np.array([1.0, 0.0]), "i1": np.array([0.0, 2.0]),
                "i2": np.array([1.0, 1.0]), "i3": np.array([3.0, 0.0])}

    def test_mean_and_max_cosine_match_hand_computation(self):
        ctx = tiny_context()
        table = self.embedding()
        matrix = combination_matrix(ctx, CombinationSpec("t1", ("s1", "t1")))
        names, mat, prov = run_external(table, RUN, matrix, ctx)
        assert names == ["ext_emb__mean_cos", "ext_emb__max_cos",
                         "ext_emb__missing"]
        got = dict(zip(names, mat.T))

        def unit(i):
            v = table[i]
            return v / np.linalg.norm(v)

        # user a's combination history: i0 (train), i1 (train); valid i2 excluded
        hist = [unit("i0"), unit("i1")]
        for r, (_, cand) in enumerate(pairs_of(RUN)[:4]):
            cos = [float(h @ unit(cand)) for h in hist]
            assert got["ext_emb__mean_cos"][r] == pytest.approx(np.mean(cos))
            assert got["ext_emb__max_cos"][r] == pytest.approx(np.max(cos))
            assert got["ext_emb__missing"][r] == 0.0

    def test_uncovered_candidate_or_user_is_missing(self):
        ctx = tiny_context()
        matrix = combination_matrix(ctx, CombinationSpec("t1", ("s1", "t1")))
        names, mat, _ = run_external(self.embedding(), RUN, matrix, ctx)
        got = dict(zip(names, mat.T))
        pairs = pairs_of(RUN)
        i4_row = next(r for r, (_, i) in enumerate(pairs) if i == "i4")
        assert got["ext_emb__missing"][i4_row] == 1.0  # no vector for i4
        ghost_rows = [r for r, (u, _) in enumerate(pairs) if u == "ghost"]
        assert all(got["ext_emb__missing"][r] == 1.0 for r in ghost_rows)
        assert all(got["ext_emb__mean_cos"][r] == 0.0 for r in ghost_rows)


class TestCorrelation:
    def test_matches_numpy_corrcoef(self, rng):
        values = rng.normal(size=(60, 4))
        table = FeatureTable(tuple(f"u{r}" for r in range(60)),
                             tuple(f"i{r}" for r in range(60)),
                             ("a", "b", "c", "d"), values)
        corr = feature_correlation(table, ["a", "b", "c", "d"])
        assert np.allclose(corr, np.corrcoef(values.T), atol=1e-12)

    def test_constant_columns_are_zeroed(self, rng):
        live = rng.normal(size=(30, 2))
        values = np.column_stack([live[:, 0], np.full(30, 2.5), live[:, 1]])
        table = FeatureTable(tuple(f"u{r}" for r in range(30)),
                             tuple(f"i{r}" for r in range(30)),
                             ("live", "flat", "other"), values)
        corr = feature_correlation(table, ["live", "flat", "other"])
        # the constant column's row and column are 0, its diagonal too
        assert corr[1].tolist() == [0.0] * 3
        assert corr[:, 1].tolist() == [0.0] * 3
        assert corr[0, 0] == corr[2, 2] == 1.0
        assert np.isclose(corr[0, 2], np.corrcoef(live.T)[0, 1], atol=1e-12)

    def test_single_row_rejected(self):
        table = FeatureTable(("u",), ("i",), ("a",), np.ones((1, 1)))
        with pytest.raises(DataError):
            feature_correlation(table, ["a"])

    def test_write_correlation_round_trips(self, tmp_path, rng):
        corr = np.corrcoef(rng.normal(size=(3, 20)))
        write_tsv(tmp_path / "corr.tsv", ["feature", "x", "y", "z"],
                  [["x", "y", "z"]], corr)
        lines = (tmp_path / "corr.tsv").read_text().splitlines()
        assert lines[0] == "feature\tx\ty\tz"
        back = np.array([[float(v) for v in line.split("\t")[1:]]
                         for line in lines[1:]])
        assert np.array_equal(back, corr)


def write_table_oracle(table, tsv_path, catalog_path, provenance):
    """The row-by-row writer write_table replaced: one repr per cell."""
    header = ["user", "item"] + (["label"] if table.labels is not None else [])
    header += list(table.columns)
    lines = ["\t".join(header)]
    labels = (None if table.labels is None
              else [str(label) for label in table.labels.tolist()])
    for r, values in enumerate(table.values):
        keys = [table.users[r], table.items[r]]
        if labels is not None:
            keys.append(labels[r])
        lines.append("\t".join(keys + list(map(repr, values.tolist()))))
    Path(tsv_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    catalog = {"columns": list(table.columns),
               "has_labels": table.labels is not None,
               "provenance": {k: dict(v) for k, v in provenance.items()}}
    Path(catalog_path).write_text(
        json.dumps(catalog, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_table_oracle(tsv_path):
    """The reader read_table replaced: one float() per cell."""
    tsv_path = Path(tsv_path)
    with tsv_path.open(encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        assert header[:2] == ["user", "item"]
        has_labels = len(header) > 2 and header[2] == "label"
        col_start = 3 if has_labels else 2
        columns = tuple(header[col_start:])
        users, items, labels, rows = [], [], [], []
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            assert len(parts) == len(header)
            users.append(parts[0])
            items.append(parts[1])
            if has_labels:
                labels.append(int(parts[2]))
            rows.append([float(v) for v in parts[col_start:]])
    values = np.array(rows) if rows else np.zeros((0, len(columns)))
    return FeatureTable(tuple(users), tuple(items), columns,
                        values.reshape(len(users), len(columns)),
                        np.array(labels, dtype=np.int8) if has_labels else None)


# Values whose shortest repr is easy to get wrong: the sign of zero, the
# smallest subnormal, exponent forms and the edges of exact integers.
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 1e16, 2.0 ** 53, 1 / 3, 1e308, -1e308,
                  0.1 + 0.2, 1e-7, 123456789.0, -1.5, 2.0 ** 53 + 2]


def oracle_table(rng, n_rows, n_cols, labeled=True):
    """A table mixing repeated, special and random values, the first
    cells holding every special value in turn; rows above write_table's
    block size cross a block edge."""
    pool = np.array(SPECIAL_VALUES + rng.normal(size=7).tolist())
    values = np.where(rng.random((n_rows, n_cols)) < 0.5,
                      rng.choice(pool, size=(n_rows, n_cols)),
                      rng.normal(scale=10.0 ** rng.integers(-5, 6),
                                 size=(n_rows, n_cols)))
    head = min(values.size, len(SPECIAL_VALUES))
    values.flat[:head] = SPECIAL_VALUES[:head]
    names = tuple(f"c{j}" for j in range(n_cols))
    return FeatureTable(tuple(f"u{r // 7}" for r in range(n_rows)),
                        tuple(f"i{r % 7}" for r in range(n_rows)), names,
                        values,
                        (rng.integers(0, 2, n_rows).astype(np.int8)
                         if labeled else None))


def assert_same_table(got, want):
    assert got.users.tolist() == want.users.tolist()
    assert got.items.tolist() == want.items.tolist()
    assert (got.users.dtype, got.items.dtype) == (want.users.dtype,
                                                  want.items.dtype)
    assert got.columns == want.columns
    assert got.values.dtype == np.float64
    assert got.values.shape == want.values.shape
    assert np.array_equal(got.values.view(np.int64), want.values.view(np.int64))
    if want.labels is None:
        assert got.labels is None
    else:
        assert got.labels.dtype == np.int8
        assert np.array_equal(got.labels, want.labels)


# Rows of a labeled one-column table that the parse rejects, and why; the
# last repeats the key (u1, i1).
MALFORMED_ROWS = [
    ("u2\ti2\t1\tnan", "non-finite"),
    ("u2\ti2\t1\t-inf", "non-finite"),
    ("u2\ti2\t1\t1_0", "non-numeric"),
    ("u2\ti2\t2\t1.0", "label must be 0 or 1"),
    ("u2\ti2\t1.0\t1.0", "label must be 0 or 1"),
    ("u2\ti2\tx\t1.0", "label must be 0 or 1"),
    ("u1\ti1\t0\t1.0", "duplicate"),
]


class TestTableIO:
    def labeled_table(self, rng):
        values = rng.normal(size=(6, 2))
        return FeatureTable(tuple(f"u{r % 3}" for r in range(6)),
                            tuple(f"i{r}" for r in range(6)),
                            ("one", "two"), values,
                            np.array([1, 0, 0, 1, 0, 0], dtype=np.int8))

    def test_round_trip_with_labels_and_catalog(self, tmp_path, rng):
        table = self.labeled_table(rng)
        write_table(table, tmp_path / "f.tsv", tmp_path / "f.catalog.json",
                    {"one": {"kind": "scorer"}, "two": {"kind": "statistic"}})
        back = read_table(tmp_path / "f.tsv")
        assert back.users.tolist() == table.users.tolist()
        assert back.items.tolist() == table.items.tolist()
        assert back.columns == table.columns
        assert np.array_equal(back.labels, table.labels)
        # values pass through repr() so the round trip is exact
        assert np.array_equal(back.values, table.values)
        catalog = read_artifact(Catalog, tmp_path / "f.catalog.json")
        assert catalog.columns == ("one", "two") and catalog.has_labels
        assert catalog.provenance["two"] == {"kind": "statistic"}

    @pytest.mark.parametrize("labeled", [True, False])
    def test_cells_are_written_as_util_fmt(self, tmp_path, labeled):
        values = np.array([[-0.0, 5e-324, 1e16, 0.1 + 0.2],
                           [3.0, -7.0, 0.0, 1e-7],
                           [2.0 ** 53, 123456789.0, -1.5, 1 / 3]])
        labels = np.array([1, 0, 1], dtype=np.int8) if labeled else None
        table = FeatureTable(("u0", "u1", "u2"), ("i0", "i1", "i2"),
                             ("a", "b", "c", "d"), values, labels)
        write_table(table, tmp_path / "f.tsv", tmp_path / "f.catalog.json", {})
        header = "user\titem\t" + ("label\t" if labeled else "") + "a\tb\tc\td"
        want = [header] + [
            "\t".join([f"u{r}", f"i{r}"]
                      + ([str(int(labels[r]))] if labeled else [])
                      + [util.fmt(v) for v in values[r]])
            for r in range(3)]
        assert (tmp_path / "f.tsv").read_text().splitlines() == want
        assert want[1].endswith("\t-0.0\t5e-324\t1e+16\t0.30000000000000004")
        assert "\t3.0\t-7.0\t0.0\t" in want[2]

    def test_unlabeled_table_round_trips(self, tmp_path, rng):
        table = FeatureTable(("u1", "u2"), ("i1", "i2"), ("a",),
                             rng.normal(size=(2, 1)))
        write_table(table, tmp_path / "f.tsv", tmp_path / "f.catalog.json", {})
        back = read_table(tmp_path / "f.tsv")
        assert back.labels is None
        assert np.array_equal(back.values, table.values)

    def test_missing_file_and_bad_rows(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            read_table(tmp_path / "absent.tsv")
        bad = tmp_path / "bad.tsv"
        bad.write_text("wrong\theader\n")
        with pytest.raises(DataError, match=":1"):
            read_table(bad)
        bad.write_text("user\titem\tf\nu\ti\t1.0\nu2\ti2\n")
        with pytest.raises(DataError, match=":3"):
            read_table(bad)
        bad.write_text("user\titem\tf\nu\ti\tNOPE\n")
        with pytest.raises(DataError, match="non-numeric"):
            read_table(bad)

    @pytest.mark.parametrize("n_rows,n_cols,labeled", [
        (13, 1, True), (2, 7, False), (2500, 9, True), (2500, 9, False), (1024, 3, True),
        (0, 4, True), (0, 4, False), (5, 0, True), (5, 0, False), (0, 0, True)])
    def test_write_and_read_match_the_oracles(self, tmp_path, rng, monkeypatch,
                                              n_rows, n_cols, labeled):
        table = oracle_table(rng, n_rows, n_cols, labeled)
        provenance = {name: {"kind": "scorer", "pos": j}
                      for j, name in enumerate(table.columns)}
        write_table(table, tmp_path / "new.tsv", tmp_path / "new.json",
                    provenance)
        write_table_oracle(table, tmp_path / "old.tsv", tmp_path / "old.json",
                           provenance)
        assert ((tmp_path / "new.tsv").read_bytes()
                == (tmp_path / "old.tsv").read_bytes())
        assert ((tmp_path / "new.json").read_bytes()
                == (tmp_path / "old.json").read_bytes())
        back = read_table(tmp_path / "new.tsv")
        assert_same_table(back, read_table_oracle(tmp_path / "new.tsv"))
        assert_same_table(back, table)
        # with a cache: the same TSV, and the same table read unparsed
        cache = tmp_path / "cache"
        write_table(table, tmp_path / "new.tsv", tmp_path / "new.json",
                    provenance, cache_dir=cache)
        assert ((tmp_path / "new.tsv").read_bytes()
                == (tmp_path / "old.tsv").read_bytes())
        parses = count_parses(monkeypatch)
        cached = read_table(tmp_path / "new.tsv", cache_dir=cache)
        assert parses == []
        assert_same_table(cached, read_table_oracle(tmp_path / "new.tsv"))
        assert_same_table(cached, back)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_text("user\titem\tlabel\ta\tb\n\nu1\ti1\t1\t0.5\t-0.0\n"
                        "\n\nu1\ti2\t0\t1e+16\t3.0\n\n")
        back = read_table(path)
        assert_same_table(back, read_table_oracle(path))
        assert back.users.tolist() == ["u1", "u1"]

    @pytest.mark.parametrize("columns", [["c3"], ["c4", "c0", "c2"],
                                         ["c0", "c1", "c2", "c3", "c4"][::-1],
                                         []])
    def test_columns_subset_in_any_order(self, tmp_path, rng, columns):
        table = oracle_table(rng, 40, 5)
        write_table(table, tmp_path / "f.tsv", tmp_path / "f.json", {})
        back = read_table(tmp_path / "f.tsv", columns=columns)
        want = read_table_oracle(tmp_path / "f.tsv").select(columns)
        assert_same_table(back, want)

    def test_unknown_column_is_a_key_error(self, tmp_path, rng):
        write_table(oracle_table(rng, 4, 2), tmp_path / "f.tsv",
                    tmp_path / "f.json", {})
        with pytest.raises(KeyError, match="'nope'"):
            read_table(tmp_path / "f.tsv", columns=["c1", "nope"])

    @pytest.mark.parametrize("row,problem", MALFORMED_ROWS)
    def test_malformed_row_is_a_data_error_at_its_line(self, tmp_path, row,
                                                       problem):
        bad = tmp_path / "bad.tsv"
        bad.write_text(f"user\titem\tlabel\tf\nu1\ti1\t1\t0.5\n\n{row}\n")
        with pytest.raises(DataError, match=f"bad.tsv:4: {problem}"):
            read_table(bad)

    def test_a_cache_is_read_only_under_its_tsv_digest(self, tmp_path, rng,
                                                       monkeypatch):
        # 9 rows of (label, one value): row 8 has the key (u1, i1), and
        # the first value is -0.0
        tsv, cache = tmp_path / "f.tsv", tmp_path / "cache"
        write_table(oracle_table(rng, 9, 1), tsv, tmp_path / "f.json", {},
                    cache_dir=cache)
        (stored,) = cache.iterdir()
        text, stored_bytes = tsv.read_bytes(), stored.read_bytes()
        parses = count_parses(monkeypatch)

        def read_both():
            """(cached, parsed, n_parses): read_table with the cache and
            without, each as its table or its DataError's text, and the
            number of parses the read with the cache made."""
            outcomes, counts = [], []
            for cache_dir in (cache, None):
                parses.clear()
                try:
                    outcomes.append(read_table(tsv, cache_dir=cache_dir))
                except DataError as exc:
                    outcomes.append(str(exc))
                counts.append(len(parses))
            return *outcomes, counts[0]

        def assert_parsed():
            cached, parsed, n_parses = read_both()
            assert_same_table(cached, parsed)
            assert n_parses == 1

        cached, parsed, n_parses = read_both()
        assert n_parses == 0
        assert_same_table(cached, parsed)

        edited = text.replace(b"\t-0.0\n", b"\t0.0\n", 1)
        assert edited != text
        tsv.write_bytes(edited)
        assert_parsed()
        for row, problem in MALFORMED_ROWS:
            tsv.write_bytes(text + f"{row}\n".encode())
            cached, parsed, _ = read_both()
            assert cached == parsed
            assert f"f.tsv:11: {problem}" in cached
        tsv.write_bytes(text)

        stored.unlink()
        assert_parsed()
        stored.write_bytes(stored_bytes[:len(stored_bytes) // 2])
        assert_parsed()
        stored.write_bytes(rng.bytes(len(stored_bytes)))
        assert_parsed()
        # another table of the same shape, its file under this digest
        other = tmp_path / "other"
        other.mkdir()
        write_table(oracle_table(rng, 9, 1), other / "f.tsv",
                    other / "f.json", {}, cache_dir=other)
        (other_file,) = other.glob("f.*.npy")
        stored.write_bytes(other_file.read_bytes())
        assert_parsed()

        stored.write_bytes(stored_bytes)
        assert read_both()[2] == 0

    def test_a_rewritten_table_keeps_its_older_file_until_a_sweep(
            self, tmp_path, rng, monkeypatch):
        cache = tmp_path / "cache"
        digests = []
        for _ in range(2):
            write_table(oracle_table(rng, 5, 2), tmp_path / "f.tsv",
                        tmp_path / "f.json", {}, cache_dir=cache)
            digests.append(util.file_sha256(tmp_path / "f.tsv"))
        assert sorted(path.name for path in cache.iterdir()) == sorted(
            f"f.{digest[:32]}.npy" for digest in digests)
        parses = count_parses(monkeypatch)
        read_table(tmp_path / "f.tsv", cache_dir=cache)
        assert parses == []
        features.sweep_cache(cache, {"f": digests[1]})
        assert [path.name for path in cache.iterdir()] == [
            f"f.{digests[1][:32]}.npy"]

    def test_a_table_with_a_repeated_key_is_not_cached(self, tmp_path, rng):
        table = oracle_table(rng, 3, 1)
        table = dataclasses.replace(table, users=np.array(["u", "u", "v"]),
                                    items=np.array(["i", "i", "i"]))
        write_table(table, tmp_path / "f.tsv", tmp_path / "f.json", {},
                    cache_dir=tmp_path / "cache")
        assert list((tmp_path / "cache").glob("*")) == []
        with pytest.raises(DataError, match="f.tsv:3: duplicate"):
            read_table(tmp_path / "f.tsv", cache_dir=tmp_path / "cache")

    def test_duplicate_header_column_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("user\titem\tf\tf\nu\ti\t1.0\t2.0\n")
        with pytest.raises(DataError, match=":1: duplicate column"):
            read_table(bad)

    def test_empty_table_from_run(self):
        table = empty_table(RUN)
        assert table.n_rows == len(pairs_of(RUN))
        assert table.columns == ()
        assert table.values.shape == (table.n_rows, 0)


class TestFeatureTableContract:
    def test_validation_errors(self):
        with pytest.raises(ValueError, match="align"):
            FeatureTable(("u",), (), (), np.zeros((1, 0)))
        with pytest.raises(ValueError, match="shape"):
            FeatureTable(("u",), ("i",), ("a",), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="finite"):
            FeatureTable(("u",), ("i",), ("a",), np.array([[np.nan]]))
        with pytest.raises(ValueError, match="0/1"):
            FeatureTable(("u",), ("i",), ("a",), np.ones((1, 1)),
                         np.array([4]))
        # keys are checked where they enter (read_table, data.load_run),
        # not in the constructor
        with pytest.raises(ValueError, match="duplicate"):
            FeatureTable(("u",), ("i",), ("a", "a"), np.ones((1, 2)))

    def test_select_take_and_with_columns(self, rng):
        values = rng.normal(size=(4, 3))
        table = FeatureTable(("u1", "u1", "u2", "u2"),
                             ("i1", "i2", "i1", "i2"),
                             ("a", "b", "c"), values)
        sel = table.select(["c", "a"])
        assert sel.columns == ("c", "a")
        assert np.array_equal(sel.values, values[:, [2, 0]])
        with pytest.raises(KeyError):
            table.select(["nope"])

        sub = table.take([2, 3])
        assert sub.users.tolist() == ["u2", "u2"]
        assert np.array_equal(sub.values, values[2:])

        wider = table.with_columns(["d"], np.ones((4, 1)))
        assert wider.columns == ("a", "b", "c", "d")
        assert np.array_equal(wider.column("d"), np.ones(4))

    def test_with_labels(self):
        table = FeatureTable(("u",), ("i",), ("a",), np.ones((1, 1)))
        labeled = table.with_labels([1])
        assert labeled.labels.dtype == np.int8
        assert labeled.labels.tolist() == [1]
