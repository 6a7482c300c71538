"""Strict-keyed config tree: parse/serialize identity, typo rejection at
every nesting level, and the validation rules."""

import importlib.util
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from cmrec import cli, util
from cmrec.config import (PipelineConfig, PrerankConfig, RankerConfig,
                          ScorerPlanConfig, SelectionConfig, load_config)
from cmrec.gbdt import GbdtParams
from cmrec.synth import SynthConfig
from cmrec.util import ConfigError

ROOT = Path(__file__).resolve().parents[1]


def save_config(config: PipelineConfig, path) -> None:
    util.write_json(path, asdict(config))

MINIMAL = {
    "data_dir": "data",
    "workspace": "work",
    "markets": ["s1", "s2", "s3", "t1", "t2"],
    "targets": ["t1", "t2"],
}

FULL = {
    **MINIMAL,
    "seed": 42,
    "market_weights": {"t1": 0.33, "t2": 0.67},
    "prerank": {
        "scorers": [
            {"name": "item_cf", "params": {"top_k": 50}},
            {"name": "swing", "params": {"alpha": 1.0},
             "combinations": [["s1", "t1"], ["t1"]]},
        ],
        "stats": False,
        "external_embeddings": "vectors.tsv",
    },
    "selection": {"shift_threshold": 0.2, "cv_epsilon": 0.01, "folds": 3,
                  "n_shuffles": 10,
                  "trainer": {"num_leaves": 7, "n_rounds": 12}},
    "ranker": {"params": {"num_leaves": 63, "learning_rate": 0.05},
               "grid": {"num_leaves": [15, 31], "learning_rate": [0.05, 0.1]},
               "folds": 4},
}


class TestRoundTrip:
    def test_defaults_fill_in(self):
        config = PipelineConfig.from_dict(MINIMAL)
        assert config.seed == 0
        assert config.market_weights is None
        assert [s.name for s in config.prerank.scorers] \
            == ["item_cf", "user_cf", "swing", "llr", "bigraph"]
        assert config.prerank.stats is True
        assert config.selection.folds == 5
        assert config.selection.trainer.num_leaves == 15
        assert config.ranker.folds == 10
        assert config.ranker.grid is None

    def test_parse_serialize_parse_is_identity(self):
        config = PipelineConfig.from_dict(FULL)
        again = PipelineConfig.from_dict(asdict(config))
        assert again == config
        assert asdict(again) == asdict(config)

    def test_full_document_parses_every_field(self):
        config = PipelineConfig.from_dict(FULL)
        assert config.seed == 42
        assert config.market_weights == {"t1": 0.33, "t2": 0.67}
        swing = config.prerank.scorers[1]
        assert swing.combinations == (("s1", "t1"), ("t1",))
        assert config.prerank.external_embeddings == "vectors.tsv"
        assert config.selection.trainer == GbdtParams(num_leaves=7, n_rounds=12)
        assert config.ranker.grid == {"num_leaves": (15, 31),
                                      "learning_rate": (0.05, 0.1)}

    def test_file_round_trip(self, tmp_path):
        config = PipelineConfig.from_dict(FULL)
        save_config(config, tmp_path / "c.json")
        assert load_config(tmp_path / "c.json") == config

    def test_type_hints_read_once_per_class(self):
        util._type_hints.cache_clear()
        loads = [PipelineConfig.from_dict(FULL) for _ in range(3)]
        assert loads[0] == loads[1] == loads[2]
        # a miss is a get_type_hints call: one per class of the document
        info = util._type_hints.cache_info()
        assert info.misses == info.currsize >= 5 and info.hits > 0


class TestUnknownKeys:
    def test_top_level(self):
        with pytest.raises(ConfigError, match="worksace"):
            PipelineConfig.from_dict({**MINIMAL, "worksace": "typo"})

    def test_prerank_level(self):
        with pytest.raises(ConfigError, match="prerank"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "prerank": {"scoers": []}})

    def test_scorer_level(self):
        with pytest.raises(ConfigError, match="item_cf"):
            PipelineConfig.from_dict({**MINIMAL, "prerank": {
                "scorers": [{"name": "item_cf", "prams": {}}]}})

    def test_selection_and_trainer_level(self):
        with pytest.raises(ConfigError, match="selection"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "selection": {"threshold": 0.1}})
        with pytest.raises(ConfigError, match="selection.trainer"):
            PipelineConfig.from_dict({**MINIMAL, "selection": {
                "trainer": {"max_depth": 6}}})

    def test_ranker_params_level(self):
        with pytest.raises(ConfigError, match="ranker.params"):
            PipelineConfig.from_dict({**MINIMAL, "ranker": {
                "params": {"n_estimators": 100}}})

    def test_grid_only_sweeps_leaves_and_rate(self):
        with pytest.raises(ConfigError, match="ranker.grid"):
            PipelineConfig.from_dict({**MINIMAL, "ranker": {
                "grid": {"max_bins": [64, 255]}}})


class TestValidation:
    def test_required_keys(self):
        for key in ("data_dir", "workspace", "markets", "targets"):
            payload = {k: v for k, v in MINIMAL.items() if k != key}
            with pytest.raises(ConfigError, match=key):
                PipelineConfig.from_dict(payload)

    def test_targets_must_be_markets(self):
        with pytest.raises(ConfigError, match="t9"):
            PipelineConfig.from_dict({**MINIMAL, "targets": ["t1", "t9"]})

    def test_duplicate_markets(self):
        with pytest.raises(ConfigError, match="duplicate"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "markets": ["s1", "s1", "t1"],
                                      "targets": ["t1"]})

    def test_duplicate_targets(self):
        # a repeated target would count twice as a default-combination target
        with pytest.raises(ConfigError, match="duplicate target"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "markets": ["s1", "s2", "s3", "t1"],
                                      "targets": ["t1", "t1"]})

    def test_targets_without_default_weights_need_market_weights(self):
        renamed = {**MINIMAL, "markets": ["s1", "s2", "s3", "a", "t2"],
                   "targets": ["a", "t2"]}
        with pytest.raises(ConfigError,
                           match=r"default weights lack targets: \['a'\]"):
            PipelineConfig.from_dict(renamed)
        weights = {"a": 0.5, "t2": 0.5}
        assert PipelineConfig.from_dict(
            {**renamed, "market_weights": weights}).market_weights == weights

    def test_weights_must_name_markets(self):
        with pytest.raises(ConfigError, match="t9"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "market_weights": {"t9": 1.0}})

    @pytest.mark.parametrize("weights, match", [
        ({"t1": 1.0}, r"\['t2'\]"),
        ({}, r"\['t1', 't2'\]"),
    ])
    def test_weights_must_name_every_target(self, weights, match):
        with pytest.raises(ConfigError, match="lack targets: " + match):
            PipelineConfig.from_dict({**MINIMAL, "market_weights": weights})

    @pytest.mark.parametrize("weights, match", [
        ({"t1": -1.0, "t2": 2.0}, r"must not be negative: \['t1'\]"),
        ({"s1": -0.5, "t1": 0.5, "t2": 0.5}, r"negative: \['s1'\]"),
        ({"t1": 0.0, "t2": 0.0}, "targets must sum to a positive value"),
        ({"s1": 1.0, "t1": 0.0, "t2": 0.0}, "targets must sum to a positive"),
    ])
    def test_weights_nonnegative_with_a_positive_target_sum(
            self, tmp_path, capsys, weights, match):
        # either would otherwise run every stage: a zero sum fails report
        # last, a negative weight puts the weighted score outside the
        # per-market range
        with pytest.raises(ConfigError, match=match):
            PipelineConfig.from_dict({**MINIMAL, "market_weights": weights})
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "market_weights": weights,
                                    "workspace": str(tmp_path / "work")}))
        assert cli.main(["ingest", "--config", str(path)]) == 1
        assert "weights" in capsys.readouterr().err
        assert not (tmp_path / "work").exists()

    def test_default_combinations_need_3_sources_and_2_targets(self):
        with pytest.raises(ConfigError, match=r"'item_cf'.*3 source"):
            PipelineConfig.from_dict({**MINIMAL, "markets": ["s1", "t1"],
                                      "targets": ["t1"]})
        explicit = [{"name": "item_cf", "combinations": [["s1", "t1"]]}]
        assert PipelineConfig.from_dict({
            **MINIMAL, "markets": ["s1", "t1"], "targets": ["t1"],
            "prerank": {"scorers": explicit}}).markets == ("s1", "t1")

    def test_combinations_must_name_markets(self):
        scorers = [{"name": "item_cf", "combinations": [["t1", "zz"]]}]
        with pytest.raises(ConfigError, match=r"scorer 'item_cf'.*\['zz'\]"):
            PipelineConfig.from_dict({**MINIMAL,
                                      "prerank": {"scorers": scorers}})

    def test_fold_minimums(self):
        with pytest.raises(ConfigError, match="folds"):
            SelectionConfig(folds=1)
        with pytest.raises(ConfigError, match="folds"):
            RankerConfig(folds=1)
        with pytest.raises(ConfigError, match="n_shuffles"):
            SelectionConfig(n_shuffles=0)

    def test_unknown_scorer_name(self):
        with pytest.raises(ConfigError, match="two_tower"):
            ScorerPlanConfig("two_tower")

    def test_accepts_exactly_the_registry_names(self):
        from cmrec.features import SCORERS
        for name in SCORERS:
            assert ScorerPlanConfig(name).name == name
        for near_miss in ("ItemCF", "item-cf", "node2vec", "embedding"):
            with pytest.raises(ConfigError, match="expected one of"):
                ScorerPlanConfig(near_miss)

    def test_default_plan_is_the_unseeded_registry_entries(self):
        from cmrec.features import SCORERS
        assert [s.name for s in PrerankConfig().scorers] == [
            "item_cf", "user_cf", "swing", "llr", "bigraph"]
        assert all(not SCORERS[s.name].seeded for s in PrerankConfig().scorers)

    def test_combinations_literal(self):
        with pytest.raises(ConfigError, match="default"):
            ScorerPlanConfig("item_cf", combinations="all")

    def test_bad_trainer_value_is_config_error(self):
        with pytest.raises(ConfigError, match="num_leaves"):
            SelectionConfig.from_dict({"trainer": {"num_leaves": 1}})

    @pytest.mark.parametrize("section, match", [
        ({"prerank": {"scorers": [{"name": "item_cf",
                                   "params": {"topk": 5}}]}},
         r"scorer 'item_cf' params: \['topk'\]"),
        ({"prerank": {"scorers": [{"name": "word2vec",
                                   "params": {"dim": 0}}]}},
         "scorer 'word2vec' params: dim must be positive"),
        ({"prerank": {"scorers": [{"name": "swing",
                                   "params": {"alpha": -1}}]}},
         "scorer 'swing' params: alpha"),
        ({"prerank": {"scorers": [{"name": "lightgcn",
                                   "params": {"metric": "l2"}}]}},
         "scorer 'lightgcn' params.metric must be typing.Literal"),
        ({"prerank": {"scorers": [{"name": "bigraph",
                                   "params": {"retain_seed": 1}}]}},
         "retain_seed must be bool"),
        ({"selection": {"trainer": {"num_leaves": "15"}}},
         "config.selection.trainer.num_leaves must be int"),
        ({"selection": {"folds": "3"}}, "config.selection.folds must be int"),
        ({"ranker": {"folds": "3"}}, "config.ranker.folds must be int"),
        ({"ranker": {"grid": {"num_leaves": 5}}},
         r"config.ranker.grid\['num_leaves'\] must be tuple"),
        ({"ranker": {"grid": {"num_leaves": []}}}, "ranker.grid"),
        ({"ranker": {"grid": {"num_leaves": [1.5]}}},
         "ranker.grid.num_leaves must be int"),
        ({"seed": "42"}, "config.seed must be int"),
        ({"prerank": {"stats": 1}}, "config.prerank.stats must be bool"),
    ])
    def test_malformed_value_is_config_error(self, section, match):
        with pytest.raises(ConfigError, match=match):
            PipelineConfig.from_dict({**MINIMAL, **section})

    def test_scorer_params_load_typed_with_their_defaults(self):
        from cmrec.features import (SCORERS, Node2VecBfsParams,
                                    Node2VecDfsParams)
        assert SCORERS["node2vec_dfs"].params is Node2VecDfsParams
        assert Node2VecDfsParams().q == 0.5 and Node2VecBfsParams().q == 2.0
        got = util.from_dict(SCORERS["swing"].params, {"alpha": 2})
        assert (got.alpha, got.top_k, got.max_users_per_item) == (2, 200, 500)

    @pytest.mark.parametrize("params", [
        {"name": "item_cf", "params": {"topk": 5}},
        {"name": "word2vec", "params": {"dim": 0}},
        {"name": "swing", "params": {"alpha": -1}},
        {"name": "lightgcn", "params": {"metric": "l2"}},
        {"name": "word2vec", "params": {"shuffles": 0}},
    ])
    def test_prerank_exits_1_before_writing(self, tmp_path, capsys, params):
        workspace = tmp_path / "work"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, "workspace": str(workspace),
                                    "prerank": {"scorers": [params]}}))
        assert cli.main(["prerank", "--config", str(path)]) == 1
        assert params["name"] in capsys.readouterr().err
        assert not workspace.exists()


class TestNonFiniteFloats:
    """JSON reads NaN and Infinity as floats; a float field takes neither,
    and the error names the key path."""

    @pytest.mark.parametrize("section, where", [
        ({"ranker": {"params": {"learning_rate": math.nan}}},
         "config.ranker.params.learning_rate"),
        ({"selection": {"shift_threshold": math.nan}},
         "config.selection.shift_threshold"),
        ({"ranker": {"params": {"l2_leaf_reg": math.inf}}},
         "config.ranker.params.l2_leaf_reg"),
        ({"prerank": {"scorers": [{"name": "swing",
                                   "params": {"alpha": math.inf}}]}},
         "scorer 'swing' params.alpha"),
        ({"market_weights": {"t1": -math.inf, "t2": 1.0}},
         "config.market_weights['t1']"),
        ({"ranker": {"grid": {"learning_rate": [0.1, math.nan]}}},
         "config.ranker.grid['learning_rate'][1]"),
    ])
    def test_rejected_at_load(self, tmp_path, section, where):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**MINIMAL, **section}))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: {where} must be finite, "
                                         f"not ")


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError, match="Is a directory"):
            load_config(tmp_path)

    @pytest.mark.parametrize("payload, error", [
        ({**MINIMAL, "bogus": 1}, "unknown config keys in config: ['bogus']"),
        ({**MINIMAL, "targets": ["t3"]}, "targets not among markets"),
        ({**MINIMAL, "ranker": {"folds": "3"}}, "config.ranker.folds"),
    ], ids=["unknown-key", "post-init", "mistyped"])
    def test_a_schema_error_names_the_file(self, tmp_path, capsys, payload,
                                           error):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: ")
        assert error in str(err.value)
        assert cli.main(["prerank", "--config", str(path)]) == 1
        assert f"{path}: " in capsys.readouterr().err

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_saved_atomically(self, tmp_path, monkeypatch):
        config = PipelineConfig.from_dict(FULL)
        written = []
        real = os.replace

        def recording(src, dst):
            written.append(Path(dst))
            real(src, dst)

        monkeypatch.setattr(util.os, "replace", recording)
        save_config(config, tmp_path / "c.json")
        assert written == [tmp_path / "c.json"]
        assert (tmp_path / "c.json").read_text(encoding="utf-8") == (
            json.dumps(asdict(config), indent=2, sort_keys=True) + "\n")

    def test_defaults_survive_file_round_trip(self, tmp_path):
        config = PipelineConfig.from_dict(MINIMAL)
        save_config(config, tmp_path / "c.json")
        again = load_config(tmp_path / "c.json")
        assert again == config
        assert again.prerank.scorers == config.prerank.scorers


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def shipped_documents():
    """Every config the repo ships: the benchmark workloads, the
    end-to-end script's, the acceptance and the golden pipeline configs."""
    workloads = _module(ROOT / "perfbench" / "workloads.py").WORKLOADS
    e2e = _module(ROOT / "scripts" / "run_synthetic_e2e.py")
    from test_acceptance import full_config
    from test_golden import golden_config
    data, work = Path("data"), Path("work")
    docs = {}
    for name, workload in workloads.items():
        docs[f"{name}.pipeline"] = workload.pipeline_config(data, work)
        docs[f"{name}.synth"] = workload.synth_config(data, 29)
    for embed in (True, False):
        docs[f"e2e.embeddings={embed}"] = e2e.build_config(data, work, 29, embed)
    for scale, markets in e2e.SCALES.items():
        docs[f"e2e.{scale}.synth"] = SynthConfig(
            str(data), seed=29, n_items=200 if scale == "small" else 350,
            dim=5, markets=markets, targets=("t1", "t2"), eval_users=100,
            n_candidates=40)
    docs["acceptance"] = full_config(data, work)
    docs["golden"] = golden_config(data, work)
    return docs


def test_every_shipped_document_round_trips():
    docs = shipped_documents()
    assert len(docs) == 12
    for name, config in docs.items():
        text = json.dumps(asdict(config))
        assert type(config).from_dict(json.loads(text)) == config, name
