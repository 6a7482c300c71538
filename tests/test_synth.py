"""Synthetic dataset generator: file/meta agreement, candidate-list
contracts, capacity validation, and byte-level determinism."""

import json
from pathlib import Path

import pytest

from cmrec import cli
from cmrec.data import SPLITS, load_market, load_run
from cmrec.synth import (MarketSpec, SynthConfig, generate,
                         synth_config_from_dict)
from cmrec.util import ConfigError


def market_rows(out, market):
    """The market's loaded rows as (user, item, rating, split name)."""
    columns, _ = load_market(out / market, market)
    return list(zip(columns["user"].tolist(), columns["item"].tolist(),
                    columns["rating"].tolist(),
                    [SPLITS[k] for k in columns["split"].tolist()]))


def small_config(out_dir, **kw):
    base = dict(
        out_dir=str(out_dir), seed=7, n_items=150, dim=4,
        markets={"s1": MarketSpec(40, 10, 0.9),
                 "t1": MarketSpec(25, 6, 0.8),
                 "t2": MarketSpec(20, 6, 0.8)},
        targets=("t1", "t2"), eval_users=12, n_candidates=30)
    base.update(kw)
    return SynthConfig(**base)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    meta = generate(small_config(out))
    return out, meta


class TestGeneratedFiles:
    def test_meta_counts_match_files(self, dataset):
        out, meta = dataset
        for market in ("s1", "t1", "t2"):
            counts = meta["markets"][market]
            for split in ("train", "train_5core"):
                lines = (out / market / f"{split}.tsv").read_text().splitlines()
                assert lines[0] == "userId\titemId\trating"
                assert len(lines) - 1 == counts[split]
            assert counts["users"] <= small_config(out).markets[market].n_users

    def test_source_markets_have_no_eval_files(self, dataset):
        out, _ = dataset
        assert not (out / "s1" / "valid_qrel.tsv").exists()
        assert not (out / "s1" / "test_run.tsv").exists()

    def test_outputs_parse_with_the_market_loader(self, dataset):
        out, meta = dataset
        for market in ("s1", "t1", "t2"):
            _, report = load_market(out / market, market)
            assert report["malformed"] == 0
            by_split = {}
            for *_, split in market_rows(out, market):
                by_split[split] = by_split.get(split, 0) + 1
            for split, n in meta["markets"][market].items():
                if split in ("train", "train_5core", "valid_qrel", "test_qrel"):
                    assert by_split.get(split, 0) == n

    def test_ratings_are_valid_and_items_in_pool(self, dataset):
        out, meta = dataset
        rows = market_rows(out, "t1")
        assert all(1.0 <= rating <= 5.0 for _, _, rating, _ in rows)
        items = {item for _, item, _, _ in rows}
        assert len(items) <= meta["markets"]["t1"]["pool_size"]


class TestRunFiles:
    def test_candidate_lists_have_exactly_one_positive(self, dataset):
        out, _ = dataset
        for market in ("t1", "t2"):
            for which in ("valid", "test"):
                run = load_run(out / market / f"{which}_run.tsv")
                qrels = {}
                qrel_lines = (out / market / f"{which}_qrel.tsv"
                              ).read_text().splitlines()[1:]
                for line in qrel_lines:
                    user, item, _ = line.split("\t")
                    qrels.setdefault(user, set()).add(item)
                assert set(run.users.tolist()) == set(qrels)
                for user, cands in zip(run.users.tolist(),
                                       run.candidate_lists()):
                    assert len(cands) == 30
                    assert len(set(cands)) == 30
                    assert len(qrels[user] & set(cands)) == 1

    def test_positives_are_unseen_in_training(self, dataset):
        out, _ = dataset
        rows = market_rows(out, "t1")
        seen = {(u, i) for u, i, _, split in rows
                if split in ("train", "train_5core")}
        positives = {(u, i) for u, i, _, split in rows
                     if split in ("valid_qrel", "test_qrel")}
        assert positives and not (positives & seen)

    def test_valid_and_test_positives_differ(self, dataset):
        out, _ = dataset
        rows = market_rows(out, "t1")
        valid = {(u, i) for u, i, _, split in rows if split == "valid_qrel"}
        test = {(u, i) for u, i, _, split in rows if split == "test_qrel"}
        assert valid and test and not (valid & test)

    def test_eval_user_cap_respected(self, dataset):
        out, meta = dataset
        assert meta["markets"]["t1"]["valid_qrel"] <= 12
        assert meta["markets"]["t2"]["test_qrel"] <= 12


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(small_config(a))
        generate(small_config(b))
        files_a = sorted(p.relative_to(a) for p in Path(a).rglob("*.tsv"))
        files_b = sorted(p.relative_to(b) for p in Path(b).rglob("*.tsv"))
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()
        assert json.loads((a / "synth_meta.json").read_text()) \
            == json.loads((b / "synth_meta.json").read_text())

    def test_different_seed_different_data(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(small_config(a))
        generate(small_config(b, seed=8))
        assert (a / "t1" / "train.tsv").read_bytes() \
            != (b / "t1" / "train.tsv").read_bytes()


class TestConfigValidation:
    def test_pool_capacity_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="pool"):
            small_config(tmp_path, n_items=40,
                         markets={"s1": MarketSpec(10, 8, 0.5),
                                  "t1": MarketSpec(10, 6, 0.5),
                                  "t2": MarketSpec(10, 6, 0.5)})

    def test_target_must_have_a_market(self, tmp_path):
        with pytest.raises(ConfigError, match="t9"):
            small_config(tmp_path, targets=("t9",))

    def test_market_spec_bounds(self):
        with pytest.raises(ConfigError):
            MarketSpec(0, 10)
        with pytest.raises(ConfigError):
            MarketSpec(10, 1)
        with pytest.raises(ConfigError):
            MarketSpec(10, 10, item_coverage=1.5)

    def test_from_dict_round_trip(self, tmp_path):
        payload = {"out_dir": str(tmp_path), "seed": 3, "n_items": 200,
                   "markets": {"s1": {"n_users": 30, "interactions_per_user": 8},
                               "t1": {"n_users": 20, "interactions_per_user": 6,
                                      "item_coverage": 0.9},
                               "t2": {"n_users": 20, "interactions_per_user": 6}},
                   "targets": ["t1", "t2"], "eval_users": 5,
                   "n_candidates": 25}
        config = synth_config_from_dict(payload)
        assert config.markets["t1"] == MarketSpec(20, 6, 0.9)
        assert config.targets == ("t1", "t2")

    def test_from_dict_rejects_unknown_keys(self, tmp_path):
        with pytest.raises(ConfigError, match="n_markets"):
            synth_config_from_dict({"out_dir": str(tmp_path), "n_markets": 5})
        with pytest.raises(ConfigError, match="sparsity"):
            synth_config_from_dict({
                "out_dir": str(tmp_path),
                "markets": {"t1": {"n_users": 10, "interactions_per_user": 5,
                                   "sparsity": 0.1},
                            "t2": {"n_users": 10, "interactions_per_user": 5}},
            })

    @pytest.mark.parametrize("payload, match", [
        ({"n_items": "200"}, "synth config.n_items must be int"),
        ({"temperature": "hot"}, "synth config.temperature must be float"),
        ({"targets": "t1"}, "synth config.targets must be tuple"),
        ({"markets": {"t1": {"n_users": "10", "interactions_per_user": 5}}},
         r"synth config.markets\['t1'\].n_users must be int"),
        ({"markets": {"t1": {"n_users": 10}}},
         "missing required config key 'interactions_per_user'"),
    ])
    def test_from_dict_rejects_mistyped_values(self, tmp_path, payload, match):
        with pytest.raises(ConfigError, match=match):
            synth_config_from_dict({"out_dir": str(tmp_path), **payload})


class TestCli:
    @pytest.mark.parametrize("text, match", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "root must be an object"),
        ('{"n_items": "many"}', "n_items must be int"),
    ])
    def test_bad_config_exits_1(self, tmp_path, capsys, text, match):
        path = tmp_path / "synth.json"
        path.write_text(text)
        out = tmp_path / "data"
        assert cli.main(["synth", "--out", str(out),
                         "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cmrec: error:") and match in err
        assert not out.exists()
