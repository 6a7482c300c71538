"""The benchmark's workloads: synthetic inputs plus a pipeline config.

All three use the two-target, five-market layout with 100 evaluation users
and 40 candidates each per target, and the stage sequence of rep.py. They
differ in which layer dominates the time:

rank_small      the acceptance dataset of tests/test_acceptance.py with the
                five memory-based scorers; the feature screen and the
                bagged ranker (gbdt) take most of the time, memory_cf
                scoring and feature-table I/O the rest.
embed_small     the same dataset with word2vec, node2vec and LightGCN;
                embedding training takes most of the time, gbdt the rest.
prerank_medium  the --scale medium shape of scripts/run_synthetic_e2e.py
                with the five memory-based scorers and a minimal screen and
                ranker; memory_cf scoring, feature building and table I/O
                over the largest snapshot take most of the time.

The screen, ranker and embedding settings are cut down from the acceptance
settings so that one cold pipeline takes about ten seconds on a 2-core
machine and three fit in one 40 s run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

PIPELINE_SEED = 17
MARKETS = ("s1", "s2", "s3", "t1", "t2")
TARGETS = ("t1", "t2")
MEMORY_SCORERS = ("item_cf", "user_cf", "swing", "llr", "bigraph")
# Both combinations contain both targets, so they are valid for either one.
WIDE = [list(MARKETS), ["t1", "t2"]]

# (n_users, interactions_per_user, item_coverage) per market
SMALL = {"s1": (120, 16, 0.85), "s2": (80, 14, 0.75), "s3": (60, 12, 0.70),
         "t1": (120, 6, 0.75), "t2": (120, 6, 0.75)}
MEDIUM = {"s1": (800, 24, 0.80), "s2": (400, 20, 0.70), "s3": (300, 18, 0.60),
          "t1": (200, 8, 0.60), "t2": (220, 8, 0.65)}

SCREEN = {"folds": 2, "n_shuffles": 1, "cv_epsilon": -0.005,
          "trainer": {"num_leaves": 15, "n_rounds": 4, "learning_rate": 0.1,
                      "min_data_in_leaf": 10}}
RANKER = {"params": {"num_leaves": 15, "n_rounds": 15, "learning_rate": 0.1,
                     "min_data_in_leaf": 10, "l2_leaf_reg": 1.0,
                     "feature_fraction": 0.8},
          "folds": 2}
# prerank_medium only needs select and train to run, so it screens and
# ranks with the smallest settings that still produce a model.
MIN_SCREEN = {"folds": 2, "n_shuffles": 1, "cv_epsilon": -0.005,
              "trainer": {"num_leaves": 7, "n_rounds": 1, "learning_rate": 0.1,
                          "min_data_in_leaf": 10}}
MIN_RANKER = {"params": {"num_leaves": 7, "n_rounds": 3, "learning_rate": 0.1,
                         "min_data_in_leaf": 10, "l2_leaf_reg": 1.0,
                         "feature_fraction": 0.8},
              "folds": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    scorers: list
    markets: dict
    n_items: int
    selection: dict
    ranker: dict

    def synth_config(self, out_dir: Path, seed: int):
        from cmrec.synth import MarketSpec, SynthConfig
        return SynthConfig(
            out_dir=str(out_dir), seed=seed, n_items=self.n_items, dim=5,
            markets={m: MarketSpec(*spec) for m, spec in self.markets.items()},
            targets=TARGETS, eval_users=100, n_candidates=40)

    def pipeline_config(self, data_dir: Path, workspace: Path):
        from cmrec.config import PipelineConfig
        return PipelineConfig.from_dict({
            "data_dir": str(data_dir), "workspace": str(workspace),
            "markets": list(MARKETS), "targets": list(TARGETS),
            "seed": PIPELINE_SEED, "prerank": {"scorers": self.scorers},
            "selection": self.selection, "ranker": self.ranker})


MEMORY = [{"name": name, "combinations": WIDE} for name in MEMORY_SCORERS]
EMBEDDING = [
    {"name": "word2vec", "combinations": WIDE,
     "params": {"dim": 16, "epochs": 1}},
    {"name": "node2vec_dfs", "combinations": WIDE,
     "params": {"dim": 16, "epochs": 1, "walks_per_node": 1}},
    {"name": "lightgcn", "combinations": WIDE,
     "params": {"dim": 16, "epochs": 4, "layers": 3, "node_dropout": 0.2}},
]

WORKLOADS = {w.name: w for w in (
    Workload("rank_small", MEMORY, SMALL, 200, SCREEN, RANKER),
    Workload("embed_small", EMBEDDING, SMALL, 200, SCREEN, RANKER),
    Workload("prerank_medium", MEMORY, MEDIUM, 350, MIN_SCREEN, MIN_RANKER),
)}
