"""Synthetic cross-market dataset generator.

One shared latent-factor space drives preferences in every market, so the
dense source markets genuinely carry ranking signal for the sparse target
markets — the property the whole pipeline is built to exploit. Each target
user holds out two liked-but-unseen items: one becomes the valid positive,
one the test positive, each hidden inside a candidate list of uniform and
hard (high-preference) negatives. Fully deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .data import (MANDATORY_SPLITS, RUN_FILES, SPLIT_FILES, SPLITS, RunFile,
                   write_run)
from .util import (ConfigError, JsonConfig, atomic_write_text, fmt,
                   stage_seed, write_json)

_HARD_NEGATIVES = 10


@dataclass(frozen=True)
class MarketSpec:
    n_users: int
    interactions_per_user: int
    item_coverage: float = 1.0

    def __post_init__(self):
        if self.n_users < 1 or self.interactions_per_user < 2:
            raise ConfigError("market needs users and at least 2 interactions each")
        if not 0 < self.item_coverage <= 1:
            raise ConfigError("item_coverage must lie in (0, 1]")


def _default_markets() -> dict[str, MarketSpec]:
    return {
        "s1": MarketSpec(800, 24, 0.80),
        "s2": MarketSpec(400, 20, 0.70),
        "s3": MarketSpec(300, 18, 0.60),
        "t1": MarketSpec(200, 8, 0.60),
        "t2": MarketSpec(220, 8, 0.65),
    }


@dataclass(frozen=True)
class SynthConfig(JsonConfig):
    out_dir: str
    seed: int = 0
    n_items: int = 350
    dim: int = 8
    markets: Mapping[str, MarketSpec] = field(default_factory=_default_markets)
    targets: tuple[str, ...] = ("t1", "t2")
    eval_users: int = 120
    n_candidates: int = 100
    temperature: float = 3.0

    def __post_init__(self):
        for t in self.targets:
            if t not in self.markets:
                raise ConfigError(f"target {t!r} missing from markets")
        if self.n_candidates < 2:
            raise ConfigError("n_candidates must be at least 2")
        for name, spec in self.markets.items():
            pool = int(round(spec.item_coverage * self.n_items))
            need = spec.interactions_per_user + 2 + _HARD_NEGATIVES
            if name in self.targets:
                need += self.n_candidates
            if pool < need:
                raise ConfigError(
                    f"market {name!r} pool of {pool} items cannot host "
                    f"{need} interactions+candidates per user")


def synth_config_from_dict(payload: Mapping) -> SynthConfig:
    return SynthConfig.from_dict(payload, "synth config")


def _item_id(idx: int) -> str:
    return f"I{idx:04d}"


def _user_id(market: str, idx: int) -> str:
    return f"{market}U{idx:04d}"


def generate(config: SynthConfig) -> dict:
    """Write the per-market TSV files plus a ground-truth meta JSON;
    returns the meta payload."""
    out = Path(config.out_dir)
    rng_items = np.random.default_rng(stage_seed(config.seed, "synth", "items"))
    factors = rng_items.normal(0.0, 1.0, (config.n_items, config.dim))
    factors /= config.dim ** 0.25

    meta_markets: dict[str, dict] = {}
    for market in sorted(config.markets):
        spec = config.markets[market]
        rng = np.random.default_rng(stage_seed(config.seed, "synth", market))
        pool = np.sort(rng.choice(config.n_items,
                                  int(round(spec.item_coverage * config.n_items)),
                                  replace=False))
        is_target = market in config.targets
        rows: dict[str, list[str]] = {split: [] for split in SPLITS}
        eval_users: list[str] = []
        cand_lists: dict[str, list[list[str]]] = {"valid": [], "test": []}

        for uidx in range(spec.n_users):
            user = _user_id(market, uidx)
            u_vec = rng.normal(0.0, 1.0, config.dim) / config.dim ** 0.25
            pref = factors[pool] @ u_vec
            noisy = pref * config.temperature + rng.gumbel(size=len(pool))
            ranked = pool[np.argsort(-noisy)]
            k = int(np.clip(rng.integers(spec.interactions_per_user - 3,
                                         spec.interactions_per_user + 4),
                            2, len(pool) - 2 - _HARD_NEGATIVES))
            history = ranked[:k]
            ratings = np.clip(np.round(3.0 + 1.2 * (factors[history] @ u_vec)
                                       + rng.normal(0.0, 0.4, k)), 1.0, 5.0)
            for item, rating in zip(history, ratings):
                rows["train"].append(f"{user}\t{_item_id(item)}\t{fmt(rating)}")
            if k >= 5:
                rows["train_5core"] += rows["train"][-k:]

            if is_target and len(eval_users) < config.eval_users and k >= 3:
                eval_users.append(user)
                valid_pos, test_pos = ranked[k], ranked[k + 1]
                hard = ranked[k + 2:k + 2 + _HARD_NEGATIVES]
                held = set(history) | {valid_pos, test_pos} | set(hard)
                free = np.array([i for i in pool if i not in held])
                for positive, which in ((valid_pos, "valid"), (test_pos, "test")):
                    n_uniform = config.n_candidates - 1 - len(hard)
                    uniform = rng.choice(free, n_uniform, replace=False)
                    cands = np.concatenate([[positive], hard, uniform])
                    cands = cands[rng.permutation(len(cands))]
                    rows[f"{which}_qrel"].append(
                        f"{user}\t{_item_id(positive)}\t{fmt(5.0)}")
                    cand_lists[which].append([_item_id(c) for c in cands])

        mdir = out / market
        mdir.mkdir(parents=True, exist_ok=True)
        # source markets have no evaluation files
        for split in SPLITS if is_target else MANDATORY_SPLITS:
            atomic_write_text(mdir / SPLIT_FILES[split], "\n".join(
                ["userId\titemId\trating"] + rows[split]) + "\n")
        for which, fname in RUN_FILES.items() if is_target else ():
            write_run(RunFile.from_lists(eval_users, cand_lists[which]),
                      mdir / fname)

        meta_markets[market] = {
            **{split: len(lines) for split, lines in rows.items()},
            "users": spec.n_users,
            "items": len({line.split("\t")[1] for line in rows["train"]}),
            "pool_size": int(len(pool)),
        }

    meta = {"seed": config.seed, "n_items": config.n_items, "dim": config.dim,
            "targets": list(config.targets), "markets": meta_markets}
    write_json(out / "synth_meta.json", meta)
    return meta
