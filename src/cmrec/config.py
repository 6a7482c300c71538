"""Pipeline configuration: a strict-keyed dataclass tree loaded from JSON.

Unknown keys anywhere in the document are rejected up front, so typos
fail before any stage runs. parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .features import SCORERS
from .gbdt import GbdtParams
from .util import ConfigError, atomic_write_text


def _reject_unknown(payload: Mapping, allowed, where: str) -> None:
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {unknown}")


def _gbdt_params(payload: Mapping, where: str) -> GbdtParams:
    _reject_unknown(payload, {f.name for f in dataclasses.fields(GbdtParams)}, where)
    try:
        return GbdtParams(**payload)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ScorerPlanConfig:
    name: str
    params: Mapping = field(default_factory=dict)
    # "default" = the ten benchmark combinations; otherwise explicit market lists.
    combinations: str | tuple[tuple[str, ...], ...] = "default"

    def __post_init__(self):
        if self.name not in SCORERS:
            raise ConfigError(f"unknown scorer {self.name!r} "
                              f"(expected one of {', '.join(SCORERS)})")
        if isinstance(self.combinations, str) and self.combinations != "default":
            raise ConfigError("combinations must be \"default\" or market lists")

    @staticmethod
    def from_dict(payload: Mapping) -> "ScorerPlanConfig":
        _reject_unknown(payload, ("name", "params", "combinations"),
                        f"scorer {payload.get('name', '?')!r}")
        combos = payload.get("combinations", "default")
        if not isinstance(combos, str):
            combos = tuple(tuple(c) for c in combos)
        return ScorerPlanConfig(payload["name"], dict(payload.get("params", {})),
                                combos)

    def to_dict(self) -> dict:
        combos = (self.combinations if isinstance(self.combinations, str)
                  else [list(c) for c in self.combinations])
        return {"name": self.name, "params": dict(self.params),
                "combinations": combos}


def _default_scorers() -> tuple[ScorerPlanConfig, ...]:
    """The memory-based scorers: every unseeded registry entry."""
    return tuple(ScorerPlanConfig(name) for name, scorer in SCORERS.items()
                 if not scorer.seeded)


@dataclass(frozen=True)
class PrerankConfig:
    scorers: tuple[ScorerPlanConfig, ...] = field(default_factory=_default_scorers)
    stats: bool = True
    external_embeddings: str | None = None

    @staticmethod
    def from_dict(payload: Mapping) -> "PrerankConfig":
        _reject_unknown(payload, ("scorers", "stats", "external_embeddings"),
                        "prerank")
        kwargs = {}
        if "scorers" in payload:
            kwargs["scorers"] = tuple(ScorerPlanConfig.from_dict(s)
                                      for s in payload["scorers"])
        if "stats" in payload:
            kwargs["stats"] = bool(payload["stats"])
        if "external_embeddings" in payload:
            kwargs["external_embeddings"] = payload["external_embeddings"]
        return PrerankConfig(**kwargs)

    def to_dict(self) -> dict:
        return {"scorers": [s.to_dict() for s in self.scorers],
                "stats": self.stats,
                "external_embeddings": self.external_embeddings}


@dataclass(frozen=True)
class SelectionConfig:
    shift_threshold: float = 0.10
    cv_epsilon: float = 0.0
    folds: int = 5
    n_shuffles: int = 50
    trainer: GbdtParams = field(default_factory=lambda: GbdtParams(
        num_leaves=15, learning_rate=0.1, n_rounds=30, min_data_in_leaf=20))

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError("selection folds must be at least 2")
        if self.n_shuffles < 1:
            raise ConfigError("n_shuffles must be at least 1")

    @staticmethod
    def from_dict(payload: Mapping) -> "SelectionConfig":
        _reject_unknown(payload, ("shift_threshold", "cv_epsilon", "folds",
                                  "n_shuffles", "trainer"), "selection")
        kwargs = dict(payload)
        if "trainer" in kwargs:
            kwargs["trainer"] = _gbdt_params(kwargs["trainer"], "selection.trainer")
        return SelectionConfig(**kwargs)

    def to_dict(self) -> dict:
        return {"shift_threshold": self.shift_threshold,
                "cv_epsilon": self.cv_epsilon, "folds": self.folds,
                "n_shuffles": self.n_shuffles,
                "trainer": dataclasses.asdict(self.trainer)}


@dataclass(frozen=True)
class RankerConfig:
    params: GbdtParams = field(default_factory=GbdtParams)
    grid: Mapping[str, tuple] | None = None
    folds: int = 10

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError("ranker folds must be at least 2")
        if self.grid is not None:
            _reject_unknown(self.grid, ("num_leaves", "learning_rate"),
                            "ranker.grid")

    @staticmethod
    def from_dict(payload: Mapping) -> "RankerConfig":
        _reject_unknown(payload, ("params", "grid", "folds"), "ranker")
        kwargs = dict(payload)
        if "params" in kwargs:
            kwargs["params"] = _gbdt_params(kwargs["params"], "ranker.params")
        if kwargs.get("grid") is not None:
            kwargs["grid"] = {k: tuple(v) for k, v in kwargs["grid"].items()}
        return RankerConfig(**kwargs)

    def to_dict(self) -> dict:
        return {"params": dataclasses.asdict(self.params),
                "grid": (None if self.grid is None
                         else {k: list(v) for k, v in self.grid.items()}),
                "folds": self.folds}


@dataclass(frozen=True)
class PipelineConfig:
    data_dir: str
    workspace: str
    markets: tuple[str, ...]
    targets: tuple[str, ...]
    seed: int = 0
    market_weights: Mapping[str, float] | None = None
    prerank: PrerankConfig = field(default_factory=PrerankConfig)
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    ranker: RankerConfig = field(default_factory=RankerConfig)

    def __post_init__(self):
        if not self.markets:
            raise ConfigError("markets must be nonempty")
        if len(set(self.markets)) != len(self.markets):
            raise ConfigError("duplicate market names")
        missing = [t for t in self.targets if t not in self.markets]
        if missing:
            raise ConfigError(f"targets not among markets: {missing}")
        if not self.targets:
            raise ConfigError("at least one target market is required")
        if self.market_weights is not None:
            bad = [m for m in self.market_weights if m not in self.markets]
            if bad:
                raise ConfigError(f"weights name unknown markets: {bad}")

    @staticmethod
    def from_dict(payload: Mapping) -> "PipelineConfig":
        _reject_unknown(payload, ("data_dir", "workspace", "markets", "targets",
                                  "seed", "market_weights", "prerank",
                                  "selection", "ranker"), "config")
        for required in ("data_dir", "workspace", "markets", "targets"):
            if required not in payload:
                raise ConfigError(f"missing required config key {required!r}")
        return PipelineConfig(
            data_dir=payload["data_dir"],
            workspace=payload["workspace"],
            markets=tuple(payload["markets"]),
            targets=tuple(payload["targets"]),
            seed=int(payload.get("seed", 0)),
            market_weights=(None if payload.get("market_weights") is None
                            else dict(payload["market_weights"])),
            prerank=PrerankConfig.from_dict(payload.get("prerank", {})),
            selection=SelectionConfig.from_dict(payload.get("selection", {})),
            ranker=RankerConfig.from_dict(payload.get("ranker", {})),
        )

    def to_dict(self) -> dict:
        return {"data_dir": self.data_dir, "workspace": self.workspace,
                "markets": list(self.markets), "targets": list(self.targets),
                "seed": self.seed,
                "market_weights": (None if self.market_weights is None
                                   else dict(self.market_weights)),
                "prerank": self.prerank.to_dict(),
                "selection": self.selection.to_dict(),
                "ranker": self.ranker.to_dict()}


def load_config(path) -> PipelineConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config root must be an object: {path}")
    return PipelineConfig.from_dict(payload)


def save_config(config: PipelineConfig, path) -> None:
    atomic_write_text(path, json.dumps(config.to_dict(), indent=2,
                                       sort_keys=True) + "\n")
