"""Pipeline configuration: a tree of frozen dataclasses that util.from_dict
loads from JSON, so unknown or missing keys and mistyped values anywhere,
scorer params included, fail before any stage runs, naming their path.
Parsing what dataclasses.asdict gives back yields the same config.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Mapping

from .evaluation import DEFAULT_MARKET_WEIGHTS
from .features import SCORERS
from .gbdt import GbdtParams
from .util import ConfigError, JsonConfig, from_dict, read_json_object


@dataclass(frozen=True)
class ScorerPlanConfig(JsonConfig):
    name: str
    # the user's params as given; validated against the scorer's class
    params: Mapping = field(default_factory=dict)
    # "default" = the ten benchmark combinations; otherwise explicit market lists.
    combinations: str | tuple[tuple[str, ...], ...] = "default"

    def __post_init__(self):
        if self.name not in SCORERS:
            raise ConfigError(f"unknown scorer {self.name!r} "
                              f"(expected one of {', '.join(SCORERS)})")
        if isinstance(self.combinations, str) and self.combinations != "default":
            raise ConfigError("combinations must be \"default\" or market lists")
        from_dict(SCORERS[self.name].params, self.params,
                  f"scorer {self.name!r} params")


def _default_scorers() -> tuple[ScorerPlanConfig, ...]:
    """The memory-based scorers: every unseeded registry entry."""
    return tuple(ScorerPlanConfig(name) for name, scorer in SCORERS.items()
                 if not scorer.seeded)


@dataclass(frozen=True)
class PrerankConfig(JsonConfig):
    scorers: tuple[ScorerPlanConfig, ...] = field(default_factory=_default_scorers)
    stats: bool = True
    external_embeddings: str | None = None


@dataclass(frozen=True)
class SelectionConfig(JsonConfig):
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


@dataclass(frozen=True)
class RankerConfig(JsonConfig):
    params: GbdtParams = field(default_factory=GbdtParams)
    grid: Mapping[str, tuple[float, ...]] | None = None
    folds: int = 10

    def __post_init__(self):
        if self.folds < 2:
            raise ConfigError("ranker folds must be at least 2")
        grid = self.grid or {}
        if set(grid) - {"num_leaves", "learning_rate"} or not all(grid.values()):
            raise ConfigError(f"ranker.grid takes nonempty num_leaves and "
                              f"learning_rate lists, not {dict(grid)}")
        for key, values in grid.items():
            for value in values:  # each a valid GbdtParams value
                from_dict(GbdtParams, {**asdict(self.params), key: value},
                          "ranker.grid")


@dataclass(frozen=True)
class PipelineConfig(JsonConfig):
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
        if len(set(self.targets)) != len(self.targets):
            raise ConfigError("duplicate target names")
        if self.market_weights is None:
            weights, whose = DEFAULT_MARKET_WEIGHTS, "default weights"
        else:
            weights, whose = self.market_weights, "weights"
            bad = [m for m in weights if m not in self.markets]
            if bad:
                raise ConfigError(f"weights name unknown markets: {bad}")
            negative = sorted(m for m, w in weights.items() if w < 0)
            if negative:
                raise ConfigError(f"weights must not be negative: {negative}")
        unweighted = [t for t in self.targets if t not in weights]
        if unweighted:
            raise ConfigError(f"{whose} lack targets: {unweighted}; "
                              f"give market_weights for every target")
        if sum(weights[t] for t in self.targets) <= 0:
            raise ConfigError("weights of the targets must sum to a "
                              "positive value")
        shape = (len(set(self.markets) - set(self.targets)), len(self.targets))
        for sc in self.prerank.scorers:
            if sc.combinations == "default" and shape != (3, 2):
                raise ConfigError(
                    f"scorer {sc.name!r} uses the default combinations, which "
                    f"need exactly 3 source and 2 target markets, not {shape}")
            named = (set() if sc.combinations == "default"
                     else set().union(*sc.combinations))
            unknown = sorted(named - set(self.markets))
            if unknown:
                raise ConfigError(f"scorer {sc.name!r} combination names "
                                  f"unknown markets: {unknown}")


def load_config(path) -> PipelineConfig:
    """The config in the JSON file at path; every error names the file."""
    payload = read_json_object(path)
    try:
        return PipelineConfig.from_dict(payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
