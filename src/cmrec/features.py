"""Pre-ranking feature assembly: run every (scorer x market-combination)
over a candidate run file, attach global statistics and external-embedding
similarities, and keep everything cached and resumable on disk."""

from __future__ import annotations

import io
import shutil
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import embeddings as emb
from . import memory_cf as mcf
from .data import (CombinationSpec, IdEncoder, Interactions, RunFile,
                   SparseInteractionMatrix, build_matrix, first_repeat,
                   read_lines)
from .util import (ConfigError, DataError, atomic_write_bytes, file_sha256,
                   from_dict, params_hash, write_json, write_tsv)


@dataclass(frozen=True)
class Scorer:
    """One pre-ranking scorer.

    fit(matrix, params, users, items) -> model is called once per (params,
    combination), with params an instance of the scorer's params class and
    users and items the ascending encoded ids of every user and candidate
    the model will score; a memory-based fit computes the neighbor lists
    of those entities only, the other fits ignore them.
    score(model, matrix, user_ids, item_ids) -> (values, missing) is called
    once per model and scores every (user, candidate) pair of both run
    files at once, from the aligned encoded ids of the pairs, user id -1
    being a user the encoders do not know; missing is one flag per pair.
    """

    fit: Callable[[SparseInteractionMatrix, object, np.ndarray, np.ndarray],
                  object]
    score: Callable[[object, SparseInteractionMatrix, np.ndarray, np.ndarray],
                    tuple[np.ndarray, np.ndarray]]
    params: type

    @property
    def seeded(self) -> bool:
        """The scorer draws random numbers and gets a derived "seed" param."""
        return any(f.name == "seed" for f in fields(self.params))


@dataclass(frozen=True)
class TopKParams:
    top_k: int = mcf.DEFAULT_TOP_K

    def __post_init__(self):
        if self.top_k < 1:
            raise ValueError("top_k must be at least 1")


@dataclass(frozen=True)
class SwingParams(TopKParams):
    alpha: float = 1.0
    max_users_per_item: int = mcf.DEFAULT_SWING_MAX_USERS

    def __post_init__(self):
        super().__post_init__()
        if self.alpha <= 0 or self.max_users_per_item < 1:
            raise ValueError("alpha must be > 0 and max_users_per_item at "
                             "least 1")


@dataclass(frozen=True)
class BiGraphParams:
    retain_seed: bool = True


@dataclass(frozen=True)
class Word2VecParams(emb.SkipGramParams):
    shuffles: int = 2
    metric: emb.Metric = "cosine"

    def __post_init__(self):
        super().__post_init__()
        if self.shuffles < 1:
            raise ValueError("shuffles must be at least 1")


@dataclass(frozen=True)
class Node2VecParams(emb.SkipGramParams, emb.WalkParams):
    metric: emb.Metric = "cosine"

    def __post_init__(self):
        emb.SkipGramParams.__post_init__(self)
        emb.WalkParams.__post_init__(self)


@dataclass(frozen=True)
class Node2VecDfsParams(Node2VecParams):
    q: float = 0.5


@dataclass(frozen=True)
class Node2VecBfsParams(Node2VecParams):
    q: float = 2.0


@dataclass(frozen=True)
class LightGcnScorerParams(emb.LightGcnParams):
    metric: emb.Metric = "dot"


# Scores are looked up in mcf and emb at call time, so a wrapper set on
# those modules (a tracer, a test double) sees every call.

def _item_based(table, m, users, items):
    return mcf.score_candidates(table, m, users, items)


# Embedding models are (table, metric) pairs: the metric is a param too.

def _fit_word2vec(m: SparseInteractionMatrix, p: Word2VecParams, users, items):
    corpus = emb.user_history_sequences(m, p.shuffles, p.seed)
    trained = emb.train_skipgram(corpus, p, m.n_items)
    return emb.derive_user_vectors(m, *trained), p.metric


def _fit_node2vec(m: SparseInteractionMatrix, p: Node2VecParams, users, items):
    # walk tokens are users, then items offset by n_users
    vectors, present, meta = emb.train_skipgram(
        emb.generate_walks(m, p), p, m.n_users + m.n_items)
    n = m.n_users
    table = emb.EmbeddingTable(vectors[:n], present[:n], vectors[n:],
                               present[n:], meta)
    return table, p.metric


def _fit_lightgcn(m: SparseInteractionMatrix, p: LightGcnScorerParams, users,
                  items):
    return emb.train_lightgcn(m.binarized(), p), p.metric


def _embedding_based(model, m, users, items):
    table, metric = model
    return emb.embedding_score(table, users, items, metric=metric)


# The one list of scorers: adding a scorer means adding one entry here.
SCORERS: dict[str, Scorer] = {
    "item_cf": Scorer(
        lambda m, p, users, items: mcf.item_cosine_similarity(
            m, p.top_k, rows=items),
        _item_based, TopKParams),
    "user_cf": Scorer(
        lambda m, p, users, items: mcf.user_cosine_similarity(
            m, p.top_k, rows=users),
        lambda table, m, users, items: mcf.score_candidates_user_based(
            table, m, users, items), TopKParams),
    "swing": Scorer(
        lambda m, p, users, items: mcf.swing_similarity(
            m.binarized(), alpha=p.alpha, k=p.top_k,
            max_users_per_item=p.max_users_per_item, rows=items),
        _item_based, SwingParams),
    "llr": Scorer(
        lambda m, p, users, items: mcf.llr_item_similarity(
            m.binarized(), p.top_k, rows=items),
        _item_based, TopKParams),
    "bigraph": Scorer(
        lambda m, p, users, items: p.retain_seed,
        lambda retain, m, users, items: mcf.score_candidates_bigraph(
            m, users, items, retain_seed=retain), BiGraphParams),
    "word2vec": Scorer(_fit_word2vec, _embedding_based, Word2VecParams),
    "node2vec_dfs": Scorer(_fit_node2vec, _embedding_based, Node2VecDfsParams),
    "node2vec_bfs": Scorer(_fit_node2vec, _embedding_based, Node2VecBfsParams),
    "lightgcn": Scorer(_fit_lightgcn, _embedding_based, LightGcnScorerParams),
}


@dataclass(frozen=True)
class PlanEntry:
    """A scorer column in prerank's plan and, as kind "scorer", in its
    provenance; params hold the derived seed."""

    scorer: str
    params: Mapping
    combination: tuple[str, ...]
    excludes_target_valid: bool


@dataclass(frozen=True)
class ScorerSpec:
    scorer: str
    params: Mapping
    combination: CombinationSpec

    def __post_init__(self):
        if self.scorer not in SCORERS:
            raise ConfigError(f"unknown scorer {self.scorer!r}")

    @property
    def feature_name(self) -> str:
        return (f"{self.scorer}__{params_hash(dict(self.params))}"
                f"__{self.combination.combo_id}")

    @property
    def entry(self) -> PlanEntry:
        combo = self.combination
        return PlanEntry(self.scorer, dict(self.params), combo.markets,
                         combo.exclude_valid_of_target)


@dataclass(frozen=True)
class FeatureTable:
    """Rows keyed by (user, item) raw ids, held as two string arrays;
    dense float64 columns; optional labels. Keys are checked for
    uniqueness where they enter (read_table, data.load_run) and before
    write_table caches a table, not here."""

    users: np.ndarray
    items: np.ndarray
    columns: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        for name in ("users", "items"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=str))
        n = len(self.users)
        if len(self.items) != n:
            raise ValueError("users and items must align")
        if self.values.shape != (n, len(self.columns)):
            raise ValueError("values shape does not match rows x columns")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature values must be finite")
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels must align with rows")
            if not set(np.unique(self.labels)) <= {0, 1}:
                raise ValueError("labels must be 0/1")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")

    @property
    def n_rows(self) -> int:
        return len(self.users)

    def _position(self, name: str) -> int:
        if name not in self.columns:
            raise KeyError(f"no feature column {name!r}")
        return self.columns.index(name)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._position(name)]

    def select(self, names: Sequence[str]) -> "FeatureTable":
        pos = [self._position(name) for name in names]
        return replace(self, columns=tuple(names),
                       values=self.values[:, pos].copy())

    def with_labels(self, labels: np.ndarray) -> "FeatureTable":
        return replace(self, labels=np.asarray(labels, dtype=np.int8))

    def take(self, indices) -> "FeatureTable":
        idx = np.asarray(indices, dtype=np.int64)
        return replace(self, users=self.users[idx], items=self.items[idx],
                       values=self.values[idx],
                       labels=None if self.labels is None else self.labels[idx])

    def with_columns(self, names: Sequence[str],
                     matrix: np.ndarray) -> "FeatureTable":
        values = (np.hstack([self.values, matrix])
                  if self.columns else np.asarray(matrix, dtype=np.float64))
        return replace(self, columns=self.columns + tuple(names),
                       values=values)


def empty_table(run: RunFile) -> FeatureTable:
    """The run's (user, candidate) pairs in order, with no columns."""
    return FeatureTable(np.repeat(run.users, np.diff(run.offsets)),
                        run.candidates, (), np.zeros((len(run.candidates), 0)))


@dataclass(frozen=True)
class Catalog:
    """features_<run>.catalog.json: the table's columns in order, whether
    it has labels, and each column's provenance. Prerank writes it for
    readers; no stage reads it back."""

    columns: tuple[str, ...]
    has_labels: bool
    provenance: Mapping[str, Mapping]


def write_table(table: FeatureTable, tsv_path, catalog_path,
                provenance: Mapping[str, Mapping],
                cache_dir=None) -> tuple[str, str]:
    """Write the table's TSV and its catalog, which holds provenance (column
    name -> where the column came from); returns their sha256 digests.

    With a cache_dir, the header, users, items, labels (empty if none) and
    values also go to the store (_store) as the TSV's stem, keyed by the
    TSV's sha256 (older keys stay until a sweep_cache), for read_table to
    fetch instead of parsing. They must be what the parse returns, so a
    table with a repeated (user, item) key, which the parse rejects, is not
    stored; ids and column names are assumed free of tabs and line breaks,
    as in prerank's tables, whose ids come from parsed run files."""
    header = ["user", "item"] + (["label"] if table.labels is not None else [])
    header += list(table.columns)
    keys = [table.users, table.items]
    if table.labels is not None:
        keys.append([str(label) for label in table.labels.tolist()])
    catalog = Catalog(table.columns, table.labels is not None,
                      {k: dict(v) for k, v in provenance.items()})
    digest = write_tsv(tsv_path, header, keys, table.values)
    if cache_dir is not None and first_repeat(table.users, table.items) is None:
        # string arrays as wide as their longest id, as the parse's are
        _store(cache_dir, Path(tsv_path).stem, digest, [
            np.array(header, dtype=str),
            np.array(table.users.tolist(), dtype=str),
            np.array(table.items.tolist(), dtype=str),
            np.zeros(0, np.int8) if table.labels is None
            else table.labels.astype(np.int8),
            np.ascontiguousarray(table.values, dtype=np.float64)])
    return digest, write_json(catalog_path, catalog)


def _cache_file(cache_dir, name: str, key: str) -> Path:
    return Path(cache_dir) / f"{name}.{key[:32]}.npy"


def _store(cache_dir, name: str, key: str,
           arrays: Sequence[np.ndarray]) -> None:
    """The one writer of cache files: the key, then the arrays, written
    atomically as consecutive .npy arrays to <name>.<key[:32]>.npy in
    cache_dir, for _fetch to read back; only sweep_cache removes files."""
    path = _cache_file(cache_dir, name, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.BytesIO()
    for arr in [np.array([key]), *arrays]:
        np.lib.format.write_array(buf, arr, allow_pickle=False)
    atomic_write_bytes(path, buf.getvalue())


def sweep_cache(cache_dir, entries: Mapping[str, str]) -> None:
    """Remove every entry of cache_dir, directories and temporary files
    too, but the files of entries' (name, key) pairs."""
    keep = {_cache_file(cache_dir, name, key) for name, key in entries.items()}
    for path in set(Path(cache_dir).glob("*")) - keep:
        if path.is_dir() and not path.is_symlink():
            shutil.rmtree(path)
        else:
            path.unlink()


def _fetch(cache_dir, name: str, key: str,
           kinds: Sequence[tuple[str, int]]) -> list[np.ndarray] | None:
    """The arrays _store stored for name under key, one per (dtype char,
    ndim) of kinds; None when the file is missing or damaged, was stored
    under another key, or holds an array of another kind."""
    def read(fh, char: str, ndim: int) -> np.ndarray:
        arr = np.lib.format.read_array(fh, allow_pickle=False)
        if arr.dtype.char != char or arr.ndim != ndim:
            raise ValueError("not an array of its kind")
        return arr

    try:
        with _cache_file(cache_dir, name, key).open("rb") as fh:
            if read(fh, "U", 1).tolist() != [key]:
                return None
            return [read(fh, *kind) for kind in kinds]
    except (OSError, ValueError):
        return None


def _parse_values(fields: Sequence[str], usecols: Sequence[int]) -> np.ndarray:
    """The usecols fields of tab-separated value rows, parsed in C."""
    return np.loadtxt(fields, dtype=np.float64, delimiter="\t",
                      comments=None, usecols=usecols, ndmin=2)


_LABELS = {"0": 0, "1": 1}


def read_table(tsv_path, columns=None, cache_dir=None) -> FeatureTable:
    """The table write_table wrote, with the named columns in that order
    (default: all); a name the table lacks is a KeyError. Only those
    columns' values are parsed. A malformed row (wrong field count, a
    label other than 0 or 1, a value that is not a finite decimal, a
    repeated (user, item) key) is a DataError naming its file and line.

    With a cache_dir, the TSV's bytes are hashed and the arrays write_table
    stored there for exactly those bytes are fetched, parsing nothing; a
    cache file that is missing, damaged or stored for other bytes is
    ignored and the TSV parsed."""
    tsv_path = Path(tsv_path)
    if not tsv_path.exists():
        raise DataError(f"feature table not found: {tsv_path}")
    digest = None if cache_dir is None else file_sha256(tsv_path)
    stored = None if digest is None else _fetch(
        cache_dir, tsv_path.stem, digest, [("U", 1)] * 3 + [("b", 1), ("d", 2)])
    if stored is not None:
        header, users, items, labels, values = stored
        labeled = header.tolist()[2:3] == ["label"]
        cached = FeatureTable(users, items, tuple(header.tolist()[2 + labeled:]),
                              values, labels if labeled else None)
        return cached if columns is None else cached.select(columns)
    header, line_nos, body = read_lines(tsv_path)
    header = header.split("\t")
    if header[:2] != ["user", "item"]:
        raise DataError(f"{tsv_path}:1: bad feature table header")
    n_keys = 3 if len(header) > 2 and header[2] == "label" else 2
    names = header[n_keys:]
    if len(set(names)) != len(names):
        raise DataError(f"{tsv_path}:1: duplicate column names")
    wanted = tuple(names if columns is None else columns)
    for name in wanted:
        if name not in names:
            raise KeyError(f"no feature column {name!r}")

    def fail(row: int, problem: str):
        raise DataError(f"{tsv_path}:{line_nos[row]}: {problem}")

    tabs = [line.count("\t") for line in body]
    if tabs.count(len(header) - 1) != len(body):
        fail(next(row for row, n in enumerate(tabs) if n != len(header) - 1),
             "wrong field count")
    # one tuple per field over the rows: user, item[, label], and the
    # value fields still joined
    fields = (list(zip(*(line.split("\t", n_keys) for line in body)))
              if body else [()] * n_keys)
    users, items = np.array(fields[0], dtype=str), np.array(fields[1], dtype=str)
    labels = None
    if n_keys == 3:
        codes = [_LABELS.get(label) for label in fields[2]]
        if None in codes:
            fail(codes.index(None), "label must be 0 or 1")
        labels = np.array(codes, dtype=np.int8)
    row = first_repeat(users, items)
    if row is not None:
        fail(row, f"duplicate (user, item) key "
                  f"{(str(users[row]), str(items[row]))}")
    values = np.zeros((len(body), len(wanted)))
    if wanted and body:
        usecols = [names.index(name) for name in wanted]
        try:
            values = _parse_values(fields[n_keys], usecols)
        except ValueError:
            for row, text in enumerate(fields[n_keys]):
                try:
                    _parse_values([text], usecols)
                except ValueError:
                    fail(row, "non-numeric value")
            raise
        finite = np.isfinite(values).all(axis=1)
        if not finite.all():
            fail(int(np.argmin(finite)), "non-finite value")
    return FeatureTable(users, items, wanted, values, labels)


def default_combinations(target: str, all_markets: Sequence[str],
                         targets: Sequence[str]) -> list[CombinationSpec]:
    """The ten benchmark market combinations for one target: all markets,
    all sources + target, target alone, both targets, every source pair +
    target, every single source + target. The config guarantees 3 source
    and 2 target markets."""
    all_markets = sorted(all_markets)
    targets = sorted(targets)
    s1, s2, s3 = [m for m in all_markets if m not in targets]

    def spec(markets):
        return CombinationSpec(target, tuple(sorted(set(markets))))

    return [
        spec(all_markets),
        spec([s1, s2, s3, target]),
        spec([target]),
        spec(targets),
        spec([s1, s3, target]),
        spec([s1, s2, target]),
        spec([s2, s3, target]),
        spec([s1, target]),
        spec([s2, target]),
        spec([s3, target]),
    ]


@dataclass(frozen=True)
class PlanContext:
    """Everything run_plan needs: encoded interactions, the encoders, and
    fit_ids, the ascending encoded ids of every user and of every
    candidate the fitted models will score (known_ids of the pairs).
    matrices holds the combination matrices built so far, so that a
    prerank builds each one once; cache_dir is the column cache."""

    rows: Interactions
    users: IdEncoder
    items: IdEncoder
    fit_ids: tuple[np.ndarray, np.ndarray] = field(compare=False)
    cache_dir: Path | None = None
    matrices: dict = field(default_factory=dict, compare=False)

    def matrix(self, combination: CombinationSpec) -> SparseInteractionMatrix:
        """combination_matrix, built once per combination."""
        if combination not in self.matrices:
            self.matrices[combination] = combination_matrix(self, combination)
        return self.matrices[combination]


def encode_run(run: RunFile, users: IdEncoder, items: IdEncoder
               ) -> tuple[np.ndarray, np.ndarray]:
    """Encoded (user ids, item ids) of the run's pairs, in order; an id the
    encoders do not know becomes -1."""
    return (np.repeat(users.lookup(run.users), np.diff(run.offsets)),
            items.lookup(run.candidates))


def known_ids(user_ids: np.ndarray, item_ids: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """The ascending known user and item ids among the encoded ids of a
    run's pairs: every entity the pairs can ask a model about."""
    users, items = np.unique(user_ids), np.unique(item_ids)
    return users[users >= 0], items[items >= 0]


def combination_matrix(ctx: PlanContext,
                       combination: CombinationSpec) -> SparseInteractionMatrix:
    """Training matrix for one market combination: training splits plus
    cross-market valid positives, never any test positives; the target's
    own valid positives are excluded by the combination flag."""
    rows = ctx.rows.take(np.isin(ctx.rows.market, combination.markets)
                         & (ctx.rows.split != "test_qrel"))
    return build_matrix(rows, combination, len(ctx.users), len(ctx.items))


def run_plan(plan: Sequence[ScorerSpec], ctx: PlanContext,
             user_ids: np.ndarray, item_ids: np.ndarray,
             key: str | None = None
             ) -> tuple[list[str], np.ndarray, dict[str, dict], list[dict]]:
    """(names, values, provenance, failures): one feature column and its
    missing indicator per spec, one values row per (user, candidate) pair
    given as encoded ids (encode_run). Each spec's model is fitted for
    ctx's fit ids, scores every pair in one call and is dropped. With a
    ctx.cache_dir, each column's (2, n_pairs) float64 values and missing
    flags go to the cache store (see _store) under the feature name and
    key, and are fetched back on re-run. A failing scorer is recorded and
    the plan continues."""
    names = [spec.feature_name for spec in plan]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate feature names in plan")
    if ctx.cache_dir is not None and key is None:
        raise ValueError("a plan with a cache_dir needs a key")
    unknown = int(np.count_nonzero(item_ids < 0))
    failures: list[dict] = []
    columns: list[str] = []
    provenance: dict[str, dict] = {}
    # every spec's value and missing row, filled in place (column-major,
    # so memory becomes resident one spec at a time)
    values = np.empty((2 * len(plan), len(item_ids)))
    for spec in plan:
        name = spec.feature_name
        got = (None if ctx.cache_dir is None
               else _fetch(ctx.cache_dir, name, key, [("d", 2)]))
        if got is None or got[0].shape != (2, len(item_ids)):
            try:
                if unknown:
                    raise DataError(f"unknown candidate in {unknown} pairs")
                scorer = SCORERS[spec.scorer]
                params = from_dict(scorer.params, dict(spec.params),
                                   f"scorer {spec.scorer!r} params")
                matrix = ctx.matrix(spec.combination)
                got = [np.stack(scorer.score(
                    scorer.fit(matrix, params, *ctx.fit_ids), matrix,
                    user_ids, item_ids))]
            except Exception as exc:  # noqa: BLE001 - plan must survive one bad scorer
                failures.append({"feature": name, "error": f"{type(exc).__name__}: {exc}"})
                continue
            if ctx.cache_dir is not None:
                _store(ctx.cache_dir, name, key, got)
        prov = {"kind": "scorer", **asdict(spec.entry)}
        values[len(columns):len(columns) + 2] = got[0]
        columns += [name, f"{name}__missing"]
        provenance.update({name: prov, f"{name}__missing": {
            **prov, "kind": "missing_indicator"}})
    return columns, values[:len(columns)].T, provenance, failures


_STAT_SPLITS = ("train", "train_5core")


def global_statistic_features(ctx: PlanContext, user_ids: np.ndarray,
                              item_ids: np.ndarray, target: str
                              ) -> tuple[list[str], np.ndarray, dict]:
    """Fixed catalog of aggregate statistics of a run's pairs, given as
    encoded ids, computed over the union of all markets and over the
    target market alone (training splits only): per-item interaction count
    (+log1p), mean rating, cross-market overlap count, per-user history
    length (+log1p) and mean rating."""
    rows = ctx.rows.take(np.isin(ctx.rows.split, _STAT_SPLITS))
    # Every per-id array below has one spare slot at the end that no row
    # fills, so an id unknown to the encoders (-1) reads as never seen.
    n_users, n_items = len(ctx.users) + 1, len(ctx.items) + 1
    columns: list[str] = []
    mats: list[np.ndarray] = []
    prov: dict[str, dict] = {}

    def push(name, vals, miss=None):
        columns.append(name)
        mats.append(np.asarray(vals, dtype=np.float64))
        prov[name] = {"kind": "statistic", "statistic": name}
        if miss is not None:
            columns.append(f"{name}__missing")
            mats.append(np.asarray(miss, dtype=np.float64))
            prov[f"{name}__missing"] = {"kind": "missing_indicator",
                                        "statistic": name}

    def count_and_mean(ids, scope_ids, ratings, size):
        # bincount adds the weights in row order, as a running float sum
        count = np.bincount(scope_ids, minlength=size)[ids]
        total = np.bincount(scope_ids, weights=ratings, minlength=size)[ids]
        mean = np.divide(total, count, out=np.zeros(len(ids)), where=count > 0)
        return count.astype(np.float64), mean, count == 0

    for scope, scope_rows in (("all", rows),
                              ("target", rows.take(rows.market == target))):
        ic, im, i_miss = count_and_mean(item_ids, scope_rows.item,
                                        scope_rows.rating, n_items)
        uc, um, u_miss = count_and_mean(user_ids, scope_rows.user,
                                        scope_rows.rating, n_users)
        push(f"stat__item_count__{scope}", ic)
        push(f"stat__item_count_log1p__{scope}", np.log1p(ic))
        push(f"stat__item_mean_rating__{scope}", im, miss=i_miss)
        push(f"stat__user_history_len__{scope}", uc)
        push(f"stat__user_history_len_log1p__{scope}", np.log1p(uc))
        push(f"stat__user_mean_rating__{scope}", um, miss=u_miss)

    markets, code = np.unique(rows.market, return_inverse=True)
    held = np.zeros((len(markets), n_items), dtype=bool)
    held[code, rows.item] = True
    push("stat__item_market_overlap__all",
         held.sum(axis=0)[item_ids].astype(np.float64))
    return columns, np.column_stack(mats), prov


def external_embedding_features(vectors: Mapping[str, np.ndarray],
                                user_ids: np.ndarray, item_ids: np.ndarray,
                                matrix: SparseInteractionMatrix,
                                ctx: PlanContext
                                ) -> tuple[list[str], np.ndarray, dict]:
    """Mean and max cosine between each candidate's vector and the user's
    covered history-item vectors, for a run's pairs given as encoded ids;
    uncovered pairs get the missing flag. vectors are keyed by raw item
    id; a zero vector covers nothing."""
    # unit vectors by item id; the spare last row is the unknown id (-1)
    unit = np.zeros((len(ctx.items) + 1, len(next(iter(vectors.values()), ()))))
    for k, raw in enumerate(ctx.items.ids.tolist()):
        vec = vectors.get(raw)
        norm = 0.0 if vec is None else float(np.linalg.norm(vec))
        if norm > 0:
            unit[k] = vec / norm
    has = unit.any(axis=1)
    # user u's covered history is hist_items[hist_ptr[u]:hist_ptr[u + 1]]
    covered = has[matrix.user_items]
    hist_items = matrix.user_items[covered]
    hist_ptr = np.concatenate([[0], np.cumsum(covered)])[matrix.user_ptr]
    lens = np.append(np.diff(hist_ptr), 0)[user_ids]  # -1 reads the spare 0
    scored = np.flatnonzero((lens > 0) & has[item_ids])
    out = np.tile([0.0, 0.0, 1.0], (len(item_ids), 1))  # mean, max, missing
    if len(scored):
        lens = lens[scored]
        starts = np.cumsum(lens) - lens
        # one entry per (scored pair, covered history item of its user)
        hist = hist_items[mcf._ranges(hist_ptr[user_ids[scored]], lens)]
        cands = np.repeat(item_ids[scored], lens)
        cos = np.einsum("ij,ij->i", unit[hist], unit[cands])
        out[scored] = np.column_stack([np.add.reduceat(cos, starts) / lens,
                                       np.maximum.reduceat(cos, starts),
                                       np.zeros(len(scored))])
    names = ["ext_emb__mean_cos", "ext_emb__max_cos", "ext_emb__missing"]
    return names, out, {n: {"kind": "external_embedding"} for n in names}


def feature_correlation(table: FeatureTable,
                        columns: Sequence[str]) -> np.ndarray:
    """Pearson correlation matrix over the named columns. Constant columns
    correlate as 0 everywhere, with themselves too."""
    if table.n_rows < 2:
        raise DataError("correlation needs at least two rows")
    mat = np.column_stack([table.column(c) for c in columns])
    centered = mat - mat.mean(axis=0)
    std = centered.std(axis=0)
    constant = std == 0
    safe = np.where(constant, 1.0, std)
    z = centered / safe
    corr = (z.T @ z) / len(z)
    corr[constant, :] = 0.0
    corr[:, constant] = 0.0
    for pos in np.flatnonzero(~constant):
        corr[pos, pos] = 1.0
    return corr

