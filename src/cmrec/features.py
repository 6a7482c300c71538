"""Pre-ranking feature assembly: run every (scorer x market-combination)
over a candidate run file, attach global statistics and external-embedding
similarities, and keep everything cached and resumable on disk."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from . import embeddings as emb
from . import memory_cf as mcf
from .data import (CombinationSpec, IdEncoder, Interactions, RunFile,
                   SparseInteractionMatrix, build_matrix)
from .util import (ConfigError, DataError, atomic_save_npy,
                   atomic_write_bytes, atomic_write_text, fmt,
                   params_hash)


@dataclass(frozen=True)
class Scorer:
    """One pre-ranking scorer.

    fit(matrix, params) -> model is called once per (params, combination);
    score(model, matrix, user_ids, item_ids) -> (values, missing) is called
    once per run and scores every (user, candidate) pair of it at once,
    from the aligned encoded ids of the pairs in run order, user id -1
    being a user the encoders do not know; missing is one flag per pair.
    A seeded scorer draws random numbers and gets a derived "seed" param.
    """

    fit: Callable[[SparseInteractionMatrix, Mapping], object]
    score: Callable[[object, SparseInteractionMatrix, np.ndarray, np.ndarray],
                    tuple[np.ndarray, np.ndarray]]
    seeded: bool = False


def _top_k(p: Mapping) -> int:
    return int(p.get("top_k", mcf.DEFAULT_TOP_K))


# Scores are looked up in mcf and emb at call time, so a wrapper set on
# those modules (a tracer, a test double) sees every call.

def _item_based(table, m, users, items):
    return mcf.score_candidates(table, m, users, items)


def _skipgram_params(p: Mapping) -> emb.SkipGramParams:
    return emb.SkipGramParams(dim=int(p.get("dim", 64)),
                              window=int(p.get("window", 5)),
                              negatives=int(p.get("negatives", 5)),
                              epochs=int(p.get("epochs", 3)),
                              learning_rate=float(p.get("learning_rate", 0.025)),
                              seed=int(p.get("seed", 0)))


# Embedding models are (table, metric) pairs: the metric is a param too.

def _fit_word2vec(m: SparseInteractionMatrix, p: Mapping):
    corpus = emb.user_history_sequences(m, int(p.get("shuffles", 2)),
                                        int(p.get("seed", 0)))
    table = emb.train_skipgram(corpus, _skipgram_params(p))
    return emb.derive_user_vectors(m, table), p.get("metric", "cosine")


def _fit_node2vec(m: SparseInteractionMatrix, p: Mapping, q: float):
    walks = emb.generate_walks(m, emb.WalkParams(
        p=float(p.get("p", 1.0)), q=float(p.get("q", q)),
        walk_length=int(p.get("walk_length", 20)),
        walks_per_node=int(p.get("walks_per_node", 10)),
        seed=int(p.get("seed", 0))))

    def key(token: int) -> str:
        return (emb.user_node(token) if token < m.n_users
                else emb.item_node(token - m.n_users))

    table = emb.train_skipgram(walks, _skipgram_params(p), node_key=key)
    return table, p.get("metric", "cosine")


def _fit_lightgcn(m: SparseInteractionMatrix, p: Mapping):
    table = emb.train_lightgcn(m.binarized(), emb.LightGcnParams(
        layers=int(p.get("layers", 4)), dim=int(p.get("dim", 64)),
        node_dropout=float(p.get("node_dropout", 0.4)),
        learning_rate=float(p.get("learning_rate", 0.001)),
        l2_reg=float(p.get("l2_reg", 1e-4)),
        epochs=int(p.get("epochs", 20)),
        batch_size=int(p.get("batch_size", 1024)), seed=int(p.get("seed", 0))))
    return table, p.get("metric", "dot")


def _embedding_based(model, m, users, items):
    table, metric = model
    return emb.embedding_score(table, users, items, metric=metric)


# The one list of scorers: adding a scorer means adding one entry here.
SCORERS: dict[str, Scorer] = {
    "item_cf": Scorer(lambda m, p: mcf.item_cosine_similarity(m, _top_k(p)),
                      _item_based),
    "user_cf": Scorer(
        lambda m, p: mcf.user_cosine_similarity(m, _top_k(p)),
        lambda table, m, users, items: mcf.score_candidates_user_based(
            table, m, users, items)),
    "swing": Scorer(
        lambda m, p: mcf.swing_similarity(
            m.binarized(), alpha=float(p.get("alpha", 1.0)), k=_top_k(p),
            max_users_per_item=int(p.get("max_users_per_item",
                                         mcf.DEFAULT_SWING_MAX_USERS))),
        _item_based),
    "llr": Scorer(lambda m, p: mcf.llr_item_similarity(m.binarized(), _top_k(p)),
                  _item_based),
    "bigraph": Scorer(
        lambda m, p: bool(p.get("retain_seed", True)),
        lambda retain, m, users, items: mcf.score_candidates_bigraph(
            m, users, items, retain_seed=retain)),
    "word2vec": Scorer(_fit_word2vec, _embedding_based, seeded=True),
    "node2vec_dfs": Scorer(lambda m, p: _fit_node2vec(m, p, q=0.5),
                           _embedding_based, seeded=True),
    "node2vec_bfs": Scorer(lambda m, p: _fit_node2vec(m, p, q=2.0),
                           _embedding_based, seeded=True),
    "lightgcn": Scorer(_fit_lightgcn, _embedding_based, seeded=True),
}


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


@dataclass(frozen=True)
class FeatureTable:
    """Rows keyed by (user, item); dense float64 columns; optional labels."""

    users: tuple[str, ...]
    items: tuple[str, ...]
    columns: tuple[str, ...]
    values: np.ndarray
    labels: np.ndarray | None = None
    provenance: Mapping[str, Mapping] = field(default_factory=dict)

    def __post_init__(self):
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
        if len(set(zip(self.users, self.items))) != n:
            raise ValueError("duplicate (user, item) keys")
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column names")

    @property
    def n_rows(self) -> int:
        return len(self.users)

    def column(self, name: str) -> np.ndarray:
        try:
            pos = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no feature column {name!r}") from None
        return self.values[:, pos]

    def select(self, names: Sequence[str]) -> "FeatureTable":
        pos = []
        for name in names:
            if name not in self.columns:
                raise KeyError(f"no feature column {name!r}")
            pos.append(self.columns.index(name))
        return FeatureTable(self.users, self.items, tuple(names),
                            self.values[:, pos].copy(), self.labels,
                            {n: self.provenance[n] for n in names
                             if n in self.provenance})

    def with_labels(self, labels: np.ndarray) -> "FeatureTable":
        return FeatureTable(self.users, self.items, self.columns, self.values,
                            np.asarray(labels, dtype=np.int8), self.provenance)

    def take(self, indices) -> "FeatureTable":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureTable(tuple(self.users[i] for i in idx),
                            tuple(self.items[i] for i in idx),
                            self.columns, self.values[idx],
                            None if self.labels is None else self.labels[idx],
                            self.provenance)

    def with_columns(self, names: Sequence[str], matrix: np.ndarray,
                     provenance: Mapping[str, Mapping]) -> "FeatureTable":
        merged = dict(self.provenance)
        merged.update(provenance)
        values = (np.hstack([self.values, matrix])
                  if self.columns else np.asarray(matrix, dtype=np.float64))
        return FeatureTable(self.users, self.items,
                            self.columns + tuple(names), values,
                            self.labels, merged)


def empty_table(run: RunFile) -> FeatureTable:
    pairs = run.pairs()
    return FeatureTable(tuple(u for u, _ in pairs), tuple(i for _, i in pairs),
                        (), np.zeros((len(pairs), 0)))


# Rows formatted per block in write_table. Its numpy and string
# temporaries grow with the block: writing a 4,000 x 37 table in blocks of
# 1,024 rows raised the peak RSS about 1 MB over a row-by-row writer, in
# blocks of 256 not at all.
_WRITE_BLOCK_ROWS = 256


def _tsv_blocks(keys: Sequence[Sequence[str]], values: np.ndarray):
    """UTF-8 lines, one block of rows at a time: per row the key fields
    and util.fmt of each value, tab-joined. A block's values take one
    repr per distinct float64 bit pattern, so -0.0 and 0.0 keep their own
    text."""
    for start in range(0, len(values), _WRITE_BLOCK_ROWS):
        stop = start + _WRITE_BLOCK_ROWS
        bits = values[start:stop].view(np.int64)
        distinct, which = np.unique(bits, return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                        dtype=object)
        cells = np.empty((len(bits), len(keys) + bits.shape[1]), dtype=object)
        for pos, key in enumerate(keys):
            cells[:, pos] = key[start:stop]
        cells[:, len(keys):] = text[which.reshape(bits.shape)]
        lines = map("\t".join, cells.tolist())
        yield ("\n".join(lines) + "\n").encode("utf-8")


def write_table(table: FeatureTable, tsv_path, catalog_path) -> None:
    header = ["user", "item"] + (["label"] if table.labels is not None else [])
    header += list(table.columns)
    keys = [table.users, table.items]
    if table.labels is not None:
        keys.append([str(label) for label in table.labels.tolist()])
    # the file is built from encoded blocks, so no list of every line and
    # no whole-file str exist next to its bytes
    blocks = [("\t".join(header) + "\n").encode("utf-8")]
    blocks += _tsv_blocks(keys, np.ascontiguousarray(table.values,
                                                     dtype=np.float64))
    atomic_write_bytes(Path(tsv_path), b"".join(blocks))
    catalog = {"columns": list(table.columns),
               "has_labels": table.labels is not None,
               "provenance": {k: dict(v) for k, v in table.provenance.items()}}
    atomic_write_text(Path(catalog_path),
                      json.dumps(catalog, indent=2, sort_keys=True) + "\n")


def _parse_values(fields: Sequence[str], usecols: Sequence[int]) -> np.ndarray:
    """The usecols fields of tab-separated value rows, parsed in C."""
    return np.loadtxt(fields, dtype=np.float64, delimiter="\t",
                      comments=None, usecols=usecols, ndmin=2)


_LABELS = {"0": 0, "1": 1}


def read_table(tsv_path, catalog_path=None, columns=None) -> FeatureTable:
    """The table write_table wrote, with the named columns in that order
    (default: all); a name the table lacks is a KeyError. Only those
    columns' values are parsed. A malformed row (wrong field count, a
    label other than 0 or 1, a value that is not a finite decimal, a
    repeated (user, item) key) is a DataError naming its file and line."""
    tsv_path = Path(tsv_path)
    if not tsv_path.exists():
        raise DataError(f"feature table not found: {tsv_path}")
    lines = tsv_path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split("\t")
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
    line_nos = [n for n, line in enumerate(lines[1:], start=2) if line]
    body = [lines[n - 1] for n in line_nos]

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
    users, items = fields[0], fields[1]
    labels = None
    if n_keys == 3:
        codes = [_LABELS.get(label) for label in fields[2]]
        if None in codes:
            fail(codes.index(None), "label must be 0 or 1")
        labels = np.array(codes, dtype=np.int8)
    if len(set(zip(users, items))) != len(users):
        seen = set()
        for row, key in enumerate(zip(users, items)):
            if key in seen:
                fail(row, f"duplicate (user, item) key {key}")
            seen.add(key)
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
    provenance = {}
    if catalog_path is not None and Path(catalog_path).exists():
        catalog = json.loads(Path(catalog_path).read_text(encoding="utf-8"))
        provenance = catalog.get("provenance", {})
    return FeatureTable(users, items, wanted, values, labels,
                        {n: provenance[n] for n in wanted if n in provenance})


def default_combinations(target: str, all_markets: Sequence[str],
                         targets: Sequence[str] | None = None
                         ) -> list[CombinationSpec]:
    """The ten benchmark market combinations for one target: all markets,
    all sources + target, target alone, both targets, every source pair +
    target, every single source + target."""
    all_markets = sorted(all_markets)
    if target not in all_markets:
        raise ConfigError(f"target {target!r} not among markets")
    if targets is None:
        targets = [m for m in all_markets if m.startswith("t")]
    targets = sorted(targets)
    sources = [m for m in all_markets if m not in targets]
    if len(sources) != 3 or len(targets) != 2:
        raise ConfigError("expected exactly 3 source and 2 target markets")
    s1, s2, s3 = sources

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
    """Everything run_plan needs: encoded interactions and the encoders.

    model_cache memoizes fitted similarity tables / embedding tables per
    (scorer, params, combination) so that scoring a second run file does
    not retrain anything."""

    rows: Interactions
    users: IdEncoder
    items: IdEncoder
    cache_dir: Path | None = None
    model_cache: dict = field(default_factory=dict, compare=False)


def encode_run(run: RunFile, users: IdEncoder, items: IdEncoder
               ) -> tuple[np.ndarray, np.ndarray]:
    """Encoded (user ids, item ids) of the run's pairs, in order; an id the
    encoders do not know becomes -1."""
    pairs = run.pairs()
    return (np.array([users.forward.get(u, -1) for u, _ in pairs], dtype=np.int64),
            np.array([items.forward.get(i, -1) for _, i in pairs], dtype=np.int64))


def combination_matrix(ctx: PlanContext,
                       combination: CombinationSpec) -> SparseInteractionMatrix:
    """Training matrix for one market combination: training splits plus
    cross-market valid positives, never any test positives; the target's
    own valid positives are excluded by the combination flag."""
    rows = ctx.rows.take(np.isin(ctx.rows.market, combination.markets)
                         & (ctx.rows.split != "test_qrel"))
    return build_matrix(rows, combination, len(ctx.users), len(ctx.items))


def _cache_key(ctx: PlanContext, run: RunFile) -> str:
    """Digest of all a cached column depends on besides its spec: the rows,
    both encoders and the run. A changed input gives a new file name."""
    digest = blake2b(digest_size=16)
    rows = ctx.rows
    for arr in (rows.user, rows.item, rows.rating, rows.market, rows.split):
        digest.update(f"{arr.dtype.str}{arr.shape}".encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    digest.update(json.dumps([ctx.users.reverse, ctx.items.reverse,
                              run.entries]).encode())
    return digest.hexdigest()


def _load_cached(path: Path, n_pairs: int) -> np.ndarray | None:
    """The (2, n_pairs) float64 array of values and missing flags stored at
    path; None when there is no such file or it holds anything else."""
    try:
        with path.open("rb") as fh:
            cached = np.lib.format.read_array(fh, allow_pickle=False)
    except (OSError, ValueError):
        return None
    if cached.shape != (2, n_pairs) or cached.dtype != np.float64:
        return None
    return cached


def _drop_stale(cache: Path, name: str) -> None:
    """Remove column name's files other than cache: those under another
    digest and a .tsv from before the .npy cache. Other columns' files
    stay."""
    stale = re.compile(re.escape(name) + r"(\.[0-9a-f]{32}\.npy|\.tsv)")
    for path in cache.parent.iterdir():
        if path != cache and stale.fullmatch(path.name):
            path.unlink(missing_ok=True)


def run_plan(plan: Sequence[ScorerSpec], ctx: PlanContext, run: RunFile
             ) -> tuple[FeatureTable, list[dict]]:
    """One feature column (plus a missing-indicator column) per spec, rows
    exactly the run file's (user, candidate) pairs in order. Completed
    columns are cached in ctx.cache_dir as <feature>.<digest>.npy and read
    back on re-run; writing one removes that column's files under other
    digests. A failing scorer is recorded and the plan continues."""
    names = [spec.feature_name for spec in plan]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate feature names in plan")
    user_ids, item_ids = encode_run(run, ctx.users, ctx.items)
    unknown = [c for (_, c), i in zip(run.pairs(), item_ids) if i < 0]
    failures: list[dict] = []
    matrices: dict[str, SparseInteractionMatrix] = {}
    key = None if ctx.cache_dir is None else _cache_key(ctx, run)
    columns: list[str] = []
    provenance: dict[str, dict] = {}
    # every spec's value and missing row, filled in place (column-major,
    # so memory becomes resident one spec at a time)
    values = np.empty((2 * len(plan), len(item_ids)))
    for spec in plan:
        name = spec.feature_name
        cache = None if key is None else Path(ctx.cache_dir) / f"{name}.{key}.npy"
        got = None if cache is None else _load_cached(cache, len(item_ids))
        if got is None:
            try:
                if unknown:
                    raise DataError(f"unknown id {unknown[0]!r}")
                got = np.stack(_score_run(spec, ctx, user_ids, item_ids,
                                          matrices))
            except Exception as exc:  # noqa: BLE001 - plan must survive one bad scorer
                failures.append({"feature": name, "error": f"{type(exc).__name__}: {exc}"})
                continue
            if cache is not None:
                cache.parent.mkdir(parents=True, exist_ok=True)
                atomic_save_npy(cache, got)
                _drop_stale(cache, name)
        prov = {"kind": "scorer", "scorer": spec.scorer,
                "params": dict(spec.params),
                "combination": list(spec.combination.markets),
                "excludes_target_valid": spec.combination.exclude_valid_of_target}
        values[len(columns):len(columns) + 2] = got
        columns += [name, f"{name}__missing"]
        provenance.update({name: prov, f"{name}__missing": {
            **prov, "kind": "missing_indicator"}})
    table = empty_table(run)
    if columns:
        table = table.with_columns(
            columns, np.ascontiguousarray(values[:len(columns)].T), provenance)
    return table, failures


def _score_run(spec: ScorerSpec, ctx: PlanContext, user_ids: np.ndarray,
               item_ids: np.ndarray, matrices: dict
               ) -> tuple[np.ndarray, np.ndarray]:
    """(values, missing) of one spec over the encoded run pairs, in one
    score call, fitting its model unless ctx.model_cache holds it."""
    combo = spec.combination.combo_id
    if combo not in matrices:
        matrices[combo] = combination_matrix(ctx, spec.combination)
    matrix = matrices[combo]
    scorer = SCORERS[spec.scorer]
    params = dict(spec.params)
    key = (spec.scorer, params_hash(params), combo)
    if key not in ctx.model_cache:
        ctx.model_cache[key] = scorer.fit(matrix, params)
    return scorer.score(ctx.model_cache[key], matrix, user_ids, item_ids)


_STAT_SPLITS = ("train", "train_5core")


def global_statistic_features(ctx: PlanContext, run: RunFile, target: str
                              ) -> tuple[list[str], np.ndarray, dict]:
    """Fixed catalog of aggregate statistics, computed over the union of
    all markets and over the target market alone (training splits only):
    per-item interaction count (+log1p), mean rating, cross-market overlap
    count, per-user history length (+log1p) and mean rating."""
    rows = ctx.rows.take(np.isin(ctx.rows.split, _STAT_SPLITS))
    user_ids, item_ids = encode_run(run, ctx.users, ctx.items)
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


def external_embedding_features(table: emb.EmbeddingTable, run: RunFile,
                                matrix: SparseInteractionMatrix,
                                ctx: PlanContext
                                ) -> tuple[list[str], np.ndarray, dict]:
    """Mean and max cosine between each candidate's vector and the user's
    covered history-item vectors; uncovered pairs get the missing flag."""
    mean_col, max_col, miss_col = [], [], []
    norm_cache: dict[str, np.ndarray] = {}

    def unit(raw_item: str):
        if raw_item in norm_cache:
            return norm_cache[raw_item]
        vec = table.vectors.get(raw_item)
        if vec is not None:
            n = float(np.linalg.norm(vec))
            vec = vec / n if n > 0 else None
        norm_cache[raw_item] = vec
        return vec

    for user, cands in run.entries:
        u = ctx.users.forward.get(user, -1)
        hist_units = []
        if 0 <= u < matrix.n_users:
            items, _ = matrix.row(u)
            hist_units = [v for v in (unit(ctx.items.decode(int(i)))
                                      for i in items) if v is not None]
        hist = np.stack(hist_units) if hist_units else None
        for cand in cands:
            c_vec = unit(cand)
            if c_vec is None or hist is None:
                mean_col.append(0.0)
                max_col.append(0.0)
                miss_col.append(1.0)
            else:
                cos = hist @ c_vec
                mean_col.append(float(np.mean(cos)))
                max_col.append(float(np.max(cos)))
                miss_col.append(0.0)

    names = ["ext_emb__mean_cos", "ext_emb__max_cos", "ext_emb__missing"]
    prov = {n: {"kind": "external_embedding"} for n in names}
    return names, np.column_stack([mean_col, max_col, miss_col]), prov


def feature_correlation(table: FeatureTable, columns: Sequence[str]
                        ) -> tuple[np.ndarray, list[str]]:
    """Pearson correlation matrix over the named columns. Constant columns
    correlate as 0 everywhere and are returned in the flag list."""
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
    return corr, [columns[i] for i in np.flatnonzero(constant)]


def write_correlation(corr: np.ndarray, columns: Sequence[str], path) -> None:
    lines = ["\t".join(["feature"] + list(columns))]
    for name, row in zip(columns, corr):
        lines.append("\t".join([name] + [fmt(v) for v in row]))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")
