"""Per-market interaction data: loading, id encoding, dedup, sparse matrices, summaries.

File layout per market directory (UTF-8 TSV with a header row):

    train.tsv / train_5core.tsv / valid_qrel.tsv / test_qrel.tsv
        userId <TAB> itemId <TAB> rating
    valid_run.tsv / test_run.tsv
        userId <TAB> candidate item ids (tab separated), one user per line

train.tsv and train_5core.tsv are mandatory; everything else is optional.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .util import DataError, atomic_write_text

SPLITS = ("train", "train_5core", "valid_qrel", "test_qrel")
SPLIT_FILES = {
    "train": "train.tsv",
    "train_5core": "train_5core.tsv",
    "valid_qrel": "valid_qrel.tsv",
    "test_qrel": "test_qrel.tsv",
}
MANDATORY_SPLITS = ("train", "train_5core")
RUN_FILES = {"valid": "valid_run.tsv", "test": "test_run.tsv"}


@dataclass(frozen=True, slots=True)
class RawInteraction:
    user: str
    item: str
    rating: float
    market: str
    split: str


@dataclass(frozen=True)
class Interactions:
    """Encoded interaction rows held column by column: dense int64 user and
    item ids, float64 ratings, and the market and split names as string
    arrays, all of one length."""

    user: np.ndarray
    item: np.ndarray
    rating: np.ndarray
    market: np.ndarray
    split: np.ndarray

    def __post_init__(self):
        dtypes = {"user": np.int64, "item": np.int64, "rating": np.float64,
                  "market": str, "split": str}
        for name, dtype in dtypes.items():
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=dtype))
        if len({len(getattr(self, name)) for name in dtypes}) != 1:
            raise ValueError("interaction columns must align")

    def __len__(self) -> int:
        return len(self.user)

    def take(self, index) -> "Interactions":
        """The rows at an index array or boolean mask, in order."""
        return Interactions(self.user[index], self.item[index],
                            self.rating[index], self.market[index],
                            self.split[index])


def load_market(dir_path, market: str):
    """Parse one market directory into raw interaction records.

    Returns (rows, report). Structurally malformed lines (wrong column
    count, blank) are skipped, counted in report["malformed"], and listed
    with line numbers in report["malformed_lines"]. A rating that is
    present but unparsable or outside [1, 5] is a hard error, as is a
    missing mandatory file.
    """
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise DataError(f"market directory not found: {dir_path} (market {market})")
    rows: list[RawInteraction] = []
    malformed = 0
    malformed_lines: list[str] = []
    for split in SPLITS:
        fname = SPLIT_FILES[split]
        fpath = dir_path / fname
        if not fpath.exists():
            if split in MANDATORY_SPLITS:
                raise DataError(f"missing mandatory file {fname} in {dir_path}")
            continue
        with fpath.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno == 1:
                    continue  # header
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    malformed += 1
                    malformed_lines.append(f"{fpath}:{lineno}")
                    continue
                user, item, rating_s = parts
                try:
                    rating = float(rating_s)
                except ValueError:
                    raise DataError(f"{fpath}:{lineno}: unparsable rating {rating_s!r}") from None
                if not (1.0 <= rating <= 5.0):
                    raise DataError(f"{fpath}:{lineno}: rating {rating} outside [1, 5]")
                rows.append(RawInteraction(user, item, rating, market, split))
    report = {"market": market, "rows": len(rows), "malformed": malformed,
              "malformed_lines": malformed_lines[:20]}
    return rows, report


@dataclass(frozen=True)
class RunFile:
    """Ordered per-user candidate lists (raw string ids)."""

    entries: tuple[tuple[str, tuple[str, ...]], ...]

    def users(self) -> list[str]:
        return [u for u, _ in self.entries]

    def pairs(self) -> list[tuple[str, str]]:
        return [(u, c) for u, cands in self.entries for c in cands]


def load_run(path) -> RunFile:
    path = Path(path)
    if not path.exists():
        raise DataError(f"run file not found: {path}")
    entries = []
    seen = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                continue
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: run line needs a user and candidates")
            user, cands = parts[0], tuple(parts[1:])
            if user in seen:
                raise DataError(f"{path}:{lineno}: duplicate user {user!r}")
            if len(set(cands)) != len(cands):
                raise DataError(f"{path}:{lineno}: duplicate candidates for user {user!r}")
            seen.add(user)
            entries.append((user, cands))
    return RunFile(tuple(entries))


def write_run(run: RunFile, path) -> None:
    lines = ["userId\titemIds"]
    for user, cands in run.entries:
        lines.append("\t".join([user, *cands]))
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class IdEncoder:
    """Bijective raw-string <-> dense-int mapping, ids assigned in sorted order."""

    forward: dict[str, int]
    reverse: tuple[str, ...]

    @classmethod
    def fit(cls, values: Iterable[str]) -> "IdEncoder":
        ordered = sorted(set(values))
        return cls({v: i for i, v in enumerate(ordered)}, tuple(ordered))

    def __len__(self) -> int:
        return len(self.reverse)

    def encode(self, value: str) -> int:
        try:
            return self.forward[value]
        except KeyError:
            raise DataError(f"unknown id {value!r}") from None

    def decode(self, idx: int) -> str:
        return self.reverse[idx]

    def encode_many(self, values: Sequence[str]) -> np.ndarray:
        return np.array([self.encode(v) for v in values], dtype=np.int64)


def fit_encoders(rows: Sequence[RawInteraction],
                 runs: Sequence[RunFile] = ()) -> tuple[IdEncoder, IdEncoder]:
    """Build the global user/item encoders over interactions plus run files.

    One id space is shared across all markets: items overlap between
    markets, users do not, but a single dense space keeps every matrix
    addressable by the same indices.
    """
    users = {r.user for r in rows}
    items = {r.item for r in rows}
    for run in runs:
        for u, cands in run.entries:
            users.add(u)
            items.update(cands)
    return IdEncoder.fit(users), IdEncoder.fit(items)


def dedupe_and_mark_5core(rows, force_rating: float = 5.0):
    """Collapse duplicate (user, item, market, split) rows keeping the last
    occurrence, then force every train_5core rating to `force_rating`.

    Row order is otherwise stable (a collapsed row keeps the position of
    its first occurrence).
    """
    byname = {}
    for r in rows:
        byname[(r.user, r.item, r.market, r.split)] = r
    out = []
    for r in byname.values():
        if r.split == "train_5core" and r.rating != force_rating:
            r = replace(r, rating=force_rating)
        out.append(r)
    return out


@dataclass(frozen=True)
class CombinationSpec:
    """Which market union feeds one scorer instance, and the leakage rule.

    exclude_valid_of_target drops every (user, item) pair found in the
    target market's valid_qrel from the union, so no valid positive can
    leak into features that later train the final ranker.
    """

    target: str
    markets: tuple[str, ...]
    exclude_valid_of_target: bool = True

    def __post_init__(self):
        if self.target not in self.markets:
            raise ValueError(f"target {self.target!r} not in markets {self.markets}")

    @property
    def combo_id(self) -> str:
        return "-".join(self.markets)


@dataclass(frozen=True)
class SparseInteractionMatrix:
    """Immutable user x item matrix with both row and column adjacency.

    user_ptr/user_items/user_ratings form a CSR view (items strictly
    increasing within each row); item_ptr/item_users/item_ratings the
    matching CSC view. Both views hold the identical nonzero set.
    """

    n_users: int
    n_items: int
    user_ptr: np.ndarray
    user_items: np.ndarray
    user_ratings: np.ndarray
    item_ptr: np.ndarray
    item_users: np.ndarray
    item_ratings: np.ndarray

    @classmethod
    def from_pairs(cls, users: np.ndarray, items: np.ndarray, ratings: np.ndarray,
                   n_users: int, n_items: int) -> "SparseInteractionMatrix":
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        ratings = np.asarray(ratings, dtype=np.float64)
        if len(users) and (users.min() < 0 or users.max() >= n_users):
            raise DataError("user id outside encoder range")
        if len(items) and (items.min() < 0 or items.max() >= n_items):
            raise DataError("item id outside encoder range")
        order = np.lexsort((items, users))
        u, it, r = users[order], items[order], ratings[order]
        if len(u) > 1 and bool(np.any((u[1:] == u[:-1]) & (it[1:] == it[:-1]))):
            raise DataError("duplicate (user, item) pair in matrix input")
        user_ptr = np.zeros(n_users + 1, dtype=np.int64)
        np.cumsum(np.bincount(u, minlength=n_users), out=user_ptr[1:])
        order_c = np.lexsort((u, it))
        item_ptr = np.zeros(n_items + 1, dtype=np.int64)
        np.cumsum(np.bincount(it, minlength=n_items), out=item_ptr[1:])
        return cls(n_users, n_items, user_ptr, it, r,
                   item_ptr, u[order_c], r[order_c])

    @property
    def nnz(self) -> int:
        return int(len(self.user_items))

    def row(self, user: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.user_ptr[user], self.user_ptr[user + 1]
        return self.user_items[s:e], self.user_ratings[s:e]

    def col(self, item: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.item_ptr[item], self.item_ptr[item + 1]
        return self.item_users[s:e], self.item_ratings[s:e]

    def user_degrees(self) -> np.ndarray:
        return np.diff(self.user_ptr)

    def item_degrees(self) -> np.ndarray:
        return np.diff(self.item_ptr)

    def binarized(self) -> "SparseInteractionMatrix":
        return replace(self, user_ratings=np.ones_like(self.user_ratings),
                       item_ratings=np.ones_like(self.item_ratings))

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_users, self.n_items))
        for u in range(self.n_users):
            it, r = self.row(u)
            dense[u, it] = r
        return dense


def build_matrix(rows: Interactions, spec: CombinationSpec,
                 n_users: int, n_items: int) -> SparseInteractionMatrix:
    """Union the interactions of spec.markets into one matrix.

    Applies the valid-positive exclusion when the spec asks for it. A
    (user, item) pair seen in several splits collapses to its maximum
    rating, keeping the matrix free of duplicate nonzeros.
    """
    outside = np.flatnonzero(~np.isin(rows.market, spec.markets))
    if len(outside):
        raise DataError(f"row market {str(rows.market[outside[0]])!r} "
                        f"outside combination {spec.combo_id}")
    order = np.lexsort((rows.item, rows.user))
    user, item = rows.user[order], rows.item[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (user[1:] != user[:-1]) | (item[1:] != item[:-1])
    starts = np.flatnonzero(first)
    keep = np.ones(len(starts), dtype=bool)
    if spec.exclude_valid_of_target:
        banned = (rows.market == spec.target) & (rows.split == "valid_qrel")
        keep = ~np.logical_or.reduceat(banned[order], starts)
    best = np.maximum.reduceat(rows.rating[order], starts)
    return SparseInteractionMatrix.from_pairs(
        user[starts][keep], item[starts][keep], best[keep], n_users, n_items)


def summarize(rows: Interactions) -> dict:
    """Per-market counts, rating means, and the shared-item overlap matrix,
    as the JSON-ready dict the snapshot's summary.json holds."""
    markets, code = np.unique(rows.market, return_inverse=True)
    n = len(markets)
    samples = np.bincount(code, minlength=n)
    rating_sum = np.bincount(code, weights=rows.rating, minlength=n)

    def presence(ids):  # market x id: does the market hold the id
        out = np.zeros((n, int(ids.max()) + 1 if len(ids) else 0), dtype=bool)
        out[code, ids] = True
        return out

    users, items = presence(rows.user), presence(rows.item)
    n_users, n_items = users.sum(axis=1), items.sum(axis=1)
    overlap = items.astype(np.int64) @ items.T.astype(np.int64)
    names = markets.tolist()
    return {
        "markets": names,
        "samples": {m: int(samples[k]) for k, m in enumerate(names)},
        "users": {m: int(n_users[k]) for k, m in enumerate(names)},
        "items": {m: int(n_items[k]) for k, m in enumerate(names)},
        "rating_mean": {m: float(rating_sum[k] / samples[k])
                        for k, m in enumerate(names)},
        "overlap": {a: {b: int(overlap[i, j]) for j, b in enumerate(names)}
                    for i, a in enumerate(names)},
        "total_samples": int(samples.sum()),
        "total_users": int(n_users.sum()),
        "total_items": int(n_items.sum()),
        "unique_items": int(items.any(axis=0).sum()),
    }
