"""Per-market interaction data: loading, id encoding, dedup, sparse matrices, summaries.

File layout per market directory (UTF-8 TSV with a header row):

    train.tsv / train_5core.tsv / valid_qrel.tsv / test_qrel.tsv
        userId <TAB> itemId <TAB> rating
    valid_run.tsv / test_run.tsv
        userId <TAB> candidate item ids (tab separated), one user per line

train.tsv and train_5core.tsv are mandatory; everything else is optional.
Files are parsed into columns (ids as numpy string arrays, which drop
trailing NULs, so a NUL in a file is a DataError), never per-row objects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from operator import methodcaller
from pathlib import Path
from typing import Mapping, Sequence

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


def read_lines(path: Path, header: bool = True) -> tuple[str, np.ndarray, list[str]]:
    """A text file's header line, and the numbers and texts of its other
    non-blank lines; with header False every line is data and the header
    is "". A byte that is not UTF-8 and a NUL are DataErrors naming their
    line."""
    raw = path.read_bytes()
    try:  # line breaks as read_text reads them
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start] + b".").splitlines())
        raise DataError(f"{path}:{line}: not UTF-8") from None
    if "\0" in text:
        line = text.count("\n", 0, text.index("\0")) + 1
        raise DataError(f"{path}:{line}: NUL character")
    lines = text.split("\n")
    head = lines[0] if header else ""
    lines = lines[int(header):]
    keep = np.fromiter(map(bool, lines), bool, len(lines))
    return (head, np.flatnonzero(keep) + 1 + int(header),
            list(compress(lines, keep)))


def split_fields(lines: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each line's tab count and the position of its first field in the
    string array of all lines' tab-separated fields; and that array."""
    tabs = np.fromiter(map(methodcaller("count", "\t"), lines), np.int64,
                       len(lines))
    fields = np.array("\t".join(lines).split("\t") if lines else [], dtype=str)
    return tabs, np.cumsum(tabs + 1) - tabs - 1, fields


def check_lines(path: Path, line_nos: np.ndarray, bad: np.ndarray,
                problem: str) -> None:
    """A DataError naming the first line where bad is set, if any."""
    if bad.any():
        raise DataError(f"{path}:{line_nos[np.argmax(bad)]}: {problem}")


def parse_floats(texts: np.ndarray, line_nos: np.ndarray, path: Path,
                 problem: str) -> np.ndarray:
    """float() of each text; the first text that does not parse is a
    DataError naming its line (line_nos holds one number per text)."""
    texts = texts.tolist()
    try:
        return np.array(list(map(float, texts)), dtype=np.float64)
    except ValueError:
        for k, text in enumerate(texts):
            try:
                float(text)
            except ValueError:
                raise DataError(f"{path}:{line_nos[k]}: {problem} {text!r}") from None
        raise


def first_repeat(*keys: np.ndarray) -> int | None:
    """The first position whose key (one value from each array) equals
    the key of an earlier position, or None when all keys differ."""
    order = np.lexsort(keys[::-1])  # stable: a key's positions ascend
    same = np.all([k[order][1:] == k[order][:-1] for k in keys], axis=0)
    return int(order[1:][same].min()) if same.any() else None


def _ratings(texts: np.ndarray, line_nos: np.ndarray, path: Path) -> np.ndarray:
    """float() of each rating text, once per distinct text; the first line
    whose rating is unparsable or outside [1, 5] is a DataError."""
    distinct, first, which = np.unique(texts, return_index=True, return_inverse=True)
    values = np.zeros(len(distinct))
    for k in np.argsort(first):  # in the order of their first lines
        text, line = str(distinct[k]), line_nos[first[k]]
        try:
            values[k] = float(text)
        except ValueError:
            raise DataError(f"{path}:{line}: unparsable rating {text!r}") from None
        if not 1.0 <= values[k] <= 5.0:
            raise DataError(f"{path}:{line}: rating {values[k]} outside [1, 5]")
    return values[which]


def load_market(dir_path, market: str):
    """Parse one market directory into (columns, report). The columns hold,
    in file order, user and item ids, float64 ratings and each row's split
    as its position in SPLITS. A line that is not three tab-separated
    fields or has an empty id is malformed: skipped, counted in
    report["malformed"] and listed with its line number in
    report["malformed_lines"]. A rating that is unparsable or outside
    [1, 5] is a hard error, as is a missing mandatory file."""
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise DataError(f"market directory not found: {dir_path} (market {market})")
    parts: list[dict] = []
    malformed_lines: list[str] = []
    for code, split in enumerate(SPLITS):
        fname = SPLIT_FILES[split]
        fpath = dir_path / fname
        if not fpath.exists():
            if split in MANDATORY_SPLITS:
                raise DataError(f"missing mandatory file {fname} in {dir_path}")
            continue
        _, line_nos, lines = read_lines(fpath)
        tabs, starts, fields = split_fields(lines)
        ok = tabs == 2
        ok[ok] = np.all(fields[starts[ok, None] + np.arange(2)] != "", axis=1)
        cells = fields[starts[ok, None] + np.arange(3)]
        malformed_lines += [f"{fpath}:{n}" for n in line_nos[~ok].tolist()]
        parts.append({"user": cells[:, 0], "item": cells[:, 1],
                      "rating": _ratings(cells[:, 2], line_nos[ok], fpath),
                      "split": np.full(len(cells), code, dtype=np.int64)})
    columns = {name: np.concatenate([p[name] for p in parts])
               for name in ("user", "item", "rating", "split")}
    report = {"market": market, "rows": len(columns["rating"]),
              "malformed": len(malformed_lines),
              "malformed_lines": malformed_lines[:20]}
    return columns, report


@dataclass(frozen=True)
class RunFile:
    """Ordered per-user candidate lists held column by column: the users
    (string array of raw ids, in file order), and user k's candidates
    candidates[offsets[k]:offsets[k + 1]], in file order."""

    users: np.ndarray
    offsets: np.ndarray
    candidates: np.ndarray

    @classmethod
    def from_lists(cls, users: Sequence[str], candidate_lists) -> "RunFile":
        offsets = np.cumsum([0, *map(len, candidate_lists)], dtype=np.int64)
        return cls(np.asarray(users, dtype=str), offsets, np.asarray(
            [c for cands in candidate_lists for c in cands], dtype=str))

    def candidate_lists(self) -> list[list[str]]:
        """Each user's candidates as a list of str, users in run order."""
        flat, cuts = self.candidates.tolist(), self.offsets.tolist()
        return [flat[start:stop] for start, stop in zip(cuts, cuts[1:])]


def load_run(path) -> RunFile:
    """One run file's candidate lists. A line without a user and at least
    one candidate, an empty id, a user on a second line and a candidate
    twice on one line are DataErrors, checked in this order, each naming
    the file and the first line that fails the check."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"run file not found: {path}")
    _, line_nos, lines = read_lines(path)
    n_cands, starts, fields = split_fields(lines)
    users, candidates = fields[starts], np.delete(fields, starts)
    line_of = np.repeat(np.arange(len(lines)), n_cands)

    def fail(line: int, problem: str):
        raise DataError(f"{path}:{line_nos[line]}: {problem}")

    if np.any(n_cands == 0):
        fail(np.argmax(n_cands == 0), "run line needs a user and candidates")
    if np.any(fields == ""):
        fail(np.searchsorted(starts, np.argmax(fields == ""), "right") - 1,
             "empty id")
    line = first_repeat(users)
    if line is not None:
        fail(line, f"duplicate user {str(users[line])!r}")
    pair = first_repeat(line_of, candidates)
    if pair is not None:
        line = line_of[pair]
        fail(line, f"duplicate candidates for user {str(users[line])!r}")
    return RunFile(users, np.cumsum([0, *n_cands], dtype=np.int64), candidates)


def write_run(run: RunFile, path) -> None:
    lines = ["userId\titemIds"]
    lines += ["\t".join([user, *cands]) for user, cands
              in zip(run.users.tolist(), run.candidate_lists())]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class IdEncoder:
    """Bijective raw-string <-> dense-int mapping: id k is ids[k], the
    distinct raw ids in sorted order."""

    ids: np.ndarray

    @classmethod
    def fit(cls, values) -> "IdEncoder":
        return cls(np.unique(np.asarray(values, dtype=str)))

    def __len__(self) -> int:
        return len(self.ids)

    def lookup(self, values) -> np.ndarray:
        """The int64 ids of values, -1 for a value the encoder lacks."""
        values = np.asarray(values, dtype=str)
        pos = np.searchsorted(self.ids, values)
        hit = pos < len(self.ids)
        hit[hit] = self.ids[pos[hit]] == values[hit]
        return np.where(hit, pos, -1).astype(np.int64)


def fit_encoders(user: np.ndarray, item: np.ndarray,
                 runs: Sequence[RunFile] = ()) -> tuple[IdEncoder, IdEncoder]:
    """The global user/item encoders over the rows' ids plus the run files'.

    One id space is shared across all markets: items overlap between
    markets, users do not, but a single dense space keeps every matrix
    addressable by the same indices.
    """
    return (IdEncoder.fit(np.concatenate([user, *(r.users for r in runs)])),
            IdEncoder.fit(np.concatenate([item, *(r.candidates for r in runs)])))


def dedupe_and_mark_5core(rows: Mapping[str, np.ndarray]
                          ) -> dict[str, np.ndarray]:
    """Collapse rows of equal (user, item, market, split) codes into one,
    at the position of its first occurrence and with the rating of its
    last, then force every train_5core rating to 5.0. rows
    holds those aligned int64 code columns (the split as its position in
    SPLITS) and float64 ratings."""
    names = ("user", "item", "market", "split")
    key = np.ravel_multi_index([rows[k] for k in names],
                               [int(rows[k].max(initial=0)) + 1 for k in names])
    # each key's first position; over the reversed keys, its last one
    _, first = np.unique(key, return_index=True)
    _, last_from_end = np.unique(key[::-1], return_index=True)
    order = np.argsort(first)
    out = {k: rows[k][first[order]] for k in names}
    out["rating"] = rows["rating"][len(key) - 1 - last_from_end[order]]
    out["rating"][out["split"] == SPLITS.index("train_5core")] = 5.0
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
