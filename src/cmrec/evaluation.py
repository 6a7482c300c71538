"""NDCG@10, cross-market weighted scores, and ranked run file round-trips.

A ranked run is three aligned arrays (users, items, scores), grouped by
user in order of first appearance and in rank order within each user."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Hashable, Mapping

import numpy as np

from .data import check_lines, first_repeat, parse_floats, read_lines, split_fields
from .util import DataError, atomic_write_text

# Offline per-market scores of one item-similarity scorer across ten market
# combinations, together with the officially combined value of each run.
# The combined column over-determines the per-market weighting of the final
# metric, so the weights can be recovered by least squares.
REFERENCE_COMBINATION_SCORES: tuple[tuple[str, float, float, float], ...] = (
    ("s1-s2-s3-t1-t2", 0.6843, 0.5797, 0.6142),
    ("s1-s2-s3", 0.6850, 0.5795, 0.6143),
    ("s0", 0.6776, 0.5589, 0.5980),
    ("t1-t2", 0.6789, 0.5596, 0.5989),
    ("s1-s3", 0.6839, 0.5793, 0.6138),
    ("s1-s2", 0.6786, 0.5793, 0.6121),
    ("s2-s3", 0.6847, 0.5604, 0.6014),
    ("s1", 0.6781, 0.5783, 0.6112),
    ("s2", 0.6789, 0.5601, 0.5992),
    ("s3", 0.6805, 0.5606, 0.6002),
)


def fit_market_weights(rows=REFERENCE_COMBINATION_SCORES) -> dict[str, float]:
    """Least-squares fit of (w_t1, w_t2), w_t1 + w_t2 = 1, from score triples.

    Each row gives (label, t1 score, t2 score, combined score); with the
    convexity constraint the fit is one-dimensional and closed-form.
    """
    d = np.array([t1 - t2 for _, t1, t2, _ in rows])
    e = np.array([comb - t2 for _, _, t2, comb in rows])
    w1 = float(d @ e / (d @ d))
    return {"t1": w1, "t2": 1.0 - w1}


DEFAULT_MARKET_WEIGHTS = fit_market_weights()

Qrels = Mapping[Hashable, set]


def _by_user(users: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """The order of the rows that groups them by user, users in order of
    first appearance; each user's rows in np.lexsort order of keys (the
    last key first), ties in row order."""
    _, first, inverse = np.unique(users, return_index=True, return_inverse=True)
    # each row's user as the row its user first appears in
    return np.lexsort((*keys, first[inverse]))


def group_ranked_run(users, items, scores) -> tuple[np.ndarray, ...]:
    """A ranked run: the (user, item, score) rows as three aligned arrays,
    users in order of first appearance, each user's items by score
    descending, ties by ascending item (one np.unique and one lexsort)."""
    if not len(users) == len(items) == len(scores):
        raise ValueError("users, items and scores must align")
    scores = np.asarray(scores, dtype=np.float64)
    order = _by_user(users, items, -scores)
    return users[order], items[order], scores[order]


def ndcg_at_k(users, items, qrels: Qrels, k: int = 10):
    """Per-user NDCG@k and its mean over all qrel users, of a ranked run's
    user and item arrays (group_ranked_run, read_run_file).

    DCG sums 1/log2(rank+1) over relevant items in the top k; the ideal
    DCG assumes every relevant item ranked first. Every qrel user must
    appear in the run.
    """
    ids, starts, counts = np.unique(users, return_index=True, return_counts=True)
    spans = dict(zip(ids.tolist(), zip(starts.tolist(), counts.tolist())))
    missing = [u for u in qrels if u not in spans]
    if missing:
        raise DataError(f"qrel users missing from run: {sorted(map(str, missing))[:10]}")
    per_user: dict = {}
    for user, relevant in qrels.items():
        start, count = spans[user]
        dcg = 0.0
        for rank, item in enumerate(items[start:start + min(count, k)].tolist(), 1):
            if item in relevant:
                dcg += 1.0 / math.log2(rank + 1)
        ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(relevant)) + 1))
        per_user[user] = dcg / ideal if ideal > 0 else 0.0
    mean = sum(per_user.values()) / len(per_user) if per_user else 0.0
    return per_user, mean


def weighted_market_score(scores: Mapping[str, float],
                          weights: Mapping[str, float]) -> float:
    for m in scores:
        if m not in weights:
            raise DataError(f"no weight for market {m!r}")
    total_w = sum(weights[m] for m in scores)
    if total_w <= 0:
        raise DataError("market weights must sum to a positive value")
    return sum(weights[m] * s for m, s in scores.items()) / total_w


def emit_run_file(users, items, scores, path) -> None:
    """Write a ranked run's rows as `user<TAB>item<TAB>score` lines, in the
    order given, scores at 6 decimals. Rank order in the file, not the
    score column, is authoritative."""
    text = "".join(f"{user}\t{item}\t{score:.6f}\n" for user, item, score
                   in zip(users.tolist(), items.tolist(), scores.tolist()))
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise DataError(f"cannot write run file {path}: {exc}") from None


def read_run_file(path) -> tuple[np.ndarray, ...]:
    """The (users, items, scores) arrays of `user<TAB>item<TAB>score` lines
    grouped per user, users in order of first appearance, each user's rows
    in file order. A line without exactly three fields, an empty id, an
    unparsable score and a repeated (user, item) pair are DataErrors,
    checked in this order, each naming the first line that fails it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"run file not found: {path}")
    _, line_nos, lines = read_lines(path, header=False)
    tabs, starts, fields = split_fields(lines)
    check_lines(path, line_nos, tabs != 2, "expected user/item/score")
    users, items = fields[starts], fields[starts + 1]
    check_lines(path, line_nos, (users == "") | (items == ""), "empty id")
    scores = parse_floats(fields[starts + 2], line_nos, path, "unparsable score")
    pair = first_repeat(users, items)
    if pair is not None:
        raise DataError(f"{path}:{line_nos[pair]}: duplicate item "
                        f"{str(items[pair])!r} for user {str(users[pair])!r}")
    order = _by_user(users)
    return users[order], items[order], scores[order]


def read_qrels(path) -> dict[str, set]:
    """Read `user<TAB>item[<TAB>rating]` qrels; a first line whose first
    field is userId is a header and skipped. A line without a user and an
    item and an empty id are DataErrors, checked in this order, each
    naming the first line that fails it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"qrels file not found: {path}")
    _, line_nos, lines = read_lines(path, header=False)
    if lines and line_nos[0] == 1 and lines[0].split("\t", 1)[0] == "userId":
        line_nos, lines = line_nos[1:], lines[1:]
    tabs, starts, fields = split_fields(lines)
    check_lines(path, line_nos, tabs < 1, "expected user and item")
    users, items = fields[starts], fields[starts + 1]
    check_lines(path, line_nos, (users == "") | (items == ""), "empty id")
    return qrels_from_pairs(users, items)


def qrels_from_pairs(users: np.ndarray, items: np.ndarray) -> dict[str, set]:
    """user -> its items over aligned (user, item) id arrays, users in the
    order of their first pair, the order ndcg_at_k averages them in."""
    qrels: dict[str, set] = {}
    for user, item in zip(users.tolist(), items.tolist()):
        qrels.setdefault(user, set()).add(item)
    return qrels


def metric_report(per_market_ndcg: Mapping[str, float],
                  weights: Mapping[str, float]) -> dict:
    return {  # weighted first: it names a market without a weight
        "weighted": weighted_market_score(per_market_ndcg, weights),
        "per_market": {m: float(s) for m, s in sorted(per_market_ndcg.items())},
        "weights": {m: float(weights[m]) for m in sorted(per_market_ndcg)},
    }
