"""NDCG@10, cross-market weighted scores, and ranked run file round-trips."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Hashable, Mapping, Sequence

import numpy as np

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
# RankedRun: ordered (user, [(item, score) ...]) with items in rank order.
RankedRun = Sequence[tuple[Hashable, Sequence[tuple[Hashable, float]]]]


def rank_candidates(items: Sequence, scores: Sequence[float]) -> list[tuple]:
    """Order candidates by score descending, ties by ascending item id."""
    return sorted(zip(items, (float(s) for s in scores)),
                  key=lambda pair: (-pair[1], pair[0]))


def group_ranked_run(users: Sequence, items: Sequence[str],
                     scores: Sequence[float]) -> list[tuple]:
    """Group parallel (user, item, score) rows into a ranked run: users in
    order of first appearance, each user's items ranked by rank_candidates
    (score descending, ties by ascending item), from one lexsort."""
    if not len(users) == len(items) == len(scores):
        raise ValueError("users, items and scores must align")
    scores = np.asarray(scores, dtype=np.float64)
    # each row's user as the row its user first appears in
    first = np.fromiter(map({}.setdefault, users, range(len(users))),
                        dtype=np.int64, count=len(users))
    # numpy compares strings padded with NULs, so the length breaks the
    # ties that padding makes ("a" before "a\0"), as Python orders them
    lengths = np.fromiter(map(len, items), dtype=np.int64, count=len(items))
    order = np.lexsort((lengths, np.asarray(items), -scores, first))
    # 0, each row where the user changes, and len(order)
    cuts = np.flatnonzero(np.diff(first[order], prepend=-1, append=-1)).tolist()
    order = order.tolist()
    values = scores.tolist()
    ranked = [(items[j], values[j]) for j in order]
    return [(users[order[a]], ranked[a:b]) for a, b in zip(cuts, cuts[1:])]


def ndcg_at_k(run: RankedRun, qrels: Qrels, k: int = 10):
    """Per-user NDCG@k and its mean over all qrel users.

    DCG sums 1/log2(rank+1) over relevant items in the top k; the ideal
    DCG assumes every relevant item ranked first. Every qrel user must
    appear in the run.
    """
    by_user = {u: ranked for u, ranked in run}
    missing = [u for u in qrels if u not in by_user]
    if missing:
        raise DataError(f"qrel users missing from run: {sorted(map(str, missing))[:10]}")
    per_user: dict = {}
    for user, relevant in qrels.items():
        ranked = by_user[user]
        dcg = 0.0
        for rank, (item, _score) in enumerate(ranked[:k], start=1):
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


def emit_run_file(run: RankedRun, path) -> None:
    """Write `user<TAB>item<TAB>score` lines, users in input order, items in
    rank order, scores at 6 decimals. Rank order in the file, not the
    score column, is authoritative."""
    text = "".join(f"{user}\t{item}\t{score:.6f}\n"
                   for user, ranked in run for item, score in ranked)
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise DataError(f"cannot write run file {path}: {exc}") from None


def read_run_file(path) -> list[tuple[str, list[tuple[str, float]]]]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"run file not found: {path}")
    order: list[str] = []
    by_user: dict[str, list[tuple[str, float]]] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected user/item/score")
            user, item, score_s = parts
            if user not in by_user:
                order.append(user)
                by_user[user] = []
            by_user[user].append((item, float(score_s)))
    return [(u, by_user[u]) for u in order]


def read_qrels(path) -> dict[str, set]:
    """Read `user<TAB>item[<TAB>rating]` qrels; header line tolerated."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"qrels file not found: {path}")
    qrels: dict[str, set] = {}
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if lineno == 1 and parts[0] == "userId":
                continue
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected user and item")
            qrels.setdefault(parts[0], set()).add(parts[1])
    return qrels


def metric_report(per_market_ndcg: Mapping[str, float],
                  weights: Mapping[str, float],
                  per_user: Mapping[str, Mapping] | None = None) -> dict:
    report = {
        "per_market": {m: float(s) for m, s in sorted(per_market_ndcg.items())},
        "weights": {m: float(weights[m]) for m in sorted(per_market_ndcg)},
        "weighted": weighted_market_score(per_market_ndcg, weights),
    }
    if per_user:
        quantiles = {}
        for market, users in per_user.items():
            vals = np.array(sorted(users.values()))
            quantiles[market] = {
                f"p{q}": float(np.quantile(vals, q / 100.0)) for q in (10, 25, 50, 75, 90)
            }
        report["per_user_quantiles"] = quantiles
    return report
