"""Memory-based pre-ranking scorers: ItemCF, UserCF, Swing, LLR, Bi-Graph.

Each scorer maps a sparse interaction matrix to user-to-item interest
scores. Similarity tables are truncated to the top K neighbors per entity,
sorted by similarity descending with ties broken by ascending id, then
stored id-sorted for fast lookup. All scorers are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseInteractionMatrix

DEFAULT_TOP_K = 200
DEFAULT_SWING_MAX_USERS = 500
# Dense scratch guard for the swing kernel (n_users * n_items elements).
_SWING_DENSE_LIMIT = 50_000_000


@dataclass(frozen=True)
class SimTable:
    """Top-K neighbor lists, similarity descending, ties by ascending id."""

    n: int
    k: int
    ids: dict[int, np.ndarray]
    sims: dict[int, np.ndarray]

    def lookup(self, a: int, b: int) -> float:
        nbrs = self.ids.get(a)
        if nbrs is None:
            return 0.0
        pos = np.flatnonzero(nbrs == b)
        return float(self.sims[a][pos[0]]) if len(pos) else 0.0

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for a, nbrs in self.ids.items():
            out[a, nbrs] = self.sims[a]
        return out


def _truncate(entity: int, scores: np.ndarray, k: int,
              ids: dict, sims: dict) -> None:
    nz = np.flatnonzero(scores)
    if len(nz) == 0:
        return
    order = np.lexsort((nz, -scores[nz]))[:k]
    ids[entity] = nz[order]
    sims[entity] = scores[nz][order]


def _cosine_table(n_primary: int, primary_ptr, primary_adj, primary_val,
                  secondary_ptr, secondary_adj, secondary_val, k: int) -> SimTable:
    # sim(a, b) = sum over shared co-entities of r_a * r_b, over norms.
    sq = np.zeros(n_primary)
    np.add.at(sq, secondary_adj, secondary_val ** 2)
    norms = np.sqrt(sq)
    ids: dict[int, np.ndarray] = {}
    sims: dict[int, np.ndarray] = {}
    for a in range(n_primary):
        s, e = primary_ptr[a], primary_ptr[a + 1]
        if s == e:
            continue
        acc = np.zeros(n_primary)
        for co, r in zip(primary_adj[s:e], primary_val[s:e]):
            cs, ce = secondary_ptr[co], secondary_ptr[co + 1]
            acc[secondary_adj[cs:ce]] += r * secondary_val[cs:ce]
        acc[a] = 0.0
        nz = np.flatnonzero(acc)
        if len(nz):
            acc[nz] /= norms[a] * norms[nz]
        _truncate(a, acc, k, ids, sims)
    return SimTable(n_primary, k, ids, sims)


def item_cosine_similarity(m: SparseInteractionMatrix,
                           k: int = DEFAULT_TOP_K) -> SimTable:
    """Item-item cosine over the rating columns, restricted to shared users."""
    return _cosine_table(m.n_items, m.item_ptr, m.item_users, m.item_ratings,
                         m.user_ptr, m.user_items, m.user_ratings, k)


def user_cosine_similarity(m: SparseInteractionMatrix,
                           k: int = DEFAULT_TOP_K) -> SimTable:
    """User-user cosine over the rating rows, restricted to shared items."""
    return _cosine_table(m.n_users, m.user_ptr, m.user_items, m.user_ratings,
                         m.item_ptr, m.item_users, m.item_ratings, k)


def swing_similarity(m: SparseInteractionMatrix, alpha: float = 1.0,
                     k: int = DEFAULT_TOP_K,
                     max_users_per_item: int = DEFAULT_SWING_MAX_USERS) -> SimTable:
    """sim(i, j) = sum over user pairs u < v co-interacting with both items
    of 1 / (alpha + |I_u intersect I_v|).

    Ratings are ignored (set semantics). Per-item user lists are capped at
    max_users_per_item, taken in ascending user id order, to bound the
    quadratic pair blowup.
    """
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if m.n_users * m.n_items > _SWING_DENSE_LIMIT:
        raise ValueError("matrix too large for the dense swing kernel")
    incidence = np.zeros((m.n_users, m.n_items))
    for u in range(m.n_users):
        items, _ = m.row(u)
        incidence[u, items] = 1.0
    ids: dict[int, np.ndarray] = {}
    sims: dict[int, np.ndarray] = {}
    for i in range(m.n_items):
        users_i, _ = m.col(i)
        if len(users_i) > max_users_per_item:
            users_i = users_i[:max_users_per_item]
        if len(users_i) < 2:
            continue
        sub = incidence[users_i]                     # (p, n_items)
        overlap = sub @ sub.T                        # |I_u intersect I_v|
        w = 1.0 / (alpha + overlap)
        # c[j] counts ordered pairs (u, v) both holding j, weighted by w;
        # remove the diagonal and halve to keep u < v once.
        c = np.einsum("uj,uj->j", w @ sub, sub)
        c -= np.diag(w) @ sub
        c *= 0.5
        c[i] = 0.0
        c[np.abs(c) < 1e-15] = 0.0
        _truncate(i, c, k, ids, sims)
    return SimTable(m.n_items, k, ids, sims)


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=np.float64)
    pos = x > 0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _neg_entropy(cols: list[np.ndarray]) -> np.ndarray:
    # sum_x x*ln(x/S): the negated unnormalized Shannon entropy.
    stack = np.stack([np.asarray(c, dtype=np.float64) for c in cols])
    total = stack.sum(axis=0)
    return _xlogx(stack).sum(axis=0) - _xlogx(total)


def llr_many(k11, k12, k21, k22) -> np.ndarray:
    """Vectorized log-likelihood ratio (G^2) over 2x2 contingency counts."""
    k11 = np.asarray(k11, dtype=np.float64)
    k12 = np.asarray(k12, dtype=np.float64)
    k21 = np.asarray(k21, dtype=np.float64)
    k22 = np.asarray(k22, dtype=np.float64)
    cells = _neg_entropy([k11, k12, k21, k22])
    rows = _neg_entropy([k11 + k12, k21 + k22])
    cols = _neg_entropy([k11 + k21, k12 + k22])
    return np.maximum(2.0 * (cells - rows - cols), 0.0)


def llr(k11: float, k12: float, k21: float, k22: float) -> float:
    """G^2 of one 2x2 table, with 0*ln(0) treated as 0; never negative."""
    if min(k11, k12, k21, k22) < 0:
        raise ValueError("contingency counts must be nonnegative")
    return float(llr_many(np.array([k11]), np.array([k12]),
                          np.array([k21]), np.array([k22]))[0])


def llr_item_similarity(m: SparseInteractionMatrix,
                        k: int = DEFAULT_TOP_K) -> SimTable:
    """LLR similarity over item pairs with at least one co-occurring user.

    For pair (i, j): k11 co-users, k12 users of i only, k21 users of j
    only, k22 the remainder of the user universe.
    """
    deg = m.item_degrees().astype(np.float64)
    n_users = float(m.n_users)
    ids: dict[int, np.ndarray] = {}
    sims: dict[int, np.ndarray] = {}
    for i in range(m.n_items):
        s, e = m.item_ptr[i], m.item_ptr[i + 1]
        if s == e:
            continue
        co = np.zeros(m.n_items)
        for u in m.item_users[s:e]:
            us, ue = m.user_ptr[u], m.user_ptr[u + 1]
            co[m.user_items[us:ue]] += 1.0
        co[i] = 0.0
        nz = np.flatnonzero(co)
        if len(nz) == 0:
            continue
        k11 = co[nz]
        k12 = deg[i] - k11
        k21 = deg[nz] - k11
        k22 = n_users - k11 - k12 - k21
        scores = np.zeros(m.n_items)
        scores[nz] = llr_many(k11, k12, k21, k22)
        _truncate(i, scores, k, ids, sims)
    return SimTable(m.n_items, k, ids, sims)


def bigraph_scores(m: SparseInteractionMatrix, user: int,
                   retain_seed: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Two-step resource allocation on the bipartite graph, seeded at one user.

    Each seed item spreads unit mass evenly over its users; every user then
    spreads the received mass evenly over their items. Ratings are ignored.
    Returns (item ids ascending, masses); empty for a cold user.
    """
    if user < 0 or user >= m.n_users:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    seed_items, _ = m.row(user)
    if len(seed_items) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    item_deg = m.item_degrees()
    user_deg = m.user_degrees()
    umass = np.zeros(m.n_users)
    for i in seed_items:
        s, e = m.item_ptr[i], m.item_ptr[i + 1]
        umass[m.item_users[s:e]] += 1.0 / item_deg[i]
    scores = np.zeros(m.n_items)
    for u in np.flatnonzero(umass):
        s, e = m.user_ptr[u], m.user_ptr[u + 1]
        scores[m.user_items[s:e]] += umass[u] / user_deg[u]
    if not retain_seed:
        scores[seed_items] = 0.0
    nz = np.flatnonzero(scores)
    return nz, scores[nz]


def score_candidates_bigraph(m: SparseInteractionMatrix, user: int,
                             candidates: np.ndarray, retain_seed: bool = True
                             ) -> tuple[np.ndarray, bool]:
    """Bi-Graph scoring: each candidate's mass from bigraph_scores, zero
    where no mass arrived. Returns (scores, cold) like score_candidates; a
    user with no mass at all is cold."""
    nz, mass = bigraph_scores(m, user, retain_seed=retain_seed)
    scores = np.zeros(m.n_items)
    scores[nz] = mass
    return scores[np.asarray(candidates, dtype=np.int64)], len(nz) == 0


def score_candidates(table: SimTable, m: SparseInteractionMatrix, user: int,
                     candidates: np.ndarray) -> tuple[np.ndarray, bool]:
    """Item-based scoring: score(u, c) = sum_j sim(c, j) * r_uj over the
    user's history, sim looked up in the candidate's neighbor list.

    Returns (scores, cold). A user outside the matrix or with an empty
    history is cold: all scores zero, flagged for the missing indicator.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.zeros(len(candidates))
    if user < 0 or user >= m.n_users:
        return scores, True
    hist, ratings = m.row(user)
    if len(hist) == 0:
        return scores, True
    for pos, c in enumerate(candidates):
        nbrs = table.ids.get(int(c))
        if nbrs is None:
            continue
        # Locate each neighbor in the ascending history via binary search.
        idx = np.searchsorted(hist, nbrs)
        idx[idx == len(hist)] = 0
        match = hist[idx] == nbrs
        if match.any():
            scores[pos] = float(table.sims[int(c)][match] @ ratings[idx[match]])
    return scores, False


def score_candidates_user_based(table: SimTable, m: SparseInteractionMatrix,
                                user: int, candidates: np.ndarray
                                ) -> tuple[np.ndarray, bool]:
    """User-based scoring: score(u, c) = sum_v sim(u, v) * r_vc over the
    candidate's raters found in u's neighbor list."""
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.zeros(len(candidates))
    if user < 0 or user >= m.n_users:
        return scores, True
    hist, _ = m.row(user)
    if len(hist) == 0:
        return scores, True
    nbrs = table.ids.get(user)
    if nbrs is None:
        return scores, False
    vals = table.sims[user]
    for pos, c in enumerate(candidates):
        raters, ratings = m.col(int(c))
        if len(raters) == 0:
            continue
        idx = np.searchsorted(raters, nbrs)
        idx[idx == len(raters)] = 0
        match = raters[idx] == nbrs
        if match.any():
            scores[pos] = float(vals[match] @ ratings[idx[match]])
    return scores, False
