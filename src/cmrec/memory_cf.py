"""Memory-based pre-ranking scorers: ItemCF, UserCF, Swing, LLR, Bi-Graph.

Each scorer maps a sparse interaction matrix to user-to-item interest
scores. Similarity tables keep the top K neighbors per entity in CSR
form: flat `ids` and `sims` arrays with entity a's list at
`ptr[a]:ptr[a + 1]`, sorted by similarity descending with ties broken by
ascending id. The scoring kernels score a whole run of (user, candidate)
pairs per call, in blocks that bound their scratch memory. All scorers
are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseInteractionMatrix

DEFAULT_TOP_K = 200
DEFAULT_SWING_MAX_USERS = 500
# Dense scratch guard for the swing kernel (n_users * n_items elements).
_SWING_DENSE_LIMIT = 50_000_000
# Scratch bounds of the scoring kernels: expanded (pair, neighbor) entries
# plus position-table cells per neighbor-sum block, and run users per
# Bi-Graph block.
_SCORE_BLOCK = 1 << 16
_BIGRAPH_BLOCK = 8


@dataclass(frozen=True)
class SimTable:
    """Top-K neighbor lists in CSR form: entity a's neighbors are
    ids[ptr[a]:ptr[a + 1]], similarity descending, ties by ascending id,
    with their similarities at the same positions of sims."""

    n: int
    k: int
    ptr: np.ndarray
    ids: np.ndarray
    sims: np.ndarray

    def dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), np.diff(self.ptr))
        out[rows, self.ids] = self.sims
        return out


def _table_buffers(n: int, k: int):
    """(ptr, ids, sims) with room for every list that _truncate can write:
    at most n - 1 nonzero scores per entity, cut by [:k]."""
    width = len(range(n - 1)[:k])
    return (np.zeros(n + 1, dtype=np.int64), np.empty(n * width, dtype=np.int64),
            np.empty(n * width))


def _table(n: int, k: int, ptr, ids, sims) -> SimTable:
    # Shrink the buffers in place: a trimmed copy would hold the table
    # twice. Nothing else refers to them.
    ids.resize(ptr[-1], refcheck=False)
    sims.resize(ptr[-1], refcheck=False)
    return SimTable(n, k, ptr, ids, sims)


def _truncate(entity: int, scores: np.ndarray, k: int,
              ptr: np.ndarray, ids: np.ndarray, sims: np.ndarray) -> None:
    """Write entity's top-k nonzero scores at ptr[entity] and end every
    later list there, so entities must come in ascending order and one
    that is never written keeps an empty list."""
    nz = np.flatnonzero(scores)
    order = np.lexsort((nz, -scores[nz]))[:k]
    start = ptr[entity]
    end = start + len(order)
    ids[start:end] = nz[order]
    sims[start:end] = scores[nz][order]
    ptr[entity + 1:] = end


def _cosine_table(n_primary: int, primary_ptr, primary_adj, primary_val,
                  secondary_ptr, secondary_adj, secondary_val, k: int) -> SimTable:
    # sim(a, b) = sum over shared co-entities of r_a * r_b, over norms.
    sq = np.zeros(n_primary)
    np.add.at(sq, secondary_adj, secondary_val ** 2)
    norms = np.sqrt(sq)
    buffers = _table_buffers(n_primary, k)
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
        _truncate(a, acc, k, *buffers)
    return _table(n_primary, k, *buffers)


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
    buffers = _table_buffers(m.n_items, k)
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
        _truncate(i, c, k, *buffers)
    return _table(m.n_items, k, *buffers)


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
    buffers = _table_buffers(m.n_items, k)
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
        _truncate(i, scores, k, *buffers)
    return _table(m.n_items, k, *buffers)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of arange(s, s + c) over the (s, c) pairs."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + counts, counts)


def _pairs(users, candidates) -> tuple[np.ndarray, np.ndarray]:
    users = np.asarray(users, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    if users.shape != candidates.shape or users.ndim != 1:
        raise ValueError("users and candidates must be aligned 1-D arrays")
    return users, candidates


def _cold(m: SparseInteractionMatrix, users: np.ndarray) -> np.ndarray:
    """Per pair: the user is outside the matrix or has an empty history."""
    inside = (users >= 0) & (users < m.n_users)
    cold = ~inside
    cold[inside] = m.user_ptr[users[inside] + 1] == m.user_ptr[users[inside]]
    return cold


def segment_dots(a: np.ndarray, b: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """Dot products of the consecutive segments of a and b with the given
    lengths, each equal bit for bit to float(a[seg] @ b[seg]); an empty
    segment gives 0.0.

    The segments of one length go through one stacked (P, 1, L) @ (P, L, 1)
    matmul, which runs the same BLAS dot on each segment as a 1-D a @ b
    does. That dot does not add in order and its blocking depends on L,
    so segments are never padded to a common length.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = np.zeros(len(lengths))
    starts = np.cumsum(lengths) - lengths
    for n in np.unique(lengths[lengths > 0]):
        sel = np.flatnonzero(lengths == n)
        idx = starts[sel, None] + np.arange(n)
        out[sel] = (a[idx][:, None, :] @ b[idx][:, :, None])[:, 0, 0]
    return out


def _neighbor_sums(table: SimTable, rows: np.ndarray, keys: np.ndarray,
                   key_ptr: np.ndarray, key_ids: np.ndarray,
                   key_vals: np.ndarray) -> np.ndarray:
    """For each pair p: the sum of sim * value over the neighbors of
    table entity rows[p] that occur in list keys[p] of the CSR
    (key_ptr, key_ids, key_vals), taken in neighbor-list order and summed
    like float(sims[match] @ vals[match]).

    Pairs are sorted by key and cut into blocks of about _SCORE_BLOCK
    expanded entries plus position-table cells; each block looks its
    neighbors up in one dense (block keys x table.n) position table.
    """
    out = np.zeros(len(rows))
    counts = table.ptr[rows + 1] - table.ptr[rows]
    live = np.flatnonzero(counts > 0)
    order = live[np.argsort(keys[live], kind="stable")]
    sorted_keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    cost = counts[order] + first * table.n
    block = (np.cumsum(cost) - cost) // _SCORE_BLOCK
    for sel in np.split(order, np.flatnonzero(np.diff(block)) + 1):
        block_keys, local = np.unique(keys[sel], return_inverse=True)
        lens = key_ptr[block_keys + 1] - key_ptr[block_keys]
        held = _ranges(key_ptr[block_keys], lens)
        pos = np.full((len(block_keys), table.n), -1, dtype=np.int64)
        pos[np.repeat(np.arange(len(block_keys)), lens), key_ids[held]] = held
        entries = _ranges(table.ptr[rows[sel]], counts[sel])
        pair = np.repeat(np.arange(len(sel)), counts[sel])
        found = pos[local[pair], table.ids[entries]]
        hit = found >= 0
        out[sel] = segment_dots(table.sims[entries[hit]], key_vals[found[hit]],
                                np.bincount(pair[hit], minlength=len(sel)))
    return out


def score_candidates(table: SimTable, m: SparseInteractionMatrix,
                     users: np.ndarray, candidates: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Item-based scoring of aligned (user, candidate) pairs:
    score(u, c) = sum_j sim(c, j) * r_uj over the user's history, sim
    read from the candidate's neighbor list.

    Returns (scores, cold). A pair's user outside the matrix (-1 for an
    unknown user) or with an empty history is cold: score zero, flagged
    for the missing indicator.
    """
    users, candidates = _pairs(users, candidates)
    cold = _cold(m, users)
    warm = np.flatnonzero(~cold)
    scores = np.zeros(len(candidates))
    scores[warm] = _neighbor_sums(table, candidates[warm], users[warm],
                                  m.user_ptr, m.user_items, m.user_ratings)
    return scores, cold


def score_candidates_user_based(table: SimTable, m: SparseInteractionMatrix,
                                users: np.ndarray, candidates: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
    """User-based scoring of aligned (user, candidate) pairs:
    score(u, c) = sum_v sim(u, v) * r_vc over the candidate's raters found
    in u's neighbor list. Cold pairs as in score_candidates."""
    users, candidates = _pairs(users, candidates)
    cold = _cold(m, users)
    warm = np.flatnonzero(~cold)
    scores = np.zeros(len(candidates))
    scores[warm] = _neighbor_sums(table, users[warm], candidates[warm],
                                  m.item_ptr, m.item_users, m.item_ratings)
    return scores, cold


def _bigraph_mass(m: SparseInteractionMatrix, users: np.ndarray,
                  item_deg: np.ndarray, user_deg: np.ndarray,
                  retain_seed: bool) -> np.ndarray:
    """(len(users), n_items) two-step masses seeded at each user.

    Each (run user, user) cell of the first bincount gets its additions in
    ascending seed-item order and each (run user, item) cell of the second
    in ascending user order, as in a per-user loop over seed items and
    then over reached users.
    """
    n = len(users)
    seed = _ranges(m.user_ptr[users], user_deg[users])
    seed_items = m.user_items[seed]
    seed_owner = np.repeat(np.arange(n), user_deg[users])
    spread = item_deg[seed_items]
    edges = _ranges(m.item_ptr[seed_items], spread)
    umass = np.bincount(np.repeat(seed_owner * m.n_users, spread)
                        + m.item_users[edges],
                        weights=np.repeat(1.0 / spread, spread),
                        minlength=n * m.n_users)
    reached = np.flatnonzero(umass)
    owner, user = np.divmod(reached, m.n_users)
    spread = user_deg[user]
    edges = _ranges(m.user_ptr[user], spread)
    scores = np.bincount(np.repeat(owner * m.n_items, spread)
                         + m.user_items[edges],
                         weights=np.repeat(umass[reached] / spread, spread),
                         minlength=n * m.n_items).reshape(n, m.n_items)
    if not retain_seed:
        scores[seed_owner, seed_items] = 0.0
    return scores


def score_candidates_bigraph(m: SparseInteractionMatrix, users: np.ndarray,
                             candidates: np.ndarray, retain_seed: bool = True
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Bi-Graph scoring of aligned (user, candidate) pairs: two-step
    resource allocation on the bipartite graph, seeded at the pair's user.

    Each seed item spreads unit mass evenly over its users; every user
    then spreads the received mass evenly over their items. Ratings are
    ignored. Returns (scores, cold) like score_candidates: a candidate no
    mass reached scores zero, and a user outside the matrix or with no
    mass at all (after dropping the seed items unless retain_seed) is
    cold. Run users are scored _BIGRAPH_BLOCK at a time.
    """
    users, candidates = _pairs(users, candidates)
    scores = np.zeros(len(candidates))
    cold = np.ones(len(candidates), dtype=bool)
    inside = np.flatnonzero((users >= 0) & (users < m.n_users))
    run_users, local = np.unique(users[inside], return_inverse=True)
    order = np.argsort(local, kind="stable")
    pairs, local = inside[order], local[order]
    item_deg, user_deg = m.item_degrees(), m.user_degrees()
    starts = range(0, len(run_users), _BIGRAPH_BLOCK)
    bounds = np.searchsorted(local, starts[1:])
    for start, sel, row in zip(starts, np.split(pairs, bounds),
                               np.split(local, bounds)):
        mass = _bigraph_mass(m, run_users[start:start + _BIGRAPH_BLOCK],
                             item_deg, user_deg, retain_seed)
        scores[sel] = mass[row - start, candidates[sel]]
        cold[sel] = ~mass.any(axis=1)[row - start]
    return scores, cold


def bigraph_scores(m: SparseInteractionMatrix, user: int,
                   retain_seed: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The Bi-Graph masses of one user over every item, from
    score_candidates_bigraph: (item ids ascending, masses) where mass
    arrived; empty for a cold user."""
    items = np.arange(m.n_items)
    scores, _ = score_candidates_bigraph(m, np.full(m.n_items, user), items,
                                         retain_seed=retain_seed)
    nz = np.flatnonzero(scores)
    return nz, scores[nz]
