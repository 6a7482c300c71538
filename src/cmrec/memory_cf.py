"""Memory-based pre-ranking scorers: ItemCF, UserCF, Swing, LLR, Bi-Graph.

Each scorer maps a sparse interaction matrix to user-to-item interest
scores. Similarity tables keep the top K neighbors per entity in CSR
form: flat `ids` and `sims` arrays with entity a's list at
`ptr[a]:ptr[a + 1]`, sorted by similarity descending with ties broken by
ascending id. Every fit writes its lists through one top-k writer.

The cosine and LLR fits compute co-occurrences as dense BLAS products of
blocks of active rows (entities with an interaction) against all of
them; Swing keeps one small product per item. With whole-number ratings
every product and partial sum is an integer far below 2^53, so the sums
are exact in any order and equal those of a sequential loop bit for bit;
LLR and Swing see incidences only. Fractional ratings may change the
last bits of a cosine. The scoring kernels score a whole run of (user,
candidate) pairs per call. Fits and kernels work in blocks that bound
their scratch memory. All scorers are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseInteractionMatrix

DEFAULT_TOP_K = 200
DEFAULT_SWING_MAX_USERS = 500
# Scratch bound of the similarity fits: cells per dense block (output
# rows times their columns, operand rows times the co-entities).
_FIT_BLOCK = 1 << 17
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
    """(ptr, ids, sims) with room for every list that _write_top_k can
    write: at most n - 1 nonzero scores per entity, cut by [:k]."""
    width = len(range(n - 1)[:k])
    return (np.zeros(n + 1, dtype=np.int64), np.empty(n * width, dtype=np.int64),
            np.empty(n * width))


def _table(n: int, k: int, ptr, ids, sims) -> SimTable:
    # Shrink the buffers in place: a trimmed copy would hold the table
    # twice. Nothing else refers to them.
    ids.resize(ptr[-1], refcheck=False)
    sims.resize(ptr[-1], refcheck=False)
    return SimTable(n, k, ptr, ids, sims)


def _write_top_k(entities: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 k: int, ptr: np.ndarray, ids: np.ndarray,
                 sims: np.ndarray) -> None:
    """Write the k largest nonzero values of each row of vals, ties by
    ascending id, as the list of entities[row]; cols holds the ascending
    ids of vals' columns. Entities come ascending and after every entity
    written before; one that is never written keeps an empty list."""
    keep = vals != 0
    if vals.shape[1] > k:
        # Each row's k-th largest nonzero value; zeros rank below every
        # score, negative ones included.
        keyed = np.where(keep, vals, -np.inf)
        keyed.partition(-k, axis=1)
        keep &= vals >= keyed[:, -k, None]
        del keyed
    # nonzero goes row by row, columns ascending, and lexsort is stable,
    # so equal values stay in ascending id order.
    row, col = np.nonzero(keep)
    val = vals[row, col]
    order = np.lexsort((-val, row))
    row, col, val = row[order], col[order], val[order]
    counts = np.bincount(row, minlength=len(entities))
    top = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts) < k
    start = ptr[entities[0]]
    ends = start + np.cumsum(np.minimum(counts, k))
    ids[start:ends[-1]] = cols[col[top]]
    sims[start:ends[-1]] = val[top]
    ptr[entities + 1] = ends
    later = ptr[entities[0] + 1:]
    np.maximum.accumulate(later, out=later)


def _dense_rows(ptr: np.ndarray, adj: np.ndarray, val: np.ndarray | None,
                rows: np.ndarray, width: int) -> np.ndarray:
    """The given rows of a CSR as a dense (len(rows), width) array; with
    val None every stored entry reads 1.0."""
    counts = ptr[rows + 1] - ptr[rows]
    held = _ranges(ptr[rows], counts)
    out = np.zeros((len(rows), width))
    out[np.repeat(np.arange(len(rows)), counts),
        adj[held]] = 1.0 if val is None else val[held]
    return out


def _cooccurrence_blocks(ptr: np.ndarray, adj: np.ndarray,
                         val: np.ndarray | None, n_co: int):
    """Yield (rows, cols, acc) over blocks of the active entities (those
    with a nonempty CSR row): acc[r, c] is the dot product of the rows of
    entities rows[r] and cols[c] over the n_co co-entities, with the
    diagonal zeroed; cols is every active entity.

    acc, the dense rows of the block and those of each block of columns
    hold at most _FIT_BLOCK cells each (or one row).
    """
    active = np.flatnonzero(np.diff(ptr))
    n = len(active)
    row_block = max(1, _FIT_BLOCK // max(1, n, n_co))
    col_block = max(1, _FIT_BLOCK // max(1, n_co))
    for r0 in range(0, n, row_block):
        rows = active[r0:r0 + row_block]
        left = _dense_rows(ptr, adj, val, rows, n_co)
        acc = np.empty((len(rows), n))
        for c0 in range(0, n, col_block):
            right = _dense_rows(ptr, adj, val, active[c0:c0 + col_block], n_co)
            np.matmul(left, right.T, out=acc[:, c0:c0 + col_block])
            del right
        del left
        local = np.arange(len(rows))
        acc[local, r0 + local] = 0.0
        yield rows, active, acc
        del acc


def _cosine_table(n_primary: int, primary_ptr, primary_adj, primary_val,
                  n_co: int, secondary_adj, secondary_val, k: int) -> SimTable:
    # sim(a, b) = sum over shared co-entities of r_a * r_b, over norms.
    sq = np.zeros(n_primary)
    np.add.at(sq, secondary_adj, secondary_val ** 2)
    # A nonzero product has a nonzero norm on both sides, and a zero one
    # stays zero over any positive norm, so zero norms may read 1.
    norms = np.sqrt(sq)
    norms[norms == 0] = 1.0
    buffers = _table_buffers(n_primary, k)
    for rows, cols, acc in _cooccurrence_blocks(primary_ptr, primary_adj,
                                                primary_val, n_co):
        acc /= norms[rows, None] * norms[cols]
        _write_top_k(rows, cols, acc, k, *buffers)
        del acc
    return _table(n_primary, k, *buffers)


def item_cosine_similarity(m: SparseInteractionMatrix,
                           k: int = DEFAULT_TOP_K) -> SimTable:
    """Item-item cosine over the rating columns, restricted to shared users."""
    return _cosine_table(m.n_items, m.item_ptr, m.item_users, m.item_ratings,
                         m.n_users, m.user_items, m.user_ratings, k)


def user_cosine_similarity(m: SparseInteractionMatrix,
                           k: int = DEFAULT_TOP_K) -> SimTable:
    """User-user cosine over the rating rows, restricted to shared items."""
    return _cosine_table(m.n_users, m.user_ptr, m.user_items, m.user_ratings,
                         m.n_items, m.item_users, m.item_ratings, k)


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
    buffers = _table_buffers(m.n_items, k)
    row_block = max(1, _FIT_BLOCK // max(1, m.n_items))
    for i0 in range(0, m.n_items, row_block):
        block = np.zeros((min(row_block, m.n_items - i0), m.n_items))
        for i in range(i0, i0 + len(block)):
            users_i = m.col(i)[0][:max_users_per_item]
            if len(users_i) < 2:
                continue
            sub = _dense_rows(m.user_ptr, m.user_items, None, users_i,
                              m.n_items)             # (p, n_items)
            overlap = sub @ sub.T                    # |I_u intersect I_v|
            w = 1.0 / (alpha + overlap)
            # c[j] counts ordered pairs (u, v) both holding j, weighted by w;
            # remove the diagonal and halve to keep u < v once.
            c = np.einsum("uj,uj->j", w @ sub, sub)
            c -= np.diag(w) @ sub
            c *= 0.5
            c[i] = 0.0
            c[np.abs(c) < 1e-15] = 0.0
            block[i - i0] = c
        _write_top_k(np.arange(i0, i0 + len(block)), np.arange(m.n_items),
                     block, k, *buffers)
    return _table(m.n_items, k, *buffers)


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x, dtype=np.float64)
    pos = x > 0
    np.log(x, out=out, where=pos)
    np.multiply(out, x, out=out, where=pos)
    return out


def _neg_entropy(cols: list[np.ndarray]) -> np.ndarray:
    # sum_x x*ln(x/S): the negated unnormalized Shannon entropy, each sum
    # taken left to right.
    total = cols[0].copy()
    out = _xlogx(cols[0])
    for col in cols[1:]:
        total += col
        out += _xlogx(col)
    out -= _xlogx(total)
    return out


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
    only, k22 the remainder of the user universe. Ratings are ignored.
    """
    deg = m.item_degrees().astype(np.float64)
    n_users = float(m.n_users)
    buffers = _table_buffers(m.n_items, k)
    for rows, cols, co in _cooccurrence_blocks(m.item_ptr, m.item_users,
                                               None, m.n_users):
        r, c = np.nonzero(co)
        k11 = co[r, c]
        k12 = deg[rows[r]] - k11
        k21 = deg[cols[c]] - k11
        k22 = n_users - k11 - k12 - k21
        co[r, c] = llr_many(k11, k12, k21, k22)
        _write_top_k(rows, cols, co, k, *buffers)
        del co
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
