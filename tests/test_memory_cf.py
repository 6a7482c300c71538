"""Dense brute-force oracles for the five pre-rank scorers.

Every oracle is written from the definition, independent of the library's
sparse kernels, and deliberately slow (python loops over dense arrays).
The per-user scoring loops that the whole-run kernels replaced, and the
per-entity similarity fits that the blocked products replaced, live on as
exact oracles: on whole-number ratings the library must match them bit for
bit.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmrec import memory_cf as mcf
from cmrec.data import SparseInteractionMatrix


def matrix_from_dense(dense):
    dense = np.asarray(dense, dtype=np.float64)
    u, i = np.nonzero(dense)
    return SparseInteractionMatrix.from_pairs(u, i, dense[u, i], *dense.shape)


def every_item(m):
    return np.arange(m.n_items)


def every_user(m):
    return np.arange(m.n_users)


def dense_sims(table):
    """A SimTable as an (n, n) array: entity a's row holds its list's
    similarities at the neighbors' ids, zeros elsewhere."""
    out = np.zeros((table.n, table.n))
    rows = np.repeat(np.arange(table.n), np.diff(table.ptr))
    out[rows, table.ids] = table.sims
    return out


def random_dense(rng, n_users, n_items, density=0.3):
    mask = rng.random((n_users, n_items)) < density
    vals = rng.integers(1, 6, (n_users, n_items)).astype(float)
    return np.where(mask, vals, 0.0)


def cosine_oracle(columns):
    """Pairwise cosine between the columns of a dense matrix, zero diagonal."""
    norms = np.linalg.norm(columns, axis=0)
    out = columns.T @ columns
    nz = norms > 0
    out[~nz, :] = 0.0
    out[:, ~nz] = 0.0
    denom = np.outer(np.where(nz, norms, 1.0), np.where(nz, norms, 1.0))
    out = out / denom
    np.fill_diagonal(out, 0.0)
    return out


def swing_oracle(dense, alpha, cap):
    inc = dense > 0
    n_users, n_items = inc.shape
    items_of = [set(np.flatnonzero(inc[u])) for u in range(n_users)]
    sim = np.zeros((n_items, n_items))
    for i in range(n_items):
        users_i = np.flatnonzero(inc[:, i])[:cap]
        for j in range(n_items):
            if j == i:
                continue
            total = 0.0
            for a in range(len(users_i)):
                for b in range(a + 1, len(users_i)):
                    u, v = users_i[a], users_i[b]
                    if inc[u, j] and inc[v, j]:
                        total += 1.0 / (alpha + len(items_of[u] & items_of[v]))
            sim[i, j] = total
    return sim


def llr_oracle(k11, k12, k21, k22):
    def entropy_part(*xs):
        total = sum(xs)
        return sum(x * math.log(x / total) for x in xs if x > 0)

    stat = 2.0 * (entropy_part(k11, k12, k21, k22)
                  - entropy_part(k11 + k12, k21 + k22)
                  - entropy_part(k11 + k21, k12 + k22))
    return max(stat, 0.0)


def llr_table_oracle(dense):
    inc = (dense > 0).astype(float)
    n_users, n_items = inc.shape
    co = inc.T @ inc
    deg = inc.sum(axis=0)
    sim = np.zeros((n_items, n_items))
    for i in range(n_items):
        for j in range(n_items):
            if i == j or co[i, j] == 0:
                continue
            k11 = co[i, j]
            k12 = deg[i] - k11
            k21 = deg[j] - k11
            k22 = n_users - deg[i] - deg[j] + k11
            sim[i, j] = llr_oracle(k11, k12, k21, k22)
    return sim


def neighbors(table, entity):
    """(ids, sims) of one entity's neighbor list in a CSR SimTable."""
    s, e = table.ptr[entity], table.ptr[entity + 1]
    return table.ids[s:e], table.sims[s:e]


def score_candidates_oracle(table, m, user, candidates):
    """The per-user item-based loop: one searchsorted and one BLAS dot per
    candidate. Returns (scores, cold)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.zeros(len(candidates))
    if user < 0 or user >= m.n_users:
        return scores, True
    hist, ratings = m.row(user)
    if len(hist) == 0:
        return scores, True
    for pos, c in enumerate(candidates):
        nbrs, sims = neighbors(table, int(c))
        idx = np.searchsorted(hist, nbrs)
        idx[idx == len(hist)] = 0
        match = hist[idx] == nbrs
        if match.any():
            scores[pos] = float(sims[match] @ ratings[idx[match]])
    return scores, False


def score_candidates_user_based_oracle(table, m, user, candidates):
    """The per-user user-based loop. Returns (scores, cold)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    scores = np.zeros(len(candidates))
    if user < 0 or user >= m.n_users:
        return scores, True
    hist, _ = m.row(user)
    if len(hist) == 0:
        return scores, True
    nbrs, vals = neighbors(table, user)
    if len(nbrs) == 0:
        return scores, False
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


def bigraph_scores_oracle(m, user, retain_seed=True):
    """The per-user Bi-Graph loops over seed items and reached users.
    Returns (item ids ascending, masses)."""
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


def _truncate(entity, scores, k, ptr, ids, sims):
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


def cosine_table_oracle(m, k, users=False):
    """The per-entity cosine fit: item-item, or user-user with users."""
    if users:
        n, ptr, adj, val = m.n_users, m.user_ptr, m.user_items, m.user_ratings
        s_ptr, s_adj, s_val = m.item_ptr, m.item_users, m.item_ratings
    else:
        n, ptr, adj, val = m.n_items, m.item_ptr, m.item_users, m.item_ratings
        s_ptr, s_adj, s_val = m.user_ptr, m.user_items, m.user_ratings
    sq = np.zeros(n)
    np.add.at(sq, s_adj, s_val ** 2)
    norms = np.sqrt(sq)
    buffers = mcf._table_buffers(n, k, n)
    for a in range(n):
        s, e = ptr[a], ptr[a + 1]
        if s == e:
            continue
        acc = np.zeros(n)
        for co, r in zip(adj[s:e], val[s:e]):
            cs, ce = s_ptr[co], s_ptr[co + 1]
            acc[s_adj[cs:ce]] += r * s_val[cs:ce]
        acc[a] = 0.0
        nz = np.flatnonzero(acc)
        if len(nz):
            acc[nz] /= norms[a] * norms[nz]
        _truncate(a, acc, k, *buffers)
    return mcf._table(n, k, *buffers, np.arange(n))


def llr_item_similarity_oracle(m, k):
    """The per-item LLR fit over co-occurrence counts."""
    deg = m.item_degrees().astype(np.float64)
    n_users = float(m.n_users)
    buffers = mcf._table_buffers(m.n_items, k, m.n_items)
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
        scores[nz] = mcf.llr_many(k11, k12, k21, k22)
        _truncate(i, scores, k, *buffers)
    return mcf._table(m.n_items, k, *buffers, np.arange(m.n_items))


def swing_similarity_oracle(m, alpha=1.0, k=mcf.DEFAULT_TOP_K,
                            max_users_per_item=mcf.DEFAULT_SWING_MAX_USERS):
    """The per-item Swing fit over a dense user x item incidence."""
    incidence = np.zeros((m.n_users, m.n_items))
    for u in range(m.n_users):
        items, _ = m.row(u)
        incidence[u, items] = 1.0
    buffers = mcf._table_buffers(m.n_items, k, m.n_items)
    for i in range(m.n_items):
        users_i, _ = m.col(i)
        if len(users_i) > max_users_per_item:
            users_i = users_i[:max_users_per_item]
        if len(users_i) < 2:
            continue
        sub = incidence[users_i]
        overlap = sub @ sub.T
        w = 1.0 / (alpha + overlap)
        c = np.einsum("uj,uj->j", w @ sub, sub)
        c -= np.diag(w) @ sub
        c *= 0.5
        c[i] = 0.0
        c[np.abs(c) < 1e-15] = 0.0
        _truncate(i, c, k, *buffers)
    return mcf._table(m.n_items, k, *buffers, np.arange(m.n_items))


def bits(x):
    """The float64 bit patterns of x, so -0.0 and 0.0 differ."""
    return np.asarray(x, dtype=np.float64).view(np.int64)


def bigraph_oracle(dense, user, retain_seed=True):
    inc = dense > 0
    n_users, n_items = inc.shape
    seed = np.flatnonzero(inc[user])
    umass = np.zeros(n_users)
    for i in seed:
        users_i = np.flatnonzero(inc[:, i])
        umass[users_i] += 1.0 / len(users_i)
    out = np.zeros(n_items)
    for v in np.flatnonzero(umass):
        items_v = np.flatnonzero(inc[v])
        out[items_v] += umass[v] / len(items_v)
    if not retain_seed:
        out[seed] = 0.0
    return out


class TestCosineOracles:
    @pytest.mark.parametrize("seed", range(5))
    def test_item_cosine_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, 24, 18)
        m = matrix_from_dense(dense)
        table = mcf.item_cosine_similarity(m, k=18, rows=every_item(m))
        assert np.allclose(dense_sims(table), cosine_oracle(dense), atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_user_cosine_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, 20, 25)
        m = matrix_from_dense(dense)
        table = mcf.user_cosine_similarity(m, k=20, rows=every_user(m))
        assert np.allclose(dense_sims(table), cosine_oracle(dense.T),
                           atol=1e-9)

    def test_hand_case(self):
        # users A,B both rate items 0,1; cos(0,1) = (2*3 + 4*5)/(sqrt(4+16)*sqrt(9+25))
        m = matrix_from_dense([[2.0, 3.0], [4.0, 5.0]])
        table = mcf.item_cosine_similarity(m, k=5, rows=every_item(m))
        want = (2 * 3 + 4 * 5) / (math.sqrt(20) * math.sqrt(34))
        assert dense_sims(table)[0, 1] == pytest.approx(want)

    def test_symmetric_without_truncation(self, rng):
        m = matrix_from_dense(random_dense(rng, 15, 12))
        sims = dense_sims(mcf.item_cosine_similarity(m, k=12,
                                                     rows=every_item(m)))
        assert np.allclose(sims, sims.T, atol=1e-12)


class TestSimTableInvariants:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
    def test_neighbor_lists_sorted_sim_desc_ties_id_asc(self, seed, k):
        rng = np.random.default_rng(seed)
        m = matrix_from_dense(random_dense(rng, 12, 10, density=0.4))
        table = mcf.item_cosine_similarity(m, k=k, rows=every_item(m))
        assert table.ptr[0] == 0 and table.ptr[-1] == len(table.ids)
        assert len(table.sims) == len(table.ids)
        for entity in range(table.n):
            ids, sims = neighbors(table, entity)
            assert len(ids) <= k
            for pos in range(len(sims) - 1):
                assert sims[pos] >= sims[pos + 1]
                if sims[pos] == sims[pos + 1]:
                    assert ids[pos] < ids[pos + 1]

    def test_truncation_keeps_top_k(self):
        dense = np.array([
            [1.0, 1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
        ])
        m = matrix_from_dense(dense)
        full = mcf.item_cosine_similarity(m, k=4, rows=every_item(m))
        trunc = mcf.item_cosine_similarity(m, k=1, rows=every_item(m))
        for i in range(4):
            ids, sims = neighbors(trunc, i)
            if len(ids):
                full_ids, full_sims = neighbors(full, i)
                assert full_sims[0] == pytest.approx(sims[0])
                assert full_ids[0] == ids[0]


class TestSwing:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(100 + seed)
        dense = random_dense(rng, 16, 12, density=0.35)
        m = matrix_from_dense(dense).binarized()
        table = mcf.swing_similarity(m, alpha=1.0, k=12,
                                     max_users_per_item=999,
                                     rows=every_item(m))
        want = swing_oracle(dense, 1.0, cap=10 ** 9)
        assert np.allclose(dense_sims(table), want, atol=1e-9)

    def test_user_cap_ascending_ids(self):
        rng = np.random.default_rng(9)
        dense = random_dense(rng, 14, 8, density=0.5)
        m = matrix_from_dense(dense).binarized()
        table = mcf.swing_similarity(m, alpha=0.7, k=8, max_users_per_item=3,
                                     rows=every_item(m))
        want = swing_oracle(dense, 0.7, cap=3)
        assert np.allclose(dense_sims(table), want, atol=1e-9)

    def test_hand_case_two_users_two_items(self):
        # users 0,1 share items 0,1 -> overlap 2; sim = 1/(alpha+2)
        m = matrix_from_dense([[1.0, 1.0], [1.0, 1.0]])
        table = mcf.swing_similarity(m, alpha=1.0, k=2, rows=every_item(m))
        assert dense_sims(table)[0, 1] == pytest.approx(1.0 / 3.0)

    @given(st.integers(0, 2 ** 31 - 1))
    def test_alpha_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, 10, 8, density=0.45)
        m = matrix_from_dense(dense).binarized()
        lo = dense_sims(mcf.swing_similarity(m, alpha=0.5, k=8,
                                             rows=every_item(m)))
        hi = dense_sims(mcf.swing_similarity(m, alpha=2.0, k=8,
                                             rows=every_item(m)))
        assert np.all(hi <= lo + 1e-12)

    def test_alpha_must_be_positive(self):
        m = matrix_from_dense([[1.0]])
        with pytest.raises(ValueError, match="alpha"):
            mcf.swing_similarity(m, alpha=0.0, rows=every_item(m))


class TestLlr:
    def test_perfect_association(self):
        # diagonal table: G^2 = 2*N*ln(2) with N=20
        assert mcf.llr_many(10, 0, 0, 10) == pytest.approx(40 * math.log(2))

    def test_independence_is_zero(self):
        assert mcf.llr_many(5, 5, 5, 5) == pytest.approx(0.0, abs=1e-12)

    def test_never_negative_and_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = rng.integers(0, 50, 4).astype(float)
            got = mcf.llr_many(*k)
            assert got >= 0.0
            assert got == pytest.approx(llr_oracle(*k), abs=1e-9)

    def test_llr_many_vectorized_agrees_with_scalar(self, rng):
        k = rng.integers(0, 30, (50, 4)).astype(float)
        many = mcf.llr_many(k[:, 0], k[:, 1], k[:, 2], k[:, 3])
        for row, got in zip(k, many):
            assert got == pytest.approx(mcf.llr_many(*row), abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_table_matches_oracle(self, seed):
        rng = np.random.default_rng(200 + seed)
        dense = random_dense(rng, 18, 14, density=0.3)
        m = matrix_from_dense(dense).binarized()
        table = mcf.llr_item_similarity(m, k=14, rows=every_item(m))
        assert np.allclose(dense_sims(table), llr_table_oracle(dense),
                           atol=1e-9)


class TestBigraph:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle(self, seed):
        rng = np.random.default_rng(300 + seed)
        dense = random_dense(rng, 15, 12, density=0.35)
        m = matrix_from_dense(dense).binarized()
        for user in range(15):
            ids, masses = mcf.bigraph_scores(m, user)
            got = np.zeros(12)
            got[ids] = masses
            assert np.allclose(got, bigraph_oracle(dense, user), atol=1e-9)

    def test_seed_items_can_be_dropped(self, rng):
        dense = random_dense(rng, 10, 8, density=0.5)
        m = matrix_from_dense(dense).binarized()
        ids, _ = mcf.bigraph_scores(m, 0, retain_seed=False)
        seed_items = np.flatnonzero(dense[0])
        assert not set(ids) & set(seed_items)

    def test_mass_conserved_when_seed_retained(self, rng):
        # every seed item emits unit mass; diffusion only redistributes it
        dense = random_dense(rng, 12, 9, density=0.4)
        m = matrix_from_dense(dense).binarized()
        for user in range(12):
            _, masses = mcf.bigraph_scores(m, user)
            n_seed = int((dense[user] > 0).sum())
            assert masses.sum() == pytest.approx(n_seed, abs=1e-9)

    def test_cold_user_empty(self):
        m = matrix_from_dense(np.zeros((3, 3)))
        ids, masses = mcf.bigraph_scores(m, 1)
        assert len(ids) == 0 and len(masses) == 0
        ids, _ = mcf.bigraph_scores(m, -1)
        assert len(ids) == 0


class TestScoreCandidates:
    def test_bigraph_matches_oracle_and_ignores_ratings(self, rng):
        dense = random_dense(rng, 12, 10, density=0.3)
        m = matrix_from_dense(dense)
        cands = np.array([9, 0, 4, 7, 2])
        for retain in (True, False):
            for user in (-1, *range(12)):
                users = np.full(len(cands), user)
                got, cold = mcf.score_candidates_bigraph(m, users, cands,
                                                         retain_seed=retain)
                binary, _ = mcf.score_candidates_bigraph(
                    m.binarized(), users, cands, retain_seed=retain)
                assert np.array_equal(got, binary)
                if user < 0:
                    assert cold.all() and np.all(got == 0)
                    continue
                want = bigraph_oracle(dense, user, retain_seed=retain)
                assert np.all(cold == (not want.any()))
                assert np.allclose(got, want[cands], atol=1e-9)

    def test_item_based_matches_manual_sum(self, rng):
        dense = random_dense(rng, 12, 10, density=0.4)
        m = matrix_from_dense(dense)
        table = mcf.item_cosine_similarity(m, k=10, rows=every_item(m))
        sims = dense_sims(table)
        cands = np.arange(10)
        for user in range(12):
            got, cold = mcf.score_candidates(table, m, np.full(10, user), cands)
            hist = np.flatnonzero(dense[user])
            if len(hist) == 0:
                assert cold.all() and np.all(got == 0)
                continue
            want = sims[:, hist] @ dense[user, hist]
            assert not cold.any()
            assert np.allclose(got, want, atol=1e-9)

    def test_user_based_matches_manual_sum(self, rng):
        dense = random_dense(rng, 10, 12, density=0.4)
        m = matrix_from_dense(dense)
        table = mcf.user_cosine_similarity(m, k=10, rows=every_user(m))
        sims = dense_sims(table)
        cands = np.arange(12)
        for user in range(10):
            got, cold = mcf.score_candidates_user_based(
                table, m, np.full(12, user), cands)
            if dense[user].sum() == 0:
                assert cold.all()
                continue
            want = sims[user] @ dense
            assert np.allclose(got, want, atol=1e-9)

    def test_unknown_user_is_cold(self, rng):
        dense = random_dense(rng, 5, 5)
        m = matrix_from_dense(dense)
        table = mcf.item_cosine_similarity(m, k=5, rows=every_item(m))
        got, cold = mcf.score_candidates(table, m, np.array([-1, -1]),
                                         np.array([0, 1]))
        assert cold.all() and np.all(got == 0)
        got, cold = mcf.score_candidates(table, m, np.array([99]),
                                         np.array([0]))
        assert cold.all()


def oracle_pairs(oracle, users, cands, *args, **kw):
    """(scores, cold) of every pair from a per-user oracle called on the
    pair alone."""
    got = [oracle(*args, int(u), np.array([c]), **kw)
           for u, c in zip(users, cands)]
    return (np.array([s[0] for s, _ in got], dtype=np.float64),
            np.array([cold for _, cold in got]))


def scoring_case(seed, n_users=14, n_items=11):
    """A random matrix with an empty-history user, an unrated item and a
    user whose only item nobody else holds, plus shuffled run pairs that
    include unknown users (-1) and repeat users and candidates."""
    rng = np.random.default_rng(seed)
    dense = random_dense(rng, n_users, n_items, density=0.35)
    dense[0] = 0.0                       # empty history
    dense[:, 1] = 0.0                    # item without raters or neighbors
    dense[2] = 0.0
    dense[:, 2] = 0.0
    dense[2, 2] = 4.0                    # user 2: history, no co-raters
    if seed % 2:
        dense = (dense > 0).astype(float)  # ties in the neighbor lists
    users = rng.integers(-1, n_users, 90)
    cands = rng.integers(0, n_items, 90)
    return matrix_from_dense(dense), users, cands


BLOCKS = [None, (1, 1), (40, 3)]


def set_blocks(monkeypatch, blocks):
    if blocks is not None:
        monkeypatch.setattr(mcf, "_SCORE_BLOCK", blocks[0])
        monkeypatch.setattr(mcf, "_BIGRAPH_BLOCK", blocks[1])


def assert_both_regimes(table, rows, key_ptr, keys):
    """Some warm pairs' neighbor lists are longer than their key lists and
    some shorter."""
    lists = np.diff(table.ptr)[rows]
    lens = np.diff(key_ptr)[keys]
    assert (lists > lens).any() and (lists < lens).any()


class TestWholeRunKernels:
    """The whole-run kernels against the per-user loops they replaced:
    equal float64 bits and equal missing flags on every pair, with top-k
    neighbor lists and with full ones (k = n_items)."""

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fit", ["cosine", "swing", "llr"])
    def test_item_based_bits(self, monkeypatch, blocks, seed, fit):
        self.item_based(monkeypatch, blocks, seed, fit, full=False)

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fit", ["cosine", "swing", "llr"])
    def test_item_based_full_lists_bits(self, monkeypatch, blocks, seed, fit):
        self.item_based(monkeypatch, blocks, seed, fit, full=True)

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("seed", range(4))
    def test_user_based_bits(self, monkeypatch, blocks, seed):
        self.user_based(monkeypatch, blocks, seed, full=False)

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("seed", range(4))
    def test_user_based_full_lists_bits(self, monkeypatch, blocks, seed):
        self.user_based(monkeypatch, blocks, seed, full=True)

    @staticmethod
    def item_based(monkeypatch, blocks, seed, fit, full):
        set_blocks(monkeypatch, blocks)
        m, users, cands = scoring_case(seed)
        k = m.n_items if full else 3 + seed
        rows = every_item(m)
        table = {"cosine": lambda: mcf.item_cosine_similarity(m, k, rows=rows),
                 "swing": lambda: mcf.swing_similarity(m.binarized(), k=k,
                                                       rows=rows),
                 "llr": lambda: mcf.llr_item_similarity(m.binarized(), k,
                                                        rows=rows)}[fit]()
        got, cold = mcf.score_candidates(table, m, users, cands)
        want, want_cold = oracle_pairs(score_candidates_oracle, users, cands,
                                       table, m)
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(cold, want_cold)
        assert got.any() and cold.any() and not cold.all()
        assert_both_regimes(table, cands[~cold], m.user_ptr, users[~cold])

    @staticmethod
    def user_based(monkeypatch, blocks, seed, full):
        set_blocks(monkeypatch, blocks)
        m, users, cands = scoring_case(seed)
        table = mcf.user_cosine_similarity(m, m.n_items if full else 3 + seed,
                                           rows=every_user(m))
        assert table.ptr[3] == table.ptr[2]    # user 2 has no neighbor list
        got, cold = mcf.score_candidates_user_based(table, m, users, cands)
        want, want_cold = oracle_pairs(score_candidates_user_based_oracle,
                                       users, cands, table, m)
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(cold, want_cold)
        assert got.any() and cold.any() and not cold.all()
        assert_both_regimes(table, users[~cold], m.item_ptr, cands[~cold])

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("retain", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_bigraph_bits(self, monkeypatch, blocks, retain, seed):
        set_blocks(monkeypatch, blocks)
        m, users, cands = scoring_case(seed)
        got, cold = mcf.score_candidates_bigraph(m, users, cands,
                                                 retain_seed=retain)
        want = np.zeros(len(cands))
        want_cold = np.ones(len(cands), dtype=bool)
        for p, (u, c) in enumerate(zip(users, cands)):
            nz, mass = bigraph_scores_oracle(m, int(u), retain_seed=retain)
            want_cold[p] = len(nz) == 0
            hit = np.flatnonzero(nz == c)
            if len(hit):
                want[p] = mass[hit[0]]
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(cold, want_cold)
        for user in (-1, 0, 2, *range(3, m.n_users)):
            nz, mass = mcf.bigraph_scores(m, user, retain_seed=retain)
            want_nz, want_mass = bigraph_scores_oracle(m, user, retain)
            assert np.array_equal(nz, want_nz)
            assert np.array_equal(bits(mass), bits(want_mass))

    def test_user_whose_only_mass_is_the_seed_is_cold_without_it(self):
        # user 0 holds item 0 alone: all mass returns to the seed item
        m = matrix_from_dense([[1.0, 0.0], [0.0, 1.0]])
        users, cands = np.array([0, 0]), np.array([0, 1])
        _, cold = mcf.score_candidates_bigraph(m, users, cands)
        assert not cold.any()
        got, cold = mcf.score_candidates_bigraph(m, users, cands,
                                                 retain_seed=False)
        assert cold.all() and not got.any()

    def test_empty_run(self):
        m, _, _ = scoring_case(0)
        none = np.zeros(0, dtype=np.int64)
        for got, cold in (
                mcf.score_candidates(
                    mcf.item_cosine_similarity(m, 5, rows=none), m, none,
                    none),
                mcf.score_candidates_user_based(
                    mcf.user_cosine_similarity(m, 5, rows=none), m, none,
                    none),
                mcf.score_candidates_bigraph(m, none, none)):
            assert got.shape == cold.shape == (0,)

    def test_misaligned_pairs_rejected(self):
        m, _, _ = scoring_case(0)
        with pytest.raises(ValueError, match="aligned"):
            mcf.score_candidates_bigraph(m, np.array([0]), np.array([0, 1]))


FITS = {
    "item_cf": (lambda m, k: mcf.item_cosine_similarity(
                    m, k, rows=every_item(m)),
                lambda m, k: cosine_table_oracle(m, k)),
    "user_cf": (lambda m, k: mcf.user_cosine_similarity(
                    m, k, rows=every_user(m)),
                lambda m, k: cosine_table_oracle(m, k, users=True)),
    "swing": (lambda m, k: mcf.swing_similarity(
                  m.binarized(), 0.7, k, 6, rows=every_item(m)),
              lambda m, k: swing_similarity_oracle(m.binarized(), 0.7, k, 6)),
    "llr": (lambda m, k: mcf.llr_item_similarity(
                m.binarized(), k, rows=every_item(m)),
            lambda m, k: llr_item_similarity_oracle(m.binarized(), k)),
}


def assert_same_table(got, want):
    assert (got.n, got.k) == (want.n, want.k)
    assert np.array_equal(got.ptr, want.ptr)
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(bits(got.sims), bits(want.sims))


class TestFitKernels:
    """The blocked fits against the per-entity loops they replaced: equal
    ptr and ids and equal float64 bits on whole-number ratings."""

    @pytest.mark.parametrize("block", [None, 1, 7, 1 << 40])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_bits(self, monkeypatch, block, seed, fit):
        if block is not None:
            monkeypatch.setattr(mcf, "_FIT_BLOCK", block)
        # an empty history, an unrated item and a user and item that
        # share nothing with anyone; odd seeds are binary (ties)
        m, _, _ = scoring_case(seed)
        new, old = FITS[fit]
        for k in (1, 3, 10, 11, 13, 14, 200):
            assert_same_table(new(m, k), old(m, k))

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_empty_and_single_entity_matrices(self, fit):
        new, old = FITS[fit]
        for dense in (np.zeros((0, 0)), np.zeros((3, 0)), np.zeros((0, 4)),
                      np.zeros((3, 4)), [[2.0]], [[1.0, 3.0]]):
            m = matrix_from_dense(dense)
            assert_same_table(new(m, 5), old(m, 5))

    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_stored_zero_ratings(self, fit):
        # user 0 and item 0 hold only zeros: active, with a zero norm
        rng = np.random.default_rng(47)
        dense = random_dense(rng, 9, 7, density=0.5)
        dense[0] = 0.0
        dense[:, 0] = 0.0
        u, i = np.nonzero(dense)
        m = SparseInteractionMatrix.from_pairs(
            np.r_[u, 0, 0, 3], np.r_[i, 0, 2, 0], np.r_[dense[u, i], 0, 0, 0],
            9, 7)
        new, old = FITS[fit]
        for k in (2, 8):
            got = new(m, k)
            assert np.isfinite(got.sims).all()
            assert_same_table(got, old(m, k))

    @pytest.mark.parametrize("block", [None, 1])
    @pytest.mark.parametrize("fit", ["item_cf", "user_cf"])
    def test_negative_ratings(self, monkeypatch, block, fit):
        # negative cosines rank among themselves, below every positive one
        if block is not None:
            monkeypatch.setattr(mcf, "_FIT_BLOCK", block)
        rng = np.random.default_rng(41)
        dense = random_dense(rng, 16, 13, density=0.4)
        dense *= rng.choice([-1.0, 1.0], dense.shape)
        m = matrix_from_dense(dense)
        new, old = FITS[fit]
        for k in (1, 4, 8, 15):
            assert_same_table(new(m, k), old(m, k))
        # some list cut at k = 8 ends among its negative scores
        full, cut = new(m, 15), new(m, 8)
        assert any(len(neighbors(cut, e)[1]) < len(neighbors(full, e)[1])
                   and neighbors(cut, e)[1][-1] < 0 for e in range(cut.n))

    def test_llr_ignores_ratings(self):
        m, _, _ = scoring_case(2)
        assert not np.all(m.user_ratings == 1.0)
        rows = every_item(m)
        got = mcf.llr_item_similarity(m, 7, rows=rows)
        assert_same_table(got, mcf.llr_item_similarity(m.binarized(), 7,
                                                       rows=rows))
        assert_same_table(got, llr_item_similarity_oracle(m, 7))

    def test_swing_ignores_ratings(self):
        m, _, _ = scoring_case(2)
        assert not np.all(m.user_ratings == 1.0)
        rows = every_item(m)
        for k in (2, 200):
            got = mcf.swing_similarity(m, 0.7, k, 6, rows=rows)
            assert_same_table(got, mcf.swing_similarity(m.binarized(), 0.7,
                                                        k, 6, rows=rows))
            assert_same_table(got, swing_similarity_oracle(m, 0.7, k, 6))

    @pytest.mark.parametrize("fit", ["item_cf", "user_cf"])
    def test_fractional_ratings_close(self, monkeypatch, fit):
        # the blocked sums may add in another order: last bits only
        rng = np.random.default_rng(43)
        dense = np.where(rng.random((40, 30)) < 0.3,
                         rng.uniform(1.0, 5.0, (40, 30)), 0.0)
        m = matrix_from_dense(dense)
        new, old = FITS[fit]
        want = dense_sims(old(m, 50))
        for block in (1, 64, 1 << 40):
            monkeypatch.setattr(mcf, "_FIT_BLOCK", block)
            got = dense_sims(new(m, 50))
            assert np.array_equal(got != 0, want != 0)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestFitScratch:
    @pytest.mark.parametrize("fit", sorted(FITS))
    def test_dense_blocks_stay_within_the_block_constant(self, monkeypatch,
                                                        fit):
        # a dense array may exceed the block only by being one row wide
        block = 40
        monkeypatch.setattr(mcf, "_FIT_BLOCK", block)
        sizes = []
        dense_rows = mcf._dense_rows
        write_top_k = mcf._write_top_k

        def record(rows_or_vals):
            sizes.append((rows_or_vals.size,
                          max(block, rows_or_vals.shape[1])))

        def recording_rows(*args):
            out = dense_rows(*args)
            if fit != "swing":           # Swing's per-item users, uncapped
                record(out)
            return out

        def recording_writer(entities, cols, vals, *rest):
            record(vals)
            write_top_k(entities, cols, vals, *rest)

        monkeypatch.setattr(mcf, "_dense_rows", recording_rows)
        monkeypatch.setattr(mcf, "_write_top_k", recording_writer)
        m, _, _ = scoring_case(1, n_users=30, n_items=25)
        FITS[fit][0](m, 5)
        assert len(sizes) > 3
        assert all(size <= bound for size, bound in sizes)


class TestScoreScratch:
    @pytest.mark.parametrize("block", [40, 100, 400])
    @pytest.mark.parametrize("user_based", [False, True])
    def test_blocks_stay_within_the_block_constant(self, monkeypatch, block,
                                                   user_based):
        # a block may exceed the constant only by holding one pair
        m, users, cands = scoring_case(1, n_users=30, n_items=25)
        if user_based:
            table = mcf.user_cosine_similarity(m, 8, rows=every_user(m))
            score = mcf.score_candidates_user_based
        else:
            table = mcf.item_cosine_similarity(m, 8, rows=every_item(m))
            score = mcf.score_candidates
        monkeypatch.setattr(mcf, "_SCORE_BLOCK", block)
        calls = []
        ranges = mcf._ranges

        def recording_ranges(starts, counts):
            calls.append((len(starts), int(np.sum(counts))))
            return ranges(starts, counts)

        monkeypatch.setattr(mcf, "_ranges", recording_ranges)
        score(table, m, users, cands)
        # per block: its rows' neighbor lists, then its pairs' key lists
        assert len(calls) > 2 and len(calls) % 2 == 0
        blocks = [(n_rows * table.n + entries, n_pairs) for (n_rows, _),
                  (n_pairs, entries) in zip(calls[::2], calls[1::2])]
        assert all(cost <= block or n_pairs == 1 for cost, n_pairs in blocks)
        assert any(n_pairs > 1 for _, n_pairs in blocks)


class TestWriteTopK:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_truncate(self, seed):
        # rows of several entities in gaps, negative scores, many ties
        rng = np.random.default_rng(seed)
        n = 12
        entities = np.sort(rng.choice(n, 7, replace=False))
        cols = np.sort(rng.choice(n, 9, replace=False))
        vals = rng.integers(-3, 4, (len(entities), len(cols))).astype(float)
        vals[rng.random(vals.shape) < 0.3] = 0.0
        vals[2] = 0.0
        for k in (1, 2, 5, 9, 11):
            got = mcf._table_buffers(n, k, n)
            mcf._write_top_k(entities[:4], cols, vals[:4], k, *got)
            mcf._write_top_k(entities[4:], cols, vals[4:], k, *got)
            want = mcf._table_buffers(n, k, n)
            for e, row in zip(entities, vals):
                full = np.zeros(n)
                full[cols] = row
                _truncate(e, full, k, *want)
            assert_same_table(mcf._table(n, k, *got, entities),
                              mcf._table(n, k, *want, entities))


class TestSegmentDots:
    @pytest.mark.parametrize("length", [*range(1, 41), 200])
    def test_matches_blas_dot_bits(self, length):
        rng = np.random.default_rng(length)
        # segments of this length between segments of other lengths
        lengths = rng.permutation(np.r_[np.full(30, length),
                                        rng.integers(0, 45, 30)])
        a = rng.standard_normal(lengths.sum())
        b = rng.standard_normal(lengths.sum())
        got = mcf.segment_dots(a, b, lengths)
        starts = np.cumsum(lengths) - lengths
        want = [float(a[s:s + n] @ b[s:s + n]) if n else 0.0
                for s, n in zip(starts, lengths)]
        assert np.array_equal(bits(got), bits(want))

    def test_empty(self):
        got = mcf.segment_dots(np.zeros(0), np.zeros(0), np.zeros(0, np.int64))
        assert got.shape == (0,)


class TestRelabelingInvariance:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20)
    def test_item_sims_stable_under_user_permutation(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, 10, 8, density=0.4)
        perm = rng.permutation(10)
        m1, m2 = matrix_from_dense(dense), matrix_from_dense(dense[perm])
        base = mcf.item_cosine_similarity(m1, k=8, rows=every_item(m1))
        moved = mcf.item_cosine_similarity(m2, k=8, rows=every_item(m2))
        assert np.allclose(dense_sims(base), dense_sims(moved), atol=1e-9)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20)
    def test_swing_stable_under_user_permutation(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, 9, 7, density=0.45)
        perm = rng.permutation(9)
        m1 = matrix_from_dense(dense).binarized()
        m2 = matrix_from_dense(dense[perm]).binarized()
        a = mcf.swing_similarity(m1, alpha=1.0, k=7, max_users_per_item=999,
                                 rows=every_item(m1))
        b = mcf.swing_similarity(m2, alpha=1.0, k=7, max_users_per_item=999,
                                 rows=every_item(m2))
        assert np.allclose(dense_sims(a), dense_sims(b), atol=1e-12)


SUBSET_FITS = {
    "item_cf": lambda m, k, rows: mcf.item_cosine_similarity(m, k, rows=rows),
    "user_cf": lambda m, k, rows: mcf.user_cosine_similarity(m, k, rows=rows),
    "swing": lambda m, k, rows: mcf.swing_similarity(m.binarized(), 0.7, k, 6,
                                                     rows=rows),
    "llr": lambda m, k, rows: mcf.llr_item_similarity(m.binarized(), k,
                                                      rows=rows),
}


def fitted_ptr(m, fit):
    """The CSR pointer of the entities a fit makes lists for."""
    return m.user_ptr if fit == "user_cf" else m.item_ptr


class TestSubsetFits:
    """A fit given rows writes exactly the lists of the full table for
    those entities and none for the others."""

    @pytest.mark.parametrize("fit", sorted(SUBSET_FITS))
    @given(seed=st.integers(0, 2 ** 31 - 1),
           k=st.sampled_from([1, 3, 10, 200]),
           block=st.sampled_from([None, 1, 7, 1 << 40]),
           choice=st.sampled_from(["random", "empty", "inactive", "all"]),
           picks=st.sets(st.integers(0, 13)))
    @settings(max_examples=40)
    def test_lists_of_rows_equal_the_full_table_bit_for_bit(
            self, fit, seed, k, block, choice, picks):
        # scoring_case has inactive users and items: 0 and 1 among them
        m, _, _ = scoring_case(seed)
        ptr = fitted_ptr(m, fit)
        n = len(ptr) - 1
        rows = {"random": sorted(p for p in picks if p < n), "empty": [],
                "inactive": np.flatnonzero(np.diff(ptr) == 0),
                "all": range(n)}[choice]
        rows = np.asarray(rows, dtype=np.int64)
        with mock.patch.object(mcf, "_FIT_BLOCK",
                               mcf._FIT_BLOCK if block is None else block):
            full = SUBSET_FITS[fit](m, k, np.arange(n))
            got = SUBSET_FITS[fit](m, k, rows)
        assert (got.n, got.k) == (full.n, full.k)
        assert np.array_equal(full.fitted, np.arange(n))
        assert np.array_equal(got.fitted, rows)
        assert got.unfitted(np.arange(n)).tolist() == [
            e not in rows for e in range(n)]
        for e in range(n):
            ids, sims = neighbors(got, e)
            if e in rows:
                want_ids, want_sims = neighbors(full, e)
                assert np.array_equal(ids, want_ids)
                assert np.array_equal(bits(sims), bits(want_sims))
            else:
                assert len(ids) == 0

    @pytest.mark.parametrize("fit", sorted(SUBSET_FITS))
    def test_rows_are_sorted_and_checked(self, fit):
        m, _, _ = scoring_case(3)
        assert np.array_equal(SUBSET_FITS[fit](m, 5, [6, 3, 6]).fitted, [3, 6])
        n = len(fitted_ptr(m, fit)) - 1
        for bad in ([-1], [n]):
            with pytest.raises(ValueError, match="rows must be entity ids"):
                SUBSET_FITS[fit](m, 5, bad)


class TestUnfittedGuard:
    """Scoring never reads a list the table did not fit as an empty one."""

    def warm(self, m):
        return [u for u in range(m.n_users)
                if m.user_ptr[u + 1] > m.user_ptr[u]]

    def test_item_based_names_the_first_unfitted_candidate(self):
        m, _, _ = scoring_case(0)
        table = mcf.item_cosine_similarity(m, 5, rows=[3, 4])
        user = self.warm(m)[0]
        with pytest.raises(ValueError, match="^entity 6 has no fitted"):
            mcf.score_candidates(table, m, np.full(4, user),
                                 np.array([3, 6, 4, 5]))

    def test_user_based_names_the_first_unfitted_user(self):
        m, _, _ = scoring_case(0)
        first, second = self.warm(m)[:2]
        table = mcf.user_cosine_similarity(m, 5, rows=[first])
        with pytest.raises(ValueError,
                           match=f"^entity {second} has no fitted"):
            mcf.score_candidates_user_based(
                table, m, np.array([first, second]), np.array([3, 4]))

    def test_cold_pairs_read_no_list(self):
        # user 0 has no history and -1 is unknown: both cold, never looked up
        m, _, _ = scoring_case(0)
        table = mcf.user_cosine_similarity(m, 5, rows=[])
        scores, cold = mcf.score_candidates_user_based(
            table, m, np.array([0, -1]), np.array([3, 4]))
        assert cold.all() and not scores.any()

    @pytest.mark.parametrize("fit", sorted(SUBSET_FITS))
    def test_fitted_rows_score_as_the_full_table(self, fit):
        m, users, cands = scoring_case(2)
        score = (mcf.score_candidates_user_based if fit == "user_cf"
                 else mcf.score_candidates)
        rows = np.unique(users[users >= 0] if fit == "user_cf" else cands)
        every = np.arange(len(fitted_ptr(m, fit)) - 1)
        got = score(SUBSET_FITS[fit](m, 4, rows), m, users, cands)
        want = score(SUBSET_FITS[fit](m, 4, every), m, users, cands)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(got[1], want[1])
