"""Embedding scorers: dense propagation oracle, finite-difference gradient
checks, analytic walk-weight cases, per-walk, per-sequence, per-user and
per-draw loop oracles for the vectorised walks, skip-gram, user vectors,
scoring and negative sampling, and TSV round trips."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmrec import embeddings as emb
from cmrec.data import SparseInteractionMatrix
from cmrec.util import (DataError, atomic_write_text, fmt, sigmoid,
                        stage_seed)

from test_memory_cf import matrix_from_dense, random_dense


# --- loop oracles: one walk, one sequence and one row scatter at a time -----

def bipartite_adjacency(m):
    """Neighbor lists in a unified node space: users 0..n_users-1, items
    offset by n_users."""
    adj = [m.row(u)[0] + m.n_users for u in range(m.n_users)]
    adj.extend(m.col(i)[0].copy() for i in range(m.n_items))
    return adj


def transition_weights(adj, prev, cur, p, q):
    """Unnormalized second-order weights for each neighbor of cur: 1/p to
    return to prev, 1 to a common neighbor of prev and cur, 1/q else."""
    nbrs = adj[cur]
    weights = np.full(len(nbrs), 1.0 / q)
    common = np.isin(nbrs, adj[prev], assume_unique=True)
    weights[common] = 1.0
    weights[nbrs == prev] = 1.0 / p
    return weights


def _draw(rng, weights):
    cdf = np.cumsum(weights)
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def generate_walks_oracle(m, params):
    """node2vec walks one at a time, one scalar draw per step."""
    adj = bipartite_adjacency(m)
    walks = []
    for start in range(len(adj)):
        if len(adj[start]) == 0:
            continue
        for w in range(params.walks_per_node):
            rng = np.random.default_rng(
                stage_seed(params.seed, "walk", str(start), str(w)))
            walk, prev, cur = [start], -1, start
            for _ in range(params.walk_length - 1):
                nbrs = adj[cur]
                if prev < 0:
                    weights = np.ones(len(nbrs))
                else:
                    weights = transition_weights(adj, prev, cur,
                                                 params.p, params.q)
                nxt = int(nbrs[_draw(rng, weights)])
                walk.append(nxt)
                prev, cur = cur, nxt
            walks.append(walk)
    return walks


def _pairs_for_sequence(seq, window):
    centers, contexts = [], []
    n = len(seq)
    for t in range(n):
        for j in range(max(0, t - window), min(n, t + window + 1)):
            if j != t:
                centers.append(seq[t])
                contexts.append(seq[j])
    return np.array(centers, dtype=np.int64), np.array(contexts, dtype=np.int64)


def sgns_chunk_oracle(w_in, w_out, centers, contexts, negs, lr):
    v, u_o, u_n = w_in[centers], w_out[contexts], w_out[negs]
    pos = np.einsum("bd,bd->b", v, u_o)
    neg = np.einsum("bkd,bd->bk", u_n, v)
    loss = float(np.sum(-emb._log_sigmoid(pos))
                 + np.sum(-emb._log_sigmoid(-neg)))
    g_pos = sigmoid(pos) - 1.0
    g_neg = sigmoid(neg)
    d_v = g_pos[:, None] * u_o + np.einsum("bk,bkd->bd", g_neg, u_n)
    np.add.at(w_in, centers, -lr * d_v)
    np.add.at(w_out, contexts, -lr * g_pos[:, None] * v)
    np.add.at(w_out, negs.ravel(),
              -lr * (g_neg[:, :, None] * v[:, None, :]).reshape(-1, v.shape[1]))
    return loss


def train_skipgram_oracle(corpus, params, n_tokens):
    """Skip-gram with Python-built pairs per sequence, dict vocabulary and
    2-D row scatters."""
    corpus = [list(seq) for seq in corpus]
    vocab = sorted({tok for seq in corpus for tok in seq})
    index = {tok: k for k, tok in enumerate(vocab)}
    counts = np.zeros(len(vocab))
    for seq in corpus:
        for tok in seq:
            counts[index[tok]] += 1.0
    noise = counts ** 0.75
    noise /= noise.sum()
    noise_cdf = np.cumsum(noise)
    rng = np.random.default_rng(stage_seed(params.seed, "sgns"))
    w_in = rng.uniform(-0.5 / params.dim, 0.5 / params.dim,
                       size=(len(vocab), params.dim))
    w_out = np.zeros((len(vocab), params.dim))
    epoch_loss = []
    for _epoch in range(params.epochs):
        total, n_pairs = 0.0, 0
        for seq in corpus:
            centers, contexts = _pairs_for_sequence(
                [index[t] for t in seq], params.window)
            for s in range(0, len(centers), 1024):
                c, o = centers[s:s + 1024], contexts[s:s + 1024]
                draws = rng.random((len(c), params.negatives))
                negs = np.searchsorted(noise_cdf, draws, side="right")
                total += sgns_chunk_oracle(w_in, w_out, c, o, negs,
                                           params.learning_rate)
                n_pairs += len(c)
        epoch_loss.append(total / max(n_pairs, 1))
    vectors = np.zeros((n_tokens, params.dim))
    present = np.zeros(n_tokens, dtype=bool)
    for tok in vocab:
        vectors[tok] = w_in[index[tok]]
        present[tok] = True
    return vectors, present, {"epoch_loss": epoch_loss, "vocab": len(vocab)}


def bpr_loss_and_grad_oracle(user_vecs, item_vecs, graph, layers, l2_reg,
                             users, pos_items, neg_items):
    """bpr_loss_and_grad with 2-D row-indexed np.add.at scatters."""
    f_u, f_i = emb.lightgcn_propagate(user_vecs, item_vecs, graph, layers)
    fu, fp, fn = f_u[users], f_i[pos_items], f_i[neg_items]
    margin = np.einsum("bd,bd->b", fu, fp - fn)
    b = len(users)
    loss = float(np.mean(-emb._log_sigmoid(margin)))
    coef = -sigmoid(-margin) / b
    d_fu, d_fi = np.zeros_like(f_u), np.zeros_like(f_i)
    np.add.at(d_fu, users, coef[:, None] * (fp - fn))
    np.add.at(d_fi, pos_items, coef[:, None] * fu)
    np.add.at(d_fi, neg_items, -coef[:, None] * fu)
    g_u, g_i = emb.lightgcn_propagate(d_fu, d_fi, graph, layers)
    reg = 0.0
    for vecs, grad, idx in ((user_vecs, g_u, users),
                            (item_vecs, g_i, pos_items),
                            (item_vecs, g_i, neg_items)):
        rows = vecs[idx]
        reg += float(np.sum(rows * rows))
        np.add.at(grad, idx, (2.0 * l2_reg / b) * rows)
    return loss + l2_reg * reg / b, g_u, g_i


def derive_user_vectors_oracle(m, items, has_item, meta):
    """User vectors one user at a time, np.mean over the held rows."""
    users = np.zeros((m.n_users, items.shape[1]))
    has_user = np.zeros(m.n_users, dtype=bool)
    for u in range(m.n_users):
        held = [items[i] for i in m.row(u)[0] if has_item[i]]
        if held:
            users[u] = np.mean(held, axis=0)
            has_user[u] = True
    return emb.EmbeddingTable(users, has_user, items, has_item, meta)


def sample_negatives_oracle(m, users, rng):
    """One scalar draw and one row search at a time."""
    neg = np.empty(len(users), dtype=np.int64)
    for row, u in enumerate(users):
        items, _ = m.row(int(u))
        found = -1
        for _ in range(100):
            cand = int(rng.integers(m.n_items))
            pos = np.searchsorted(items, cand)
            if pos >= len(items) or items[pos] != cand:
                found = cand
                break
        if found < 0:
            emb.log.warning("negative sampling failed for user %d; "
                            "triple skipped", u)
        neg[row] = found
    return neg


def vector_of(vectors, has, k):
    """Row k of vectors, None outside the table or where has[k] is False."""
    return vectors[k] if 0 <= k < len(has) and has[k] else None


def embedding_score_oracle(table, user, candidates, metric="dot"):
    """One user's candidates, one lookup and dot per candidate."""
    scores = np.zeros(len(candidates))
    missing = np.ones(len(candidates), dtype=bool)
    u_vec = vector_of(table.users, table.has_user, user)
    if u_vec is None:
        return scores, missing
    u_norm = float(np.linalg.norm(u_vec))
    for pos, cand in enumerate(candidates):
        c_vec = vector_of(table.items, table.has_item, cand)
        if c_vec is None:
            continue
        missing[pos] = False
        if metric == "dot":
            scores[pos] = float(u_vec @ c_vec)
        else:
            c_norm = float(np.linalg.norm(c_vec))
            if u_norm > 0 and c_norm > 0:
                scores[pos] = float(u_vec @ c_vec) / (u_norm * c_norm)
    return scores, missing


def run_score_oracle(table, users, items, metric):
    """embedding_score_oracle over each run of equal consecutive users."""
    cuts = [0, *(np.flatnonzero(np.diff(users)) + 1).tolist(), len(items)]
    parts = [embedding_score_oracle(table, int(users[a]), items[a:b].tolist(),
                                    metric) for a, b in zip(cuts, cuts[1:])
             if a < b]
    if not parts:
        return np.zeros(0), np.zeros(0, dtype=bool)
    return (np.concatenate([p[0] for p in parts]),
            np.concatenate([p[1] for p in parts]))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def assert_same_skipgram(got, want):
    """Same (vectors, present, meta) triple, vectors bit for bit."""
    assert same_bits(got[0], want[0])
    assert np.array_equal(got[1], want[1]) and got[1].dtype == bool
    assert got[2] == want[2]


def assert_same_table(got, want):
    for name in ("users", "has_user", "items", "has_item"):
        assert same_bits(getattr(got, name), getattr(want, name)), name
    assert got.meta == want.meta


def dense_propagation_oracle(dense_binary, user_vecs, item_vecs, layers):
    """Mean of layers 0..L of E ← D^{-1/2} A D^{-1/2} E on the stacked
    bipartite adjacency, written with explicit dense matrices."""
    n_users, n_items = dense_binary.shape
    n = n_users + n_items
    a = np.zeros((n, n))
    a[:n_users, n_users:] = dense_binary
    a[n_users:, :n_users] = dense_binary.T
    deg = a.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1e-300)), 0.0)
    norm_a = inv_sqrt[:, None] * a * inv_sqrt[None, :]
    e = np.vstack([user_vecs, item_vecs])
    acc = e.copy()
    cur = e
    for _ in range(layers):
        cur = norm_a @ cur
        acc += cur
    out = acc / (layers + 1)
    return out[:n_users], out[n_users:]


class TestLightGcnPropagation:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("layers", [1, 3])
    def test_matches_dense_oracle(self, seed, layers):
        rng = np.random.default_rng(seed)
        dense = (random_dense(rng, 20, 15, density=0.25) > 0).astype(float)
        m = matrix_from_dense(dense)
        dim = 6
        uv = rng.normal(size=(20, dim))
        iv = rng.normal(size=(15, dim))
        out_u, out_i = emb.lightgcn_propagate(uv, iv, m, layers)
        want_u, want_i = dense_propagation_oracle(dense, uv, iv, layers)
        assert np.allclose(out_u, want_u, atol=1e-6)
        assert np.allclose(out_i, want_i, atol=1e-6)

    def test_isolated_nodes_keep_scaled_self_vector(self):
        # no edges: every layer contributes zero, so mean = e0/(L+1)
        m = matrix_from_dense(np.zeros((2, 2)))
        out_u, out_i = emb.lightgcn_propagate(np.array([[2.0], [4.0]]),
                                              np.array([[6.0], [8.0]]), m, 3)
        assert out_u[0, 0] == pytest.approx(0.5)
        assert out_i[1, 0] == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_segment_sum_equals_stacked_cumsum(self, seed):
        rng = np.random.default_rng(seed)
        m = matrix_from_dense(random_dense(rng, 30, 20, density=0.2))
        source = rng.normal(size=(20, 5))
        gathered = source[m.user_items]
        cs = np.vstack([np.zeros((1, 5)), np.cumsum(gathered, axis=0)])
        want = cs[m.user_ptr[1:]] - cs[m.user_ptr[:-1]]
        got = emb._segment_sum(source, m.user_items, m.user_ptr)
        assert same_bits(got, want)


def finite_difference(fn, x, h=1e-6):
    grad = np.zeros_like(x)
    flat = x.ravel()
    g = grad.ravel()
    for idx in range(flat.size):
        orig = flat[idx]
        flat[idx] = orig + h
        hi = fn()
        flat[idx] = orig - h
        lo = fn()
        flat[idx] = orig
        g[idx] = (hi - lo) / (2 * h)
    return grad


def rel_err(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


def sgns_pair_loss(v_c: np.ndarray, u_o: np.ndarray, u_negs: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and gradients for one (center, context, negatives) example:
    -log σ(u_o·v_c) - Σ log σ(-u_n·v_c). Returns (loss, d v_c, d u_o, d u_negs)."""
    pos = float(u_o @ v_c)
    negs = u_negs @ v_c
    loss = -emb._log_sigmoid(pos) - float(np.sum(emb._log_sigmoid(-negs)))
    g_pos = sigmoid(pos) - 1.0
    g_negs = sigmoid(negs)
    d_vc = g_pos * u_o + g_negs @ u_negs
    d_uo = g_pos * v_c
    d_unegs = g_negs[:, None] * v_c[None, :]
    return loss, d_vc, d_uo, d_unegs


class TestSgnsGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        dim, negs = 7, 4
        v_c = rng.normal(size=dim)
        u_o = rng.normal(size=dim)
        u_n = rng.normal(size=(negs, dim))
        _, d_vc, d_uo, d_un = sgns_pair_loss(v_c, u_o, u_n)
        loss = lambda: sgns_pair_loss(v_c, u_o, u_n)[0]
        assert rel_err(finite_difference(loss, v_c), d_vc) <= 1e-4
        assert rel_err(finite_difference(loss, u_o), d_uo) <= 1e-4
        assert rel_err(finite_difference(loss, u_n), d_un) <= 1e-4

    def test_loss_positive(self, rng):
        loss, *_ = sgns_pair_loss(rng.normal(size=4), rng.normal(size=4),
                                  rng.normal(size=(3, 4)))
        assert loss > 0


class TestBprGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_gradients_match_central_differences(self, seed):
        rng = np.random.default_rng(10 + seed)
        dense = (random_dense(rng, 8, 6, density=0.4) > 0).astype(float)
        if dense.sum() < 4:
            dense[0, 0] = dense[1, 1] = dense[2, 2] = dense[3, 3] = 1.0
        m = matrix_from_dense(dense)
        dim = 3
        uv = rng.normal(0, 0.2, size=(8, dim))
        iv = rng.normal(0, 0.2, size=(6, dim))
        users = np.array([0, 1, 2, 3])
        pos = np.array([np.flatnonzero(dense[u])[0] for u in users])
        neg = np.array([(p + 1) % 6 for p in pos])
        _, g_u, g_i = emb.bpr_loss_and_grad(uv, iv, m, 2, 0.01,
                                            users, pos, neg)
        loss = lambda: emb.bpr_loss_and_grad(uv, iv, m, 2, 0.01,
                                             users, pos, neg)[0]
        assert rel_err(finite_difference(loss, uv), g_u) <= 1e-4
        assert rel_err(finite_difference(loss, iv), g_i) <= 1e-4


    @pytest.mark.parametrize("seed", range(3))
    def test_bitwise_equal_to_2d_add_at(self, seed):
        rng = np.random.default_rng(20 + seed)
        m = matrix_from_dense(random_dense(rng, 12, 9, density=0.4))
        uv, iv = rng.normal(size=(12, 5)), rng.normal(size=(9, 5))
        # repeated ids make the scatters accumulate into the same rows
        users = rng.integers(0, 12, size=40)
        pos, neg = rng.integers(0, 9, size=40), rng.integers(0, 9, size=40)
        got = emb.bpr_loss_and_grad(uv, iv, m, 2, 0.01, users, pos, neg)
        want = bpr_loss_and_grad_oracle(uv, iv, m, 2, 0.01, users, pos, neg)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

class TestWalks:
    def adj_triangle_plus_tail(self):
        # 0-1, 1-2, 2-0 triangle with a tail 2-3 (general graph, not bipartite)
        return [np.array([1, 2]), np.array([0, 2]),
                np.array([0, 1, 3]), np.array([2])]

    def test_transition_weights_analytic(self):
        adj = self.adj_triangle_plus_tail()
        # walking 0 -> 2: neighbors of 2 are [0, 1, 3]
        w = transition_weights(adj, prev=0, cur=2, p=4.0, q=0.25)
        # 0 is the return node (1/p); 1 is a common neighbor of 0 and 2 (1);
        # 3 is neither (1/q)
        assert np.allclose(w, [0.25, 1.0, 4.0])

    def test_walks_follow_edges_and_length(self):
        rng = np.random.default_rng(5)
        dense = (random_dense(rng, 6, 5, density=0.5) > 0).astype(float)
        m = matrix_from_dense(dense)
        params = emb.WalkParams(p=0.5, q=2.0, walk_length=8, walks_per_node=3,
                                seed=9)
        walks = emb.generate_walks(m, params)
        adj = bipartite_adjacency(m)
        starts = [n for n in range(len(adj)) if len(adj[n])]
        assert len(walks) == len(starts) * 3
        for walk in walks:
            assert len(walk) == 8
            for a, b in zip(walk, walk[1:]):
                assert b in adj[a]

    def test_walks_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        dense = (random_dense(rng, 5, 5, density=0.5) > 0).astype(float)
        m = matrix_from_dense(dense)
        p = emb.WalkParams(walk_length=6, walks_per_node=2, seed=3)
        assert emb.generate_walks(m, p) == emb.generate_walks(m, p)
        p2 = emb.WalkParams(walk_length=6, walks_per_node=2, seed=4)
        assert emb.generate_walks(m, p) != emb.generate_walks(m, p2)

    def test_return_bias_statistics(self):
        # star graph: center 0 with leaves; from leaf back at center,
        # tiny p makes returning to the same leaf overwhelmingly likely.
        adj = [np.arange(1, 6), np.array([0]), np.array([0]),
               np.array([0]), np.array([0]), np.array([0])]
        w = transition_weights(adj, prev=3, cur=0, p=0.01, q=1.0)
        probs = w / w.sum()
        assert probs[2] > 0.95  # neighbor index of node 3 in adj[0]

    def test_walk_params_validated(self):
        with pytest.raises(ValueError):
            emb.WalkParams(p=0.0)
        with pytest.raises(ValueError):
            emb.WalkParams(walk_length=1)

    def test_walks_per_node_below_one_rejected(self):
        with pytest.raises(ValueError, match="walks_per_node"):
            emb.WalkParams(walks_per_node=0)


def bipartite_with_isolated_and_leaves(rng, n_users, n_items, density):
    """A random binary matrix whose first user and item have no edges and
    whose second user and item have exactly one each."""
    dense = (random_dense(rng, n_users, n_items, density) > 0).astype(float)
    dense[0, :] = 0.0
    dense[:, 0] = 0.0
    dense[1, :] = 0.0
    dense[1, 1] = 1.0
    dense[2:, 1] = 0.0
    dense[2, 2] = 1.0  # item 2 keeps an edge whatever the draw
    return matrix_from_dense(dense)


class TestWalksMatchOracle:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.25, 4.0), (3.0, 0.7),
                                     (0.7, 1.3)])
    def test_same_walks_as_per_walk_loop(self, seed, p, q):
        rng = np.random.default_rng(100 + seed)
        m = bipartite_with_isolated_and_leaves(
            rng, int(rng.integers(4, 20)), int(rng.integers(4, 20)),
            density=float(rng.uniform(0.05, 0.5)))
        params = emb.WalkParams(p=p, q=q, walk_length=int(rng.integers(2, 12)),
                                walks_per_node=int(rng.integers(1, 4)),
                                seed=seed)
        assert emb.generate_walks(m, params) == generate_walks_oracle(m, params)

    def test_more_walks_than_one_block(self):
        rng = np.random.default_rng(7)
        m = matrix_from_dense(random_dense(rng, 40, 30, density=0.2))
        params = emb.WalkParams(p=0.5, q=2.0, walk_length=9, walks_per_node=9,
                                seed=1)
        walks = emb.generate_walks(m, params)
        assert len(walks) > 2 * emb._WALK_BLOCK
        assert walks == generate_walks_oracle(m, params)

    def test_no_edges_no_walks(self):
        m = matrix_from_dense(np.zeros((3, 2)))
        assert emb.generate_walks(m, emb.WalkParams()) == []

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_common_neighbour_set_empty_on_bipartite_graphs(
            self, n_users, n_items, seed):
        rng = np.random.default_rng(seed)
        adj = bipartite_adjacency(matrix_from_dense(
            random_dense(rng, n_users, n_items, density=0.5)))
        for prev in range(len(adj)):
            for cur in adj[prev]:
                assert not np.isin(adj[cur], adj[prev]).any()
                # so the weights are 1/p at prev and 1/q everywhere else
                w = transition_weights(adj, prev, cur, p=0.5, q=4.0)
                assert np.array_equal(w, np.where(adj[cur] == prev, 2.0, 0.25))


class TestHistorySequences:
    def test_each_sequence_permutes_history(self, rng):
        dense = random_dense(rng, 6, 8, density=0.4)
        m = matrix_from_dense(dense)
        corpus = emb.user_history_sequences(m, shuffles=3, seed=1)
        nonempty = [u for u in range(6) if dense[u].sum() > 0]
        assert len(corpus) == 3 * len(nonempty)
        pos = 0
        for u in nonempty:
            hist = sorted(np.flatnonzero(dense[u]))
            for _ in range(3):
                assert sorted(corpus[pos]) == hist
                pos += 1

    def test_shuffles_validated(self):
        m = matrix_from_dense([[1.0]])
        with pytest.raises(ValueError):
            emb.user_history_sequences(m, shuffles=0, seed=0)


class TestSkipGram:
    def test_deterministic_and_loss_tracked(self):
        corpus = [[0, 1, 2, 3], [3, 2, 1, 0], [0, 2, 1, 3]]
        params = emb.SkipGramParams(dim=8, window=2, negatives=3, epochs=4,
                                    seed=7)
        t1 = emb.train_skipgram(corpus, params, 4)
        t2 = emb.train_skipgram(corpus, params, 4)
        assert t1[1].all()
        assert_same_skipgram(t1, t2)
        losses = t1[2]["epoch_loss"]
        assert len(losses) == 4 and all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            emb.train_skipgram([], emb.SkipGramParams(), 1)

    def test_rows_indexed_by_token(self):
        params = emb.SkipGramParams(dim=4, epochs=1)
        vectors, present, meta = emb.train_skipgram([[3, 1]], params, 5)
        assert vectors.shape == (5, 4)
        assert present.tolist() == [False, True, False, True, False]
        assert not vectors[~present].any() and vectors[present].all()
        assert meta["vocab"] == 2
        with pytest.raises(ValueError, match="outside"):
            emb.train_skipgram([[3, 1]], params, 3)

    def test_derive_user_vectors_mean_of_history(self):
        dense = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        m = matrix_from_dense(dense)
        items = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        out = emb.derive_user_vectors(m, items, np.array([True, True, False]))
        assert np.allclose(out.users[0], [0.5, 0.5])
        # user 1's only item has no vector -> no user vector
        assert out.has_user.tolist() == [True, False]


class TestSkipGramMatchesOracle:
    @pytest.mark.parametrize("case", [
        # (sequence lengths, window, epochs)
        ((4, 1, 7, 1, 3), 2, 1),            # length-1 sequences
        ((5, 3, 6), 9, 2),                  # window longer than sequences
        ((120, 8, 300, 2), 5, 2),           # > 1,024 pairs in one sequence
        ((0, 6, 0, 9), 3, 3),               # empty sequences in between
        ((30,) * 90, 4, 1),                 # several pair blocks
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_vectors_and_losses_as_per_sequence_loop(self, case, seed):
        lengths, window, epochs = case
        rng = np.random.default_rng(seed)
        corpus = [rng.integers(0, 25, size=n).tolist() for n in lengths]
        params = emb.SkipGramParams(dim=6, window=window, negatives=3,
                                    epochs=epochs, seed=seed)
        assert_same_skipgram(emb.train_skipgram(corpus, params, 27),
                             train_skipgram_oracle(corpus, params, 27))

    def test_walk_corpus(self):
        rng = np.random.default_rng(11)
        m = matrix_from_dense(random_dense(rng, 25, 15, density=0.3))
        walks = emb.generate_walks(m, emb.WalkParams(q=2.0, walk_length=10,
                                                     walks_per_node=2, seed=4))
        params = emb.SkipGramParams(dim=8, window=5, negatives=5, epochs=2,
                                    seed=2)
        assert_same_skipgram(emb.train_skipgram(walks, params, 40),
                             train_skipgram_oracle(walks, params, 40))

    @pytest.mark.parametrize("vocab", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(2))
    def test_tiny_vocabulary_where_every_chunk_collides(self, vocab, seed):
        """Every chunk's centers, contexts and negatives fall on the same
        one to three rows, so a row takes many updates in one scatter and
        their order sets its bits; the 130-token sequence has over 1,024
        pairs, so it is updated in two chunks."""
        rng = np.random.default_rng(seed)
        corpus = [rng.integers(0, vocab, size=n).tolist()
                  for n in (5, 130, 2, 9)]
        assert len(_pairs_for_sequence(corpus[1], 5)[0]) > 1024
        params = emb.SkipGramParams(dim=4, window=5, negatives=4, epochs=2,
                                    seed=seed)
        got = emb.train_skipgram(corpus, params, vocab)
        assert got[1].all()
        assert_same_skipgram(got, train_skipgram_oracle(corpus, params, vocab))


class TestGuideTableMatchesSearchsorted:
    """The skip-gram negative lookup against np.searchsorted(cdf, u,
    side="right"), at every value where a bucket or an entry begins."""

    @staticmethod
    def check(cdf, extra=()):
        lookup = emb._GuideTable(cdf)
        edges = np.arange(lookup.m) / lookup.m
        u = np.r_[0.0, cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                  edges, np.nextafter(edges, 0.0), np.nextafter(1.0, 0.0),
                  np.random.default_rng(0).random(2000), extra]
        u = u[(u >= 0.0) & (u < 1.0)]
        got = lookup(u)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))
        return lookup

    def unigram_cdf(self, counts):
        noise = np.asarray(counts, dtype=np.float64) ** 0.75
        return np.cumsum(noise / noise.sum())

    @pytest.mark.parametrize("seed", range(3))
    def test_unigram_cdf(self, seed):
        counts = np.random.default_rng(seed).integers(1, 400, size=700)
        lookup = self.check(self.unigram_cdf(counts))
        assert lookup.m == 8192

    def test_one_token_vocabulary(self):
        lookup = self.check(self.unigram_cdf([5]))
        assert lookup.m == 8
        assert lookup(np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])).tolist() == [0, 0, 0]

    def test_skewed_cdf_spans_several_entries(self):
        lookup = self.check(self.unigram_cdf([10 ** 9] + [1] * 40))
        assert lookup.span > 1

    def test_last_entry_below_one(self):
        cdf = np.array([0.125, 0.5, 0.5, 0.75, 0.9])
        lookup = self.check(cdf, extra=[0.95, 0.99])
        assert lookup(np.array([0.9, 0.95])).tolist() == [len(cdf)] * 2

    def test_duplicate_entries_and_entries_on_bucket_edges(self):
        self.check(np.array([0.0, 0.0, 0.25, 0.25, 0.25, 0.5, 1.0]))


class TestLightGcnTraining:
    def test_deterministic_runs(self):
        rng = np.random.default_rng(2)
        dense = (random_dense(rng, 10, 8, density=0.4) > 0).astype(float)
        m = matrix_from_dense(dense)
        params = emb.LightGcnParams(layers=2, dim=4, node_dropout=0.2,
                                    epochs=2, batch_size=16, seed=5)
        a = emb.train_lightgcn(m, params)
        b = emb.train_lightgcn(m, params)
        assert_same_table(a, b)
        assert a.has_user.all() and a.has_item.all()
        assert len(a.meta["epoch_loss"]) == 2

    def test_params_validated(self):
        with pytest.raises(ValueError):
            emb.LightGcnParams(layers=0)
        with pytest.raises(ValueError):
            emb.LightGcnParams(node_dropout=1.0)

    def test_negative_l2_reg_rejected(self):
        with pytest.raises(ValueError, match="l2_reg"):
            emb.LightGcnParams(l2_reg=-1e-4)


class TestEdgeSubgraph:
    """The node-dropout graph masked out of a matrix's CSR against
    SparseInteractionMatrix.from_pairs of the kept edges."""

    @staticmethod
    def check(m, kept):
        edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
        item_order = np.lexsort((edge_users, m.user_items))
        got = emb._edge_subgraph(m, edge_users, item_order, kept)
        want = SparseInteractionMatrix.from_pairs(
            edge_users[kept], m.user_items[kept], m.user_ratings[kept],
            m.n_users, m.n_items)
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert np.asarray(a).dtype == np.asarray(b).dtype, f.name
            assert np.array_equal(a, b), f.name
        return got

    @pytest.mark.parametrize("rate", [0.0, 0.2, 0.5, 0.8, 1.0])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_arrays_as_from_pairs(self, rate, seed):
        rng = np.random.default_rng(seed)
        m = matrix_from_dense(random_dense(rng, 14, 10, density=0.4))
        drop = rng.random(m.n_users + m.n_items) < rate
        edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
        kept = ~(drop[edge_users] | drop[m.n_users + m.user_items])
        got = self.check(m, kept)
        emptied = [(m.user_degrees() > 0) & (got.user_degrees() == 0),
                   (m.item_degrees() > 0) & (got.item_degrees() == 0)]
        if rate >= 0.5:  # whole users and items lose every edge
            assert all(side.any() for side in emptied)
        if rate == 1.0:
            assert got.nnz == 0

    def test_empty_matrix(self):
        self.check(matrix_from_dense(np.zeros((3, 4))), np.zeros(0, dtype=bool))


def train_lightgcn_oracle(dense_binary, params):
    """train_lightgcn one batch at a time in dense form: the same draws in
    the same order (init, per-epoch permutation, per-batch negatives, then
    the node-dropout mask), the batch graph as a 0/1 matrix, propagation
    through dense_propagation_oracle, the BPR gradient one triple at a
    time, backpropagated through the same dense propagation (the
    normalised adjacency is symmetric), then one Adam step. Returns the
    propagated vectors and the per-epoch mean batch losses."""
    n_users, n_items = dense_binary.shape
    m = matrix_from_dense(dense_binary)
    rng = np.random.default_rng(stage_seed(params.seed, "lightgcn"))
    vecs = [rng.normal(0.0, 0.1, size=(n_users, params.dim)),
            rng.normal(0.0, 0.1, size=(n_items, params.dim))]
    edges = np.argwhere(dense_binary > 0)  # the matrix's row order
    moments = [[np.zeros_like(v) for v in vecs] for _ in range(2)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step, epoch_loss = 0, []
    for _ in range(params.epochs):
        order = rng.permutation(len(edges))
        losses = []
        for start in range(0, len(order), params.batch_size):
            users, pos = edges[order[start:start + params.batch_size]].T
            neg = sample_negatives_oracle(m, users, rng)
            users, pos, neg = users[neg >= 0], pos[neg >= 0], neg[neg >= 0]
            if len(users) == 0:
                continue
            graph = dense_binary > 0
            if params.node_dropout > 0:
                drop = rng.random(n_users + n_items) < params.node_dropout
                graph = graph & ~drop[:n_users, None] & ~drop[None, n_users:]
            graph = graph.astype(float)
            f_u, f_i = dense_propagation_oracle(graph, *vecs, params.layers)
            b = len(users)
            d_fu, d_fi = np.zeros_like(f_u), np.zeros_like(f_i)
            loss = 0.0
            for u, p, n in zip(users, pos, neg):
                margin = f_u[u] @ (f_i[p] - f_i[n])
                loss += np.logaddexp(0.0, -margin) / b
                coef = -sigmoid(-margin) / b
                d_fu[u] += coef * (f_i[p] - f_i[n])
                d_fi[p] += coef * f_u[u]
                d_fi[n] -= coef * f_u[u]
            grads = list(dense_propagation_oracle(graph, d_fu, d_fi,
                                                  params.layers))
            for k, idx in ((0, users), (1, pos), (1, neg)):
                for row in idx:
                    loss += params.l2_reg * (vecs[k][row] @ vecs[k][row]) / b
                    grads[k][row] += 2.0 * params.l2_reg / b * vecs[k][row]
            losses.append(loss)
            step += 1
            for k in range(2):
                moments[0][k] = beta1 * moments[0][k] + (1 - beta1) * grads[k]
                moments[1][k] = (beta2 * moments[1][k]
                                 + (1 - beta2) * grads[k] ** 2)
                m_hat = moments[0][k] / (1 - beta1 ** step)
                v_hat = moments[1][k] / (1 - beta2 ** step)
                vecs[k] = vecs[k] - params.learning_rate * m_hat / (
                    np.sqrt(v_hat) + eps)
        epoch_loss.append(float(np.mean(losses)))
    return dense_propagation_oracle(dense_binary, *vecs, params.layers), epoch_loss


class TestLightGcnMatchesBatchOracle:
    """train_lightgcn against train_lightgcn_oracle; the one-batch cases
    isolate one propagation, one gradient and one Adam step."""

    @pytest.mark.parametrize("dropout", [0.0, 0.4])
    @pytest.mark.parametrize("epochs, batch_size", [(1, 1024), (2, 7)])
    def test_same_vectors_and_losses(self, dropout, epochs, batch_size):
        rng = np.random.default_rng(4)
        dense = (random_dense(rng, 12, 9, density=0.35) > 0).astype(float)
        params = emb.LightGcnParams(layers=2, dim=4, node_dropout=dropout,
                                    learning_rate=0.05, l2_reg=0.01,
                                    epochs=epochs, batch_size=batch_size,
                                    seed=3)
        assert (batch_size >= dense.sum()) == (epochs == 1)
        got = emb.train_lightgcn(matrix_from_dense(dense), params)
        (want_u, want_i), want_loss = train_lightgcn_oracle(dense, params)
        assert np.allclose(got.users, want_u, rtol=1e-9, atol=1e-12)
        assert np.allclose(got.items, want_i, rtol=1e-9, atol=1e-12)
        assert np.allclose(got.meta["epoch_loss"], want_loss, rtol=1e-12)


class TestEmbeddingScore:
    def table(self):
        """User 0; item 0, item 1 (a zero vector) and item 2 (absent)."""
        return emb.EmbeddingTable(
            np.array([[1.0, 2.0]]), np.array([True]),
            np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([True, True, False]))

    def test_dot_scores(self):
        scores, missing = emb.embedding_score(self.table(), [0, 0], [0, 2],
                                              metric="dot")
        assert scores[0] == pytest.approx(11.0)
        assert scores[1] == 0.0
        assert list(missing) == [False, True]

    def test_cosine_scores_and_zero_norm(self):
        scores, missing = emb.embedding_score(self.table(), [0, 0], [0, 1],
                                              metric="cosine")
        want = 11.0 / (np.sqrt(5) * 5)
        assert scores[0] == pytest.approx(want)
        assert scores[1] == 0.0 and not missing[1]

    def test_absent_user_all_missing(self):
        # -1 is an unknown user, not the table's last row
        scores, missing = emb.embedding_score(self.table(), [-1, 0], [0, 0])
        assert list(missing) == [True, False]
        assert scores[0] == 0.0 and scores[1] == pytest.approx(11.0)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="euclid"):
            emb.embedding_score(self.table(), [0], [0], metric="euclid")

    def test_unaligned_pairs_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            emb.embedding_score(self.table(), [0], [0, 1])


def random_embedding_table(rng, dim, n_users, n_items, absent=0.2,
                           zero=0.1):
    """Vectors for a random subset of users and items, some exactly zero."""
    sides = []
    for n in (n_users, n_items):
        vectors, has = np.zeros((n, dim)), np.zeros(n, dtype=bool)
        for k in range(n):
            draw = rng.random()
            if draw < absent:
                continue
            vec = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
            has[k] = True
            if draw >= absent + zero:
                vectors[k] = vec
        sides += [vectors, has]
    return emb.EmbeddingTable(*sides)


class TestEmbeddingScoreMatchesOracle:
    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    @pytest.mark.parametrize("dim", [1, 2, 8, 16, 33, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_bits_as_per_user_loop(self, metric, dim, seed):
        rng = np.random.default_rng(seed)
        table = random_embedding_table(rng, dim, 30, 40)
        # runs of 1-12 candidates per user, -1 for an unknown user, users
        # repeating in later runs, items outside the table
        runs = [(int(rng.integers(-1, 35)), rng.integers(0, 45, size=n))
                for n in rng.integers(1, 13, size=60)]
        users = np.concatenate([np.full(len(c), u) for u, c in runs])
        items = np.concatenate([c for _, c in runs])
        got = emb.embedding_score(table, users, items, metric=metric)
        want = run_score_oracle(table, users, items, metric)
        assert same_bits(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[1].any() and not got[1].all()

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_zero_vectors_under_cosine(self, metric):
        table = emb.EmbeddingTable(
            np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]]), np.ones(2, bool),
            np.array([[0.0, 0.0, 0.0], [-0.0, 3.0, 1.0]]), np.ones(2, bool))
        users, items = np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 2])
        got = emb.embedding_score(table, users, items, metric=metric)
        want = run_score_oracle(table, users, items, metric)
        assert same_bits(got[0], want[0])
        assert list(got[1]) == [False, False, False, False, True]

    def test_empty_batch(self):
        table = random_embedding_table(np.random.default_rng(0), 4, 3, 3)
        for metric in ("dot", "cosine"):
            scores, missing = emb.embedding_score(
                table, np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64), metric=metric)
            assert scores.shape == (0,) and missing.shape == (0,)

    def test_trained_tables(self):
        rng = np.random.default_rng(4)
        m = matrix_from_dense(random_dense(rng, 20, 15, density=0.3))
        table = emb.train_lightgcn(m.binarized(), emb.LightGcnParams(
            layers=2, dim=16, epochs=2, batch_size=16, seed=1))
        users = np.repeat(np.arange(-1, 21), 16)
        items = np.tile(np.arange(16), 22)
        for metric in ("dot", "cosine"):
            got = emb.embedding_score(table, users, items, metric=metric)
            want = run_score_oracle(table, users, items, metric)
            assert same_bits(got[0], want[0])
            assert np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("metric", ["dot", "cosine"])
    def test_unknown_user_is_missing_when_last_user_has_a_vector(self,
                                                                 metric):
        rng = np.random.default_rng(8)
        dense = random_dense(rng, 12, 10, density=0.4)
        dense[-1, :3] = 1.0
        m = matrix_from_dense(dense)
        lightgcn = emb.train_lightgcn(m.binarized(), emb.LightGcnParams(
            layers=2, dim=4, epochs=1, batch_size=16, seed=3))
        word2vec = emb.derive_user_vectors(m, *emb.train_skipgram(
            emb.user_history_sequences(m, 2, seed=1),
            emb.SkipGramParams(dim=4, epochs=1, seed=1), m.n_items))
        users = np.repeat([-1, 11, -1], 10)
        items = np.tile(np.arange(10), 3)
        for table in (lightgcn, word2vec):
            assert table.has_user[-1]
            scores, missing = emb.embedding_score(table, users, items,
                                                  metric=metric)
            unknown = users == -1
            assert missing[unknown].all() and not scores[unknown].any()
            assert not missing[~unknown].all()
            want = run_score_oracle(table, users, items, metric)
            assert same_bits(scores, want[0])
            assert np.array_equal(missing, want[1])


class TestDeriveUserVectorsMatchesOracle:
    @pytest.mark.parametrize("dim", [1, 2, 3, 16])
    @pytest.mark.parametrize("seed", range(3))
    def test_same_bits_as_per_user_mean(self, dim, seed):
        rng = np.random.default_rng(seed)
        dense = random_dense(rng, 25, 60, density=0.35)
        dense[3] = 0.0                       # a user without history
        dense[4, :] = 1.0                    # a long history (pairwise sums)
        m = matrix_from_dense(dense)
        items, has_item = np.zeros((60, dim)), np.zeros(60, dtype=bool)
        for i in range(60):
            if rng.random() < 0.8:
                items[i] = rng.normal(size=dim) * 10.0 ** rng.uniform(-4, 4)
                has_item[i] = True
        # a user whose every item lacks a vector, and an all -0.0 vector
        items[dense[5] > 0], has_item[dense[5] > 0] = 0.0, False
        first = np.flatnonzero(dense[6])[0]
        items[first], has_item[first] = -0.0, True
        got = emb.derive_user_vectors(m, items, has_item, {"vocab": 1})
        want = derive_user_vectors_oracle(m, items, has_item, {"vocab": 1})
        assert_same_table(got, want)
        assert not got.has_user[3] and not got.has_user[5]

    def test_no_covered_item_at_all(self):
        m = matrix_from_dense(np.array([[1.0, 0.0], [0.0, 2.0]]))
        got = emb.derive_user_vectors(m, np.zeros((2, 2)),
                                      np.zeros(2, dtype=bool))
        assert not got.has_user.any() and not got.users.any()


def edge_keys(m):
    users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
    return users * m.n_items + m.user_items


class TestSampleNegativesMatchesOracle:
    def check(self, m, users, rng_seed, caplog, warm=0):
        """Same negatives, warnings and generator state as the oracle; warm
        scalar draws first leave a buffered 32-bit half in the state."""
        got_rng, want_rng = (np.random.default_rng(rng_seed) for _ in "ab")
        for rng in (got_rng, want_rng):
            for _ in range(warm):
                rng.integers(7)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=emb.log.name):
            want = sample_negatives_oracle(m, users, want_rng)
            want_log = [r.getMessage() for r in caplog.records]
            caplog.clear()
            got = emb._sample_negatives(edge_keys(m), m.n_items, users,
                                        got_rng)
            got_log = [r.getMessage() for r in caplog.records]
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert got_log == want_log
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert got_rng.random() == want_rng.random()
        return got, got_log

    @pytest.mark.parametrize("size", [1, 5, 31, 32, 33, 100, 1024])
    @pytest.mark.parametrize("warm", [0, 1])
    def test_batches(self, size, warm, caplog):
        rng = np.random.default_rng(size)
        dense = random_dense(rng, 40, 30, density=0.4)
        m = matrix_from_dense(dense)
        users = np.repeat(np.arange(40), np.diff(m.user_ptr))
        batch = users[rng.integers(0, len(users), size=size)]
        neg, _ = self.check(m, batch, size, caplog, warm)
        assert np.all(dense[batch, neg] == 0)

    def test_user_with_every_item(self, caplog):
        dense = np.zeros((4, 6))
        dense[0, :] = 1.0
        dense[1, :2] = dense[2, 3] = dense[3, 1:4] = 1.0
        m = matrix_from_dense(dense)
        users = np.array([1, 0, 2, 0, 3, 3, 0])
        neg, log_lines = self.check(m, users, 9, caplog)
        assert list(neg[[1, 3, 6]]) == [-1, -1, -1]
        assert np.all(neg[[0, 2, 4, 5]] >= 0)
        assert log_lines == ["negative sampling failed for user 0; "
                             "triple skipped"] * 3

    def test_one_item(self, caplog):
        m = matrix_from_dense(np.ones((3, 1)))
        neg, log_lines = self.check(m, np.array([2, 0, 1]), 1, caplog)
        assert list(neg) == [-1, -1, -1] and len(log_lines) == 3

    def test_empty_batch(self, caplog):
        m = matrix_from_dense(np.eye(3))
        neg, _ = self.check(m, np.zeros(0, dtype=np.int64), 2, caplog)
        assert neg.shape == (0,)

    @pytest.mark.parametrize("n", [7, 200, 2**31 + 5, 2**33])
    def test_array_draws_are_the_scalar_draws(self, n):
        # the batched sampler relies on this property of numpy's Generator
        scalar, batched = (np.random.default_rng(3) for _ in "ab")
        for rng in (scalar, batched):
            rng.integers(5)
        want = [int(scalar.integers(n)) for _ in range(257)]
        assert batched.integers(n, size=257).tolist() == want
        assert scalar.bit_generator.state == batched.bit_generator.state


def write_embedding_tsv(vectors, path) -> None:
    lines = []
    for key in sorted(vectors):
        lines.append("\t".join([key] + [fmt(v) for v in vectors[key]]))
    atomic_write_text(path, "\n".join(lines) + "\n")


class TestEmbeddingTsv:
    def test_round_trip(self, tmp_path, rng):
        vectors = {f"i:{k}": rng.normal(size=5) for k in range(9)}
        write_embedding_tsv(vectors, tmp_path / "e.tsv")
        back = emb.read_embedding_tsv(tmp_path / "e.tsv")
        assert set(back) == set(vectors)
        for key in vectors:
            assert np.array_equal(back[key], vectors[key])

    def test_inconsistent_width_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("a\t1.0\t2.0\nb\t3.0\n")
        with pytest.raises(DataError, match=":2"):
            emb.read_embedding_tsv(tmp_path / "e.tsv")

    def test_duplicate_node_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("a\t1.0\na\t2.0\n")
        with pytest.raises(DataError, match="duplicate"):
            emb.read_embedding_tsv(tmp_path / "e.tsv")

    def test_non_numeric_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("a\tNaN-ish\n")
        with pytest.raises(DataError, match="non-numeric"):
            emb.read_embedding_tsv(tmp_path / "e.tsv")

    def test_empty_rejected(self, tmp_path):
        (tmp_path / "e.tsv").write_text("")
        with pytest.raises(DataError, match="empty"):
            emb.read_embedding_tsv(tmp_path / "e.tsv")

    @pytest.mark.parametrize("text, line, problem", [
        ("a\t1.0\n\t2.0\n", 2, "empty id"),
        ("a\t1.0\nb\0\t2.0\n", 2, "NUL"),
        ("a\t1.0\nb\n", 2, "expected node id and values"),
        ("a\t1.0\n\nb\tinf\n", 3, "non-finite"),
    ], ids=["empty-id", "nul", "no-values", "non-finite-after-blank"])
    def test_bad_lines_rejected_at_their_line(self, tmp_path, text, line,
                                              problem):
        (tmp_path / "e.tsv").write_text(text)
        with pytest.raises(DataError, match=f"e.tsv:{line}: .*{problem}"):
            emb.read_embedding_tsv(tmp_path / "e.tsv")
