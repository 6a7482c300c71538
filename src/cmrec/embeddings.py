"""Embedding scorers: skip-gram over history sequences or biased walks,
and a LightGCN trainer with BPR loss.

Nodes live on the bipartite user-item graph. Embedding tables key vectors
by node strings — ``u:<id>`` for users, ``i:<id>`` for items — so one
table can hold both sides; externally supplied tables may use raw item
ids instead.

embedding_score scores a whole run of aligned (user, item) pairs with no
per-pair loop; derive_user_vectors sums every user's history one position
at a time; LightGCN's negative sampler takes its draws as arrays and
loops once per rejected draw. Each gives the numbers and leaves the random
stream of the per-user or per-draw loop it replaced, bit for bit.
Skip-gram still updates once per chunk of each sequence.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import SparseInteractionMatrix
from .util import DataError, atomic_write_text, fmt, sigmoid, stage_seed

log = logging.getLogger(__name__)


def user_node(user) -> str:
    return f"u:{user}"


def item_node(item) -> str:
    return f"i:{item}"


@dataclass(frozen=True)
class WalkParams:
    p: float = 1.0
    q: float = 1.0
    walk_length: int = 20
    walks_per_node: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be positive")
        if self.walk_length < 2:
            raise ValueError("walk_length must be at least 2")


@dataclass(frozen=True)
class SkipGramParams:
    dim: int = 64
    window: int = 5
    negatives: int = 5
    epochs: int = 3
    learning_rate: float = 0.025
    seed: int = 0

    def __post_init__(self):
        for name in ("dim", "window", "negatives", "epochs", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class LightGcnParams:
    layers: int = 4
    dim: int = 64
    node_dropout: float = 0.4
    learning_rate: float = 0.001
    l2_reg: float = 1e-4
    epochs: int = 20
    batch_size: int = 1024
    seed: int = 0

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError("layers must be at least 1")
        for name in ("dim", "epochs", "batch_size", "learning_rate"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.node_dropout < 1.0:
            raise ValueError("node_dropout must lie in [0, 1)")


@dataclass(frozen=True)
class EmbeddingTable:
    """node key → fixed-width vector; meta carries training diagnostics."""

    dim: int
    vectors: dict[str, np.ndarray]
    meta: Mapping | None = field(default=None, compare=False)

    def __post_init__(self):
        for key, vec in self.vectors.items():
            if len(vec) != self.dim:
                raise ValueError(f"vector for {key!r} has wrong width")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"non-finite vector for {key!r}")

    def __contains__(self, key) -> bool:
        return key in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def write_embedding_tsv(table: EmbeddingTable, path) -> None:
    lines = []
    for key in sorted(table.vectors):
        vec = table.vectors[key]
        lines.append("\t".join([key] + [fmt(v) for v in vec]))
    atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_embedding_tsv(path) -> EmbeddingTable:
    path = Path(path)
    if not path.exists():
        raise DataError(f"embedding file not found: {path}")
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise DataError(f"{path}:{lineno}: expected node id and values")
            try:
                vec = np.array([float(v) for v in parts[1:]])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric vector value") from None
            if not np.all(np.isfinite(vec)):
                raise DataError(f"{path}:{lineno}: non-finite vector value")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise DataError(f"{path}:{lineno}: inconsistent vector width")
            if parts[0] in vectors:
                raise DataError(f"{path}:{lineno}: duplicate node id {parts[0]!r}")
            vectors[parts[0]] = vec
    if dim is None:
        raise DataError(f"embedding file is empty: {path}")
    return EmbeddingTable(dim, vectors)


# --- biased walks -----------------------------------------------------------

# Walks stepped together per block; bounds the (walks x degree) grids.
_WALK_BLOCK = 256


def _node_csr(m: SparseInteractionMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, nbrs) neighbour lists in a unified node space: users
    0..n_users-1, items offset by n_users. Ratings are ignored."""
    ptr = np.concatenate([m.user_ptr, m.item_ptr[1:] + m.nnz])
    nbrs = np.concatenate([m.user_items + m.n_users, m.item_users])
    return ptr, nbrs


def generate_walks(m: SparseInteractionMatrix,
                   params: WalkParams) -> list[list[int]]:
    """Second-order biased walks from every non-isolated node, alternating
    sides of the bipartite graph. Node ids are unified (items offset by
    n_users). Deterministic given the seed.

    Every candidate next node lies on prev's side of the bipartite graph,
    so none is a common neighbour of prev and cur: node2vec's second-order
    bias reduces to 1/p for the return step and 1/q otherwise. Walks are
    stepped together, one cumsum over a padded (walks x degree) weight
    grid per step. Each walk keeps its own generator, seeded from (seed,
    start, w), and draws its walk_length - 1 uniforms from it, so the
    random stream is unchanged: the walks equal those of a cumsum +
    searchsorted draw per walk and step."""
    ptr, nbrs = _node_csr(m)
    deg = np.diff(ptr)
    nodes, per = np.flatnonzero(deg), max(params.walks_per_node, 0)
    starts, reps = np.repeat(nodes, per), np.tile(np.arange(per), len(nodes))
    steps = params.walk_length - 1
    walks: list[list[int]] = []
    for b in range(0, len(starts), _WALK_BLOCK):
        start, rep = starts[b:b + _WALK_BLOCK], reps[b:b + _WALK_BLOCK]
        uniforms = np.array([np.random.default_rng(
            stage_seed(params.seed, "walk", str(s), str(w))).random(steps)
            for s, w in zip(start.tolist(), rep.tolist())])
        walk = np.empty((len(start), params.walk_length), dtype=np.int64)
        walk[:, 0] = start
        for k in range(steps):
            cur = walk[:, k]
            first, d = ptr[cur], deg[cur]
            cols = np.arange(d.max())
            valid = cols < d[:, None]
            if k == 0:
                weights = valid.astype(np.float64)
            else:
                cand = nbrs[np.where(valid, first[:, None] + cols, 0)]
                weights = np.where(cand == walk[:, k - 1, None],
                                   1.0 / params.p, 1.0 / params.q)
                weights[~valid] = 0.0
            # zero padding leaves each row's cdf at its total from its last
            # neighbour on, and u * total < total: padding is never counted
            cdf = np.cumsum(weights, axis=1)
            drawn = uniforms[:, k] * cdf[:, -1]
            walk[:, k + 1] = nbrs[first + np.count_nonzero(
                cdf <= drawn[:, None], axis=1)]
        walks.extend(walk.tolist())
    return walks


def user_history_sequences(m: SparseInteractionMatrix, shuffles: int,
                           seed: int) -> list[list[int]]:
    """Each user's item history, emitted `shuffles` times in independently
    seeded random orders. Tokens are plain item ids."""
    if shuffles < 1:
        raise ValueError("shuffles must be at least 1")
    corpus: list[list[int]] = []
    for u in range(m.n_users):
        items, _ = m.row(u)
        if len(items) == 0:
            continue
        for s in range(shuffles):
            rng = np.random.default_rng(stage_seed(seed, "hist", str(u), str(s)))
            corpus.append([int(i) for i in rng.permutation(items)])
    return corpus


# --- skip-gram with negative sampling ---------------------------------------

def sgns_pair_loss(v_c: np.ndarray, u_o: np.ndarray, u_negs: np.ndarray
                   ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and gradients for one (center, context, negatives) example:
    -log σ(u_o·v_c) - Σ log σ(-u_n·v_c). Returns (loss, d v_c, d u_o, d u_negs)."""
    pos = float(u_o @ v_c)
    negs = u_negs @ v_c
    loss = -_log_sigmoid(pos) - float(np.sum(_log_sigmoid(-negs)))
    g_pos = sigmoid(pos) - 1.0
    g_negs = sigmoid(negs)
    d_vc = g_pos * u_o + g_negs @ u_negs
    d_uo = g_pos * v_c
    d_unegs = g_negs[:, None] * v_c[None, :]
    return loss, d_vc, d_uo, d_unegs


def _log_sigmoid(x):
    # log σ(x) = -log1p(exp(-x)), stable on both tails.
    return -np.logaddexp(0.0, -np.asarray(x, dtype=np.float64))


# Pairs are built for blocks of whole sequences starting within this many
# tokens of each other; bounds the (tokens x 2 window) grids.
_PAIR_BLOCK = 1024
_CHUNK = 1024


def _window_pairs(tokens: np.ndarray, lengths: np.ndarray, window: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(centers, contexts, ends) of the concatenated nonempty sequences:
    every (token, token within window) pair ordered by sequence, position,
    then context position; sequence k's pairs end at ends[k]."""
    end = np.cumsum(lengths)
    seq = np.repeat(np.arange(len(lengths)), lengths)
    ctx = np.arange(len(tokens))[:, None] + np.r_[-window:0, 1:window + 1]
    ok = (ctx >= (end - lengths)[seq, None]) & (ctx < end[seq, None])
    centers = np.broadcast_to(tokens[:, None], ok.shape)[ok]
    return centers, tokens[ctx[ok]], np.cumsum(ok.sum(axis=1))[end - 1]


def train_skipgram(corpus: Iterable[Sequence[int]], params: SkipGramParams,
                   node_key=None) -> EmbeddingTable:
    """Skip-gram with negative sampling over integer-token sequences.

    Negatives come from the unigram^0.75 distribution. Updates are applied
    in chunks of up to 1,024 pairs within each sequence, in sequence order;
    input vectors (W_in) become the embedding. node_key maps a token to its
    table key (default: i:<token>). Pairs are built vectorised over blocks
    of sequences, but every chunk and its negative draws are those of a
    per-sequence loop, so the random stream and the vectors are unchanged.
    """
    corpus = [seq for seq in corpus if len(seq)]
    if not corpus:
        raise ValueError("corpus must be nonempty")
    node_key = node_key or item_node
    lengths = np.array([len(seq) for seq in corpus], dtype=np.int64)
    vocab, tokens = np.unique(np.fromiter(
        (tok for seq in corpus for tok in seq), dtype=np.int64,
        count=int(lengths.sum())), return_inverse=True)
    noise = np.bincount(tokens).astype(np.float64) ** 0.75
    noise /= noise.sum()
    noise_cdf = np.cumsum(noise)

    rng = np.random.default_rng(stage_seed(params.seed, "sgns"))
    w_in = rng.uniform(-0.5 / params.dim, 0.5 / params.dim,
                       size=(len(vocab), params.dim))
    w_out = np.zeros((len(vocab), params.dim))

    seq_end = np.cumsum(lengths)
    group = (seq_end - lengths) // _PAIR_BLOCK
    cuts = np.r_[0, np.flatnonzero(np.diff(group)) + 1, len(corpus)].tolist()
    epoch_loss: list[float] = []
    for _epoch in range(params.epochs):
        total, n_pairs = 0.0, 0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            centers, contexts, ends = _window_pairs(
                tokens[seq_end[lo] - lengths[lo]:seq_end[hi - 1]],
                lengths[lo:hi], params.window)
            begin = 0
            for end in ends.tolist():
                for s in range(begin, end, _CHUNK):
                    c = centers[s:min(s + _CHUNK, end)]
                    o = contexts[s:min(s + _CHUNK, end)]
                    draws = rng.random((len(c), params.negatives))
                    negs = np.searchsorted(noise_cdf, draws, side="right")
                    total += _sgns_chunk(w_in, w_out, c, o, negs,
                                         params.learning_rate)
                    n_pairs += len(c)
                begin = end
        epoch_loss.append(total / max(n_pairs, 1))

    vectors = {node_key(tok): w_in[k].copy()
               for k, tok in enumerate(vocab.tolist())}
    return EmbeddingTable(params.dim, vectors,
                          meta={"epoch_loss": epoch_loss, "vocab": len(vocab)})


def _add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray
                 ) -> None:
    """np.add.at(target, rows, values) for a C-contiguous 2-D target, as
    one 1-D scatter on its flat view: the same additions to each slot in
    the same order, without the slow row-indexed path."""
    width = target.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    np.add.at(target.reshape(-1), flat, values.ravel())


def _sgns_chunk(w_in, w_out, centers, contexts, negs, lr) -> float:
    """One accumulated-gradient update over a chunk of pairs; returns the
    summed pair loss at the pre-update parameters."""
    v = w_in[centers]                                  # (B, d)
    u_o = w_out[contexts]
    u_n = w_out[negs]                                  # (B, K, d)
    pos = np.einsum("bd,bd->b", v, u_o)
    neg = np.einsum("bkd,bd->bk", u_n, v)
    loss = float(np.sum(-_log_sigmoid(pos)) + np.sum(-_log_sigmoid(-neg)))
    g_pos = sigmoid(pos) - 1.0                        # (B,)
    g_neg = sigmoid(neg)                              # (B, K)
    d_v = g_pos[:, None] * u_o + np.einsum("bk,bkd->bd", g_neg, u_n)
    _add_rows_at(w_in, centers, -lr * d_v)
    _add_rows_at(w_out, contexts, -lr * g_pos[:, None] * v)
    _add_rows_at(w_out, negs.ravel(),
                 -lr * (g_neg[:, :, None] * v[:, None, :]))
    return loss


def derive_user_vectors(m: SparseInteractionMatrix,
                        table: EmbeddingTable) -> EmbeddingTable:
    """Add u:<id> vectors as the mean of each user's covered history items.

    Step k adds every user's k-th covered item, in row order, onto a zero
    start: the order in which np.mean(rows, axis=0) adds the rows, so the
    means are those of a per-user np.mean. A one-wide np.mean is a pairwise
    1-D sum instead, so that width keeps it per user."""
    vectors = dict(table.vectors)
    item_vecs, covered = _stack_vectors(table,
                                        map(item_node, range(m.n_items)))
    edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
    keep = covered[m.user_items]
    eu, ei = edge_users[keep], m.user_items[keep]
    counts = np.bincount(eu, minlength=m.n_users)
    held, starts = np.flatnonzero(counts), np.cumsum(counts) - counts
    if table.dim == 1:
        means = np.array([np.mean(item_vecs[ei[s:s + n]], axis=0) for s, n
                          in zip(starts[held].tolist(), counts[held].tolist())])
    else:
        step = np.arange(len(eu)) - starts[eu]
        order = np.argsort(step, kind="stable")
        cuts = np.cumsum(np.bincount(step)).tolist()
        sums = np.zeros((m.n_users, table.dim))
        for lo, hi in zip([0, *cuts], cuts):
            at = order[lo:hi]
            sums[eu[at]] += item_vecs[ei[at]]
        means = sums[held] / counts[held, None]
    vectors.update(zip(map(user_node, held.tolist()), means))
    return EmbeddingTable(table.dim, vectors, meta=table.meta)


# --- LightGCN ----------------------------------------------------------------

def _propagate_mean(user_vecs: np.ndarray, item_vecs: np.ndarray,
                    user_ptr, user_items, item_ptr, item_users,
                    user_deg: np.ndarray, item_deg: np.ndarray,
                    layers: int) -> tuple[np.ndarray, np.ndarray]:
    """Mean over layers 0..layers of symmetric-normalized propagation."""
    inv_u = np.where(user_deg > 0, 1.0 / np.sqrt(np.maximum(user_deg, 1)), 0.0)
    inv_i = np.where(item_deg > 0, 1.0 / np.sqrt(np.maximum(item_deg, 1)), 0.0)
    acc_u, acc_i = user_vecs.copy(), item_vecs.copy()
    cur_u, cur_i = user_vecs, item_vecs
    for _ in range(layers):
        nxt_u = _segment_sum(cur_i * inv_i[:, None], user_items, user_ptr)
        nxt_u *= inv_u[:, None]
        nxt_i = _segment_sum(cur_u * inv_u[:, None], item_users, item_ptr)
        nxt_i *= inv_i[:, None]
        acc_u += nxt_u
        acc_i += nxt_i
        cur_u, cur_i = nxt_u, nxt_i
    scale = 1.0 / (layers + 1)
    return acc_u * scale, acc_i * scale


def _segment_sum(source: np.ndarray, gather_idx, ptr) -> np.ndarray:
    """Sum source[gather_idx] rows over contiguous ptr segments."""
    cs = np.empty((len(gather_idx) + 1, source.shape[1]))
    cs[0] = 0.0
    np.cumsum(source[gather_idx], axis=0, out=cs[1:])
    return cs[ptr[1:]] - cs[ptr[:-1]]


def lightgcn_propagate(m: SparseInteractionMatrix, table: EmbeddingTable,
                       layers: int) -> EmbeddingTable:
    """Average of embedding layers 0..layers under e_u^(k+1) =
    Σ_{i∈N(u)} e_i^(k)/√(|N_u||N_i|) (and symmetrically for items)."""
    user_vecs = np.stack([table.vectors[user_node(u)] for u in range(m.n_users)])
    item_vecs = np.stack([table.vectors[item_node(i)] for i in range(m.n_items)])
    out_u, out_i = _propagate_mean(
        user_vecs, item_vecs, m.user_ptr, m.user_items, m.item_ptr,
        m.item_users, m.user_degrees().astype(float),
        m.item_degrees().astype(float), layers)
    vectors = {user_node(u): out_u[u] for u in range(m.n_users)}
    vectors.update({item_node(i): out_i[i] for i in range(m.n_items)})
    return EmbeddingTable(table.dim, vectors)


def _dropout_graph(m: SparseInteractionMatrix, drop: np.ndarray):
    """Subgraph arrays after removing all edges incident to dropped nodes
    (users first, items offset by n_users), with re-computed degrees."""
    keep_user = ~drop[:m.n_users]
    keep_item = ~drop[m.n_users:]
    edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
    edge_items = m.user_items
    kept = keep_user[edge_users] & keep_item[edge_items]
    eu, ei = edge_users[kept], edge_items[kept]
    user_deg = np.bincount(eu, minlength=m.n_users).astype(float)
    item_deg = np.bincount(ei, minlength=m.n_items).astype(float)
    order_u = np.lexsort((ei, eu))
    user_ptr = np.zeros(m.n_users + 1, dtype=np.int64)
    np.cumsum(np.bincount(eu, minlength=m.n_users), out=user_ptr[1:])
    order_i = np.lexsort((eu, ei))
    item_ptr = np.zeros(m.n_items + 1, dtype=np.int64)
    np.cumsum(np.bincount(ei, minlength=m.n_items), out=item_ptr[1:])
    return (user_ptr, ei[order_u], item_ptr, eu[order_i], user_deg, item_deg)


def bpr_loss_and_grad(user_vecs, item_vecs, graph, layers, l2_reg,
                      users, pos_items, neg_items):
    """Mean BPR loss over the batch triples and the gradient with respect
    to the layer-0 embeddings, propagated through the mean-of-layers graph
    convolution (the adjacency is symmetric, so backprop reuses it)."""
    user_ptr, user_items, item_ptr, item_users, user_deg, item_deg = graph
    f_u, f_i = _propagate_mean(user_vecs, item_vecs, user_ptr, user_items,
                               item_ptr, item_users, user_deg, item_deg, layers)
    fu, fp, fn = f_u[users], f_i[pos_items], f_i[neg_items]
    margin = np.einsum("bd,bd->b", fu, fp - fn)
    b = len(users)
    loss = float(np.mean(-_log_sigmoid(margin)))
    coef = -sigmoid(-margin) / b                       # d loss / d margin
    d_fu = np.zeros_like(f_u)
    d_fi = np.zeros_like(f_i)
    _add_rows_at(d_fu, users, coef[:, None] * (fp - fn))
    _add_rows_at(d_fi, pos_items, coef[:, None] * fu)
    _add_rows_at(d_fi, neg_items, -coef[:, None] * fu)
    g_u, g_i = _propagate_mean(d_fu, d_fi, user_ptr, user_items, item_ptr,
                               item_users, user_deg, item_deg, layers)
    reg = 0.0
    for vecs, grad, idx in ((user_vecs, g_u, users),
                            (item_vecs, g_i, pos_items),
                            (item_vecs, g_i, neg_items)):
        rows = vecs[idx]
        reg += float(np.sum(rows * rows))
        _add_rows_at(grad, idx, (2.0 * l2_reg / b) * rows)
    return loss + l2_reg * reg / b, g_u, g_i


def train_lightgcn(m: SparseInteractionMatrix,
                   params: LightGcnParams) -> EmbeddingTable:
    """BPR-trained LightGCN embeddings (Adam), returned already propagated
    so scores are plain dot products."""
    rng = np.random.default_rng(stage_seed(params.seed, "lightgcn"))
    user_vecs = rng.normal(0.0, 0.1, size=(m.n_users, params.dim))
    item_vecs = rng.normal(0.0, 0.1, size=(m.n_items, params.dim))
    full_graph = (m.user_ptr, m.user_items, m.item_ptr, m.item_users,
                  m.user_degrees().astype(float), m.item_degrees().astype(float))
    edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
    edge_items = m.user_items
    edge_keys = edge_users * m.n_items + edge_items
    n_nodes = m.n_users + m.n_items

    adam_m = [np.zeros_like(user_vecs), np.zeros_like(item_vecs)]
    adam_v = [np.zeros_like(user_vecs), np.zeros_like(item_vecs)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    epoch_loss: list[float] = []
    for _epoch in range(params.epochs):
        order = rng.permutation(len(edge_users))
        losses = []
        for s in range(0, len(order), params.batch_size):
            batch = order[s:s + params.batch_size]
            users = edge_users[batch]
            pos = edge_items[batch]
            neg = _sample_negatives(edge_keys, m.n_items, users, rng)
            ok = neg >= 0
            if not ok.all():
                users, pos, neg = users[ok], pos[ok], neg[ok]
                if len(users) == 0:
                    continue
            if params.node_dropout > 0:
                drop = rng.random(n_nodes) < params.node_dropout
                graph = _dropout_graph(m, drop)
            else:
                graph = full_graph
            loss, g_u, g_i = bpr_loss_and_grad(
                user_vecs, item_vecs, graph, params.layers, params.l2_reg,
                users, pos, neg)
            losses.append(loss)
            step += 1
            for k, (vecs, grad) in enumerate(((user_vecs, g_u),
                                              (item_vecs, g_i))):
                adam_m[k] = beta1 * adam_m[k] + (1 - beta1) * grad
                adam_v[k] = beta2 * adam_v[k] + (1 - beta2) * grad * grad
                m_hat = adam_m[k] / (1 - beta1 ** step)
                v_hat = adam_v[k] / (1 - beta2 ** step)
                vecs -= params.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        epoch_loss.append(float(np.mean(losses)) if losses else math.nan)

    out_u, out_i = _propagate_mean(
        user_vecs, item_vecs, *full_graph, params.layers)
    vectors = {user_node(u): out_u[u] for u in range(m.n_users)}
    vectors.update({item_node(i): out_i[i] for i in range(m.n_items)})
    return EmbeddingTable(params.dim, vectors, meta={"epoch_loss": epoch_loss})


# Draws tested per window while sampling negatives. A window ends at its
# first rejected draw: that user draws again, so every later draw falls to
# the user before the one it was tested against.
_NEG_WINDOW = 32


def _sample_negatives(edge_keys: np.ndarray, n_items: int, users: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Uniform non-interacted item per user; -1 after 100 failed retries.

    edge_keys holds user * n_items + item for every edge, ascending. Each
    user in turn draws rng.integers(n_items) until the item is not one of
    theirs. The draws are taken as arrays, which give the values of scalar
    calls, and tested a window at a time against the users they fall to.
    The generator is then reset and advanced by exactly the draws used, so
    its state afterwards is that of the scalar loop."""
    neg = np.full(len(users), -1, dtype=np.int64)
    if len(users) == 0:
        return neg
    keys = np.concatenate([[-1], edge_keys])
    state = rng.bit_generator.state
    draws = rng.integers(n_items, size=len(users) + _NEG_WINDOW)
    pos = row = tries = 0
    while row < len(users):
        width = min(len(users) - row, _NEG_WINDOW)
        if pos + width > len(draws):
            draws = np.concatenate([draws, rng.integers(n_items,
                                                        size=len(draws))])
        cand = draws[pos:pos + width]
        key = users[row:row + width] * n_items + cand
        taken = keys[np.searchsorted(keys, key, side="right") - 1] == key
        ok = int(taken.argmax()) if taken.any() else width
        neg[row:row + ok] = cand[:ok]
        pos, row = pos + ok, row + ok
        if ok:
            tries = 0
        if ok < width:
            pos, tries = pos + 1, tries + 1
            if tries == 100:
                log.warning("negative sampling failed for user %d; "
                            "triple skipped", users[row])
                row, tries = row + 1, 0
    rng.bit_generator.state = state
    rng.integers(n_items, size=pos)
    return neg


def _stack_vectors(table: EmbeddingTable, keys: Iterable[str]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, present): one row per key, zero where the table has no
    vector for it."""
    found = [table.vectors.get(key) for key in keys]
    present = np.array([vec is not None for vec in found], dtype=bool)
    vecs = np.zeros((len(found), table.dim))
    if present.any():
        vecs[present] = [vec for vec in found if vec is not None]
    return vecs, present


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float(a[p] @ b[p]) for every row p, bit for bit: one stacked
    (P, 1, d) @ (P, d, 1) matmul runs the same BLAS dot on each row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def embedding_score(table: EmbeddingTable, users: Sequence,
                    candidates: Sequence, metric: str = "dot"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Dot or cosine scores of aligned pairs: users[p]'s vector against
    candidates[p]'s. Returns (scores, missing): a pair whose user or item
    has no vector scores 0 and is flagged; a zero vector under cosine also
    scores 0.

    Each distinct user and item vector is looked up once. Each score
    equals float(u @ c), or float(u @ c) / (|u| * |c|) with the norms of
    np.linalg.norm (the square roots of the same dots of a vector with
    itself), bit for bit."""
    if metric not in ("dot", "cosine"):
        raise ValueError(f"unknown metric {metric!r}")
    if len(users) != len(candidates):
        raise ValueError("users and candidates must be aligned")
    user_ids, user_of = np.unique(np.asarray(users), return_inverse=True)
    item_ids, item_of = np.unique(np.asarray(candidates), return_inverse=True)
    u_vecs, u_ok = _stack_vectors(table, map(user_node, user_ids.tolist()))
    c_vecs, c_ok = _stack_vectors(table, map(item_node, item_ids.tolist()))
    present = u_ok[user_of] & c_ok[item_of]
    u_rows, c_rows = user_of[present], item_of[present]
    dots = _row_dots(u_vecs[u_rows], c_vecs[c_rows])
    if metric == "cosine":
        u_norm = np.sqrt(_row_dots(u_vecs, u_vecs))[u_rows]
        c_norm = np.sqrt(_row_dots(c_vecs, c_vecs))[c_rows]
        dots = np.divide(dots, u_norm * c_norm, out=np.zeros_like(dots),
                         where=(u_norm > 0) & (c_norm > 0))
    scores = np.zeros(len(candidates))
    scores[present] = dots
    return scores, ~present
