"""Embedding scorers: skip-gram over history sequences or biased walks,
and a LightGCN trainer with BPR loss.

Nodes live on the bipartite user-item graph. An EmbeddingTable holds one
vector array per side, indexed by the encoders' user and item ids, and a
presence mask per side: a node the training never saw has no vector.
Externally supplied vectors are keyed by raw item ids and read as a plain
dict.

embedding_score scores a whole run of aligned (user, item) pairs with no
per-pair loop; derive_user_vectors sums every user's history one position
at a time; LightGCN's negative sampler takes its draws as arrays and
loops once per rejected draw. Each gives the numbers and leaves the random
stream of the per-user or per-draw loop it replaced, bit for bit.

Skip-gram updates once per chunk of each sequence and gives the vectors
and losses of a per-sequence loop bit for bit: one rng.random per pair
block yields the doubles of the per-chunk calls in order; a guide table
with a power-of-two bucket count puts each draw in its exact bucket and
steps a bounded number of entries to searchsorted's index; the loss is
taken once per block from the dot products the updates write, each
chunk's slice summed and added in chunk order. W_in and W_out are one
stacked (2V, d) array, and a chunk reads every row it touches with one
gather and applies its updates with one 1-D np.add.at in the order of
the loop's three scatters (centers, contexts, negatives), so every slot
receives the same additions in the same order.

LightGCN masks each batch's node-dropout graph out of the training
matrix's CSR and its (item, user) order: the arrays from_pairs would
sort the kept edges into.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Literal, Mapping, Sequence, get_args

import numpy as np

from .data import (SparseInteractionMatrix, check_lines, first_repeat,
                   parse_floats, read_lines, split_fields)
from .util import DataError, sigmoid, stage_seed

log = logging.getLogger(__name__)

Metric = Literal["dot", "cosine"]  # the metrics embedding_score takes


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
        if self.walks_per_node < 1:
            raise ValueError("walks_per_node must be at least 1")


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
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be non-negative")


@dataclass(frozen=True)
class EmbeddingTable:
    """Vectors on the encoders' ids: users[u] is user u's vector where
    has_user[u] holds and items[i] item i's where has_item[i] holds; other
    rows are zero. meta carries training diagnostics."""

    users: np.ndarray
    has_user: np.ndarray
    items: np.ndarray
    has_item: np.ndarray
    meta: Mapping | None = field(default=None, compare=False)

    def __post_init__(self):
        if not (np.all(np.isfinite(self.users[self.has_user]))
                and np.all(np.isfinite(self.items[self.has_item]))):
            raise ValueError("non-finite vector in embedding table")


def read_embedding_tsv(path) -> dict[str, np.ndarray]:
    """Vectors keyed by the file's first column: one line per key, tab
    separated, every vector finite and of one width. A line without
    values, an empty id, a value that does not parse or is not finite, a
    width unlike the first line's and a repeated id are DataErrors,
    checked in this order, each naming the first line that fails it."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"embedding file not found: {path}")
    _, line_nos, lines = read_lines(path, header=False)
    if not lines:
        raise DataError(f"embedding file is empty: {path}")
    width, starts, fields = split_fields(lines)
    check_lines(path, line_nos, width < 1, "expected node id and values")
    ids = fields[starts]
    check_lines(path, line_nos, ids == "", "empty id")
    value_lines = np.repeat(line_nos, width)
    values = parse_floats(np.delete(fields, starts), value_lines, path,
                          "non-numeric vector value")
    check_lines(path, value_lines, ~np.isfinite(values), "non-finite vector value")
    check_lines(path, line_nos, width != width[0], "inconsistent vector width")
    line = first_repeat(ids)
    if line is not None:
        raise DataError(f"{path}:{line_nos[line]}: duplicate node id {str(ids[line])!r}")
    return dict(zip(ids.tolist(), values.reshape(len(lines), width[0])))


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
    nodes, per = np.flatnonzero(deg), params.walks_per_node
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
            corpus.append(rng.permutation(items).tolist())
    return corpus


# --- skip-gram with negative sampling ---------------------------------------

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


class _GuideTable:
    """np.searchsorted(cdf, u, side="right") of a nondecreasing cdf for
    draws u in [0, 1), without a binary search per draw: a guide table
    (Chen & Asau, 1974) over m buckets [j/m, (j+1)/m), m the smallest power
    of two at least 8 * len(cdf).

    lo[j] counts the entries <= j/m and span is the most entries any
    bucket's (j/m, (j+1)/m] holds. m is a power of two, so u * m and j / m
    are exact: a draw u lies in bucket j = floor(u * m), and its count of
    entries <= u lies in [lo[j], lo[j] + span]. Starting from lo[j], span
    passes of r += cdf_pad[r] <= u step r up to that count and no further
    (the inf after the last entry stops r at len(cdf)), so every result is
    searchsorted's. On a unigram^0.75 cdf span is 1."""

    def __init__(self, cdf: np.ndarray):
        self.m = 1 << (8 * len(cdf) - 1).bit_length()
        edges = np.searchsorted(cdf, np.arange(self.m + 1) / self.m,
                                side="right")
        self.lo, self.span = edges[:-1], int(np.diff(edges).max())
        self.cdf_pad = np.r_[cdf, np.inf]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        r = self.lo[(u * self.m).astype(np.int64)]
        for _ in range(self.span):
            r += self.cdf_pad[r] <= u
        return r


def train_skipgram(corpus: Iterable[Sequence[int]], params: SkipGramParams,
                   n_tokens: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Skip-gram with negative sampling over sequences of tokens
    0..n_tokens-1.

    Negatives come from the unigram^0.75 distribution. Updates are applied
    in chunks of up to 1,024 pairs within each sequence, in sequence order;
    input vectors (W_in) become the embedding. W_in and W_out are one
    (2V, d) array, W_out in rows V..2V-1. Returns (vectors, present,
    meta): row t of vectors is token t's vector where present[t] holds,
    zero for a token the corpus lacks; meta holds the epoch losses and the
    vocabulary size.

    The random stream, vectors and losses are those of a per-sequence loop
    drawing each chunk's negatives with rng.random((chunk pairs, K)) and
    np.searchsorted on the noise cdf, bit for bit:
    - pairs are built vectorised over blocks of sequences starting within
      _PAIR_BLOCK tokens of each other, in the same order;
    - one rng.random((block pairs, K)) yields the doubles of the block's
      per-chunk calls in order, as no other draw comes between them;
    - _GuideTable gives searchsorted's index for every draw;
    - the elementwise log-sigmoid of the dot products the updates write
      is taken once per block, and each chunk's slice is summed and added
      to the total in chunk order, as the loop added each chunk's loss;
    - each chunk gathers its rows (centers, then contexts and negatives
      offset into W_out) in one take and scatters their updates, each the
      loop's product with the same operands and association, in one 1-D
      np.add.at in the same order. All reads precede all updates, W_in
      and W_out slots are disjoint, within W_out every context update
      comes before every negative update, each in pair order, and a 1-D
      np.add.at adds to each slot in index order: every slot receives the
      additions of the loop's W_in, context and negative scatters, in
      their order.
    """
    corpus = [seq for seq in corpus if len(seq)]
    if not corpus:
        raise ValueError("corpus must be nonempty")
    lengths = np.array([len(seq) for seq in corpus], dtype=np.int64)
    vocab, tokens = np.unique(np.fromiter(
        chain.from_iterable(corpus), dtype=np.int64,
        count=int(lengths.sum())), return_inverse=True)
    if vocab[0] < 0 or vocab[-1] >= n_tokens:
        raise ValueError(f"token outside 0..{n_tokens - 1}")
    noise = np.bincount(tokens).astype(np.float64) ** 0.75
    noise /= noise.sum()
    lookup = _GuideTable(np.cumsum(noise))

    rng = np.random.default_rng(stage_seed(params.seed, "sgns"))
    n_vocab, dim = len(vocab), params.dim
    weights = np.zeros((2 * n_vocab, dim))             # W_in, then W_out
    weights[:n_vocab] = rng.uniform(-0.5 / dim, 0.5 / dim, size=(n_vocab, dim))
    slots = np.arange(weights.size).reshape(weights.shape)

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
            negs = lookup(rng.random((len(centers), params.negatives)))
            pos, neg = np.empty(negs.shape[0]), np.empty(negs.shape)
            chunks, begin = [], 0
            for end in ends.tolist():
                chunks += [(s, min(s + _CHUNK, end))
                           for s in range(begin, end, _CHUNK)]
                begin = end
            for s, e in chunks:
                _sgns_chunk(weights, slots, centers[s:e], contexts[s:e],
                            negs[s:e], params.learning_rate,
                            pos[s:e], neg[s:e])
            pos_loss, neg_loss = -_log_sigmoid(pos), -_log_sigmoid(-neg)
            for s, e in chunks:
                total += float(np.sum(pos_loss[s:e]) + np.sum(neg_loss[s:e]))
            n_pairs += len(centers)
        epoch_loss.append(total / max(n_pairs, 1))

    vectors = np.zeros((n_tokens, dim))
    vectors[vocab] = weights[:n_vocab]
    present = np.zeros(n_tokens, dtype=bool)
    present[vocab] = True
    return vectors, present, {"epoch_loss": epoch_loss, "vocab": len(vocab)}


def _add_rows_at(target: np.ndarray, rows: np.ndarray, values: np.ndarray
                 ) -> None:
    """np.add.at(target, rows, values) for a C-contiguous 2-D target, as
    one 1-D scatter on its flat view: the same additions to each slot in
    the same order, without the slow row-indexed path."""
    width = target.shape[1]
    flat = (rows[:, None] * width + np.arange(width)).ravel()
    np.add.at(target.reshape(-1), flat, values.ravel())


def _sgns_chunk(weights, slots, centers, contexts, negs, lr, pos, neg
                ) -> None:
    """One accumulated-gradient update over a chunk of pairs on the
    stacked (W_in; W_out) weights, whose flat slot numbers slots holds:
    one gather of every row the chunk touches, one 1-D scatter of their
    updates (see train_skipgram for why the bits are the loop's). Writes
    the pre-update dot products the pair losses -log σ(pos) - Σ log σ(-neg)
    are taken from into pos (B,) and neg (B, K)."""
    n_vocab = len(weights) // 2
    b = len(centers)
    rows = np.concatenate([centers, n_vocab + contexts, n_vocab + negs.ravel()])
    block = weights.take(rows, axis=0)
    v, u_o = block[:b], block[b:2 * b]
    u_n = block[2 * b:].reshape(negs.shape + (-1,))    # (B, K, d)
    np.einsum("bd,bd->b", v, u_o, out=pos)
    np.einsum("bkd,bd->bk", u_n, v, out=neg)
    g_pos = sigmoid(pos) - 1.0                        # (B,)
    g_neg = sigmoid(neg)                              # (B, K)
    update = np.empty_like(block)
    d_v, d_o = update[:b], update[b:2 * b]
    d_n = update[2 * b:].reshape(u_n.shape)
    np.multiply(g_pos[:, None], u_o, out=d_v)
    d_v += np.einsum("bk,bkd->bd", g_neg, u_n)
    d_v *= -lr
    np.multiply((-lr * g_pos)[:, None], v, out=d_o)
    np.einsum("bk,bd->bkd", g_neg, v, out=d_n)
    d_n *= -lr
    np.add.at(weights.reshape(-1), slots.take(rows, axis=0).ravel(),
              update.ravel())


def derive_user_vectors(m: SparseInteractionMatrix, items: np.ndarray,
                        has_item: np.ndarray, meta: Mapping | None = None
                        ) -> EmbeddingTable:
    """The table of item vectors items (present where has_item holds) with
    user vectors added: the mean of each user's covered history items.

    Step k adds every user's k-th covered item, in row order, onto a zero
    start: the order in which np.mean(rows, axis=0) adds the rows, so the
    means are those of a per-user np.mean. A one-wide np.mean is a pairwise
    1-D sum instead, so that width keeps it per user."""
    edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
    keep = has_item[m.user_items]
    eu, ei = edge_users[keep], m.user_items[keep]
    counts = np.bincount(eu, minlength=m.n_users)
    held, starts = np.flatnonzero(counts), np.cumsum(counts) - counts
    users = np.zeros((m.n_users, items.shape[1]))
    if items.shape[1] == 1:
        for u in held.tolist():
            users[u] = np.mean(items[ei[starts[u]:starts[u] + counts[u]]],
                               axis=0)
    else:
        step = np.arange(len(eu)) - starts[eu]
        order = np.argsort(step, kind="stable")
        cuts = np.cumsum(np.bincount(step)).tolist()
        for lo, hi in zip([0, *cuts], cuts):
            at = order[lo:hi]
            users[eu[at]] += items[ei[at]]
        users[held] /= counts[held, None]
    return EmbeddingTable(users, counts > 0, items, has_item, meta)


# --- LightGCN ----------------------------------------------------------------

def lightgcn_propagate(user_vecs: np.ndarray, item_vecs: np.ndarray,
                       graph: SparseInteractionMatrix, layers: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Average of embedding layers 0..layers under e_u^(k+1) =
    Σ_{i∈N(u)} e_i^(k)/√(|N_u||N_i|) (and symmetrically for items), over
    the edges of graph."""
    inv_u, inv_i = (np.where(deg > 0, 1.0 / np.sqrt(np.maximum(deg, 1)), 0.0)
                    for deg in (graph.user_degrees(), graph.item_degrees()))
    acc_u, acc_i = user_vecs.copy(), item_vecs.copy()
    cur_u, cur_i = user_vecs, item_vecs
    for _ in range(layers):
        nxt_u = _segment_sum(cur_i * inv_i[:, None], graph.user_items,
                             graph.user_ptr)
        nxt_u *= inv_u[:, None]
        nxt_i = _segment_sum(cur_u * inv_u[:, None], graph.item_users,
                             graph.item_ptr)
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


def bpr_loss_and_grad(user_vecs, item_vecs, graph: SparseInteractionMatrix,
                      layers, l2_reg, users, pos_items, neg_items):
    """Mean BPR loss over the batch triples and the gradient with respect
    to the layer-0 embeddings, propagated through the mean-of-layers graph
    convolution (the adjacency is symmetric, so backprop reuses it)."""
    f_u, f_i = lightgcn_propagate(user_vecs, item_vecs, graph, layers)
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
    g_u, g_i = lightgcn_propagate(d_fu, d_fi, graph, layers)
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
    edge_users = np.repeat(np.arange(m.n_users), np.diff(m.user_ptr))
    edge_items = m.user_items
    edge_keys = edge_users * m.n_items + edge_items
    item_order = np.lexsort((edge_users, edge_items))
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
            graph = m
            if params.node_dropout > 0:
                # drop every edge of a dropped node (items offset by n_users)
                drop = rng.random(n_nodes) < params.node_dropout
                kept = ~(drop[edge_users] | drop[m.n_users + edge_items])
                graph = _edge_subgraph(m, edge_users, item_order, kept)
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

    out_u, out_i = lightgcn_propagate(user_vecs, item_vecs, m, params.layers)
    return EmbeddingTable(out_u, np.ones(m.n_users, dtype=bool),
                          out_i, np.ones(m.n_items, dtype=bool),
                          meta={"epoch_loss": epoch_loss})


def _edge_subgraph(m: SparseInteractionMatrix, edge_users: np.ndarray,
                   item_order: np.ndarray, kept: np.ndarray
                   ) -> SparseInteractionMatrix:
    """The matrix of m's edges where kept holds, kept aligned with m's CSR
    (row of each edge in edge_users) and item_order the edges sorted by
    (item, user): the arrays SparseInteractionMatrix.from_pairs builds
    from the kept edges, by masking m's CSR and its (item, user) order
    instead of sorting. Pointers come from the kept edges' counts."""
    def ptr(ids, n):
        out = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ids, minlength=n), out=out[1:])
        return out

    users, items = edge_users[kept], m.user_items[kept]
    col = item_order[kept[item_order]]
    return SparseInteractionMatrix(
        m.n_users, m.n_items, ptr(users, m.n_users), items,
        m.user_ratings[kept], ptr(items, m.n_items), edge_users[col],
        m.user_ratings[col])


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


def _has_vector(has: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """has[ids], False for an id outside the table: the -1 of an unknown
    user must not read the last row."""
    ok = (ids >= 0) & (ids < len(has))
    ok[ok] = has[ids[ok]]
    return ok


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """float(a[p] @ b[p]) for every row p, bit for bit: one stacked
    (P, 1, d) @ (P, d, 1) matmul runs the same BLAS dot on each row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def embedding_score(table: EmbeddingTable, users: Sequence[int],
                    candidates: Sequence[int], metric: str = "dot"
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Dot or cosine scores of aligned pairs of encoded ids: users[p]'s
    vector against candidates[p]'s. Returns (scores, missing): a pair whose
    user or item has no vector (an id outside the table, such as -1, has
    none) scores 0 and is flagged; a zero vector under cosine also scores 0.

    Each score equals float(u @ c), or float(u @ c) / (|u| * |c|) with the
    norms of np.linalg.norm (the square roots of the same dots of a vector
    with itself), bit for bit."""
    if metric not in get_args(Metric):
        raise ValueError(f"unknown metric {metric!r}")
    if len(users) != len(candidates):
        raise ValueError("users and candidates must be aligned")
    users = np.asarray(users, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    present = (_has_vector(table.has_user, users)
               & _has_vector(table.has_item, candidates))
    u_vecs = table.users[users[present]]
    c_vecs = table.items[candidates[present]]
    dots = _row_dots(u_vecs, c_vecs)
    if metric == "cosine":
        u_norm = np.sqrt(_row_dots(u_vecs, u_vecs))
        c_norm = np.sqrt(_row_dots(c_vecs, c_vecs))
        dots = np.divide(dots, u_norm * c_norm, out=np.zeros_like(dots),
                         where=(u_norm > 0) & (c_norm > 0))
    scores = np.zeros(len(candidates))
    scores[present] = dots
    return scores, ~present
