"""Chart-structured distribution over binary trees, with its neural scorer.

A sentence of length T gets one real-valued score per span ``(i, j)``; a
tree's unnormalized log-weight is the sum of scores over its spans (singleton
spans included: they appear in every tree, so they shift the partition
function but leave the distribution unchanged).  A batch's scores are a
[B, n_spans] sheet whose columns follow :func:`span_order`, the row-major
upper triangle; :func:`span_index` maps span (i, j) to its column.

Everything downstream of the scores is an O(T^3) chart: one flat array per
batch, width by width and start-major, so span (i, i+w-1) of row b sits at
``start[w] + (i-1)·B + b``.  :func:`_widths` gives per width the positions
of both children of every span at every split point, and each recursion
fills a width from one gather of each:

* :func:`inside`, the log partition function (log-sum-exp), the exact
  entropy (expectation semiring) and the split weights that
  :func:`sample_trees` draws exact samples from; on a tape, log Z and the
  entropy are the two outputs of one node whose vjp is a hand-written
  reverse sweep, the outside algorithm (Eisner 2016) plus entropy terms,
* :func:`viterbi`, the argmax tree (max).

Trees are span arrays [n, T-1, 2] (see :mod:`urnng.treebank`); :func:`_walk`
builds them for both the sampler and Viterbi.

:class:`InferenceNetwork` produces the scores from a bidirectional LSTM over
the sentence, each direction one :func:`~urnng.nn.lstm_layer` node over a
chain of pushes.  A span's features are the difference of two fenceposts,
and the MLP's first layer is linear, so it projects the T+1 fenceposts once;
the rest of the MLP is one node over the differences of the projections.
The chart functions accept scores from any source, which is how the oracle
cross-checks drive them with raw tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .treebank import DataError, TreeRepr, span_array


@lru_cache(maxsize=None)
def span_order(length: int) -> tuple[tuple[int, int], ...]:
    """Canonical enumeration of all spans (i <= j), 1-based, lexicographic."""
    return tuple((i, j) for i in range(1, length + 1)
                 for j in range(i, length + 1))


def span_index(length: int, i, j):
    """Position of span (i, j) in ``span_order(length)``; takes arrays too."""
    return (i - 1) * length - (i - 1) * (i - 2) // 2 + j - i


def span_indicator(trees, length: int) -> np.ndarray:
    """0/1 matrix [n_trees, n_spans] marking the spans of trees given as
    wide-span arrays [n, T-1, 2] (or ``TreeRepr``s), singletons included."""
    spans = span_array(trees, length)
    out = np.zeros((len(spans), length * (length + 1) // 2))
    out[np.arange(len(spans))[:, None],
        span_index(length, spans[..., 0], spans[..., 1])] = 1.0
    i = np.arange(1, length + 1)
    out[:, span_index(length, i, i)] = 1.0
    return out


class SpanScores:
    """Span scores for a batch of same-length sentences, shape [B, n_spans]."""

    def __init__(self, length: int, flat: Tensor):
        expected = length * (length + 1) // 2
        if flat.ndim != 2 or flat.shape[1] != expected:
            raise ValueError(
                f"need [batch, {expected}] scores for length {length}, "
                f"got {flat.shape}")
        self.length = length
        self.batch = flat.shape[0]
        self.flat = flat

    @classmethod
    def from_table(cls, table, requires_grad: bool = False) -> "SpanScores":
        """Wrap a single [T, T] upper-triangular table (row i-1, col j-1)."""
        table = np.asarray(table, dtype=np.float64)
        row = table[np.triu_indices(table.shape[0])]  # row-major: span_order
        return cls(table.shape[0], Tensor(row[None, :], name="span_scores",
                                          requires_grad=requires_grad))


def flatten(scores: SpanScores, temperature: float) -> SpanScores:
    """Divide all scores by ``temperature`` (> 0), spreading the distribution."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return SpanScores(scores.length, ad.scale(scores.flat, 1.0 / temperature))


def _chart_order(length: int) -> np.ndarray:
    """The columns of a score sheet in chart order: by width, then start."""
    i, j = np.triu_indices(length)
    return np.argsort(j - i, kind="stable")


def _widths(length: int, batch: int, reverse: bool = False):
    """Per width w = 2..T (T..2 if ``reverse``): w, its slice of the chart,
    and the positions [2, w-1, (T-w+1)·B] of the children of its spans,
    split after m words: entry s·B + b of width m, (s+m)·B + b of w-m."""
    start = np.cumsum([0, 0] + [(length - m + 1) * batch
                                for m in range(1, length + 1)])
    for w in range(length, 1, -1) if reverse else range(2, length + 1):
        m = np.arange(1, w)[:, None]
        col = np.arange((length - w + 1) * batch)
        yield w, slice(start[w], start[w + 1]), np.stack(
            [start[m] + col, start[w - m] + m * batch + col])


class Chart:
    """Inside quantities for one batch of score tables: ``log_z`` and
    ``entropy``, shape [B], and per width w >= 2 the probabilities of the
    split points of its spans, one row per span, [(T-w+1)·B, w-1]."""

    def __init__(self, scores: SpanScores, log_z: Tensor, entropy: Tensor,
                 split_weights: list[np.ndarray | None]):
        self.scores, self.log_z, self.entropy = scores, log_z, entropy
        self.length, self.batch = scores.length, scores.batch
        self._split_weights = split_weights

    def split_weights(self, i: int, j: int, b: int = 0) -> np.ndarray:
        """Probabilities over split points k = i..j-1 of span (i, j), row b."""
        return self._split_weights[j - i + 1][(i - 1) * self.batch + b]


def inside(scores: SpanScores) -> Chart:
    """Fill the chart with inside scores and entropies, width by width."""
    t, batch = scores.length, scores.batch
    order = _chart_order(t)
    alpha = scores.flat.data[:, order].T.ravel()  # scores, then inside
    h = np.zeros_like(alpha)
    split_weights, kept = [None, None], [None, None]
    for w, block, kids in _widths(t, batch):
        pairs = alpha[kids[0]] + alpha[kids[1]]
        top = pairs.max(axis=0)
        lse = np.log(np.exp(pairs - top).sum(axis=0)) + top
        lw = pairs - lse  # log-probabilities of the split points
        alpha[block] += lse
        p = np.exp(lw)
        gain = h[kids[0]] + h[kids[1]] - lw
        h[block] = (p * gain).sum(axis=0)
        split_weights.append(
            np.ascontiguousarray((p / p.sum(axis=0, keepdims=True)).T))
        kept.append((p, gain))

    def sweep(g):
        # the outside pass, d pairs = p·d lse, once all wider spans have
        # added into a width's d lse; the entropy adds d lw = p·(H_l + H_r
        # - lw - 1)·dH to d pairs, and p·dH to each child's dH
        (d_log_z, d_entropy), (d_alpha, d_h) = g, np.zeros((2, alpha.size))
        d_alpha[-batch:] = 0.0 if d_log_z is None else d_log_z
        d_h[-batch:] = 0.0 if d_entropy is None else d_entropy
        for w, block, kids in _widths(t, batch, reverse=True):
            (p, gain), below = kept[w], block.start
            d_lw = p * (gain - 1.0) * d_h[block]
            d_pairs = d_lw + p * (d_alpha[block] - d_lw.sum(axis=0))
            d_h[:below] += np.bincount(kids.ravel(), np.broadcast_to(
                p * d_h[block], kids.shape).ravel(), below)
            d_alpha[:below] += np.bincount(kids.ravel(), np.broadcast_to(
                d_pairs, kids.shape).ravel(), below)
        grad = np.empty_like(scores.flat.data)
        grad[:, order] = d_alpha.reshape(-1, batch).T  # a permutation
        return (grad,)

    outputs = (alpha[-batch:].copy(), h[-batch:].copy())
    return Chart(scores, *ad._emit("inside", outputs, (scores.flat,), sweep),
                 split_weights)


def _walk(t: int, n: int, choose) -> np.ndarray:
    """Split the spans of n trees top-down, right child first, in lockstep.

    At step d every tree pops the next internal span (i, j) off its agenda
    and ``choose(d, i, j)`` returns the split points k, one per tree.
    Returns the trees in the array form [n, T-1, 2], spans sorted per row.
    """
    # each tree's agenda of spans still to split, popped from the top
    lo, hi = np.ones((n, t), np.int64), np.full((n, t), t, np.int64)
    top = np.ones(n, np.int64)
    spans = np.empty((n, t - 1, 2), np.int64)
    tree = np.arange(n)
    for d in range(t - 1):
        top -= 1
        i, j = lo[tree, top], hi[tree, top]
        k = choose(d, i, j)
        spans[:, d, 0], spans[:, d, 1] = i, j
        lo[tree, top], hi[tree, top] = i, k
        top += k > i
        lo[tree, top], hi[tree, top] = k + 1, j
        top += j > k + 1
    order = np.argsort(span_index(t, spans[..., 0], spans[..., 1]), axis=1)
    return np.take_along_axis(spans, order[..., None], axis=1)


def sample_trees(chart: Chart, rng: np.random.Generator,
                 rows) -> tuple[np.ndarray, np.ndarray]:
    """Draw tree s exactly from chart batch row ``rows[s]``, all in lockstep.

    Returns the distinct trees in the array form [n_distinct, T-1, 2], in
    order of first draw, and per draw the index of its tree.  Every tree
    takes one uniform per internal span in :func:`_walk`'s visiting order,
    so the draws and the generator's end state equal those of drawing the
    trees one after another.
    """
    rows = np.asarray(rows, dtype=np.int64)
    t, batch, n = chart.length, chart.batch, len(rows)
    used = np.unique(rows)
    tol = np.sqrt(np.finfo(np.float64).eps)  # as in Generator.choice
    cdfs: list[np.ndarray | None] = [None, None]
    for w, p in enumerate(chart._split_weights[2:], start=2):
        # the check Generator.choice makes on p, once for the sampled rows
        sampled = p.reshape(t - w + 1, batch, w - 1)[:, used]
        if (sampled < 0).any() or not (
                np.abs(sampled.sum(axis=2) - 1) <= tol).all():
            raise ad.NumericError(
                f"split weights of width {w} are not probabilities")
        cdfs.append(np.cumsum(p, axis=1))
        cdfs[w] /= cdfs[w][:, -1:]
    u = rng.random((n, t - 1))

    def choose(d, i, j):
        k, width = np.empty_like(i), j - i + 1
        for w in np.unique(width):
            m = np.flatnonzero(width == w)
            cdf = cdfs[w][(i[m] - 1) * batch + rows[m]]
            # searchsorted(side="right") on each non-decreasing row
            k[m] = i[m] + (cdf <= u[m, d, None]).sum(axis=1)
        return k

    spans = _walk(t, n, choose)
    _, first, which = np.unique(spans.reshape(n, -1), axis=0,
                                return_index=True, return_inverse=True)
    order = np.argsort(first)  # distinct trees by first draw
    return spans[first[order]], np.argsort(order)[which.reshape(-1)]


def sample_tree(chart: Chart, rng: np.random.Generator,
                b: int = 0) -> tuple[TreeRepr, float]:
    """Draw one tree exactly from the chart distribution; returns (tree, log q)."""
    spans, _ = sample_trees(chart, rng, [b])
    return TreeRepr.from_array(spans[0]), tree_log_prob(chart, spans[0], b)


def tree_log_prob(chart: Chart, tree, b: int = 0) -> float:
    """Exact log q(tree) under the chart's score table for batch row ``b``;
    ``tree`` is a ``TreeRepr`` or its array form [T-1, 2]."""
    return float(tree_log_prob_batch(chart, [tree], [b]).data[0])


def tree_log_prob_batch(chart: Chart, trees, rows) -> Tensor:
    """Differentiable log q of trees [n, T-1, 2] at once, shape [n].

    ``rows[r]`` names the chart batch row that scores tree r; the same row
    may appear many times (e.g. K samples per sentence).  Each log q sums
    the row's scores of the tree's 2T-1 spans, gathered from the sheet.
    """
    rows, t, flat = np.asarray(rows, np.int64), chart.length, chart.scores.flat
    spans, words = span_array(trees, t), np.arange(1, t + 1)
    if len(spans) != rows.shape[0]:
        raise ValueError(f"{len(spans)} trees vs {rows.shape[0]} rows")
    picks = np.concatenate([span_index(t, spans[..., 0], spans[..., 1]),
                            np.broadcast_to(span_index(t, words, words),
                                            (len(spans), t))], axis=1)
    picks += rows[:, None] * flat.shape[1]
    scored = ad.sum_axis(ad.reshape(ad.take_rows(
        ad.reshape(flat, (flat.data.size,)), picks.ravel()), picks.shape), 1)
    return ad.sub(scored, ad.take_rows(chart.log_z, rows))


def tree_entropy(chart: Chart) -> Tensor:
    """Exact entropy of the tree distribution per batch row, shape [B], as
    :func:`inside` fills it; on a tape it is differentiable."""
    return chart.entropy


def viterbi(scores: SpanScores, b: int = 0) -> tuple[TreeRepr, float]:
    """Highest-scoring tree and its total span score (not normalized).

    Ties are broken toward the largest split point when scores are equal, so
    an all-constant table yields the fully left-branching tree.
    """
    t = scores.length
    best = scores.flat.data[b, _chart_order(t)]
    split = np.zeros(len(span_order(t)), np.int64)  # best k per span
    for w, block, kids in _widths(t, 1):
        pairs = best[kids[0]] + best[kids[1]]
        i = np.arange(1, t - w + 2)
        # argmax over the reversed split axis, so the largest split wins ties
        split[span_index(t, i, i + w - 1)] = (
            i + w - 2 - np.argmax(pairs[::-1], axis=0))
        best[block] += pairs.max(axis=0)
    spans = _walk(t, 1, lambda d, i, j: split[span_index(t, i, j)])
    return TreeRepr.from_array(spans[0]), float(best[-1])


class InferenceNetwork:
    """BiLSTM + MLP span scorer defining the variational tree distribution.

    The word embedding table is shared with the generative model and is not
    listed among this network's own parameters; pass it in, or omit it to get
    a standalone table (useful in tests).
    """

    def __init__(self, vocab_size: int, word_dim: int, hidden_dim: int = 256,
                 mlp_hidden: int | None = None, max_len: int = 150,
                 dropout: float = 0.5,
                 rng: np.random.Generator | None = None,
                 embedding: Tensor | None = None,
                 init_scale: float = nn.INIT_SCALE):
        rng = rng if rng is not None else np.random.default_rng(0)
        if mlp_hidden is None:
            mlp_hidden = 2 * hidden_dim
        self.word_dim = word_dim
        self.hidden_dim = hidden_dim
        self.max_len = max_len
        self.dropout = dropout
        if embedding is None:
            embedding = nn.make_param(rng, "emb", (vocab_size, word_dim),
                                      init_scale)
        self.embedding = embedding
        lstm = (word_dim + hidden_dim, 4 * hidden_dim)
        shapes = {"inf.boundary": (2, word_dim),
                  "inf.position": (max_len + 2, word_dim),
                  "inf.fwd_w": lstm, "inf.fwd_b": lstm[1:],
                  "inf.bwd_w": lstm, "inf.bwd_b": lstm[1:],
                  "inf.mlp_w1": (2 * hidden_dim, mlp_hidden),
                  "inf.mlp_b1": (mlp_hidden,)}
        p = nn.make_params(rng, shapes, init_scale)
        p["inf.ln_gain"] = Tensor(np.ones(mlp_hidden), requires_grad=True,
                                  name="inf.ln_gain")
        p["inf.ln_bias"] = Tensor(np.zeros(mlp_hidden), requires_grad=True,
                                  name="inf.ln_bias")
        p["inf.mlp_w2"] = nn.make_param(rng, "inf.mlp_w2", (mlp_hidden, 1),
                                        init_scale)
        self.params = p

    def parameters(self) -> dict[str, Tensor]:
        """Inference-network-owned parameters (the shared embedding excluded)."""
        return dict(self.params)

    def span_scores(self, ids: np.ndarray,
                    rng: np.random.Generator | None = None) -> SpanScores:
        """Score all spans of a batch of same-length sentences.

        ``ids`` is an integer array [B, T].  Pass ``rng`` to enable dropout
        (training mode); omit it for deterministic evaluation.

        Padded position p of batch row b is push 1 + p·B + b of both
        directions' LSTM layers, each a chain with a level per position.
        Fencepost k = 0..T, after word k, is [f_{k+1} ; -b_k], row k·B + b,
        so the features [f_{j+1} - f_i ; b_{i-1} - b_j] of span (i, j) are
        fencepost j minus fencepost i-1.  Their first MLP layer is formed
        as the difference of the fenceposts' projections by ``inf.mlp_w1``,
        one [(T+1)·B, 2H] GEMM, which equals projecting the features up to
        rounding; :func:`_span_head` does the rest.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"ids must be [batch, length], got {ids.shape}")
        batch, t = ids.shape
        if t > self.max_len:
            raise DataError(
                f"sentence length {t} exceeds position table capacity "
                f"{self.max_len}")
        p = self.params
        # Inputs at padded positions 0..T+1: boundary, words, boundary, each
        # with its learned position embedding added.  Rows 0 and 1 of the
        # gathered table are the two boundaries, row 2 + (p-1)·B + b a word.
        # Input row i is push i's; row 0, push 0's, is never read.
        table = ad.concat([p["inf.boundary"],
                           ad.take_rows(self.embedding, ids.T.ravel())])
        x = ad.add(ad.take_rows(table, np.pad(np.arange(2, t * batch + 2),
                                              (batch + 1, batch),
                                              constant_values=(0, 1))),
                   ad.take_rows(p["inf.position"],
                                np.r_[0, np.repeat(np.arange(t + 2), batch)]))
        push = 1 + np.arange((t + 2) * batch).reshape(t + 2, batch)
        fwd_below, bwd_below = np.zeros((2, push.size + 1), np.int64)
        fwd_below[push[1:]], bwd_below[push[:-1]] = push[:-1], push[1:]
        fwd = nn.lstm_layer(x, fwd_below, push, p["inf.fwd_w"], p["inf.fwd_b"])
        bwd = nn.lstm_layer(x, bwd_below, push[::-1], p["inf.bwd_w"],
                            p["inf.bwd_b"])
        posts = ad.concat([ad.narrow(fwd, 0, 1 + batch, (t + 1) * batch),
                           ad.scale(ad.narrow(bwd, 0, 1, (t + 1) * batch),
                                    -1.0)], axis=1)
        proj = ad.matmul(posts, p["inf.mlp_w1"])
        return SpanScores(t, _span_head(proj, t, batch, p, self.dropout, rng))


def _span_head(proj: Tensor, t: int, batch: int, p: dict, rate: float,
               rng: np.random.Generator | None) -> Tensor:
    """The [B, n_spans] scores from the fenceposts' projections ``proj``,
    [(T+1)·B, M], as one primitive: proj[j] - proj[i-1] + b1 per span (i, j),
    then relu, layer norm, dropout and ``inf.mlp_w2``, with the ops of the
    unfused chain in its order."""
    b1, gain, bias, w2 = (p["inf." + k] for k in
                          ("mlp_b1", "ln_gain", "ln_bias", "mlp_w2"))
    i, j = np.triu_indices(t)  # spans (i+1, j+1), in span_order
    fence = proj.data.reshape(t + 1, batch, -1)
    pre = (fence[j + 1] - fence[i]).reshape(len(i) * batch, -1) + b1.data
    active = pre > 0  # where relu passes its input
    normed, y, inv = ad.layer_norm_array(np.maximum(pre, 0.0, out=pre),
                                         gain.data, bias.data)
    pattern = ad.dropout_pattern(normed.shape, rate, rng)
    # no output bias: it would add one constant to every span, which
    # no tree distribution can see, so its gradient is exactly zero
    out = ad.dropped(normed, pattern, rate) @ w2.data  # [P·B, 1]
    starts = span_index(t, np.arange(1, t + 1), np.arange(1, t + 1))

    def vjp(g):
        g = g.T.reshape(-1, 1)  # span-major, as ``out``
        dw2 = ad.dropped(y * gain.data + bias.data, pattern, rate).T @ g
        dx, dgain, dbias = ad.layer_norm_vjp(
            ad.dropped(g * w2.data.T, pattern, rate), y, inv, gain.data)
        spans = (dx * active).reshape(len(i), -1)
        # the spans starting after fencepost k are one run of rows: each
        # adds into the fencepost it ends at, and their sum leaves k
        dproj = np.zeros((t + 1, spans.shape[1]))
        for k, at in enumerate(starts):
            run = spans[at:at + t - k]
            dproj[k + 1:] += run
            dproj[k] -= run.sum(axis=0)
        return (dproj.reshape(proj.shape),
                spans.sum(axis=0).reshape(batch, -1).sum(axis=0),
                dgain, dbias, dw2)

    return ad._emit("span_head", out.reshape(len(i), batch).T,
                    (proj, b1, gain, bias, w2), vjp)
