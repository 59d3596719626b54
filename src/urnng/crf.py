"""Chart-structured distribution over binary trees, with its neural scorer.

A sentence of length T gets one real-valued score per span ``(i, j)``; a
tree's unnormalized log-weight is the sum of scores over its spans (singleton
spans included: they appear in every tree, so they shift the partition
function but leave the distribution unchanged).  A batch's scores are a
[B, n_spans] sheet whose columns follow :func:`span_order`, the row-major
upper triangle; :func:`span_index` maps span (i, j) to its column.

Everything downstream of the scores is an O(T^3) chart filled one width at a
time.  The width-w chart is a diagonal laid out start-major, a vector of
length (T-w+1)·B holding span (i, i+w-1) of batch row b at (i-1)·B + b.
:func:`_fill_chart` is the one recursion: per width it gathers the left and
the right children of every span at every split point from the diagonals
filled so far, one index op each, and a semiring ``combine`` reduces their
[w-1, (T-w+1)·B] sums:

* :func:`inside`, the log partition function (log-sum-exp), which keeps the
  split log-weights that :func:`sample_trees` draws exact samples from,
* :func:`tree_entropy`, exact entropy (expectation semiring),
* :func:`viterbi`, the argmax tree (max).

Trees are span arrays [n, T-1, 2] (see :mod:`urnng.treebank`); :func:`_walk`
builds them for both the sampler and Viterbi.

:class:`InferenceNetwork` produces the scores from a bidirectional LSTM over
the sentence, each direction one :func:`~urnng.nn.lstm_layer` node over a
chain of pushes, and gathers the features of all spans from its outputs at
once; the chart functions accept scores from any source, which is how the
oracle cross-checks drive them with raw tables.
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

    def diagonals(self) -> list[Tensor | None]:
        """Scores by width: entry w is the start-major [(T-w+1)·B] diagonal."""
        t, batch = self.length, self.batch
        column = ad.reshape(ad.transpose(self.flat), (self.flat.data.size,))
        out: list[Tensor | None] = [None]
        for w in range(1, t + 1):
            i = np.arange(1, t - w + 2)
            idx = span_index(t, i, i + w - 1)
            out.append(ad.take_rows(
                column, (idx[:, None] * batch + np.arange(batch)).ravel()))
        return out


def flatten(scores: SpanScores, temperature: float) -> SpanScores:
    """Divide all scores by ``temperature`` (> 0), spreading the distribution."""
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return SpanScores(scores.length, ad.scale(scores.flat, 1.0 / temperature))


def _fill_chart(first: Tensor, length: int, batch: int, combine) -> Tensor:
    """Fill widths 2..T from the width-1 diagonal; returns the width-T one.

    ``combine(w, pairs)`` receives, for every width-w span at every split
    point, the left child (entry s·B + b of width m for the span starting at
    s, split after m words) plus the right one (entry (s+m)·B + b of width
    w-m), shape [w-1, (T-w+1)·B], and returns the width-w diagonal.
    """
    diags = [first]
    # start[m]: where width m begins in ``concat(diags)``, for m >= 1
    start = np.cumsum([0, 0] + [(length - m + 1) * batch
                                for m in range(1, length)])
    for w in range(2, length + 1):
        m = np.arange(1, w)[:, None]
        col = np.arange((length - w + 1) * batch)
        chart = ad.concat(diags)
        left, right = (
            ad.reshape(ad.take_rows(chart, idx.ravel()), idx.shape)
            for idx in (start[m] + col, start[w - m] + m * batch + col))
        diags.append(combine(w, ad.add(left, right)))
    return diags[-1]


class Chart:
    """Inside quantities for one batch of score tables.

    ``split_log_weights[w]`` (w >= 2) holds the log-probabilities of the split
    points of every width-w span, shape [w-1, (T-w+1)·B], on the tape.
    """

    def __init__(self, scores: SpanScores, log_z: Tensor,
                 split_log_weights: list[Tensor | None]):
        self.scores = scores
        self.length = scores.length
        self.batch = scores.batch
        self.log_z = log_z
        self.split_log_weights = split_log_weights
        self._split_weights = [None, None]  # transposed: one row per span
        for lw in split_log_weights[2:]:
            p = np.exp(lw.data)
            self._split_weights.append(
                np.ascontiguousarray((p / p.sum(axis=0, keepdims=True)).T))

    def split_weights(self, i: int, j: int, b: int = 0) -> np.ndarray:
        """Probabilities over split points k = i..j-1 of span (i, j), row b."""
        return self._split_weights[j - i + 1][(i - 1) * self.batch + b]


def inside(scores: SpanScores) -> Chart:
    """Log-space inside recursion; ``chart.log_z`` has shape [B]."""
    diags = scores.diagonals()
    split_lw: list[Tensor | None] = [None, None]

    def combine(w: int, pairs: Tensor) -> Tensor:
        lse = ad.logsumexp(pairs, 0)
        split_lw.append(ad.add_row(pairs, ad.scale(lse, -1.0)))
        return ad.add(diags[w], lse)

    log_z = _fill_chart(diags[1], scores.length, scores.batch, combine)
    return Chart(scores, log_z, split_lw)


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
    the row's scores in ``span_order``, masked by :func:`span_indicator`.
    """
    rows = np.asarray(rows, dtype=np.int64)
    picks = span_indicator(trees, chart.length)
    if len(picks) != rows.shape[0]:
        raise ValueError(f"{len(picks)} trees vs {rows.shape[0]} rows")
    scored = ad.sum_axis(ad.mul(ad.take_rows(chart.scores.flat, rows),
                                Tensor(picks)), 1)
    return ad.sub(scored, ad.take_rows(chart.log_z, rows))


def tree_entropy(chart: Chart) -> Tensor:
    """Exact entropy of the tree distribution per batch row, shape [B].

    Bottom-up recursion: the entropy of a span is the split-distribution
    entropy plus the expected entropies of the chosen children.  The result
    stays on the tape, so its gradient w.r.t. the scores is available.
    """
    lw = chart.split_log_weights

    def combine(w: int, children: Tensor) -> Tensor:
        return ad.sum_axis(ad.mul(ad.exp(lw[w]), ad.sub(children, lw[w])), 0)

    zero = Tensor(np.zeros(chart.length * chart.batch))
    return _fill_chart(zero, chart.length, chart.batch, combine)


def viterbi(scores: SpanScores, b: int = 0) -> tuple[TreeRepr, float]:
    """Highest-scoring tree and its total span score (not normalized).

    Ties are broken toward the largest split point when scores are equal, so
    an all-constant table yields the fully left-branching tree.
    """
    t = scores.length
    diags = SpanScores(t, Tensor(scores.flat.data[[b]])).diagonals()
    split = np.zeros(len(span_order(t)), np.int64)  # best k per span

    def combine(w: int, pairs: Tensor) -> Tensor:
        i = np.arange(1, t - w + 2)
        # argmax over the reversed split axis, so the largest split wins ties
        split[span_index(t, i, i + w - 1)] = (
            i + w - 2 - np.argmax(pairs.data[::-1], axis=0))
        return Tensor(diags[w].data + pairs.data.max(axis=0))

    best = _fill_chart(diags[1], t, 1, combine)
    spans = _walk(t, 1, lambda d, i, j: split[span_index(t, i, j)])
    return TreeRepr.from_array(spans[0]), float(best.data[0])


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
        fencepost j minus fencepost i-1 (to the bit: negation is exact), and
        the [n_spans·B, 2H] sheet, span-major in ``span_order``, is two
        gathers and one difference.
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

        def rows(pos: np.ndarray) -> np.ndarray:
            return (pos[:, None] * batch + np.arange(batch)).ravel()

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
        i, j = np.triu_indices(t)  # spans (i+1, j+1), in span_order
        sheet = ad.sub(ad.take_rows(posts, rows(j + 1)),
                       ad.take_rows(posts, rows(i)))
        h = ad.relu(nn.linear(sheet, p["inf.mlp_w1"], p["inf.mlp_b1"]))
        h = ad.layer_norm(h, p["inf.ln_gain"], p["inf.ln_bias"])
        h = ad.dropout(h, self.dropout, rng)
        # no output bias: it would add one constant to every span, which
        # no tree distribution can see, so its gradient is exactly zero
        out = ad.matmul(h, p["inf.mlp_w2"])  # [P*B, 1]
        flat = ad.transpose(ad.reshape(out, (len(i), batch)))
        return SpanScores(t, flat)
