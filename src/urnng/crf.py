"""Chart-structured distribution over binary trees, with its neural scorer.

A sentence of length T gets one real-valued score per span ``(i, j)``; a
tree's unnormalized log-weight is the sum of scores over its spans (singleton
spans included: they appear in every tree, so they shift the partition
function but leave the distribution unchanged).  Everything downstream of the
scores is an O(T^3) chart filled one width at a time.  The width-w chart is a
diagonal laid out start-major, a vector of length (T-w+1)·B holding span
(i, i+w-1) of batch row b at (i-1)·B + b.  :func:`_fill_chart` is the one
recursion: per width it gathers the children of every span at every split
point into one [w-1, (T-w+1)·B] array, which a semiring ``combine`` reduces:

* :func:`inside`, the log partition function (log-sum-exp), which keeps the
  split log-weights that :func:`sample_trees` draws exact samples from,
* :func:`tree_entropy`, exact entropy (expectation semiring),
* :func:`viterbi`, the argmax tree (max).

:class:`InferenceNetwork` produces the scores from a bidirectional LSTM over
the sentence; the chart functions accept scores from any source, which is how
the oracle cross-checks drive them with raw tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .treebank import DataError, TreeRepr


@lru_cache(maxsize=None)
def span_order(length: int) -> tuple[tuple[int, int], ...]:
    """Canonical enumeration of all spans (i <= j), 1-based, lexicographic."""
    return tuple((i, j) for i in range(1, length + 1)
                 for j in range(i, length + 1))


@lru_cache(maxsize=None)
def _span_index(length: int) -> dict[tuple[int, int], int]:
    return {span: idx for idx, span in enumerate(span_order(length))}


def span_indicator(trees, length: int) -> np.ndarray:
    """0/1 matrix [n_trees, n_spans] marking each tree's spans."""
    index = _span_index(length)
    out = np.zeros((len(trees), len(index)), dtype=np.float64)
    for row, tree in enumerate(trees):
        if tree.length != length:
            raise ValueError(
                f"tree of length {tree.length} in a length-{length} batch")
        for span in tree.spans:
            out[row, index[span]] = 1.0
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
        length = table.shape[0]
        row = np.array([table[i - 1, j - 1] for (i, j) in span_order(length)])
        return cls(length, Tensor(row[None, :], requires_grad=requires_grad,
                                  name="span_scores"))

    def diagonals(self) -> list[Tensor | None]:
        """Scores by width: entry w is the start-major [(T-w+1)·B] diagonal."""
        t, batch = self.length, self.batch
        column = ad.reshape(ad.transpose(self.flat), (self.flat.data.size,))
        out: list[Tensor | None] = [None]
        for w in range(1, t + 1):
            s = np.arange(t - w + 1)  # i - 1 for every start i
            idx = s * t - s * (s - 1) // 2 + w - 1  # span_order of (i, i+w-1)
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

    ``combine(w, pairs)`` receives the left-plus-right child values of every
    width-w span at every split point, shape [w-1, (T-w+1)·B], and returns
    the width-w diagonal.
    """
    diags = [None, first]
    for w in range(2, length + 1):
        n = (length - w + 1) * batch
        left = ad.stack0([ad.narrow(diags[m], 0, 0, n) for m in range(1, w)])
        right = ad.stack0([ad.narrow(diags[w - m], 0, m * batch, n)
                           for m in range(1, w)])
        diags.append(combine(w, ad.add(left, right)))
    return diags[length]


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


def _build_tree(length: int, split) -> TreeRepr:
    """The tree whose span (i, j) splits at ``split(i, j)``.

    Internal spans are visited top-down, right child first, which is the
    order in which :func:`sample_trees` draws their split points.
    """
    spans: set[tuple[int, int]] = set()
    agenda = [(1, length)]
    while agenda:
        i, j = agenda.pop()
        spans.add((i, j))
        if i < j:
            k = split(i, j)
            agenda.append((i, k))
            agenda.append((k + 1, j))
    return TreeRepr(length, frozenset(spans))


def sample_trees(chart: Chart, rng: np.random.Generator,
                 rows) -> tuple[list[TreeRepr], np.ndarray]:
    """Draw tree s exactly from chart batch row ``rows[s]``, all in lockstep.

    Returns the distinct trees in order of first draw and, per draw, the
    index of its tree.  Every tree has T-1 internal spans and takes one
    uniform per internal span in :func:`_build_tree`'s visiting order, so
    the draws and the generator's end state equal those of drawing the
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
    # each draw's agenda of spans still to split, popped from the top
    lo, hi = np.ones((n, t), np.int64), np.full((n, t), t, np.int64)
    top = np.ones(n, np.int64)
    splits = np.empty((n, t - 1), np.int64)
    draw = np.arange(n)
    for d in range(t - 1):
        top -= 1
        i, j = lo[draw, top], hi[draw, top]
        width = j - i + 1
        for w in np.unique(width):
            m = np.flatnonzero(width == w)
            cdf = cdfs[w][(i[m] - 1) * batch + rows[m]]
            # searchsorted(side="right") on each non-decreasing row
            splits[m, d] = i[m] + (cdf <= u[m, d, None]).sum(axis=1)
        k = splits[:, d]
        lo[draw, top], hi[draw, top] = i, k
        top += k > i
        lo[draw, top], hi[draw, top] = k + 1, j
        top += j > k + 1
    _, first, which = np.unique(splits, axis=0, return_index=True,
                                return_inverse=True)
    order = np.argsort(first)  # distinct split rows by first draw
    trees = []
    for s in first[order]:
        points = iter(splits[s].tolist())
        trees.append(_build_tree(t, lambda i, j: next(points)))
    return trees, np.argsort(order)[which.reshape(-1)]


def sample_tree(chart: Chart, rng: np.random.Generator,
                b: int = 0) -> tuple[TreeRepr, float]:
    """Draw one tree exactly from the chart distribution; returns (tree, log q)."""
    (tree,), _ = sample_trees(chart, rng, [b])
    return tree, tree_log_prob(chart, tree, b)


def tree_log_prob(chart: Chart, tree: TreeRepr, b: int = 0) -> float:
    """Exact log q(tree) under the chart's score table for batch row ``b``."""
    if tree.length != chart.length:
        raise ValueError(
            f"tree length {tree.length} vs chart length {chart.length}")
    index = _span_index(chart.length)
    row = chart.scores.flat.data[b]
    total = sum(row[index[span]] for span in tree.spans)
    return float(total - chart.log_z.data[b])


def tree_log_prob_batch(chart: Chart, trees: list[TreeRepr],
                        rows: np.ndarray) -> Tensor:
    """Differentiable log q for many trees at once, shape [len(trees)].

    ``rows[r]`` names the chart batch row that scores ``trees[r]``; the same
    row may appear many times (e.g. K samples per sentence).
    """
    rows = np.asarray(rows, dtype=np.int64)
    if len(trees) != rows.shape[0]:
        raise ValueError(f"{len(trees)} trees vs {rows.shape[0]} rows")
    picks = Tensor(span_indicator(trees, chart.length))
    scored = ad.sum_axis(ad.mul(ad.take_rows(chart.scores.flat, rows),
                                picks), 1)
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
    back: list[np.ndarray | None] = [None, None]

    def combine(w: int, pairs: Tensor) -> Tensor:
        # argmax over the reversed split axis, so the largest split wins ties
        back.append(w - 2 - np.argmax(pairs.data[::-1], axis=0))
        return Tensor(diags[w].data + pairs.data.max(axis=0))

    best = _fill_chart(diags[1], t, 1, combine)
    tree = _build_tree(t, lambda i, j: i + int(back[j - i + 1][i - 1]))
    return tree, float(best.data[0])


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
        p = {}
        p["inf.boundary"] = nn.make_param(rng, "inf.boundary", (2, word_dim),
                                          init_scale)
        p["inf.position"] = nn.make_param(rng, "inf.position",
                                          (max_len + 2, word_dim), init_scale)
        p["inf.fwd_w"] = nn.make_param(
            rng, "inf.fwd_w", (word_dim + hidden_dim, 4 * hidden_dim),
            init_scale)
        p["inf.fwd_b"] = nn.make_param(rng, "inf.fwd_b", (4 * hidden_dim,),
                                       init_scale)
        p["inf.bwd_w"] = nn.make_param(
            rng, "inf.bwd_w", (word_dim + hidden_dim, 4 * hidden_dim),
            init_scale)
        p["inf.bwd_b"] = nn.make_param(rng, "inf.bwd_b", (4 * hidden_dim,),
                                       init_scale)
        p["inf.mlp_w1"] = nn.make_param(rng, "inf.mlp_w1",
                                        (2 * hidden_dim, mlp_hidden),
                                        init_scale)
        p["inf.mlp_b1"] = nn.make_param(rng, "inf.mlp_b1", (mlp_hidden,),
                                        init_scale)
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
        hidden = self.hidden_dim

        # Inputs at padded positions 0..T+1: boundary, words, boundary, each
        # with its learned position embedding added.
        inputs: list[Tensor] = []
        for pos in range(t + 2):
            if pos == 0:
                x = ad.take_rows(p["inf.boundary"], np.zeros(batch, np.int64))
            elif pos == t + 1:
                x = ad.take_rows(p["inf.boundary"], np.ones(batch, np.int64))
            else:
                x = ad.take_rows(self.embedding, ids[:, pos - 1])
            pos_rows = ad.take_rows(p["inf.position"],
                                    np.full(batch, pos, np.int64))
            inputs.append(ad.add(x, pos_rows))

        zero = nn.zeros((batch, hidden))
        fwd: list[Tensor] = []
        state = (zero, zero)
        for pos in range(t + 2):
            state = nn.lstm_cell(inputs[pos], state, p["inf.fwd_w"],
                                 p["inf.fwd_b"])
            fwd.append(state[0])
        bwd_rev: list[Tensor] = []
        state = (zero, zero)
        for pos in range(t + 1, -1, -1):
            state = nn.lstm_cell(inputs[pos], state, p["inf.bwd_w"],
                                 p["inf.bwd_b"])
            bwd_rev.append(state[0])
        bwd = bwd_rev[::-1]

        feats = []
        for (i, j) in span_order(t):
            fdiff = ad.sub(fwd[j + 1], fwd[i])
            bdiff = ad.sub(bwd[i - 1], bwd[j])
            feats.append(ad.concat([fdiff, bdiff], axis=1))
        sheet = ad.concat(feats, axis=0)  # [P*B, 2H], span-major
        h = ad.relu(nn.linear(sheet, p["inf.mlp_w1"], p["inf.mlp_b1"]))
        h = ad.layer_norm(h, p["inf.ln_gain"], p["inf.ln_bias"])
        h = ad.dropout(h, self.dropout, rng)
        # no output bias: it would add one constant to every span, which
        # no tree distribution can see, so its gradient is exactly zero
        out = ad.matmul(h, p["inf.mlp_w2"])  # [P*B, 1]
        n_spans = len(span_order(t))
        flat = ad.transpose(ad.reshape(out, (n_spans, batch)))
        return SpanScores(t, flat)
