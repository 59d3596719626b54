"""The array-level cell pair, the LSTM layer over levels of pushes and
the tied word head against the op-by-op composition.

``nn.cell`` and ``nn.cell_vjp`` run one cell on plain arrays; ``lstm_cell``
and ``tree_cell`` below wrap that pair as one test node each, the LSTM step
and the stack model's tree cell.  The unfused compositions build the same
cells from single primitives; the fused forward must match them bit for
bit, and the hand-written vjps must pass ``grad_check``.  ``nn.lstm_layer``
runs every LSTM of the package, one level of pushes at a time, and must
match the unfused cell run push by push.  ``nn.tied_word_log_prob`` is one
primitive for the logits, log-softmax and pick, in blocks of at most
``nn.WORD_BLOCK`` logits.
"""

import numpy as np
import pytest

import urnng.autodiff as ad
from urnng import nn
from urnng.autodiff import Tape, Tensor, grad_check


def unfused_lstm_cell(x, state, w, b):
    h_prev, c_prev = state
    hidden = h_prev.shape[-1]
    z = nn.linear(ad.concat([x, h_prev], axis=1), w, b)
    i = ad.sigmoid(ad.narrow(z, 1, 0, hidden))
    f = ad.sigmoid(ad.narrow(z, 1, hidden, hidden))
    o = ad.sigmoid(ad.narrow(z, 1, 2 * hidden, hidden))
    g = ad.tanh(ad.narrow(z, 1, 3 * hidden, hidden))
    c = ad.add(ad.mul(f, c_prev), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def unfused_tree_cell(left, right, w, b):
    hl, cl = left
    hr, cr = right
    dim = hl.shape[-1]
    z = nn.linear(ad.concat([hl, hr], axis=1), w, b)
    i = ad.sigmoid(ad.narrow(z, 1, 0, dim))
    fl = ad.sigmoid(ad.narrow(z, 1, dim, dim))
    fr = ad.sigmoid(ad.narrow(z, 1, 2 * dim, dim))
    o = ad.sigmoid(ad.narrow(z, 1, 3 * dim, dim))
    g = ad.tanh(ad.narrow(z, 1, 4 * dim, dim))
    c = ad.add(ad.add(ad.mul(fl, cl), ad.mul(fr, cr)), ad.mul(i, g))
    h = ad.mul(o, ad.tanh(c))
    return h, c


def lstm_cell(x, state, w, b):
    """One LSTM step on the array-level cell pair: ``w`` is [(x_dim +
    hidden), 4 * hidden] with gate order i, f, o, g."""
    h_prev, c_prev = state
    split = x.shape[1]
    h, c, saved = nn.cell([x.data, h_prev.data], w.data, b.data,
                          (c_prev.data,))

    def vjp(grads):
        dx, dz, (dc,) = nn.cell_vjp(saved, w.data, *grads)
        return (dx[:, :split], dx[:, split:], dc, saved[0].T @ dz,
                dz.sum(axis=0))

    return ad._emit("lstm_cell", (h, c), (x, h_prev, c_prev, w, b), vjp)


def tree_cell(left, right, w, b):
    """Binary tree composition with one forget gate per child, on the
    array-level cell pair: ``w`` is [2 * dim, 5 * dim] with gate order i,
    f_left, f_right, o, g."""
    (hl, cl), (hr, cr) = left, right
    dim = hl.shape[1]
    h, c, saved = nn.cell([hl.data, hr.data], w.data, b.data,
                          (cl.data, cr.data))

    def vjp(grads):
        dx, dz, (dcl, dcr) = nn.cell_vjp(saved, w.data, *grads)
        return (dx[:, :dim], dcl, dx[:, dim:], dcr, saved[0].T @ dz,
                dz.sum(axis=0))

    return ad._emit("tree_cell", (h, c), (hl, cl, hr, cr, w, b), vjp)


def param(r, *shape, name="p", scale=1.0):
    return Tensor(scale * r.standard_normal(shape), requires_grad=True,
                  name=name)


def lstm_inputs(r, n, x_dim, hidden, scale=1.0):
    return (param(r, n, x_dim, name="x", scale=scale),
            (param(r, n, hidden, name="h", scale=scale),
             param(r, n, hidden, name="c", scale=scale)),
            param(r, x_dim + hidden, 4 * hidden, name="w", scale=scale),
            param(r, 4 * hidden, name="b", scale=scale))


def tree_inputs(r, n, dim, scale=1.0):
    return ((param(r, n, dim, name="hl", scale=scale),
             param(r, n, dim, name="cl", scale=scale)),
            (param(r, n, dim, name="hr", scale=scale),
             param(r, n, dim, name="cr", scale=scale)),
            param(r, 2 * dim, 5 * dim, name="w", scale=scale),
            param(r, 5 * dim, name="b", scale=scale))


SHAPES = [(1, 3, 2), (5, 7, 4), (33, 64, 64), (2, 650, 650)]


class TestForwardBitIdentity:
    @pytest.mark.parametrize("n,x_dim,hidden", SHAPES)
    @pytest.mark.parametrize("scale", [0.1, 3.0])
    def test_lstm_cell(self, n, x_dim, hidden, scale):
        x, state, w, b = lstm_inputs(np.random.default_rng(n), n, x_dim,
                                     hidden, scale)
        for got, want in zip(lstm_cell(x, state, w, b),
                             unfused_lstm_cell(x, state, w, b)):
            np.testing.assert_array_equal(got.data, want.data)

    @pytest.mark.parametrize("n,_,dim", SHAPES)
    @pytest.mark.parametrize("scale", [0.1, 3.0])
    def test_tree_cell(self, n, _, dim, scale):
        left, right, w, b = tree_inputs(np.random.default_rng(n), n, dim,
                                        scale)
        for got, want in zip(tree_cell(left, right, w, b),
                             unfused_tree_cell(left, right, w, b)):
            np.testing.assert_array_equal(got.data, want.data)

    def test_recurrence_stays_identical(self):
        r = np.random.default_rng(3)
        x_dim, hidden = 6, 5
        w, b = param(r, x_dim + hidden, 4 * hidden), param(r, 4 * hidden)
        xs = [Tensor(r.standard_normal((4, x_dim))) for _ in range(12)]
        fused = unfused = (Tensor(np.zeros((4, hidden))),) * 2
        for x in xs:
            fused = lstm_cell(x, fused, w, b)
            unfused = unfused_lstm_cell(x, unfused, w, b)
        np.testing.assert_array_equal(fused[0].data, unfused[0].data)
        np.testing.assert_array_equal(fused[1].data, unfused[1].data)


class TestGradients:
    def test_lstm_cell_grad_check(self):
        x, state, w, b = lstm_inputs(np.random.default_rng(4), 3, 2, 3)

        def f():
            h, c = lstm_cell(x, state, w, b)
            return ad.add(ad.sum_all(ad.mul(h, h)), ad.sum_all(ad.mul(c, c)))

        report = grad_check(f, [x, *state, w, b])
        assert report.passed, report

    def test_tree_cell_grad_check(self):
        left, right, w, b = tree_inputs(np.random.default_rng(5), 3, 2)

        def f():
            h, c = tree_cell(left, right, w, b)
            return ad.add(ad.sum_all(ad.mul(h, h)), ad.sum_all(ad.mul(c, c)))

        report = grad_check(f, [*left, *right, w, b])
        assert report.passed, report

    @pytest.mark.parametrize("used", [0, 1])
    def test_one_output_unused(self, used):
        # the output that receives no gradient is treated as zero
        x, state, w, b = lstm_inputs(np.random.default_rng(6), 2, 3, 2)

        def f():
            return ad.sum_all(lstm_cell(x, state, w, b)[used])

        report = grad_check(f, [x, *state, w, b])
        assert report.passed, report

    def test_gradients_match_unfused(self):
        left, right, w, b = tree_inputs(np.random.default_rng(7), 4, 3)
        leaves = [*left, *right, w, b]
        weights = [Tensor(np.random.default_rng(8).standard_normal((4, 3)))
                   for _ in range(2)]

        def grads(cell):
            with Tape() as tape:
                h, c = cell(left, right, w, b)
                root = ad.add(ad.sum_all(ad.mul(h, weights[0])),
                              ad.sum_all(ad.mul(c, weights[1])))
            g = tape.backward(root)
            return [g[p] for p in leaves]

        for got, want in zip(grads(tree_cell), grads(unfused_tree_cell)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestTape:
    def test_cell_records_one_node(self):
        # the concat, matmul, bias and gates are one primitive
        x, state, w, b = lstm_inputs(np.random.default_rng(9), 2, 3, 2)
        with Tape() as tape:
            h, c = lstm_cell(x, state, w, b)
        assert len(tape) == 1
        assert h.node is c.node

    def test_untaped_outputs_are_plain(self):
        x, state, w, b = lstm_inputs(np.random.default_rng(10), 2, 3, 2)
        h, c = lstm_cell(x, state, w, b)
        assert h.node is None and c.node is None


# push i lies on push below[i]; push 0 is the zero state.  A chain of four
# levels, and a forest whose first level has two pushes over push 0, its
# second three over push 1 and its third two over push 3
CHAIN = (np.array([0, 0, 1, 2, 3]), [[1], [2], [3], [4]])
FOREST = (np.array([0, 0, 1, 1, 1, 3, 3, 0]), [[1, 7], [2, 3, 4], [5, 6]])


def layer_inputs(seed, pushes, x_dim=3, hidden=4):
    r = np.random.default_rng(seed)
    return (param(r, pushes, x_dim, name="x"),
            param(r, x_dim + hidden, 4 * hidden, name="w"),
            param(r, 4 * hidden, name="b"))


class TestLstmLayer:
    @pytest.mark.parametrize("below,levels", [CHAIN, FOREST],
                             ids=["chain", "forest"])
    def test_matches_the_unfused_cell_level_by_level(self, below, levels):
        # each push reads the state of its own push beneath; the unfused
        # cell runs once per level, since a one-row product takes another
        # BLAS path than a several-row one and may round differently
        x, w, b = layer_inputs(17, len(below))
        h = nn.lstm_layer(x, below, levels, w, b).data
        hidden = h.shape[1]
        states = (Tensor(np.zeros((len(below), hidden))),) * 2
        for at in levels:
            new = unfused_lstm_cell(ad.take_rows(x, at),
                                    [ad.take_rows(s, below[at])
                                     for s in states], w, b)
            states = [Tensor(s.data.copy()) for s in states]
            for s, value in zip(states, new):
                s.data[at] = value.data
            np.testing.assert_array_equal(h[at], new[0].data)
        np.testing.assert_array_equal(h, states[0].data)

    @pytest.mark.parametrize("below,levels", [CHAIN, FOREST],
                             ids=["chain", "forest"])
    def test_grad_check(self, below, levels):
        x, w, b = layer_inputs(18, len(below))
        weights = Tensor(np.random.default_rng(19).standard_normal(
            (len(below), 4)))

        def f():
            h = nn.lstm_layer(x, below, levels, w, b)
            return ad.sum_all(ad.mul(h, weights))

        report = grad_check(f, [x, w, b])
        assert report.passed, report

    def test_records_one_node_and_a_second_backward_raises(self):
        # the sweep pops each level's record, so it runs once
        below, levels = FOREST
        x, w, b = layer_inputs(20, len(below))
        with Tape() as tape:
            root = ad.sum_all(nn.lstm_layer(x, below, levels, w, b))
        assert len(tape) == 2
        assert set(tape.backward(root)) == {x, w, b}
        with pytest.raises(RuntimeError, match="LSTM layer"):
            tape.backward(root)

    def test_non_finite_state_raises(self):
        below, levels = CHAIN
        x, w, b = layer_inputs(21, len(below))
        x.data[2, 0] = np.nan
        with pytest.raises(ad.NumericError, match="LSTM layer"):
            nn.lstm_layer(x, below, levels, w, b)


def unfused_word_head(x, emb, b, words):
    logits = nn.linear(x, ad.transpose(emb), b)
    return ad.pick_per_row(ad.log_softmax(logits, axis=1), words)


def word_head_inputs(seed, rows=7, vocab=11, dim=5):
    r = np.random.default_rng(seed)
    return (param(r, rows, dim, name="x"), param(r, vocab, dim, name="emb"),
            param(r, vocab, name="b"), r.integers(0, vocab, size=rows))


class TestTiedWordHead:
    @pytest.mark.parametrize("block", [None, 2 * 11, 3 * 11])
    def test_matches_unfused_chain(self, monkeypatch, block):
        # values to the bit, taped or not, in one block or several
        if block is not None:
            monkeypatch.setattr(nn, "WORD_BLOCK", block)
        x, emb, b, words = word_head_inputs(11)
        want = unfused_word_head(x, emb, b, words).data
        np.testing.assert_array_equal(
            nn.tied_word_log_prob(x, emb, b, words).data, want)
        weights = Tensor(np.random.default_rng(12).standard_normal(7))
        grads = []
        for head in (nn.tied_word_log_prob, unfused_word_head):
            with Tape() as tape:
                out = head(x, emb, b, words)
                root = ad.sum_all(ad.mul(out, weights))
            if head is nn.tied_word_log_prob:
                np.testing.assert_array_equal(out.data, want)
            g = tape.backward(root)
            grads.append([g[p] for p in (x, emb, b)])
        for got, expected in zip(*grads):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("block", [None, 2 * 11])
    def test_grad_check(self, monkeypatch, block):
        if block is not None:   # a multi-block backward: four blocks
            monkeypatch.setattr(nn, "WORD_BLOCK", block)
        x, emb, b, words = word_head_inputs(13)
        weights = Tensor(np.random.default_rng(14).standard_normal(7))

        def f():
            out = nn.tied_word_log_prob(x, emb, b, words)
            return ad.sum_all(ad.mul(out, weights))

        report = grad_check(f, [x, emb, b])
        assert report.passed, report

    def test_records_one_node_and_a_second_backward_raises(self):
        # the backward turns the kept log-softmax into the gradient in place
        x, emb, b, words = word_head_inputs(15)
        with Tape() as tape:
            root = ad.sum_all(nn.tied_word_log_prob(x, emb, b, words))
        assert len(tape) == 2
        assert set(tape.backward(root)) == {x, emb, b}
        with pytest.raises(RuntimeError, match="tied word head"):
            tape.backward(root)

    def test_rejects_words_outside_the_vocabulary(self):
        x, emb, b, words = word_head_inputs(16)
        for bad in (np.full(7, 11), np.full(7, -1), words[:3]):
            with pytest.raises(ad.ShapeError):
                nn.tied_word_log_prob(x, emb, b, bad)
