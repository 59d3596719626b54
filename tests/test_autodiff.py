"""Gradient and contract tests for the autodiff core.

Every primitive gets a central-difference check at step 1e-5 / tolerance 1e-4
on small random operands, plus targeted tests for the tape, error paths, and
numeric guards.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import urnng.autodiff as ad
from urnng import nn
from urnng.autodiff import (GradCheckReport, NumericError, ShapeError, Tape,
                            Tensor, grad_check)
from urnng.rnng import GenerativeModel
from urnng.treebank import random_tree, tree_to_actions
from test_nn import lstm_cell


def rng():
    return np.random.default_rng(12345)


def param(r, *shape, name="p"):
    return Tensor(r.standard_normal(shape), requires_grad=True, name=name)


def assert_grads_ok(f, params, tolerance=1e-4):
    report = grad_check(f, params, step=1e-5, tolerance=tolerance)
    assert report.passed, (
        f"max rel err {report.max_rel_err:.3e} at {report.worst_param}"
        f"{report.worst_index}")


class TestPrimitiveGradients:
    def test_add_sub_mul(self):
        r = rng()
        a, b = param(r, 3, 4, name="a"), param(r, 3, 4, name="b")
        assert_grads_ok(lambda: ad.sum_all(ad.add(a, b)), [a, b])
        assert_grads_ok(lambda: ad.sum_all(ad.sub(a, b)), [a, b])
        assert_grads_ok(lambda: ad.sum_all(ad.mul(a, b)), [a, b])

    def test_scale_add_const(self):
        r = rng()
        x = param(r, 5)
        assert_grads_ok(lambda: ad.sum_all(ad.scale(x, -2.5)), [x])
        assert_grads_ok(lambda: ad.sum_all(ad.add_const(x, 3.0)), [x])

    def test_add_row_and_broadcast(self):
        r = rng()
        m, v = param(r, 4, 3, name="m"), param(r, 3, name="v")
        s = param(r, 1, name="s")
        assert_grads_ok(lambda: ad.sum_all(ad.add_row(m, v)), [m, v])
        assert_grads_ok(lambda: ad.sum_all(ad.add_broadcast(m, s)), [m, s])

    def test_matmul_all_rank_combinations(self):
        r = rng()
        a, b = param(r, 3, 4, name="a"), param(r, 4, 2, name="b")
        v, w = param(r, 4, name="v"), param(r, 3, name="w")
        assert_grads_ok(lambda: ad.sum_all(ad.matmul(a, b)), [a, b])
        assert_grads_ok(lambda: ad.sum_all(ad.matmul(a, v)), [a, v])
        assert_grads_ok(lambda: ad.sum_all(ad.matmul(w, a)), [w, a])

    def test_transpose_reshape(self):
        r = rng()
        x = param(r, 3, 4)
        assert_grads_ok(
            lambda: ad.sum_all(ad.mul(ad.transpose(x), ad.transpose(x))), [x])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.reshape(x, (2, 6)))), [x])

    def test_transpose_is_a_view(self):
        # the tied word head transposes the whole embedding table per pass
        x = param(rng(), 3, 4)
        assert np.shares_memory(ad.transpose(x).data, x.data)

    def test_concat_stack_narrow(self):
        r = rng()
        a, b = param(r, 2, 3, name="a"), param(r, 2, 3, name="b")
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.concat([a, b], axis=0))), [a, b])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.concat([a, b], axis=1))), [a, b])
        assert_grads_ok(
            lambda: ad.sum_all(ad.tanh(ad.stack0([a, b]))), [a, b])
        assert_grads_ok(
            lambda: ad.sum_all(ad.narrow(ad.sigmoid(a), 1, 1, 2)), [a])

    def test_gathers(self):
        r = rng()
        table = param(r, 5, 3, name="table")
        vec = param(r, 6, name="vec")
        idx = np.array([0, 2, 2, 4])  # duplicate row must accumulate
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.take_rows(table, idx))), [table])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.take_rows(vec, idx))), [vec])
        cols = np.array([2, 0, 1, 1, 2])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.pick_per_row(table, cols))), [table])

    def test_reductions(self):
        r = rng()
        x = param(r, 4, 3)
        assert_grads_ok(lambda: ad.mul(ad.sum_all(x), ad.sum_all(x)), [x])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.sum_axis(x, 0))), [x])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.sum_axis(x, 1))), [x])

    def test_nonlinearities(self):
        r = rng()
        x = param(r, 3, 5)
        for op in (ad.sigmoid, ad.tanh, ad.exp, ad.softplus):
            assert_grads_ok(lambda op=op: ad.sum_all(op(x)), [x])
        # relu kink: keep inputs away from 0 so differences are clean
        y = Tensor(r.standard_normal((3, 5)) + np.sign(r.standard_normal((3, 5))),
                   requires_grad=True, name="y")
        assert_grads_ok(lambda: ad.sum_all(ad.relu(y)), [y])
        z = Tensor(np.abs(r.standard_normal((4,))) + 0.5,
                   requires_grad=True, name="z")
        assert_grads_ok(lambda: ad.sum_all(ad.log(z)), [z])

    def test_softmax_family(self):
        r = rng()
        x = param(r, 4, 6)
        w = Tensor(r.standard_normal((4, 6)))
        assert_grads_ok(
            lambda: ad.sum_all(ad.mul(ad.softmax(x, axis=1), w)), [x])
        assert_grads_ok(
            lambda: ad.sum_all(ad.mul(ad.log_softmax(x, axis=1), w)), [x])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.logsumexp(x, axis=0))), [x])
        assert_grads_ok(
            lambda: ad.sum_all(ad.exp(ad.logsumexp(x, axis=1))), [x])

    def test_layer_norm(self):
        r = rng()
        x = param(r, 5, 7, name="x")
        gain = Tensor(1.0 + 0.1 * r.standard_normal(7), requires_grad=True,
                      name="gain")
        bias = param(r, 7, name="bias")
        assert_grads_ok(
            lambda: ad.sum_all(ad.sigmoid(ad.layer_norm(x, gain, bias))),
            [x, gain, bias])

    def test_dropout_gradient_with_fixed_mask(self):
        r = rng()
        x = param(r, 6, 6)

        def f():
            # fresh generator with a fixed seed -> identical mask every call
            return ad.sum_all(ad.dropout(x, 0.5, np.random.default_rng(7)))

        assert_grads_ok(f, [x])


class TestFunctionalIdentities:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(rng().standard_normal((5, 9)) * 3)
        s = ad.softmax(x, axis=1).data
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(rng().standard_normal((5, 9)))
        np.testing.assert_allclose(ad.log_softmax(x, axis=1).data,
                                   np.log(ad.softmax(x, axis=1).data),
                                   atol=1e-12)

    def test_logsumexp_shift_invariance(self):
        x = rng().standard_normal((4, 7))
        a = ad.logsumexp(Tensor(x), axis=1).data
        b = ad.logsumexp(Tensor(x + 100.0), axis=1).data - 100.0
        np.testing.assert_allclose(a, b, atol=1e-9)
        # large magnitudes must not overflow
        big = ad.logsumexp(Tensor(x + 1e4), axis=1).data
        assert np.all(np.isfinite(big))

    def test_sigmoid_softplus_stable_in_tails(self):
        x = Tensor(np.array([-745.0, -30.0, 0.0, 30.0, 745.0]))
        assert np.all(np.isfinite(ad.sigmoid(x).data))
        assert np.all(np.isfinite(ad.softplus(x).data))
        np.testing.assert_allclose(ad.sigmoid(x).data[0], 0.0, atol=1e-300)
        np.testing.assert_allclose(ad.sigmoid(x).data[4], 1.0, atol=1e-15)

    def test_dropout_eval_mode_is_identity(self):
        x = Tensor(rng().standard_normal((3, 3)))
        assert ad.dropout(x, 0.5, None) is x
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_train_mode_scales_kept_entries(self):
        x = Tensor(np.ones((100, 100)))
        out = ad.dropout(x, 0.25, np.random.default_rng(3)).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert abs(out.mean() - 1.0) < 0.02


class TestTapeSemantics:
    def test_backward_returns_leaf_map(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.mul(a, b))
        grads = tape.backward(out)
        np.testing.assert_allclose(grads[a], [3.0, 4.0])
        np.testing.assert_allclose(grads[b], [1.0, 2.0])

    def test_constants_are_absent_from_gradient_map(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        c = Tensor([5.0, 6.0])
        with Tape() as tape:
            out = ad.sum_all(ad.mul(a, c))
        grads = tape.backward(out)
        assert a in grads and c not in grads

    def test_backward_forms_only_the_leaves_asked_for(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        table = Tensor(np.ones((3, 2)), requires_grad=True)
        with Tape() as tape:
            rows = ad.sum_axis(ad.take_rows(table, [2, 0]), 1)
            out = ad.sum_all(ad.mul(ad.mul(a, b), rows))
        want = tape.backward(out)
        got = tape.backward(out, [a])
        assert set(got) == {a}
        np.testing.assert_array_equal(got[a], want[a])
        assert set(tape.backward(out, (b, table))) == {b, table}

    @pytest.mark.parametrize("order", ["arrives first", "arrives last",
                                       "alone"])
    def test_a_running_sum_from_a_vjp_is_adopted_or_joined(self, order):
        # a vjp may hand back a _Sum it formed itself (the stack sweep does):
        # as the first partial it becomes the entry, else it joins the
        # entry, dense or factored, to the same gradient as matmul gives
        r = rng()
        w = param(r, 3, 4, name="w")
        x = Tensor(r.standard_normal((5, 3)))

        def summed(t):
            def vjp(g):
                total = ad._Sum(None, t.shape)
                total.factors.append(ad._Factors(x.data, None, g))
                return (total,)
            return ad._emit("summed", x.data @ t.data, (t,), vjp)

        # the backward meets the nodes in reverse order of recording
        heads = {"arrives last": (summed, ad.matmul), "alone": (summed,),
                 "arrives first": (ad.matmul, summed)}[order]
        with Tape() as tape:
            outs = [head(w) if head is summed else head(x, w)
                    for head in heads]
            out = ad.sum_all(ad.concat([ad.tanh(o) for o in outs]))
        got = tape.backward(out)[w]
        g = 1.0 - np.tanh(x.data @ w.data) ** 2
        np.testing.assert_allclose(got, len(heads) * (x.data.T @ g),
                                   rtol=1e-12)

    def test_reused_leaf_accumulates(self):
        a = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.sum_all(ad.add(ad.mul(a, a), a))  # a^2 + a -> 2a + 1
        np.testing.assert_allclose(tape.backward(out)[a], [5.0])

    def test_two_roots_same_tape_independent(self):
        a = Tensor([1.5], requires_grad=True)
        with Tape() as tape:
            u = ad.sum_all(ad.mul(a, a))
            v = ad.sum_all(ad.scale(a, 3.0))
        np.testing.assert_allclose(tape.backward(u)[a], [3.0])
        np.testing.assert_allclose(tape.backward(v)[a], [3.0])
        np.testing.assert_allclose(tape.backward(u)[a], [3.0])

    def test_backward_rejects_non_scalar_root(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.mul(a, a)
        with pytest.raises(ShapeError, match="scalar"):
            tape.backward(out)

    def test_backward_rejects_foreign_root(self):
        a = Tensor([1.0], requires_grad=True)
        with Tape():
            out = ad.sum_all(a)
        other = Tape()
        with other:
            ad.sum_all(a)
        with pytest.raises(ValueError, match="not produced on this tape"):
            other.backward(out)

    def test_tape_and_its_arrays_freed_without_cyclic_gc(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                y = ad.exp(ad.scale(a, 2.0))  # exp's vjp keeps its output
                root = ad.sum_all(y)
            tape.backward(root)
            probes = weakref.ref(tape), weakref.ref(y.data)
            del tape, y, root
            assert [probe() for probe in probes] == [None, None]
        finally:
            gc.enable()

    def test_gradients_ignore_outputs_that_died(self):
        # an output nothing consumes dies at once; later tensors reuse its id
        a = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            total = ad.sum_all(a)
            for _ in range(50):
                ad.scale(a, 3.0)
                total = ad.add(total, ad.sum_all(ad.mul(a, a)))
        np.testing.assert_allclose(tape.backward(total)[a], 1 + 100 * a.data)

    def test_untaped_ops_do_not_record(self):
        a = Tensor([1.0], requires_grad=True)
        out = ad.sum_all(ad.mul(a, a))
        assert out.node is None and not out.requires_grad

    def test_no_grad_inputs_do_not_record(self):
        c = Tensor([1.0, 2.0])
        with Tape() as tape:
            ad.sum_all(ad.mul(c, c))
        assert len(tape) == 0

    def test_factored_partials_match_explicit_dense_sum(self):
        # Tied-head pattern: E is gathered by take_rows and multiplied as
        # transpose(E), so E receives dense, row-scatter and (through the
        # transpose) outer-product partials.  Enough steps that the factors
        # outgrow their dense gradient and are folded into it part-way.
        r = rng()
        vocab, dim, steps = 40, 6, 12
        emb = param(r, vocab, dim, name="E")
        direct = r.standard_normal((vocab, dim))
        ids = [r.integers(0, vocab, size=3) for _ in range(steps)]
        heads = [r.standard_normal((3, vocab)) for _ in range(steps)]
        with Tape() as tape:
            emb_t = ad.transpose(emb)
            total = ad.sum_all(ad.mul(emb, Tensor(direct)))
            for rows, c in zip(ids, heads):
                logits = ad.matmul(ad.take_rows(emb, rows), emb_t)
                total = ad.add(total, ad.sum_all(ad.mul(logits, Tensor(c))))
        got = tape.backward(total)[emb]

        e = emb.data
        want = direct.copy()
        for rows, c in zip(ids, heads):
            want += c.T @ e[rows]
            scattered = c @ e
            for j, row in enumerate(rows):
                want[row] += scattered[j]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("shape", [(7,), (7, 3)])
    def test_duplicate_rows_across_gathers_accumulate(self, shape):
        r = rng()
        table = param(r, *shape)
        ids = [np.array([2, 2, 5]), np.array([5, 0, 2, 2]), np.array([6])]
        weights = [r.standard_normal((len(i),) + shape[1:]) for i in ids]
        with Tape() as tape:
            total = ad.sum_all(ad.concat(
                [ad.mul(ad.take_rows(table, i), Tensor(w))
                 for i, w in zip(ids, weights)], axis=0))
        want = np.zeros(shape)
        for rows, w in zip(ids, weights):
            for j, row in enumerate(rows):
                want[row] += w[j]
        np.testing.assert_allclose(tape.backward(total)[table], want,
                                   rtol=1e-12, atol=0)

    def test_shared_weights_recurrent_lstm_grad_check(self):
        r = rng()
        x_dim, hidden = 2, 3
        w = param(r, x_dim + hidden, 4 * hidden, name="w")
        b = param(r, 4 * hidden, name="b")
        xs = [param(r, 2, x_dim, name=f"x{t}") for t in range(3)]

        def f():
            state = (Tensor(np.zeros((2, hidden))),) * 2
            for x in xs:
                state = lstm_cell(x, state, w, b)
            return ad.sum_all(ad.mul(state[0], state[0]))

        assert_grads_ok(f, [w, b] + xs)

    def test_shared_weight_backward_memory_stays_below_twice_the_weight(self):
        # Per-step weight gradients must not each be materialised and summed
        # one step at a time: that peaks near three weight-sized arrays.
        r = rng()
        w = param(r, 256, 4096, name="w")
        xs = [Tensor(r.standard_normal((4, 256))) for _ in range(16)]
        with Tape() as tape:
            total = ad.sum_all(ad.concat([ad.matmul(x, w) for x in xs], 0))
        tracemalloc.start()
        try:
            grads = tape.backward(total)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(
            grads[w], sum(x.data.sum(axis=0) for x in xs)[:, None]
            * np.ones((1, 4096)), rtol=1e-12, atol=1e-12)
        assert peak < 2 * w.data.nbytes, peak / w.data.nbytes

    def test_long_recurrence_backward_memory_does_not_grow_with_steps(self):
        # 400 steps hold 400 per-step factor pairs unless they are folded
        # into the dense sum once they outgrow it; folding needs at most the
        # dense sum, the product and one copy of the factors (each <= W).
        r = rng()
        w = Tensor(0.05 * r.standard_normal((256, 256)), requires_grad=True)
        h = Tensor(r.standard_normal((4, 256)))
        with Tape() as tape:
            for _ in range(400):
                h = ad.tanh(ad.matmul(h, w))
            total = ad.sum_all(h)
        tracemalloc.start()
        try:
            tape.backward(total)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * w.data.nbytes, peak / w.data.nbytes


def held_after(forward):
    """Bytes still allocated once ``forward()`` has run on a new tape;
    ``forward`` returns the root, the only Tensor the caller keeps."""
    tracemalloc.start()
    try:
        with Tape() as tape:
            root = forward()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, tape, root


class TestTapeKeepsWhatBackwardReads:
    def test_linear_chain_keeps_one_array_per_layer(self):
        # Per layer, tanh's vjp keeps its output, which the next matmul's
        # vjp reads too; the matmul and add_row outputs are read by no vjp
        # and must not outlive the forward (keeping them gives 3 per layer).
        r = rng()
        w = Tensor(0.05 * r.standard_normal((256, 256)), requires_grad=True)
        b = Tensor(np.zeros(256), requires_grad=True)
        x = Tensor(r.standard_normal((64, 256)))
        layers = 20

        def forward():
            h = x
            for _ in range(layers):
                h = ad.tanh(nn.linear(h, w, b))
            return ad.sum_all(h)

        held, tape, root = held_after(forward)
        assert held < 1.5 * layers * x.data.nbytes, held / x.data.nbytes
        assert set(tape.backward(root)) == {w, b}

    def test_taped_joint_holds_a_bounded_tape(self):
        # dim 64, V=200, T=16, 8 rows with dropout, in [rows, dim] arrays
        # per action step: keeping every input of every node holds 81 of
        # them, keeping what the vjps read holds 42.
        r = rng()
        t_len, n, dim = 16, 8, 64
        model = GenerativeModel(200, dim=dim, layers=2, dropout=0.5,
                                rng=np.random.default_rng(1))
        ids = r.integers(2, 200, size=(n, t_len))
        acts = np.array([tree_to_actions(random_tree(t_len, r))
                         for _ in range(n)])

        def forward():
            term, act = model.joint_log_likelihood_batch(
                ids, acts, rng=np.random.default_rng(2))
            return ad.sum_all(ad.add(term, act))

        forward()  # first-call allocations are not the tape's
        held, tape, root = held_after(forward)
        step_bytes = (2 * t_len - 1) * n * dim * 8
        assert held < 60 * step_bytes, held / step_bytes
        assert model.params["emb"] in tape.backward(root)

    @pytest.mark.parametrize("vocab, dim, t_len", [(4000, 32, 6),
                                                   (50, 256, 12)])
    def test_taped_joint_backward_peak_stays_near_its_gradients(
            self, vocab, dim, t_len):
        # Each gradient is formed once: the embedding's as one [V, dim]
        # GEMM of the word head's factors and the stack weights' adopted
        # from the sweep.  Forming the head's dense [rows, V] pick and
        # log-softmax gradients with their copies and the table's transposed
        # copy peaks above 4x at the large vocabulary; copying each weight
        # gradient the sweep formed peaks above 2x at the wide state.
        r = rng()
        n = 8
        model = GenerativeModel(vocab, dim=dim, layers=2, dropout=0.5,
                                rng=np.random.default_rng(1))
        ids = r.integers(2, vocab, size=(n, t_len))
        acts = np.array([tree_to_actions(random_tree(t_len, r))
                         for _ in range(n)])
        with Tape() as tape:
            term, act = model.joint_log_likelihood_batch(
                ids, acts, rng=np.random.default_rng(2))
            root = ad.sum_all(ad.add(term, act))
        tracemalloc.start()
        try:
            grads = tape.backward(root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(grads) == set(model.params.values())
        formed = sum(g.nbytes for g in grads.values())
        assert peak < 1.5 * formed, peak / formed

    def test_dropout_keeps_a_boolean_pattern(self):
        # the node keeps one byte per entry, not a float64 mask, and its
        # values and gradients are those of the float mask to the bit
        r = rng()
        x = param(r, 300, 200, name="x")
        weights = Tensor(r.standard_normal((300, 200)))
        rate, keep = 0.3, 0.7
        mask = (np.random.default_rng(8).random(x.shape) < keep) / keep

        def forward():
            return ad.dropout(x, rate, np.random.default_rng(8))

        held, tape, out = held_after(forward)
        assert held < out.data.nbytes + 2 * x.data.size, held / x.data.size
        np.testing.assert_array_equal(out.data, x.data * mask)
        with tape:
            root = ad.sum_all(ad.mul(out, weights))
        np.testing.assert_array_equal(tape.backward(root)[x],
                                      weights.data * mask)

    def test_gradients_unchanged_when_dead_outputs_ids_are_reused(self):
        # Nodes keep no intermediate Tensor, so those die during the forward
        # and later tensors on the same tape reuse their ids.
        def grads(disturb):
            r = rng()
            w, b = param(r, 8, 16, name="w"), param(r, 16, name="b")
            x = Tensor(r.standard_normal((3, 4)))
            with Tape() as tape:
                state = (Tensor(np.zeros((3, 4))),) * 2
                steps = []
                for _ in range(5):
                    state = lstm_cell(x, state, w, b)
                    steps.append(ad.reshape(ad.sum_all(ad.tanh(state[1])),
                                            (1,)))
                root = ad.sum_all(ad.mul(ad.concat(steps), ad.concat(steps)))
                if disturb:
                    dead = {id(t) for t in (*steps, *state)}
                    del state, steps
                    fresh = [ad.scale(w, 2.0) for _ in range(200)]
                    assert dead & {id(t) for t in fresh}
            got = tape.backward(root)
            return got[w], got[b]

        for undisturbed, disturbed in zip(grads(False), grads(True)):
            assert np.array_equal(undisturbed, disturbed)


class TestErrorPaths:
    def test_shape_errors_name_the_primitive(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="add"):
            ad.add(a, b)
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(a, a)
        with pytest.raises(ShapeError, match="take_rows"):
            ad.take_rows(a, [0, 5])
        with pytest.raises(ShapeError, match="narrow"):
            ad.narrow(a, 1, 2, 5)
        with pytest.raises(ShapeError, match="reshape"):
            ad.reshape(a, (7,))

    def test_non_finite_output_raises(self):
        x = Tensor([800.0])
        with pytest.raises(NumericError, match="exp"):
            ad.exp(x)
        with pytest.raises(NumericError, match="log"):
            ad.log(Tensor([0.0]))

    def test_finite_check_can_be_disabled(self):
        x = Tensor([800.0])
        prev = ad.set_check_finite(False)
        try:
            assert np.isinf(ad.exp(x).data[0])
        finally:
            ad.set_check_finite(prev)
        with pytest.raises(NumericError):
            ad.exp(x)

    def test_grad_check_flags_nondeterminism(self):
        x = Tensor([1.0], requires_grad=True)
        state = np.random.default_rng(0)

        def noisy():
            return ad.sum_all(ad.scale(x, float(state.random())))

        with pytest.raises(NumericError, match="deterministic"):
            grad_check(noisy, [x])

    def test_grad_check_report_is_truthy_on_pass(self):
        x = Tensor([1.0, -2.0], requires_grad=True, name="x")
        report = grad_check(lambda: ad.sum_all(ad.tanh(x)), [x])
        assert isinstance(report, GradCheckReport)
        assert report and report.max_rel_err < 1e-4


class TestSharedHelpers:
    EDGES = np.array([-800.0, -745.2, -709.0, -40.0, -1e-300, -5e-324, -0.0,
                      0.0, 5e-324, 1e-300, 40.0, 709.0, 745.2, 800.0])

    def test_branch_free_sigmoid_and_relu_match_the_branching_forms(self):
        # values, not sign bits: numpy does not promise a zero's sign
        x = np.concatenate([self.EDGES,
                            np.random.default_rng(1).standard_normal(5000)])
        e = np.exp(-np.abs(x))
        sig = np.where(x >= 0, 1.0, e) / (1.0 + e)
        relu = np.where(x > 0, x, 0.0)
        assert (ad.sigmoid_array(x) == sig).all()
        assert (ad.relu(Tensor(x)).data == relu).all()
        assert (ad.relu(Tensor(x.reshape(-1, 2))).data
                == relu.reshape(-1, 2)).all()

    def test_sigmoid_array_matches_three_exp_form_bitwise(self):
        x = np.concatenate([np.random.default_rng(0).standard_normal(2000) * 8,
                            [-800.0, -40.0, -0.0, 0.0, 40.0, 800.0]])
        old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        np.testing.assert_array_equal(ad.sigmoid_array(x), old)
        np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data, old)
