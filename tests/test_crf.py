"""Chart algorithms cross-checked against brute-force enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import urnng.autodiff as ad
from urnng import nn, oracle
from urnng.autodiff import NumericError, Tape, Tensor, grad_check
from urnng.crf import (Chart, InferenceNetwork, SpanScores, flatten, inside,
                       sample_tree, sample_trees, span_index, span_indicator,
                       span_order, tree_entropy, tree_log_prob,
                       tree_log_prob_batch, viterbi)
from urnng.treebank import DataError, TreeRepr, count_trees, left_branching
from test_nn import lstm_cell


def random_scores(t, rng, scale=2.0, batch=1):
    n = len(span_order(t))
    return SpanScores(t, Tensor(rng.standard_normal((batch, n)) * scale))


def zero_scores(t, batch=1):
    return SpanScores(t, Tensor(np.zeros((batch, len(span_order(t))))))


def reference_sample_tree(chart, rng, b=0):
    """One tree drawn node by node with ``Generator.choice``, top-down."""
    t = chart.length
    spans = set()
    agenda = [(1, t)]
    while agenda:
        i, j = agenda.pop()
        spans.add((i, j))
        if i == j:
            continue
        k = i + int(rng.choice(j - i, p=chart.split_weights(i, j, b)))
        agenda.append((i, k))
        agenda.append((k + 1, j))
    return TreeRepr(t, frozenset(spans))


def assert_same_draws(chart, rows, seed):
    """sample_trees gives the reference sampler's trees, draw by draw, and
    leaves the generator in the same state."""
    want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
    want = [reference_sample_tree(chart, want_rng, b) for b in rows]
    spans, which = sample_trees(chart, got_rng, rows)
    index = {}
    assert [index.setdefault(tree, len(index)) for tree in want] == \
        which.tolist()
    # the distinct trees in order of first draw, as arrays
    assert np.array_equal(spans, np.asarray(list(index)))
    assert np.array_equal(spans[which], np.asarray(want))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def reference_span_scores(net, ids, rng=None):
    """The span scorer built position by position and span by span."""
    batch, t = ids.shape
    p = net.params
    inputs = []
    for pos in range(t + 2):
        if pos == 0:
            x = ad.take_rows(p["inf.boundary"], np.zeros(batch, np.int64))
        elif pos == t + 1:
            x = ad.take_rows(p["inf.boundary"], np.ones(batch, np.int64))
        else:
            x = ad.take_rows(net.embedding, ids[:, pos - 1])
        inputs.append(ad.add(x, ad.take_rows(p["inf.position"],
                                             np.full(batch, pos, np.int64))))
    fwd, bwd = [None] * (t + 2), [None] * (t + 2)
    for out, name, order in ((fwd, "fwd", range(t + 2)),
                             (bwd, "bwd", range(t + 1, -1, -1))):
        state = (Tensor(np.zeros((batch, net.hidden_dim))),) * 2
        for pos in order:
            state = lstm_cell(inputs[pos], state, p[f"inf.{name}_w"],
                              p[f"inf.{name}_b"])
            out[pos] = state[0]
    feats = [ad.concat([ad.sub(fwd[j + 1], fwd[i]),
                        ad.sub(bwd[i - 1], bwd[j])], axis=1)
             for (i, j) in span_order(t)]
    h = ad.relu(nn.linear(ad.concat(feats, axis=0), p["inf.mlp_w1"],
                          p["inf.mlp_b1"]))
    h = ad.layer_norm(h, p["inf.ln_gain"], p["inf.ln_bias"])
    h = ad.dropout(h, net.dropout, rng)
    out = ad.matmul(h, p["inf.mlp_w2"])
    return ad.transpose(ad.reshape(out, (len(feats), batch))).data


class TestInside:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for t in range(2, 9):
            for _ in range(20):
                scores = random_scores(t, rng)
                got = inside(scores).log_z.data[0]
                want = oracle.exact_partition(scores)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_single_word(self):
        scores = SpanScores.from_table([[1.7]])
        chart = inside(scores)
        assert chart.log_z.data[0] == pytest.approx(1.7)
        tree, logq = sample_tree(chart, np.random.default_rng(0))
        assert tree.length == 1 and logq == pytest.approx(0.0)

    def test_uniform_scores_give_log_catalan(self):
        for t in (2, 3, 5, 7):
            chart = inside(zero_scores(t))
            assert chart.log_z.data[0] == pytest.approx(np.log(count_trees(t)))

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(1)
        t = 6
        flat = rng.standard_normal((4, len(span_order(t))))
        batched = inside(SpanScores(t, Tensor(flat)))
        entropy = tree_entropy(batched).data
        for b in range(4):
            single = inside(SpanScores(t, Tensor(flat[b:b + 1])))
            np.testing.assert_allclose(batched.log_z.data[b],
                                       single.log_z.data[0], rtol=1e-14)
            np.testing.assert_allclose(entropy[b],
                                       tree_entropy(single).data[0],
                                       rtol=1e-14)
            for i, j in span_order(t):
                if i < j:
                    np.testing.assert_allclose(
                        batched.split_weights(i, j, b),
                        single.split_weights(i, j), rtol=1e-14)

    def test_longest_sentence_tape_is_quadratic(self):
        # the chart tape grows with the number of widths times split points,
        # not with the number of cells times split points (about T^3 / 2)
        t = 150
        flat = Tensor(np.random.default_rng(2).standard_normal(
            (1, len(span_order(t)))), requires_grad=True)
        with Tape() as tape:
            chart = inside(SpanScores(t, flat))
            root = ad.sum_all(ad.add(chart.log_z, tree_entropy(chart)))
        assert len(tape) < 5 * t * t
        grad = tape.backward(root)[flat]
        assert grad.shape == flat.shape and np.all(np.isfinite(grad))

    def test_constant_shift_cancels_in_distribution(self):
        rng = np.random.default_rng(2)
        t = 5
        scores = random_scores(t, rng)
        shifted = SpanScores(t, ad.add_const(scores.flat, 3.7))
        chart, chart2 = inside(scores), inside(shifted)
        # every tree has exactly 2T-1 spans, so the shift scales all weights
        assert chart2.log_z.data[0] - chart.log_z.data[0] == \
            pytest.approx((2 * t - 1) * 3.7, abs=1e-9)
        for tree in oracle.enumerate_trees(t):
            assert tree_log_prob(chart, tree) == \
                pytest.approx(tree_log_prob(chart2, tree), abs=1e-9)


class TestTreeLogProb:
    def test_matches_enumerated_distribution(self):
        rng = np.random.default_rng(3)
        for t in (2, 4, 6):
            scores = random_scores(t, rng)
            chart = inside(scores)
            trees, probs = oracle.exact_distribution(scores)
            for tree, p in zip(trees, probs):
                assert tree_log_prob(chart, tree) == \
                    pytest.approx(np.log(p), abs=1e-9)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(4)
        scores = random_scores(6, rng)
        chart = inside(scores)
        total = sum(np.exp(tree_log_prob(chart, tree))
                    for tree in oracle.enumerate_trees(6))
        assert total == pytest.approx(1.0, abs=1e-11)

    def test_length_mismatch_rejected(self):
        chart = inside(zero_scores(4))
        with pytest.raises(ValueError, match="length"):
            tree_log_prob(chart, left_branching(5))


class TestSampler:
    def test_total_variation_vs_exact(self):
        rng = np.random.default_rng(5)
        scores = random_scores(5, rng, scale=1.0)
        chart = inside(scores)
        trees, probs = oracle.exact_distribution(scores)
        lookup = {tree: i for i, tree in enumerate(trees)}
        counts = np.zeros(len(trees))
        n = 20000
        for _ in range(n):
            tree, _ = sample_tree(chart, rng)
            counts[lookup[tree]] += 1
        tv = 0.5 * np.abs(counts / n - probs).sum()
        assert tv < 0.03

    def test_uniform_at_zero_scores(self):
        rng = np.random.default_rng(6)
        chart = inside(zero_scores(4))
        counts = {}
        n = 10000
        for _ in range(n):
            tree, _ = sample_tree(chart, rng)
            counts[tree] = counts.get(tree, 0) + 1
        assert len(counts) == 5
        for c in counts.values():
            assert abs(c / n - 0.2) < 0.02

    def test_reported_log_prob_matches_tree_log_prob(self):
        rng = np.random.default_rng(7)
        scores = random_scores(6, rng)
        chart = inside(scores)
        for _ in range(10):
            tree, logq = sample_tree(chart, rng)
            assert logq == pytest.approx(tree_log_prob(chart, tree))


class TestLockstepSampler:
    @pytest.mark.parametrize("t", [1, 2, 3, 5, 12, 48])
    def test_matches_reference_draw_for_draw(self, t):
        rng = np.random.default_rng(t)
        chart = inside(random_scores(t, rng, batch=3))
        tiled = np.tile(np.arange(3), 200 // 3 + 1)[:200]
        assert_same_draws(chart, tiled, seed=t)
        assert_same_draws(chart, rng.permutation(tiled), seed=t + 1)

    @settings(max_examples=40, deadline=None)
    @given(t=st.integers(1, 8), batch=st.integers(1, 3),
           k=st.integers(1, 30), scale=st.floats(0.0, 6.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_on_random_tables(self, t, batch, k, scale,
                                                seed):
        rng = np.random.default_rng(seed)
        chart = inside(random_scores(t, rng, scale=scale, batch=batch))
        assert_same_draws(chart, rng.integers(0, batch, size=k), seed)

    def test_wrapper_draws_one_tree_with_its_log_prob(self):
        chart = inside(random_scores(6, np.random.default_rng(12), batch=2))
        want = reference_sample_tree(chart, np.random.default_rng(3), 1)
        tree, log_q = sample_tree(chart, np.random.default_rng(3), 1)
        assert tree == want and log_q == tree_log_prob(chart, want, 1)

    def test_nan_scores_raise_numeric_error(self):
        table = np.random.default_rng(13).standard_normal((5, 5))
        table[1, 3] = np.nan
        prev = ad.set_check_finite(False)
        try:
            chart = inside(SpanScores.from_table(table))
        finally:
            ad.set_check_finite(prev)
        with pytest.raises(NumericError, match="not probabilities"):
            sample_trees(chart, np.random.default_rng(0), [0, 0])
        with pytest.raises(NumericError, match="not probabilities"):
            sample_tree(chart, np.random.default_rng(0))


class TestEntropy:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(8)
        for t in range(2, 8):
            for _ in range(10):
                scores = random_scores(t, rng)
                got = tree_entropy(inside(scores)).data[0]
                assert got == pytest.approx(oracle.exact_entropy(scores),
                                            abs=1e-8)

    def test_uniform_is_log_catalan(self):
        for t in (3, 5, 6):
            h = tree_entropy(inside(zero_scores(t))).data[0]
            assert h == pytest.approx(np.log(count_trees(t)), abs=1e-12)

    def test_bounded_by_log_catalan(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            scores = random_scores(7, rng, scale=3.0)
            h = tree_entropy(inside(scores)).data[0]
            assert -1e-12 <= h <= np.log(count_trees(7)) + 1e-12

    def test_gradient_matches_enumerated_entropy_gradient(self):
        rng = np.random.default_rng(10)
        t = 5
        flat = Tensor(rng.standard_normal((1, len(span_order(t)))),
                      requires_grad=True, name="scores")
        with Tape() as tape:
            h_chart = tree_entropy(inside(SpanScores(t, flat)))
            root = ad.sum_all(h_chart)
        g_chart = tape.backward(root)[flat]
        with Tape() as tape:
            h_enum = oracle.entropy_tensor(SpanScores(t, flat))
        g_enum = tape.backward(h_enum)[flat]
        np.testing.assert_allclose(g_chart, g_enum, atol=1e-9)

    def test_grad_check_entropy(self):
        rng = np.random.default_rng(11)
        t = 5
        flat = Tensor(rng.standard_normal((1, len(span_order(t)))),
                      requires_grad=True, name="scores")
        report = grad_check(
            lambda: ad.sum_all(tree_entropy(inside(SpanScores(t, flat)))),
            [flat])
        assert report.passed, report


class TestLogZGradient:
    def test_equals_span_marginals(self):
        rng = np.random.default_rng(12)
        t = 6
        flat = Tensor(rng.standard_normal((1, len(span_order(t)))),
                      requires_grad=True)
        scores = SpanScores(t, flat)
        with Tape() as tape:
            root = ad.sum_all(inside(scores).log_z)
        got = tape.backward(root)[flat][0]
        trees, probs = oracle.exact_distribution(scores)
        want = probs @ span_indicator(trees, t)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_grad_check_log_z(self):
        rng = np.random.default_rng(13)
        t = 5
        flat = Tensor(rng.standard_normal((1, len(span_order(t)))),
                      requires_grad=True, name="scores")
        report = grad_check(
            lambda: ad.sum_all(inside(SpanScores(t, flat)).log_z), [flat])
        assert report.passed, report


class TestViterbi:
    def test_matches_enumerated_argmax(self):
        rng = np.random.default_rng(14)
        for t in range(2, 9):
            for _ in range(15):
                scores = random_scores(t, rng)
                tree, score = viterbi(scores)
                best_tree, best_score = oracle.exact_argmax(scores)
                assert tree == best_tree
                assert score == pytest.approx(best_score, abs=1e-9)

    def test_tie_break_is_left_branching(self):
        for t in (2, 3, 5, 8):
            tree, _ = viterbi(zero_scores(t))
            assert tree == left_branching(t)

    def test_batch_row_selection(self):
        rng = np.random.default_rng(15)
        t = 5
        flat = rng.standard_normal((3, len(span_order(t))))
        scores = SpanScores(t, Tensor(flat))
        for b in range(3):
            single = SpanScores(t, Tensor(flat[b:b + 1]))
            assert viterbi(scores, b=b)[0] == viterbi(single)[0]


class TestFlatten:
    def test_divides_scores(self):
        rng = np.random.default_rng(16)
        scores = random_scores(5, rng)
        flat2 = flatten(scores, 2.0)
        np.testing.assert_allclose(flat2.flat.data, scores.flat.data / 2.0)

    def test_identity_at_one(self):
        scores = random_scores(4, np.random.default_rng(17))
        np.testing.assert_allclose(flatten(scores, 1.0).flat.data,
                                   scores.flat.data)

    def test_rejects_nonpositive_temperature(self):
        scores = zero_scores(3)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="temperature"):
                flatten(scores, bad)

    def test_raises_entropy(self):
        rng = np.random.default_rng(18)
        scores = random_scores(6, rng, scale=3.0)
        h1 = tree_entropy(inside(scores)).data[0]
        h2 = tree_entropy(inside(flatten(scores, 4.0))).data[0]
        assert h2 > h1


class TestInferenceNetwork:
    def tiny(self, rng=None, **kw):
        rng = rng or np.random.default_rng(19)
        defaults = dict(vocab_size=12, word_dim=7, hidden_dim=5,
                        max_len=10, rng=rng)
        defaults.update(kw)
        return InferenceNetwork(**defaults)

    def test_output_shape_and_determinism(self):
        net = self.tiny()
        ids = np.array([[3, 4, 5, 6], [7, 8, 9, 2]])
        s1 = net.span_scores(ids)
        s2 = net.span_scores(ids)
        assert s1.flat.shape == (2, 10)
        np.testing.assert_array_equal(s1.flat.data, s2.flat.data)

    def test_dropout_changes_scores(self):
        net = self.tiny()
        ids = np.array([[3, 4, 5]])
        plain = net.span_scores(ids).flat.data
        dropped = net.span_scores(ids, rng=np.random.default_rng(0)).flat.data
        assert not np.allclose(plain, dropped)

    def test_batch_rows_match_single_rows(self):
        net = self.tiny()
        a, b = np.array([3, 4, 5, 6]), np.array([8, 9, 10, 11])
        both = net.span_scores(np.stack([a, b])).flat.data
        np.testing.assert_allclose(both[0], net.span_scores(a[None])
                                   .flat.data[0], atol=1e-12)
        np.testing.assert_allclose(both[1], net.span_scores(b[None])
                                   .flat.data[0], atol=1e-12)

    @pytest.mark.parametrize("t", [1, 2, 7, 20])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_span_sheet_matches_per_span_reference(self, t, batch, dropout):
        net = self.tiny(max_len=20, dropout=0.3)
        ids = np.random.default_rng(10 * t + batch).integers(0, 12, (batch, t))
        got_rng, want_rng = (np.random.default_rng(7) if dropout else None
                             for _ in range(2))
        got = net.span_scores(ids, got_rng).flat.data
        np.testing.assert_array_equal(
            got, reference_span_scores(net, ids, want_rng))
        if dropout:
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_longest_sentence_scoring_and_chart_tape_is_linear(self):
        # a bounded number of tape nodes per position, none per span or
        # per split point: the per-span loop alone recorded 3 per span
        t = 150
        net = self.tiny(max_len=t)
        ids = np.random.default_rng(22).integers(0, 12, (2, t))
        with Tape() as tape:
            chart = inside(net.span_scores(ids))
            root = ad.sum_all(ad.add(chart.log_z, tree_entropy(chart)))
        assert len(tape) < 40 * t
        grads = tape.backward(root)
        for p in [*net.parameters().values(), net.embedding]:
            assert np.all(np.isfinite(grads[p]))

    def test_span_scorer_tape_nodes_do_not_grow_with_length(self):
        # each BiLSTM direction is one node over all positions
        net = self.tiny(max_len=48, dropout=0.3)
        counts = []
        for t in (12, 48):
            ids = np.random.default_rng(t).integers(0, 12, (3, t))
            with Tape() as tape:
                net.span_scores(ids, np.random.default_rng(0))
            counts.append(len(tape))
        assert counts[0] == counts[1] <= 30

    def test_length_capacity_guard(self):
        net = self.tiny()
        with pytest.raises(DataError, match="position table"):
            net.span_scores(np.ones((1, 11), dtype=np.int64))

    def test_shared_embedding_not_owned(self):
        rng = np.random.default_rng(20)
        emb = Tensor(rng.standard_normal((12, 7)), requires_grad=True,
                     name="emb")
        net = self.tiny(embedding=emb)
        assert net.embedding is emb
        assert all(not k.endswith("emb") for k in net.parameters())

    def test_gradients_flow_to_all_parameters(self):
        net = self.tiny()
        ids = np.array([[3, 4, 5]])
        with Tape() as tape:
            scores = net.span_scores(ids)
            root = ad.sum_all(inside(scores).log_z)
        grads = tape.backward(root)
        for name, p in net.parameters().items():
            assert p in grads, f"no gradient reached {name}"
        assert net.embedding in grads

    def test_grad_check_through_network(self):
        net = self.tiny(rng=np.random.default_rng(21), vocab_size=6,
                        word_dim=3, hidden_dim=2, mlp_hidden=4, max_len=6)
        ids = np.array([[2, 3, 4]])
        params = [net.params["inf.mlp_w2"], net.params["inf.boundary"],
                  net.params["inf.fwd_b"], net.embedding]

        def f():
            return ad.sum_all(tree_entropy(inside(net.span_scores(ids))))

        report = grad_check(f, params)
        assert report.passed, report


def test_span_order_is_lexicographic():
    assert span_order(3) == ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))


def test_span_index_is_the_position_in_span_order():
    for t in range(1, 9):
        i, j = np.array(span_order(t)).T
        np.testing.assert_array_equal(span_index(t, i, j),
                                      np.arange(len(i)))
        assert span_index(t, t, t) == len(i) - 1
        table = np.random.default_rng(t).standard_normal((t, t))
        assert SpanScores.from_table(table).flat.data[0].tolist() == \
            [table[i - 1, j - 1] for (i, j) in span_order(t)]


def test_span_indicator_marks_all_tree_spans():
    tree = left_branching(3)
    ind = span_indicator([tree], 3)
    assert ind.sum() == 5
    order = span_order(3)
    marked = {order[i] for i in np.flatnonzero(ind[0])}
    assert marked == set(tree.spans)


@pytest.mark.parametrize("t", [3, 5])
def test_length_mismatch_names_both_lengths(t):
    chart = inside(zero_scores(4, batch=2))
    message = f"tree of length {t} in a length-4 batch"
    for trees in ([left_branching(t)], np.asarray([left_branching(t)])):
        with pytest.raises(ValueError, match=message):
            span_indicator(trees, 4)
        with pytest.raises(ValueError, match=message):
            tree_log_prob_batch(chart, trees, [1])
        with pytest.raises(ValueError, match=message):
            tree_log_prob(chart, trees[0])


def test_one_word_sentences_sample_empty_span_rows():
    chart = inside(random_scores(1, np.random.default_rng(0), batch=2))
    spans, which = sample_trees(chart, np.random.default_rng(1), [0, 1, 1])
    assert spans.shape == (1, 0, 2) and which.tolist() == [0, 0, 0]
    np.testing.assert_allclose(
        tree_log_prob_batch(chart, spans[which], [0, 1, 1]).data, 0.0,
        atol=1e-12)
    tree, _ = viterbi(chart.scores)
    assert tree == TreeRepr(1, frozenset({(1, 1)}))
