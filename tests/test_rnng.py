"""Generative stack model tests.

The batched scorer is checked against a deliberately naive single-sentence
reimplementation (explicit python stack, plain numpy), against enumeration
for normalization, and for its forcing/EOS conventions.
"""

import tracemalloc

import numpy as np
import pytest

import urnng.autodiff as ad
from urnng import nn, oracle, rnng
from urnng.autodiff import Tape, grad_check
from urnng.rnng import RNNLM, GenerativeModel
from urnng.trainer import TrainConfig
from urnng.treebank import (REDUCE, SHIFT, left_branching, random_tree,
                            right_branching)

S, R = SHIFT, REDUCE


def tiny_model(seed=0, vocab=8, dim=5, **kw):
    return GenerativeModel(vocab, dim=dim, rng=np.random.default_rng(seed),
                           **kw)


def _sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def reference_joint(model, ids, actions):
    """Slow, obviously-correct replay of the stack machine for one sentence."""
    P = {k: t.data for k, t in model.params.items()}
    d, layers = model.dim, model.layers

    def lstm_step(x, hc, w, b):
        h, c = hc
        z = np.concatenate([x, h]) @ w + b
        i, f, o, g = z[:d], z[d:2 * d], z[2 * d:3 * d], z[3 * d:]
        c2 = _sig(f) * c + _sig(i) * np.tanh(g)
        return (_sig(o) * np.tanh(c2), c2)

    def compose(lg, rg):
        z = np.concatenate([lg[0], rg[0]]) @ P["gen.tree_w"] + P["gen.tree_b"]
        i, fl, fr, o, g = (z[k * d:(k + 1) * d] for k in range(5))
        c = _sig(fl) * lg[1] + _sig(fr) * rg[1] + _sig(i) * np.tanh(g)
        return (_sig(o) * np.tanh(c), c)

    def push(below_states, x):
        states, inp = [], x
        for layer in range(layers):
            hc = lstm_step(inp, below_states[layer],
                           P[f"gen.lstm_w{layer}"], P[f"gen.lstm_b{layer}"])
            states.append(hc)
            inp = hc[0]
        return states

    def word_lp(h):
        logits = h @ P["emb"].T + P["gen.word_b"]
        logits = logits - logits.max()
        return logits - np.log(np.exp(logits).sum())

    zero = [(np.zeros(d), np.zeros(d)) for _ in range(layers)]
    stack = [(zero, (np.zeros(d), np.zeros(d)))]
    terminal = action = 0.0
    used, t_len = 0, len(ids)
    for a in actions:
        h_top = stack[-1][0][-1][0]
        if len(stack) - 1 >= 2 and used < t_len:
            logit = h_top @ P["gen.action_w"] + P["gen.action_b"][0]
            action -= np.log1p(np.exp(-logit if a == R else logit))
        if a == S:
            terminal += word_lp(h_top)[ids[used]]
            x = P["emb"][ids[used]]
            used += 1
            stack.append((push(stack[-1][0], x), (x, np.zeros(d))))
        else:
            right = stack.pop()
            left = stack.pop()
            g = compose(left[1], right[1])
            stack.append((push(stack[-1][0], g[0]), g))
    terminal += word_lp(stack[-1][0][-1][0])[model.eos_id]
    return terminal, action


class TestJointScoring:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(1)
        model = tiny_model(seed=2)
        for t in range(1, 6):
            for _ in range(6):
                ids = rng.integers(2, 8, size=t)
                tree = random_tree(t, rng)
                got_term, got_act = model.joint_log_likelihood(ids, tree)
                want_term, want_act = reference_joint(model, ids, tree.actions)
                assert got_term == pytest.approx(want_term, abs=1e-10)
                assert got_act == pytest.approx(want_act, abs=1e-10)

    def test_action_distribution_normalizes_over_trees(self):
        # the forcing conventions must make sum_z exp(action term) == 1
        rng = np.random.default_rng(3)
        model = tiny_model(seed=4, dim=4)
        for t in range(1, 7):
            ids = rng.integers(2, 8, size=t)
            total = 0.0
            for tree in oracle.enumerate_trees(t):
                _, action = model.joint_log_likelihood(ids, tree)
                total += np.exp(action)
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_logsumexp_of_joints_is_exact_marginal(self):
        rng = np.random.default_rng(5)
        model = tiny_model(seed=6, dim=4)
        ids = rng.integers(2, 8, size=5)
        trees, lls = oracle.exact_joint_table(model, ids)
        m = lls.max()
        assert m + np.log(np.exp(lls - m).sum()) == pytest.approx(
            oracle.exact_marginal(model, ids), abs=1e-12)

    def test_forced_steps_contribute_exactly_zero(self):
        model = tiny_model(seed=7)
        # T=1: the single SHIFT is forced, T=2: all three steps are forced
        _, action = model.joint_log_likelihood([3], left_branching(1))
        assert action == 0.0
        _, action = model.joint_log_likelihood([3, 4], left_branching(2))
        assert action == 0.0

    def test_log_probabilities_are_nonpositive(self):
        rng = np.random.default_rng(8)
        model = tiny_model(seed=9)
        for _ in range(10):
            t = int(rng.integers(1, 7))
            ids = rng.integers(2, 8, size=t)
            terminal, action = model.joint_log_likelihood(
                ids, random_tree(t, rng))
            assert terminal < 0.0 and action <= 0.0

    def test_eval_mode_is_bit_deterministic(self):
        model = tiny_model(seed=10)
        ids = np.array([[2, 3, 4, 5]])
        acts = np.array([right_branching(4).actions])
        a1 = model.joint_log_likelihood_batch(ids, acts)
        a2 = model.joint_log_likelihood_batch(ids, acts)
        assert a1[0].data[0] == a2[0].data[0]
        assert a1[1].data[0] == a2[1].data[0]

    def test_dropout_changes_scores(self):
        model = tiny_model(seed=11, dropout=0.5)
        ids = np.array([[2, 3, 4]])
        acts = np.array([left_branching(3).actions])
        plain = model.joint_log_likelihood_batch(ids, acts)[0].data[0]
        noised = model.joint_log_likelihood_batch(
            ids, acts, rng=np.random.default_rng(0))[0].data[0]
        assert plain != noised

    def test_batch_rows_match_single_calls(self):
        rng = np.random.default_rng(12)
        model = tiny_model(seed=13)
        t = 5
        ids = rng.integers(2, 8, size=(6, t))
        trees = [random_tree(t, rng) for _ in range(6)]
        acts = np.array([tree.actions for tree in trees])
        term_b, act_b = model.joint_log_likelihood_batch(ids, acts)
        for row in range(6):
            term, act = model.joint_log_likelihood(ids[row], trees[row])
            assert term_b.data[row] == pytest.approx(term, abs=1e-12)
            assert act_b.data[row] == pytest.approx(act, abs=1e-12)

    def test_rejects_malformed_action_matrices(self):
        model = tiny_model()
        ids = np.array([[2, 3, 4]])
        with pytest.raises(ValueError, match=r"\[1, 5\]"):
            model.joint_log_likelihood_batch(ids, np.array([[S, S, R]]))
        with pytest.raises(ValueError, match="exactly 3 SHIFT"):
            model.joint_log_likelihood_batch(
                ids, np.array([[S, S, R, R, R]]))
        with pytest.raises(ValueError, match="0 .SHIFT. or 1"):
            model.joint_log_likelihood_batch(
                ids, np.array([[S, S, 2, R, R]]))
        with pytest.raises(ValueError, match="REDUCE with stack depth"):
            model.joint_log_likelihood_batch(
                ids, np.array([[S, R, S, S, R]]))

    def test_grad_check_joint_wrt_theta(self):
        model = tiny_model(seed=14, vocab=6, dim=3)
        ids = np.array([[2, 3, 4]])
        acts = np.array([left_branching(3).actions])

        def f():
            terminal, action = model.joint_log_likelihood_batch(ids, acts)
            return ad.sum_all(ad.add(terminal, action))

        params = [model.params[k] for k in
                  ("emb", "gen.action_w", "gen.action_b", "gen.tree_b",
                   "gen.lstm_b0", "gen.word_b")]
        report = grad_check(f, params)
        assert report.passed, report

    def test_gradients_reach_every_parameter(self):
        model = tiny_model(seed=15, dim=4)
        ids = np.array([[2, 3, 4, 5]])
        acts = np.array([random_tree(4, np.random.default_rng(0)).actions])
        with Tape() as tape:
            terminal, action = model.joint_log_likelihood_batch(ids, acts)
            root = ad.sum_all(ad.add(terminal, action))
        grads = tape.backward(root)
        for name, p in model.parameters().items():
            assert p in grads, f"no gradient reached {name}"


class TestConditionalActionSampler:
    def test_logprob_matches_scoring_action_term(self):
        model = tiny_model(seed=16, dim=4)
        ids = np.array([2, 3, 4, 5, 6])
        actions, logprob = model.sample_actions_conditional(
            ids, 20, np.random.default_rng(17))
        for row in range(20):
            _, action = model.joint_log_likelihood(ids, tuple(actions[row]))
            assert logprob[row] == pytest.approx(action, abs=1e-10)

    def test_matches_conditional_prior_distribution(self):
        model = tiny_model(seed=18, dim=4)
        ids = np.array([2, 3, 4, 5])
        trees = oracle.enumerate_trees(4)
        exact = np.array([np.exp(model.joint_log_likelihood(ids, tr)[1])
                          for tr in trees])
        actions, _ = model.sample_actions_conditional(
            ids, 8000, np.random.default_rng(19))
        keys = {tr.actions: i for i, tr in enumerate(trees)}
        counts = np.zeros(len(trees))
        for row in actions:
            counts[keys[tuple(row)]] += 1
        tv = 0.5 * np.abs(counts / 8000 - exact).sum()
        assert tv < 0.03

    def test_empty_sentence_raises_and_zero_samples_are_empty(self):
        model = tiny_model(seed=20)
        with pytest.raises(ValueError, match="empty sentence"):
            model.sample_actions_conditional(np.array([], dtype=np.int64), 5,
                                             np.random.default_rng(21))
        actions, logprob = model.sample_actions_conditional(
            np.array([2, 3, 4]), 0, np.random.default_rng(21))
        assert actions.shape == (0, 5) and logprob.shape == (0,)


class TestGenerate:
    def test_samples_are_valid(self):
        model = tiny_model(seed=20, vocab=10, dim=4)
        rng = np.random.default_rng(21)
        seen_lengths = set()
        for _ in range(300):
            out = model.generate(rng, max_len=8)
            if out.empty:
                assert out.tree is None and out.ids == ()
                continue
            assert out.tree is not None
            assert out.tree.length == len(out.ids)
            assert len(out.actions) == 2 * len(out.ids) - 1
            assert out.truncated == (len(out.ids) >= 8) or not out.truncated
            seen_lengths.add(len(out.ids))
        assert len(seen_lengths) > 1

    def test_immediate_eos_is_flagged_empty(self):
        model = tiny_model(seed=22)
        model.params["gen.word_b"].data[model.eos_id] = 30.0
        out = model.generate(np.random.default_rng(0))
        assert out.empty and out.ids == () and out.tree is None

    def test_truncation_flag(self):
        model = tiny_model(seed=23)
        model.params["gen.word_b"].data[model.eos_id] = -30.0
        model.params["gen.action_b"].data[0] = -30.0  # never reduce freely
        out = model.generate(np.random.default_rng(1), max_len=5)
        assert out.truncated and len(out.ids) == 5
        assert out.tree is not None  # closed by forced reduces

    def test_scored_joint_dominates_sampled_path_probability(self):
        # scoring forces post-final-word reduces to probability one, so the
        # scored joint can only exceed the sampler's accumulated log-prob
        model = tiny_model(seed=24, vocab=12, dim=4)
        rng = np.random.default_rng(25)
        checked = 0
        for _ in range(200):
            out = model.generate(rng, max_len=6)
            if out.empty or out.truncated or not out.eos_at_root:
                continue
            terminal, action = model.joint_log_likelihood(out.ids, out.tree)
            assert terminal + action >= out.log_likelihood - 1e-9
            checked += 1
        assert checked >= 20

    def test_rejects_bad_max_len(self):
        with pytest.raises(ValueError, match="max_len"):
            tiny_model().generate(np.random.default_rng(0), max_len=0)


class TestRNNLM:
    def test_untrained_loss_is_log_vocab(self):
        lm = RNNLM(50, dim=16, rng=np.random.default_rng(26))
        ids = np.random.default_rng(27).integers(2, 50, size=(4, 9))
        ll = lm.log_likelihood_batch(ids).data
        per_token = -ll.sum() / (4 * 10)  # EOS event included per sentence
        assert abs(per_token - np.log(50)) < 0.1

    def test_batch_matches_single(self):
        lm = RNNLM(10, dim=5, rng=np.random.default_rng(28))
        ids = np.random.default_rng(29).integers(2, 10, size=(3, 4))
        batch = lm.log_likelihood_batch(ids).data
        for row in range(3):
            single = lm.log_likelihood_batch(ids[row:row + 1]).data[0]
            assert batch[row] == pytest.approx(single, abs=1e-12)

    def test_gradients_reach_every_parameter(self):
        lm = RNNLM(8, dim=4, rng=np.random.default_rng(30))
        ids = np.array([[2, 3, 4]])
        with Tape() as tape:
            root = ad.sum_all(lm.log_likelihood_batch(ids))
        grads = tape.backward(root)
        for name, p in lm.parameters().items():
            assert p in grads, f"no gradient reached {name}"

    def test_grad_check(self):
        lm = RNNLM(6, dim=3, rng=np.random.default_rng(31))
        ids = np.array([[2, 3, 4]])
        params = [lm.params["emb"], lm.params["lm.word_b"],
                  lm.params["lm.lstm_b1"]]
        report = grad_check(
            lambda: ad.sum_all(lm.log_likelihood_batch(ids)), params)
        assert report.passed, report


class TestArrayStack:
    """The stack state is arrays indexed by stack position; these pin its
    tape size, its per-row routing and the draws it feeds."""

    @staticmethod
    def tape_nodes(model, ids, acts):
        with Tape() as tape:
            model.joint_log_likelihood_batch(ids, acts,
                                             rng=np.random.default_rng(0))
        return len(tape)

    def test_tape_nodes_do_not_grow_with_rows(self):
        model = tiny_model(seed=32, vocab=20, dim=4, dropout=0.0)
        rng = np.random.default_rng(33)
        tree = random_tree(12, rng)
        ids = rng.integers(2, 20, size=(64, 12))
        one = self.tape_nodes(model, ids[:1], np.array([tree.actions]))
        many = self.tape_nodes(model, ids, np.tile(tree.actions, (64, 1)))
        assert one == many

    def test_tape_nodes_linear_in_length(self):
        # 64 different trees at T=48: a constant number of nodes per step,
        # whatever mix of stack depths the rows are at
        model = tiny_model(seed=34, vocab=20, dim=4, dropout=0.0)
        rng = np.random.default_rng(35)
        t = 48
        ids = rng.integers(2, 20, size=(64, t))
        acts = np.array([random_tree(t, rng).actions for _ in range(64)])
        assert self.tape_nodes(model, ids, acts) <= 80 * t

    def test_mixed_rows_match_reference_row_by_row(self):
        model = tiny_model(seed=36, dropout=0.0)
        rng = np.random.default_rng(37)
        t = 6
        ids = rng.integers(2, 8, size=(12, t))
        acts = np.array([random_tree(t, rng).actions for _ in range(12)])
        assert len({tuple(a) for a in acts}) > 6
        with Tape():
            taped = model.joint_log_likelihood_batch(
                ids, acts, rng=np.random.default_rng(0))
        untaped = model.joint_log_likelihood_batch(ids, acts)
        for row in range(12):
            want = reference_joint(model, ids[row], acts[row])
            for term, act in (taped, untaped):
                assert term.data[row] == pytest.approx(want[0], abs=1e-10)
                assert act.data[row] == pytest.approx(want[1], abs=1e-10)

    def test_batch_gradient_is_sum_of_row_gradients(self):
        model = tiny_model(seed=38, dim=4, dropout=0.0)
        rng = np.random.default_rng(39)
        t = 5
        ids = rng.integers(2, 8, size=(6, t))
        acts = np.array([random_tree(t, rng).actions for _ in range(6)])

        def grads(rows):
            with Tape() as tape:
                terminal, action = model.joint_log_likelihood_batch(
                    ids[rows], acts[rows], rng=np.random.default_rng(0))
                root = ad.sum_all(ad.add(terminal, action))
            g = tape.backward(root)
            return {k: g[p] for k, p in model.params.items()}

        batch = grads(slice(None))
        rows = [grads(slice(r, r + 1)) for r in range(6)]
        for name, g in batch.items():
            np.testing.assert_allclose(g, sum(r[name] for r in rows),
                                       rtol=1e-10, atol=1e-13)

    def test_prior_sampler_reproduces_recorded_draws(self):
        # recorded from the per-row-list stepper that the array stack
        # replaced; the draws and their log-probabilities must not move
        model = GenerativeModel(8, dim=5, rng=np.random.default_rng(40))
        actions, logprob = model.sample_actions_conditional(
            np.array([2, 3, 4, 5, 6]), 6, np.random.default_rng(41))
        assert actions.tolist() == [
            [S, S, R, S, S, S, R, R, R], [S, S, R, S, R, S, S, R, R],
            [S, S, S, R, S, S, R, R, R], [S, S, S, S, S, R, R, R, R],
            [S, S, S, S, R, R, R, S, R], [S, S, R, S, R, S, R, S, R]]
        np.testing.assert_allclose(logprob, [
            -2.08468825584343, -2.0743638719404114, -2.7828726496875698,
            -2.0950738011440957, -3.4605381020078347, -2.064135420578543],
            rtol=1e-13)

    def test_generate_reproduces_recorded_samples(self):
        model = GenerativeModel(8, dim=5, rng=np.random.default_rng(40))
        rng = np.random.default_rng(42)
        recorded = [
            ((6, 3, 5, 6, 0, 5), (S, S, S, R, S, S, R, R, S, R, R),
             -17.38043281162931, True, False),
            ((6, 3, 4, 6, 6, 7), (S, S, R, S, R, S, S, R, S, R, R),
             -16.04051182700733, True, False),
            ((6,), (S,), -4.175255669189754, False, True),
            ((3, 0, 5, 7, 3, 0), (S, S, R, S, S, R, R, S, R, S, R),
             -15.886016135361428, True, False),
        ]
        for ids, actions, log_lik, truncated, eos_at_root in recorded:
            out = model.generate(rng, max_len=6)
            assert (out.ids, out.actions) == (ids, actions)
            assert (out.truncated, out.eos_at_root) == (truncated,
                                                        eos_at_root)
            assert out.log_likelihood == pytest.approx(log_lik, rel=1e-13)


class TestHeadsAfterRecurrence:
    """Both language models run only the recurrence per step and score the
    word and action heads once after it."""

    def test_taped_dropout_values_and_draws_are_recorded(self):
        # recorded from the scorer that ran both heads inside the step loop;
        # moving the heads must keep every dropout draw, in the same order.
        # The generator's end state is exact; the values may differ in the
        # last bits under another BLAS build.
        model = GenerativeModel(8, dim=5, rng=np.random.default_rng(43))
        rng = np.random.default_rng(44)
        ids = rng.integers(2, 8, size=(4, 6))
        acts = np.array([random_tree(6, rng).actions for _ in range(4)])
        assert acts.tolist() == [[S, S, S, R, R, S, R, S, R, S, R],
                                 [S, S, S, R, R, S, S, R, R, S, R],
                                 [S, S, S, S, R, R, S, S, R, R, R],
                                 [S, S, S, S, R, R, S, R, S, R, R]]
        drop = np.random.default_rng(45)
        with Tape():
            terminal, action = model.joint_log_likelihood_batch(ids, acts,
                                                                rng=drop)
        assert terminal.data.tolist() == pytest.approx([
            -14.577197586823836, -14.58342715404257, -14.393479795943644,
            -14.696416869549438], rel=1e-13)
        assert action.data.tolist() == pytest.approx([
            -3.359280359942473, -4.089578496917401, -4.239580129859169,
            -4.9020638513223425], rel=1e-13)
        assert drop.bit_generator.state["state"]["state"] == \
            182893022443928212434857477131515051837

        lm = RNNLM(8, dim=5, rng=np.random.default_rng(46))
        drop = np.random.default_rng(47)
        with Tape():
            ll = lm.log_likelihood_batch(ids, rng=drop)
        assert ll.data.tolist() == pytest.approx([
            -14.59955657588124, -14.501054339074248, -14.73996668535749,
            -14.380280339002363], rel=1e-13)
        assert drop.bit_generator.state["state"]["state"] == \
            339293452291197101937960001850273556942

    def test_joint_heads_cost_the_same_nodes_at_any_length(self,
                                                           monkeypatch):
        model = tiny_model(seed=48, vocab=20, dim=4, dropout=0.0)
        recurrence = rnng._recurrence
        in_recurrence = []

        def counted(*args):
            before = len(tape)
            out = recurrence(*args)
            in_recurrence.append(len(tape) - before)
            return out

        monkeypatch.setattr(rnng, "_recurrence", counted)
        outside = []
        rng = np.random.default_rng(49)
        for t in (12, 48):
            ids = rng.integers(2, 20, size=(64, t))
            acts = np.array([random_tree(t, rng).actions for _ in range(64)])
            with Tape() as tape:
                model.joint_log_likelihood_batch(ids, acts,
                                                 rng=np.random.default_rng(0))
            outside.append(len(tape) - sum(in_recurrence))
            in_recurrence.clear()
        assert outside[0] == outside[1]

    def test_rnnlm_tape_nodes_do_not_grow_with_length(self):
        # the recurrence is one node, as in the joint
        lm = RNNLM(20, dim=4, dropout=0.5, rng=np.random.default_rng(50))
        ids = np.random.default_rng(51).integers(2, 20, size=(64, 48))

        def nodes(t):
            with Tape() as tape:
                lm.log_likelihood_batch(ids[:, :t],
                                        rng=np.random.default_rng(0))
            return len(tape)

        assert nodes(12) == nodes(48) <= 10

    def test_untaped_word_head_scores_bounded_passes(self, monkeypatch):
        model = tiny_model(seed=52, vocab=20, dim=4)
        lm = RNNLM(20, dim=4, rng=np.random.default_rng(53))
        rng = np.random.default_rng(54)
        ids = rng.integers(2, 20, size=(8, 12))
        ids[:, 0] = np.arange(2, 10)    # no two rows share a first word
        acts = np.array([random_tree(12, rng).actions for _ in range(8)])
        # one first word and eight distinct second words: the joint scores
        # the shared first two contexts once, 1 + 8 + 11 * 8 word rows
        shared = ids.copy()
        shared[:, 0], shared[:, 1] = 2, np.arange(2, 10)
        whole = model.joint_log_likelihood_batch(ids, acts)
        whole_lm = lm.log_likelihood_batch(ids)
        whole_shared = model.joint_log_likelihood_batch(shared, acts)

        block = nn.word_log_softmax
        sizes = []

        def counted(x, emb, b, out=None):
            sizes.append(x.shape[0] * emb.shape[0])
            return block(x, emb, b, out)

        monkeypatch.setattr(nn, "word_log_softmax", counted)
        monkeypatch.setattr(nn, "WORD_BLOCK", 3 * 20)   # three rows a pass
        terminal, action = model.joint_log_likelihood_batch(ids, acts)
        ll = lm.log_likelihood_batch(ids)
        # 13 * 8 word rows per model, three at a time
        assert len(sizes) == 2 * 35 and max(sizes) == 3 * 20
        assert terminal.data == pytest.approx(whole[0].data, rel=1e-13)
        assert action.data == pytest.approx(whole[1].data, rel=1e-13)
        assert ll.data == pytest.approx(whole_lm.data, rel=1e-13)

        sizes.clear()
        terminal, action = model.joint_log_likelihood_batch(shared, acts)
        assert len(sizes) == 33 and max(sizes) == 3 * 20    # ceil(97 / 3)
        assert terminal.data == pytest.approx(whole_shared[0].data,
                                              rel=1e-13)
        assert action.data == pytest.approx(whole_shared[1].data, rel=1e-13)
        sizes.clear()   # the RNNLM shares the same 97 rows
        lm.log_likelihood_batch(shared)
        assert len(sizes) == 33

        # taped passes are bounded too: they fill one kept array
        sizes.clear()
        with Tape():
            model.joint_log_likelihood_batch(ids, acts)
            lm.log_likelihood_batch(ids)
        assert len(sizes) == 2 * 35 and max(sizes) == 3 * 20


class TestPrefixSharing:
    """Untaped and without dropout, rows that share their actions and words
    so far share one stack state, and the cells run once per such prefix."""

    @staticmethod
    def count_cell_rows(monkeypatch):
        # the rows of each LSTM cell, the cells with one previous state
        rows = []
        cell = nn.cell

        def counted(parts, w, b, cells):
            if len(cells) == 1:
                rows.append(parts[0].shape[0])
            return cell(parts, w, b, cells)

        monkeypatch.setattr(nn, "cell", counted)
        return rows

    def test_prior_sampler_runs_one_row_per_distinct_prefix(self,
                                                            monkeypatch):
        # each step's level runs each layer once over the distinct prefixes
        # with a word left to shift; after its last word a row's draws are
        # forced REDUCEs, and no draw reads their states
        model = GenerativeModel(8, dim=5, rng=np.random.default_rng(55))
        rows = self.count_cell_rows(monkeypatch)
        ids = np.array([2, 3, 4, 5, 6])
        actions, _ = model.sample_actions_conditional(
            ids, 1000, np.random.default_rng(56))
        want = []
        for length in range(1, actions.shape[1]):
            prefixes = {tuple(a) for a in actions[:, :length]
                        if (a == S).sum() < len(ids)}
            want += [len(prefixes)] * model.layers if prefixes else []
        assert rows == want
        assert 0 < sum(rows) < model.layers * len(
            {tuple(a[:n]) for a in actions for n in range(1, len(a))})

    def test_prior_sampler_steps_no_cell_after_its_last_draw(self,
                                                              monkeypatch):
        # at T = 3 the sampler draws both trees, SSRSR and SSSRR; the cells
        # run once per layer for S, SS and SSR, the prefixes with a word
        # left, and for none of SSS, SSRS and SSSR
        model = GenerativeModel(8, dim=5, rng=np.random.default_rng(55))
        rows = self.count_cell_rows(monkeypatch)
        actions, _ = model.sample_actions_conditional(
            np.array([2, 3, 4]), 1000, np.random.default_rng(56))
        assert {tuple(a) for a in actions} == {(S, S, R, S, R),
                                               (S, S, S, R, R)}
        assert rows == [1] * model.layers * 3 == [1] * 6

    def test_samplers_read_no_state_they_did_not_set(self, monkeypatch):
        # the tables are np.empty and the pushes after a row's last word
        # never run: with every row but the zero pair NaN, the draws, their
        # log-probs and the generators' end states must not move, no
        # action logit may be NaN, and no cell may read a NaN state
        model = GenerativeModel(47, dim=16, rng=np.random.default_rng(60))
        ids = np.random.default_rng(61).integers(2, 47, 9)

        def draw():
            rng = np.random.default_rng(62)
            with np.errstate(all="raise"):
                actions, logprob = model.sample_actions_conditional(ids, 500,
                                                                    rng)
                made = [model.generate(rng, max_len=n) for n in (1, 3, 6)]
            return actions, logprob, made, rng.bit_generator.state

        want = draw()
        init, sigmoid = rnng._Stack.__init__, ad.sigmoid_array

        def unset(self, model, n, steps, shared, size):
            # room for every push, so no compaction leaves rows unfilled
            init(self, model, n, steps, shared, n * steps + 1)
            for table in self.h + self.c:
                table[1:] = np.nan

        def finite(x):
            assert np.isfinite(x).all()
            return sigmoid(x)

        monkeypatch.setattr(rnng._Stack, "__init__", unset)
        monkeypatch.setattr(ad, "sigmoid_array", finite)
        actions, logprob, made, state = draw()
        np.testing.assert_array_equal(actions, want[0])
        np.testing.assert_array_equal(logprob, want[1])
        assert made == want[2] and state == want[3]

    def test_untaped_rnnlm_runs_one_row_per_distinct_prefix(self,
                                                             monkeypatch):
        # rows 0 and 3 are equal, rows 0-2 share their first word and rows
        # 0-1 their first three; a tape keeps one row per sentence
        lm = RNNLM(8, dim=5, rng=np.random.default_rng(76))
        ids = np.array([[2, 3, 4, 5], [2, 3, 4, 6], [2, 5, 4, 5],
                        [2, 3, 4, 5]])
        prefixes = [len({tuple(row[:k]) for row in ids}) for k in (1, 2, 3, 4)]
        assert prefixes == [1, 2, 2, 3]
        rows = self.count_cell_rows(monkeypatch)
        shared = lm.log_likelihood_batch(ids)
        assert rows == prefixes * lm.layers
        rows.clear()
        with Tape():
            taped = lm.log_likelihood_batch(ids)
        assert rows == [len(ids)] * 4 * lm.layers
        np.testing.assert_array_equal(shared.data, taped.data)

    def test_copies_of_one_tree_run_one_row_per_step(self, monkeypatch):
        model = tiny_model(seed=57)
        tree = random_tree(6, np.random.default_rng(58))
        ids = np.tile([2, 5, 3, 4, 6, 7], (256, 1))
        rows = self.count_cell_rows(monkeypatch)
        terminal, action = model.joint_log_likelihood_batch(
            ids, np.tile(tree.actions, (256, 1)))
        # each layer's cell runs once per stack position, on the one push
        # of each step that reaches it
        depth = np.cumsum(np.where(np.array(tree.actions) == S, 1, -1))
        assert rows == np.bincount(depth)[1:].tolist() * model.layers
        assert sum(rows) == model.layers * len(tree.actions)
        want = reference_joint(model, ids[0], tree.actions)
        assert terminal.data == pytest.approx([want[0]] * 256, abs=1e-10)
        assert action.data == pytest.approx([want[1]] * 256, abs=1e-10)

    def test_shared_prefixes_match_reference_row_by_row(self, monkeypatch):
        # rows 0-3 share their first words, so rows whose trees share a
        # prefix share nodes until the words part; rows 4-5 repeat rows 0-1
        model = tiny_model(seed=59, dropout=0.5)
        trees = [right_branching(6).actions,
                 (S, S, S, R, R, S, S, R, S, R, R)]
        ids = np.array([[2, 3, 4, 5, 6, 7], [2, 3, 4, 7, 6, 5]] * 3)
        acts = np.array([trees[0]] * 2 + [trees[1]] * 2 + [trees[0]] * 2)
        rows = self.count_cell_rows(monkeypatch)
        untaped = model.joint_log_likelihood_batch(ids, acts)
        assert sum(rows) < model.layers * len(acts) * acts.shape[1]
        with Tape():
            taped = model.joint_log_likelihood_batch(ids, acts)
        for row in range(len(acts)):
            want = reference_joint(model, ids[row], acts[row])
            for term, act in (untaped, taped):
                assert term.data[row] == pytest.approx(want[0], abs=1e-10)
                assert act.data[row] == pytest.approx(want[1], abs=1e-10)


class TestLivePushes:
    """The samplers' stack tables keep only the pushes on some row's stack,
    renumbered in order whenever a step's pushes would not fit, so the
    draws must not depend on when that happens."""

    @staticmethod
    def run(monkeypatch, roomy, draw):
        # ``draw()`` with the samplers' tables, or with room for every push
        # (``roomy``); returns its result and how often the tables compacted
        init, compact, calls = rnng._Stack.__init__, rnng._Stack.compact, []

        def sized(self, model, n, steps, shared, size):
            init(self, model, n, steps, shared,
                 n * steps + 1 if roomy else size)

        def counted(self, new):
            calls.append(new)
            compact(self, new)

        with monkeypatch.context() as patch:
            patch.setattr(rnng._Stack, "__init__", sized)
            patch.setattr(rnng._Stack, "compact", counted)
            return draw(), len(calls)

    @pytest.mark.parametrize("dim, vocab, t, k, compacts", [
        (64, 47, 12, 1000, True), (64, 47, 3, 1000, False),
        (16, 50, 20, 700, True), (64, 1000, 40, 1000, True),
        (650, 300, 10, 300, True), (5, 8, 1, 1, False), (5, 8, 9, 1, True)])
    def test_compacting_sampler_matches_roomy_one(self, monkeypatch, dim,
                                                  vocab, t, k, compacts):
        model = GenerativeModel(vocab, dim=dim, rng=np.random.default_rng(t))
        ids = np.random.default_rng(dim).integers(2, vocab, t)

        def draw():
            rng = np.random.default_rng(k)
            actions, logprob = model.sample_actions_conditional(ids, k, rng)
            return actions, logprob, rng.bit_generator.state

        (actions, logprob, state), compactions = self.run(monkeypatch, False,
                                                          draw)
        want, none = self.run(monkeypatch, True, draw)
        assert (none, compactions > 0) == (0, compacts)
        np.testing.assert_array_equal(actions, want[0])
        np.testing.assert_array_equal(logprob, want[1])
        assert state == want[2]

    def test_compacting_generator_matches_roomy_one(self, monkeypatch):
        model = tiny_model(seed=60, vocab=20, dim=8)
        model.params["gen.word_b"].data[model.eos_id] -= 4.0  # long samples

        def draw():
            rng = np.random.default_rng(61)
            out = [model.generate(rng, max_len=60) for _ in range(8)]
            return [(o.ids, o.actions, o.log_likelihood, o.truncated,
                     o.eos_at_root) for o in out], rng.bit_generator.state

        got, compactions = self.run(monkeypatch, False, draw)
        want, none = self.run(monkeypatch, True, draw)
        assert got == want and none == 0 and compactions > 0
        lengths = [len(ids) for ids, *_ in got[0]]
        assert max(lengths) == 60 and min(lengths) < 60

    def test_longest_sentence_sampler_within_memory_budget(self):
        # desk dims at the longest length the config accepts, K=300: tables
        # for all 300 * 299 pushes are about 270 MB traced, while at most
        # about 5000 pushes are live at once
        t = TrainConfig().max_len
        model = GenerativeModel(47, dim=64, rng=np.random.default_rng(62))
        ids = np.random.default_rng(63).integers(2, 47, t)
        tracemalloc.start()
        try:
            actions, _ = model.sample_actions_conditional(
                ids, 300, np.random.default_rng(64))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert actions.shape == (300, 2 * t - 1)
        assert peak < 100 * 2**20, peak / 2**20


def tree_height(actions):
    """The height of the tree that ``actions`` build, a word being 0."""
    stack = []
    for a in actions:
        stack.append(1 + max(stack.pop(), stack.pop()) if a == R else 0)
    return stack[0]


class TestStackSweep:
    """A taped joint is one node for the whole stack recurrence; its vjp is
    a hand-written reverse sweep over the levels of the forward."""

    @staticmethod
    def mixed_rows():
        # four shapes of tree over five words, so the rows sit at different
        # depths at most steps and every row reduces at some step; the
        # right-branching row reaches the deepest stack, and the last row
        # pushes three times at position 2 onto its first push
        acts = np.array([left_branching(5).actions, right_branching(5).actions,
                         (S, S, R, S, S, R, R, S, R),
                         (S, S, S, R, S, R, S, R, R)])
        return np.random.default_rng(64).integers(2, 6, size=(4, 5)), acts

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_grad_check_every_parameter(self, layers, dropout):
        model = tiny_model(seed=65, vocab=6, dim=3, layers=layers,
                           dropout=dropout)
        ids, acts = self.mixed_rows()
        assert len({tuple(a) for a in acts}) == 4

        def f():
            terminal, action = model.joint_log_likelihood_batch(
                ids, acts, rng=np.random.default_rng(66))
            return ad.sum_all(ad.add(terminal, ad.scale(action, 0.5)))

        report = grad_check(f, list(model.params.values()))
        assert report.passed, report

    def test_gradients_match_recorded(self):
        # recorded from the op-by-op taped stepper this sweep replaced: per
        # parameter, its gradient summed against fixed positive weights, as
        # is and in absolute value; only summation order may differ
        recorded = {
            "emb": (0.03213158736536283, 0.7959547052403998),
            "gen.lstm_w0": (0.00038397809312348656, 0.004484126729930993),
            "gen.lstm_b0": (0.010192420625380944, 0.044049038559953964),
            "gen.lstm_w1": (0.004235919325169416, 0.04011637488002263),
            "gen.lstm_b1": (0.20389179918997313, 0.42851473625622993),
            "gen.tree_w": (-5.969198436026495e-05, 0.0002779454373425744),
            "gen.tree_b": (-0.0001522338348086392, 0.0007778020858237519),
            "gen.action_w": (-0.026491802449431508, 0.05258334200400407),
            "gen.action_b": (1.7134898001022245, 1.7134898001022245),
            "gen.word_b": (-0.507557466879232, 13.203967225272597),
        }
        model = GenerativeModel(7, dim=4, dropout=0.5,
                                rng=np.random.default_rng(60))
        rng = np.random.default_rng(61)
        ids = rng.integers(2, 7, size=(4, 6))
        acts = np.array([random_tree(6, rng).actions for _ in range(4)])
        with Tape() as tape:
            terminal, action = model.joint_log_likelihood_batch(
                ids, acts, rng=np.random.default_rng(62))
            root = ad.sum_all(ad.add(terminal, ad.scale(action, 0.5)))
        grads = tape.backward(root)
        weights = np.random.default_rng(63)
        for name, p in model.params.items():
            w = weights.uniform(0.5, 1.5, size=p.shape)
            got = ((grads[p] * w).sum(), (np.abs(grads[p]) * w).sum())
            np.testing.assert_allclose(got, recorded[name], rtol=1e-12,
                                       err_msg=name)

    @pytest.mark.parametrize("taped", [False, True])
    def test_nan_weight_raises(self, taped):
        # a non-finite tree cell raises at its own level, before layer 0
        ids, acts = self.mixed_rows()
        for name, cell in (("gen.lstm_w0", "LSTM layer"),
                           ("gen.tree_w", "tree cell")):
            model = tiny_model(seed=67)
            model.params[name].data[0, 0] = np.nan
            with pytest.raises(ad.NumericError,
                               match=f"^{cell}: non-finite state"):
                if taped:
                    with Tape():
                        model.joint_log_likelihood_batch(
                            ids, acts, rng=np.random.default_rng(0))
                else:
                    model.joint_log_likelihood_batch(ids, acts)

    def test_taped_joint_nodes_do_not_grow_with_length(self):
        model = tiny_model(seed=68, vocab=20, dim=4, dropout=0.5)
        rng = np.random.default_rng(69)
        counts = []
        for t in (12, 48):
            ids = rng.integers(2, 20, size=(8, t))
            acts = np.array([random_tree(t, rng).actions for _ in range(8)])
            with Tape() as tape:
                terminal, action = model.joint_log_likelihood_batch(
                    ids, acts, rng=np.random.default_rng(0))
                ad.sum_all(ad.add(terminal, action))
            counts.append(len(tape))
        assert counts[0] == counts[1] <= 30

    def test_second_backward_through_the_joint_raises(self):
        # the word head turns its kept log-softmax into the gradient in
        # place and the sweep drops each step's record, so each runs once;
        # a second backward reaches the word head first
        model = tiny_model(seed=70)
        ids, acts = self.mixed_rows()
        with Tape() as tape:
            terminal, action = model.joint_log_likelihood_batch(ids, acts)
            root = ad.sum_all(ad.add(terminal, action))
        assert model.params["gen.lstm_w0"] in tape.backward(root)
        with pytest.raises(RuntimeError, match="tied word head"):
            tape.backward(root)

    def test_second_backward_of_the_action_term_raises(self):
        # the action term reaches the recurrence but not the word head, so
        # a second backward of it finds the levels already swept
        model = tiny_model(seed=71)
        ids, acts = self.mixed_rows()
        with Tape() as tape:
            _, action = model.joint_log_likelihood_batch(ids, acts)
            root = ad.sum_all(action)
        assert model.params["gen.lstm_w0"] in tape.backward(root)
        with pytest.raises(RuntimeError, match="stack recurrence"):
            tape.backward(root)

    @pytest.mark.parametrize("taped", [False, True])
    def test_one_cell_call_per_tree_height_and_per_layer_position(
            self, monkeypatch, taped):
        # the tree cell runs once per height of the tallest tree and each
        # LSTM layer once per position of the deepest stack, at most 3T
        model = tiny_model(seed=72, vocab=20, dim=4, dropout=0.5)
        rng = np.random.default_rng(73)
        t = 48
        ids = rng.integers(2, 20, size=(32, t))
        acts = np.array([random_tree(t, rng).actions for _ in range(32)])
        depth = np.cumsum(np.where(acts == S, 1, -1), axis=1).max()
        height = max(tree_height(a) for a in acts)
        calls = []
        cell = nn.cell

        def counted(*args):
            calls.append(len(args[0][0]))
            return cell(*args)

        monkeypatch.setattr(nn, "cell", counted)
        if taped:
            with Tape():
                model.joint_log_likelihood_batch(ids, acts,
                                                 rng=np.random.default_rng(0))
        else:
            model.joint_log_likelihood_batch(ids, acts)
        assert len(calls) == height + model.layers * depth <= 3 * t
        if taped:   # one row per push for the LSTM layers
            assert sum(calls) == (acts == R).sum() + model.layers * acts.size

    def test_long_rows_agree_shared_taped_and_reference(self):
        # T = 48: trie-shared untaped scores, one-push-per-row taped scores
        # and the naive replay agree; rows 4-7 repeat the words of rows 0-3
        model = tiny_model(seed=74, vocab=20, dim=4)
        rng = np.random.default_rng(75)
        t = 48
        ids = np.tile(rng.integers(2, 20, size=(4, t)), (2, 1))
        acts = np.array([random_tree(t, rng).actions for _ in range(8)])
        acts[4:6] = acts[:2]
        shared = model.joint_log_likelihood_batch(ids, acts)
        with Tape():
            taped = model.joint_log_likelihood_batch(ids, acts)
        for row in range(8):
            want = reference_joint(model, ids[row], acts[row])
            for term, act in (shared, taped):
                assert term.data[row] == pytest.approx(want[0], abs=1e-10)
                assert act.data[row] == pytest.approx(want[1], abs=1e-10)
