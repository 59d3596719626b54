"""Evaluation tests: importance-weighted estimates against enumeration
oracles, evalb-style bracket fixtures, and the diagnostic estimators."""

import math

import numpy as np
import pytest

from urnng import evaluate, oracle
from urnng.crf import SpanScores, flatten, inside, sample_tree, tree_log_prob
from urnng.evaluate import (EvalReport, bracket_multiset,
                            distributional_metrics, evaluate_corpus,
                            iw_log_marginal, iw_perplexity, label_recall,
                            ppl_by_length, prefer_grammatical, unlabeled_f1,
                            write_report, write_sentence_tsv)
from urnng.trainer import build_models
from urnng.treebank import (DataError, Sentence, TreeRepr, count_trees,
                            left_branching, parse_sexprs, random_tree,
                            right_branching)

from tests.test_crf import reference_sample_tree
from tests.test_trainer import tiny_config


def tiny_models(vocab=8, gen_dim=6, hidden=6, seed=11):
    cfg = tiny_config(gen_dim=gen_dim, inf_hidden=hidden, mlp_hidden=8)
    return build_models(cfg, vocab, rng=np.random.default_rng(seed))


def sentence_of(ids, punct=None):
    ids = tuple(int(v) for v in ids)
    punct = tuple(punct) if punct is not None else (False,) * len(ids)
    return Sentence(words=tuple(f"w{v}" for v in ids), ids=ids, punct=punct)


class ZeroInference:
    """Stub scorer giving every span score zero (uniform posterior)."""

    def span_scores(self, ids):
        t = ids.shape[1]
        return SpanScores.from_table(np.zeros((t, t)))


class TestImportanceWeighting:
    def test_length_two_is_exact_for_any_k(self):
        model, net = tiny_models()
        ids = np.array([2, 3])
        exact = oracle.exact_marginal(model, ids)
        for k in (1, 7):
            got = iw_log_marginal(model, net, ids, k=k,
                                  rng=np.random.default_rng(0))
            assert got == pytest.approx(exact, abs=1e-12)

    def test_k2000_within_half_percent_of_exact(self):
        model, net = tiny_models(seed=5)
        ids = np.array([2, 5, 3, 7, 4])
        exact = oracle.exact_marginal(model, ids)
        got = iw_log_marginal(model, net, ids, k=2000,
                              rng=np.random.default_rng(1))
        assert abs(got - exact) / abs(exact) < 0.005

    def test_estimate_grows_with_k_on_average(self):
        # E[log p_hat_K] is non-decreasing in K; resolving the trend at 50
        # repetitions needs a proposal that genuinely mismatches the model,
        # so the scorer comes from an independent draw and runs sharpened.
        # Per-rep seeds are shared across K so larger-K runs reuse the
        # smaller runs' draws as a prefix (common random numbers).
        cfg = tiny_config(gen_dim=6, inf_hidden=6, mlp_hidden=8,
                          init_scale=0.5)
        model, _ = build_models(cfg, 10, rng=np.random.default_rng(6))
        _, net = build_models(cfg, 10, rng=np.random.default_rng(77))
        ids = np.array([2, 3, 4, 5, 6, 7])
        means = []
        for k in (1, 10, 100, 1000):
            means.append(np.mean([
                iw_log_marginal(model, net, ids, k=k, temperature=0.3,
                                rng=np.random.default_rng((0, rep)))
                for rep in range(50)]))
        assert means == sorted(means)
        assert means[-1] <= oracle.exact_marginal(model, ids) + 0.05

    def test_k1_mean_matches_enumerated_jensen_bound(self):
        # E[log p_hat_1] = E_q[log p(x,z) - log q(z)] is exactly enumerable
        # and sits strictly below log p(x); k=1000 closes most of the gap.
        model, net = tiny_models(seed=6)
        ids = np.array([2, 3, 4, 5])
        exact = oracle.exact_marginal(model, ids)
        scores = flatten(net.span_scores(ids[None]), 2.0)
        trees, probs = oracle.exact_distribution(scores)
        joint = np.array([sum(model.joint_log_likelihood(ids, tr))
                          for tr in trees])
        w = joint - np.log(probs)
        e1 = float((probs * w).sum())
        var1 = float((probs * (w - e1) ** 2).sum())
        assert e1 < exact

        rng = np.random.default_rng(2)
        reps = 400
        m1 = np.mean([iw_log_marginal(model, net, ids, k=1, rng=rng)
                      for _ in range(reps)])
        assert abs(m1 - e1) <= 3 * math.sqrt(var1 / reps)
        m1000 = np.mean([iw_log_marginal(model, net, ids, k=1000, rng=rng)
                         for _ in range(20)])
        assert abs(m1000 - exact) < 0.01
        assert m1000 > e1

    def test_perplexity_excludes_eos_from_token_count(self):
        model, net = tiny_models()
        sentences = [sentence_of([2, 3])]
        ppl, log_m = iw_perplexity(sentences, model, net, k=3, seed=0)
        assert ppl == pytest.approx(math.exp(-log_m[0] / 2))

    def test_rejects_bad_parameters(self):
        model, net = tiny_models()
        with pytest.raises(ValueError, match="k must be"):
            iw_log_marginal(model, net, np.array([2, 3]), k=0)
        with pytest.raises(ValueError, match="temperature"):
            iw_log_marginal(model, net, np.array([2, 3]), temperature=0.0)
        with pytest.raises(DataError, match="empty"):
            iw_perplexity([], model, net)


class TestBracketConventions:
    def test_punctuation_and_reindexing(self):
        spans = {(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (1, 3), (1, 4)}
        ms = bracket_multiset(spans, [False, False, False, True])
        assert ms == {(1, 2): 1}  # (1,3) collapses onto the new root

    def test_punctuation_only_span_is_dropped(self):
        ms = bracket_multiset({(2, 3)}, [False, True, True, False])
        assert ms == {}

    def test_duplicate_brackets_are_counted(self):
        ms = bracket_multiset([(1, 2), (1, 2)], [False] * 4)
        assert ms == {(1, 2): 2}


class TestUnlabeledF1:
    def gold(self, text):
        return parse_sexprs(text)[0]

    def test_identical_trees_score_100(self):
        pred = [left_branching(4), right_branching(4)]
        gold = [left_branching(4), right_branching(4)]
        punct = [[False] * 4, [False] * 4]
        corpus, per_sentence = unlabeled_f1(pred, gold, punct)
        assert corpus == 100.0
        assert per_sentence == [100.0, 100.0]

    def test_disjoint_trees_score_0(self):
        corpus, per_sentence = unlabeled_f1(
            [left_branching(4)], [right_branching(4)], [[False] * 4])
        assert corpus == 0.0
        assert per_sentence == [0.0]

    def test_hand_counted_mixed_fixture(self):
        pred = [left_branching(4), left_branching(3), left_branching(2)]
        gold = [
            self.gold("(S (NP (NP (X a) (X b))) (VP (X c) (X d)))"),
            self.gold("(S (NP (X a) (X b)) (X c))"),
            self.gold("(S (X a) (. b))"),
        ]
        punct = [[False] * 4, [False] * 3, [False, True]]
        corpus, per_sentence = unlabeled_f1(pred, gold, punct)
        assert corpus == pytest.approx(57.14, abs=0.01)  # P=2/3, R=1/2
        assert per_sentence[0] == pytest.approx(40.0)
        assert per_sentence[1] == 100.0
        assert per_sentence[2] is None

    def test_punctuation_attachment_does_not_change_score(self):
        # same bracketing of the real words b..c, trailing punctuation hung
        # under the VP or above it; stripping collapses (2,4) onto (2,3) in
        # the second tree, and the duplicate must not cost precision
        with_low = TreeRepr(4, frozenset(
            {(1, 1), (2, 2), (3, 3), (4, 4), (3, 4), (2, 4), (1, 4)}))
        with_high = TreeRepr(4, frozenset(
            {(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (1, 4)}))
        gold = [self.gold("(S (X a) (VP (X b) (X c)) (. d))")]
        punct = [[False, False, False, True]]
        f1_low, _ = unlabeled_f1([with_low], gold, punct)
        f1_high, _ = unlabeled_f1([with_high], gold, punct)
        assert f1_low == f1_high == 100.0

    def test_trivial_span_differences_do_not_change_score(self):
        pred = [left_branching(4)]
        punct = [[False] * 4]
        plain = self.gold("(S (NP (X a) (X b)) (VP (X c) (X d)))")
        wrapped = self.gold(
            "(TOP (S (NP (X a) (X b)) (VP (X c) (NN (X d)))))")
        f1_plain, _ = unlabeled_f1(pred, [plain], punct)
        f1_wrapped, _ = unlabeled_f1(pred, [wrapped], punct)
        assert f1_plain == f1_wrapped

    def test_relabeling_invariance(self):
        pred = [left_branching(4)]
        punct = [[False] * 4]
        a = self.gold("(S (NP (X a) (X b)) (VP (X c) (X d)))")
        b = self.gold("(Q (R (X a) (X b)) (W (X c) (X d)))")
        assert unlabeled_f1(pred, [a], punct) == unlabeled_f1(
            pred, [b], punct)

    def test_binary_gold_trees_are_accepted(self):
        corpus, _ = unlabeled_f1([left_branching(4)], [left_branching(4)],
                                 [[False] * 4])
        assert corpus == 100.0

    def test_misalignment_is_rejected(self):
        with pytest.raises(DataError, match="misaligned"):
            unlabeled_f1([left_branching(3)], [], [[False] * 3])
        with pytest.raises(DataError, match="sentence 0"):
            unlabeled_f1([left_branching(3)],
                         [self.gold("(S (X a) (X b))")], [[False] * 3])

    def test_no_evaluable_gold_anywhere_is_an_error(self):
        with pytest.raises(DataError, match="no evaluable gold"):
            unlabeled_f1([left_branching(2)],
                         [self.gold("(S (X a) (X b))")], [[False] * 2])


class TestLabelRecall:
    def setup_fixture(self):
        gold = [
            parse_sexprs(
                "(S (NP (X a) (X b)) (VP (X c) (NP (X d) (X e))))")[0],
            parse_sexprs("(S (NP (X a) (X b)) (X c))")[0],
        ]
        punct = [[False] * 5, [False] * 3]
        return gold, punct

    def test_fixture_counts(self):
        gold, punct = self.setup_fixture()
        pred = [
            TreeRepr(5, frozenset({(1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                                   (1, 2), (4, 5), (3, 5), (1, 5)})),
            right_branching(3),
        ]
        recall = label_recall(pred, gold, punct)
        assert recall["NP"] == pytest.approx(2 / 3)
        assert recall["VP"] == 1.0
        assert recall["PP"] is None

    def test_superset_predictions_recall_everything(self):
        gold, punct = self.setup_fixture()
        pred = [
            TreeRepr(5, frozenset({(1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                                   (1, 2), (4, 5), (3, 5), (1, 5)})),
            left_branching(3),
        ]
        recall = label_recall(pred, gold, punct)
        assert recall["NP"] == 1.0 and recall["VP"] == 1.0

    def test_disjoint_predictions_recall_nothing(self):
        gold, punct = self.setup_fixture()
        pred = [
            TreeRepr(5, frozenset({(1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
                                   (2, 3), (2, 5), (4, 5), (1, 5)})),
            right_branching(3),
        ]
        recall = label_recall(pred, gold, punct, labels=("NP",))
        assert recall["NP"] == pytest.approx(1 / 3)  # only (4,5) survives


class TestDistributionalMetrics:
    def test_uniform_posterior_matches_uniform_entropy(self):
        model, _ = tiny_models()
        sentences = [sentence_of([2, 3, 4]), sentence_of([5, 6, 7])]
        out = distributional_metrics(sentences, model, ZeroInference(), k=20,
                                     seed=0)
        assert out["posterior_entropy"] == pytest.approx(math.log(2),
                                                         abs=1e-12)
        assert out["uniform_entropy"] == pytest.approx(math.log(2),
                                                       abs=1e-12)

    def test_posterior_entropy_never_exceeds_uniform(self):
        rng = np.random.default_rng(3)
        model, net = tiny_models(seed=8)
        for t in (2, 3, 5, 7):
            ids = rng.integers(2, 8, size=t)
            out = distributional_metrics([sentence_of(ids)], model, net,
                                         k=1, seed=0)
            assert out["posterior_entropy"] <= out["uniform_entropy"] + 1e-12
            assert out["uniform_entropy"] == pytest.approx(
                math.log(count_trees(t)))

    def exact_kl_and_se(self, model, net, ids, k):
        scores = net.span_scores(np.asarray(ids)[None])
        trees, probs = oracle.exact_distribution(scores)
        log_q = np.log(probs)
        action = np.array([model.joint_log_likelihood(ids, tr)[1]
                           for tr in trees])
        values = log_q - action
        exact = float((probs * values).sum())
        var = float((probs * (values - exact) ** 2).sum())
        return exact, math.sqrt(var / k)

    def test_sampled_kl_matches_oracle_within_3_se(self):
        model, net = tiny_models(seed=9)
        ids = np.array([2, 5, 3, 6])
        k = 2000
        exact, se = self.exact_kl_and_se(model, net, ids, k)
        assert exact == pytest.approx(oracle.exact_action_kl(
            model, net.span_scores(ids[None]), ids), abs=1e-10)
        out = distributional_metrics([sentence_of(ids)], model, net, k=k,
                                     seed=4)
        assert abs(out["kl"] - exact) <= 3 * se + 1e-12

    def test_kl_is_nonnegative_within_noise(self):
        model, net = tiny_models(seed=10)
        sentences = [sentence_of([2, 3, 4, 5]), sentence_of([6, 7, 3])]
        out = distributional_metrics(sentences, model, net, k=500, seed=5)
        assert out["kl"] > -0.05

    def test_prior_entropy_matches_enumeration_within_3_se(self):
        model, net = tiny_models(seed=12)
        ids = np.array([2, 3, 4, 5])
        trees = oracle.enumerate_trees(4)
        action = np.array([model.joint_log_likelihood(ids, tr)[1]
                           for tr in trees])
        probs = np.exp(action)
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)
        exact = float(-(probs * action).sum())
        k = 2000
        var = float((probs * (-action - exact) ** 2).sum())
        se = math.sqrt(var / k)
        out = distributional_metrics([sentence_of(ids)], model, net, k=k,
                                     seed=6)
        assert abs(out["prior_entropy"] - exact) <= 3 * se + 1e-12

    def test_reconstruction_perplexity_is_finite_and_positive(self):
        model, net = tiny_models(seed=13)
        out = distributional_metrics([sentence_of([2, 3, 4])], model, net,
                                     k=50, seed=7)
        assert np.isfinite(out["reconstruction_perplexity"])
        assert out["reconstruction_perplexity"] > 1.0


    def test_sampled_joints_match_reference_draws(self):
        model, net = tiny_models(seed=17)
        ids = np.array([2, 5, 3, 4, 6, 7])
        chart = inside(flatten(net.span_scores(ids[None]), 2.0))
        k = 300
        want_rng, got_rng = (np.random.default_rng(8) for _ in range(2))
        draws = [reference_sample_tree(chart, want_rng) for _ in range(k)]
        terminal, action, which, log_qs = evaluate._sampled_joints(
            model, ids, chart, got_rng, k)
        index = {}
        assert which.tolist() == [index.setdefault(tree, len(index))
                                  for tree in draws]
        assert log_qs[which].tolist() == [tree_log_prob(chart, tree)
                                          for tree in draws]
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        for tree, term, act in zip(index, terminal, action):
            assert (term, act) == pytest.approx(
                model.joint_log_likelihood(ids, tree), rel=1e-12)

    def test_diagnostics_average_every_draw(self):
        # repeated trees are scored once, but reconstruction and KL still
        # average over all k draws, each draw scored on its own here
        model, net = tiny_models(seed=17)
        sentences = [sentence_of([2, 5, 3, 4]), sentence_of([6, 2, 7])]
        k, seed = 60, 4
        recon = kl = 0.0
        for i, s in enumerate(sentences):
            rng = np.random.default_rng((seed, 7000 + i))
            chart = inside(net.span_scores(np.array([s.ids])))
            draws = [sample_tree(chart, rng, 0) for _ in range(k)]
            assert len({tree for tree, _ in draws}) < k
            scores = [model.joint_log_likelihood(s.ids, tree)
                      for tree, _ in draws]
            recon += np.mean([terminal for terminal, _ in scores])
            kl += np.mean([log_q - action
                           for (_, log_q), (_, action) in zip(draws, scores)])
        got = distributional_metrics(sentences, model, net, k=k, seed=seed)
        tokens = sum(len(s.ids) for s in sentences)
        assert got["reconstruction_perplexity"] == pytest.approx(
            math.exp(-recon / tokens), rel=1e-12)
        assert got["kl"] == pytest.approx(kl / len(sentences), rel=1e-12)


class TestPplByLength:
    def fixture(self):
        sentences = [sentence_of([2, 3]), sentence_of([4, 5, 6]),
                     sentence_of([2, 3, 4, 5, 6])]
        log_m = np.array([-4.0, -7.5, -11.0])
        return sentences, log_m

    def test_single_bucket_equals_overall(self):
        sentences, log_m = self.fixture()
        overall = math.exp(-log_m.sum() / 10)
        out = ppl_by_length(sentences, log_m, [0, 100])
        assert out["(0,100]"] == pytest.approx(overall)

    def test_two_buckets_reconstruct_overall(self):
        sentences, log_m = self.fixture()
        out = ppl_by_length(sentences, log_m, [0, 3, 100])
        weighted = (5 * math.log(out["(0,3]"]) + 5 * math.log(out["(3,100]"]))
        assert math.exp(weighted / 10) == pytest.approx(
            math.exp(-log_m.sum() / 10), abs=1e-9)

    def test_hand_computed_bucket(self):
        sentences, log_m = self.fixture()
        out = ppl_by_length(sentences, log_m, [0, 2, 4, 10])
        assert out["(0,2]"] == pytest.approx(math.exp(4.0 / 2))
        assert out["(2,4]"] == pytest.approx(math.exp(7.5 / 3))
        assert out["(4,10]"] == pytest.approx(math.exp(11.0 / 5))

    def test_empty_bucket_is_marked(self):
        sentences, log_m = self.fixture()
        out = ppl_by_length(sentences, log_m, [0, 1, 100])
        assert out["(0,1]"] is None

    def test_bad_edges_rejected(self):
        sentences, log_m = self.fixture()
        with pytest.raises(ValueError, match="strictly increasing"):
            ppl_by_length(sentences, log_m, [5, 5])


class TestPreferGrammatical:
    def test_identical_sentences_tie_exactly(self):
        model, net = tiny_models()
        choice, margin = prefer_grammatical(
            [2, 3, 4], [2, 3, 4], model, net, k=20, seed=3)
        assert choice == 0
        assert margin == 0.0

    def test_margin_flips_sign_on_swap(self):
        model, net = tiny_models()
        a, b = [2, 3, 4], [5, 6, 7, 3]
        choice_ab, margin_ab = prefer_grammatical(a, b, model, net, k=20,
                                                  seed=3)
        choice_ba, margin_ba = prefer_grammatical(b, a, model, net, k=20,
                                                  seed=3)
        assert margin_ab == -margin_ba
        assert {choice_ab, 1 - choice_ba} in ({0}, {1}, {0, 1})
        assert (margin_ab >= 0) == (choice_ab == 0)


class TestReportOutput:
    def test_unevaluable_gold_fails_before_iw_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluate, "iw_perplexity",
                            lambda *args: calls.append(args))
        model, net = tiny_models()
        # after the final punctuation goes, only trivial spans remain
        sentences = [sentence_of([2, 3, 4], punct=[False, False, True])]
        gold = [parse_sexprs("(S (NP (X a) (X b)) (X .))")[0]]
        with pytest.raises(DataError, match="no evaluable gold"):
            evaluate_corpus(sentences, model, net, gold=gold, k=1000)
        assert calls == []

    def test_evaluate_corpus_and_writers(self, tmp_path):
        model, net = tiny_models()
        sentences = [sentence_of([2, 3, 4]), sentence_of([5, 6, 7, 3]),
                     sentence_of([4, 2, 5])]
        gold = [parse_sexprs("(S (NP (X a) (X b)) (X c))")[0],
                parse_sexprs("(S (X a) (VP (X b) (NP (X c) (X d))))")[0],
                parse_sexprs("(S (X a) (NP (X b) (X c)))")[0]]
        report = evaluate_corpus(sentences, model, net, gold=gold, k=30,
                                 length_edges=(0, 3, 10), seed=1)
        assert isinstance(report, EvalReport)
        assert report.perplexity > 1.0
        assert 0.0 <= report.corpus_f1 <= 100.0
        assert set(report.label_recall) == {"NP", "VP", "PP", "SBAR",
                                            "ADJP", "ADVP"}
        assert report.ppl_by_length["(0,3]"] is not None

        report_path = tmp_path / "report.txt"
        write_report(report, report_path)
        text = report_path.read_text()
        assert "perplexity " in text and "corpus_f1 " in text
        assert "label_recall.NP " in text
        assert "ppl_by_length.(0,3] " in text

        tsv_path = tmp_path / "sentences.tsv"
        write_sentence_tsv(report, sentences, tsv_path)
        lines = tsv_path.read_text().splitlines()
        assert lines[0] == "index\tlength\tlog_marginal\tf1"
        assert len(lines) == 4
        assert lines[1].split("\t")[1] == "3"
