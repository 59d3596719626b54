"""Acceptance suite: one test (and one pass/fail line) per shipping
criterion.  Fast criteria check chart algorithms, gradients, and estimators
against brute-force enumeration; the final two run a self-contained
synthetic-grammar experiment end to end on a single CPU."""

import math
import time
from importlib import resources

import numpy as np
import pytest

import urnng.autodiff as ad
from urnng import oracle
from urnng.autodiff import Tape, Tensor, grad_check
from urnng.crf import SpanScores, inside, sample_trees, tree_entropy, \
    tree_log_prob_batch, viterbi
from urnng.evaluate import iw_log_marginal, unlabeled_f1, viterbi_parses
from urnng.rnng import GenerativeModel
from urnng.synth import Grammar, synth_corpus
from urnng.trainer import TrainConfig, Trainer, build_models
from urnng.treebank import (TreeRepr, Vocabulary, actions_to_tree,
                            binarize_right, count_trees, left_branching,
                            make_sentence, parse_sexprs, random_tree,
                            tree_to_actions)

from tests.test_trainer import flatten_grads, tiny_config


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def random_scores(rng: np.random.Generator, length: int,
                  batch: int = 1) -> SpanScores:
    flat = rng.normal(size=(batch, length * (length + 1) // 2))
    return SpanScores(length, Tensor(flat))


def test_criterion_01_inside_partition_matches_enumeration():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for t in range(2, 9):
        scores = random_scores(rng, t, batch=100)
        log_z = inside(scores).log_z.data
        for b in range(100):
            exact = oracle.exact_partition(scores, b)
            rel = abs(log_z[b] - exact) / max(abs(exact), 1.0)
            worst = max(worst, rel)
    elapsed = time.monotonic() - start
    report(1, worst <= 1e-10 and elapsed < 30.0,
           f"inside logZ vs enumeration, 100 tables each T=2..8, "
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_entropy_matches_enumeration():
    rng = np.random.default_rng(101)  # same instances as criterion 1
    worst = 0.0
    for t in range(2, 9):
        scores = random_scores(rng, t, batch=100)
        entropy = tree_entropy(inside(scores)).data
        for b in range(100):
            worst = max(worst, abs(entropy[b] - oracle.exact_entropy(
                scores, b)))
    report(2, worst <= 1e-8,
           f"chart entropy vs enumeration, max abs err {worst:.2e}")


def test_criterion_03_sampler_total_variation():
    # each count's draws are made in one sample_trees call, which gives the
    # draws of as many sample_tree calls, one after another
    def counts(chart, trees):
        spans, which = sample_trees(chart, rng, np.zeros(n, np.int64))
        index = {tree: i for i, tree in enumerate(trees)}
        drawn = np.array([index[TreeRepr.from_array(s)] for s in spans])
        return np.bincount(drawn[which], minlength=len(trees))

    rng = np.random.default_rng(33)
    n = 50_000
    worst_tv = 0.0
    for t in (5, 6):
        scores = random_scores(rng, t)
        trees, probs = oracle.exact_distribution(scores)
        freq = counts(inside(scores), trees) / n
        worst_tv = max(worst_tv, 0.5 * np.abs(freq - probs).sum())

    chart = inside(SpanScores(5, Tensor(np.zeros((1, 15)))))
    trees = oracle.enumerate_trees(5)
    uniform_gap = float(np.abs(counts(chart, trees) / n
                               - 1.0 / len(trees)).max())
    report(3, worst_tv < 0.02 and uniform_gap < 0.01,
           f"sampling fidelity: TV {worst_tv:.4f} (T=5,6 at 5e4 draws), "
           f"uniform gap {uniform_gap:.4f}")


def test_criterion_04_viterbi_matches_enumerated_argmax():
    rng = np.random.default_rng(44)
    all_match = True
    for _ in range(100):
        t = int(rng.integers(2, 9))
        scores = random_scores(rng, t)
        tree, score = viterbi(scores, 0)
        best_tree, best_score = oracle.exact_argmax(scores, 0)
        if tree != best_tree or abs(score - best_score) > 1e-9:
            all_match = False
    ties = all(viterbi(SpanScores(t, Tensor(np.zeros(
        (1, t * (t + 1) // 2)))), 0)[0] == left_branching(t)
        for t in range(1, 9))
    report(4, all_match and ties,
           "Viterbi equals enumerated argmax on 100 random instances "
           "(T<=8); all-zero scores give the left-branching tie-break")


def test_criterion_05_action_bijection_and_counts():
    round_trip = True
    for t in range(1, 9):
        for tree in oracle.enumerate_trees(t):
            if actions_to_tree(tree_to_actions(tree), t) != tree:
                round_trip = False
    counts_match = all(len(oracle.enumerate_trees(t)) == count_trees(t)
                       for t in range(1, 11))
    report(5, round_trip and counts_match and count_trees(8) == 429,
           "action-sequence bijection round-trips all trees T<=8; "
           "count_trees matches enumeration T<=10 (429 at T=8)")


def test_criterion_06_gradient_integrity():
    rng = np.random.default_rng(66)

    def t(*shape, positive=False):
        data = rng.normal(size=shape)
        if positive:
            data = np.abs(data) + 0.5
        return Tensor(data, requires_grad=True)

    x = t(3, 4)
    y = t(3, 4)
    m = t(4, 5)
    v = t(4)
    s = t(1)
    pos = t(3, 4, positive=True)
    gain = t(4)
    bias = t(4)
    rows = np.array([2, 0, 1, 2])
    cols = np.array([1, 3, 0])
    cases = [
        ("add", lambda: ad.sum_all(ad.add(x, y))),
        ("sub", lambda: ad.sum_all(ad.sub(x, y))),
        ("mul", lambda: ad.sum_all(ad.mul(x, y))),
        ("scale", lambda: ad.sum_all(ad.scale(x, -1.7))),
        ("add_const", lambda: ad.sum_all(ad.add_const(x, 2.5))),
        ("add_broadcast", lambda: ad.sum_all(ad.add_broadcast(x, s))),
        ("add_row", lambda: ad.sum_all(ad.add_row(x, v))),
        ("matmul", lambda: ad.sum_all(ad.matmul(x, m))),
        ("transpose", lambda: ad.sum_all(ad.mul(ad.transpose(x),
                                                ad.transpose(y)))),
        ("reshape", lambda: ad.sum_all(ad.mul(ad.reshape(x, (4, 3)),
                                              ad.reshape(y, (4, 3))))),
        ("concat", lambda: ad.sum_all(ad.exp(ad.concat([x, y], 1)))),
        ("stack0", lambda: ad.sum_all(ad.exp(ad.stack0([v, gain, bias])))),
        ("narrow", lambda: ad.sum_all(ad.exp(ad.narrow(x, 1, 1, 2)))),
        ("take_rows", lambda: ad.sum_all(ad.exp(ad.take_rows(x, rows)))),
        ("pick_per_row", lambda: ad.sum_all(ad.exp(ad.pick_per_row(x, cols)))),
        ("sum_axis", lambda: ad.sum_all(ad.exp(ad.sum_axis(x, 0)))),
        ("sigmoid", lambda: ad.sum_all(ad.sigmoid(x))),
        ("tanh", lambda: ad.sum_all(ad.tanh(x))),
        ("relu", lambda: ad.sum_all(ad.relu(x))),
        ("exp", lambda: ad.sum_all(ad.exp(x))),
        ("log", lambda: ad.sum_all(ad.log(pos))),
        ("softplus", lambda: ad.sum_all(ad.softplus(x))),
        ("softmax", lambda: ad.sum_all(ad.mul(ad.softmax(x, 1), y))),
        ("log_softmax", lambda: ad.sum_all(ad.mul(ad.log_softmax(x, 1), y))),
        ("logsumexp", lambda: ad.sum_all(ad.logsumexp(x, 1))),
        ("layer_norm", lambda: ad.sum_all(ad.layer_norm(x, gain, bias))),
        ("dropout", lambda: ad.sum_all(ad.dropout(
            x, 0.4, np.random.default_rng(7)))),
    ]
    failures = []
    for name, fn in cases:
        result = grad_check(fn, [x, y, m, v, s, pos, gain, bias])
        if not result:
            failures.append(f"{name}: {result.max_rel_err:.2e}")

    flat = Tensor(np.random.default_rng(5).normal(size=(1, 15)),
                  requires_grad=True)
    chart_ok = grad_check(
        lambda: ad.sum_all(inside(SpanScores(5, flat)).log_z), [flat])
    entropy_ok = grad_check(
        lambda: ad.sum_all(tree_entropy(inside(SpanScores(5, flat)))),
        [flat])

    model = GenerativeModel(6, dim=4, layers=1, dropout=0.0,
                            rng=np.random.default_rng(8))
    tree = actions_to_tree((0, 0, 1, 0, 1), 3)
    ids = np.array([[2, 4, 3]])
    acts = np.asarray(tree.actions, dtype=np.int64)[None]

    def joint():
        terminal, action = model.joint_log_likelihood_batch(ids, acts)
        return ad.add(ad.sum_all(terminal), ad.sum_all(action))

    theta_ok = grad_check(joint, list(model.parameters().values()))
    report(6, not failures and chart_ok and entropy_ok and theta_ok,
           f"grad_check: {len(cases)} primitives"
           + (f" ({'; '.join(failures)})" if failures else "")
           + f", logZ {chart_ok.max_rel_err:.1e}, "
           f"entropy {entropy_ok.max_rel_err:.1e}, "
           f"joint-vs-theta {theta_ok.max_rel_err:.1e}")


def test_criterion_07_generative_normalization():
    rng = np.random.default_rng(77)
    model = GenerativeModel(10, dim=8, layers=2, dropout=0.0, rng=rng)
    worst = 0.0
    for t in range(1, 7):
        ids = rng.integers(2, 10, size=t)
        trees = oracle.enumerate_trees(t)
        acts = np.array([tree.actions for tree in trees], dtype=np.int64)
        terminal, action = model.joint_log_likelihood_batch(
            np.tile(ids[None], (len(trees), 1)), acts)
        joints = terminal.data + action.data
        top = joints.max()
        lse = top + math.log(np.exp(joints - top).sum())
        worst = max(worst, abs(lse - oracle.exact_marginal(model, ids)))
    report(7, worst <= 1e-8,
           f"logsumexp of enumerated joints vs exact marginal, T=1..6, "
           f"max gap {worst:.2e}")


def test_criterion_08_estimator_unbiasedness_and_control_variate():
    cfg = tiny_config(gen_dim=8, inf_hidden=8, mlp_hidden=16, samples=8)
    model, net = build_models(cfg, vocab_size=10,
                              rng=np.random.default_rng(11))
    ids = np.array([2, 5, 3, 7])
    trees = oracle.enumerate_trees(4)
    rewards = np.array([sum(model.joint_log_likelihood(ids, tr))
                        for tr in trees])
    _, q = oracle.exact_distribution(net.span_scores(ids[None]))
    params = list(net.parameters().values()) + [net.embedding]
    grad_vecs = []
    for tree in trees:
        with Tape() as tape:
            chart = inside(net.span_scores(ids[None]))
            root = ad.sum_all(tree_log_prob_batch(chart, [tree],
                                                  np.array([0])))
        grad_vecs.append(flatten_grads(tape.backward(root), params))
    grads = np.stack(grad_vecs)
    exact = flatten_grads(oracle.exact_phi_gradient(net, ids, rewards),
                          params)

    values = rewards[:, None] * grads
    n = 100_000
    counts = np.random.default_rng(20).multinomial(n, q)
    mean = counts @ values / n
    second = counts @ (values ** 2) / n
    se = np.sqrt(np.maximum(second - mean ** 2, 0.0) / n)
    # 1e-10 absolute floor: coordinates whose true gradient is exactly zero
    # (layer-norm bias shifts all span scores equally) carry only float dust
    unbiased = bool(np.all(np.abs(mean - exact) <= 3.0 * se + 1e-10))

    k, wins = 8, 0
    rng = np.random.default_rng(22)
    for _ in range(20):
        reps = 64
        plain = np.empty((reps, grads.shape[1]))
        baselined = np.empty_like(plain)
        for m in range(reps):
            idx = rng.choice(len(q), size=k, p=q)
            r, g = rewards[idx], grads[idx]
            adv = r - (r.sum() - r) / (k - 1)
            plain[m] = (r[:, None] * g).mean(axis=0)
            baselined[m] = (adv[:, None] * g).mean(axis=0)
        wins += baselined.var(axis=0).sum() < plain.var(axis=0).sum()
    report(8, unbiased and wins == 20,
           f"score-function estimator within 3 SE of enumerated gradient "
           f"at 1e5 samples; leave-one-out cut variance in {wins}/20 trials")


def test_criterion_09_elbo_bound_and_kl_gap():
    rng = np.random.default_rng(99)
    bound_ok = True
    worst = 0.0
    for _ in range(100):
        model = GenerativeModel(8, dim=6, layers=1, dropout=0.0, rng=rng)
        ids = rng.integers(2, 8, size=4)
        scores = random_scores(rng, 4)
        marginal = oracle.exact_marginal(model, ids)
        elbo = oracle.exact_elbo(model, scores, ids)
        kl = oracle.exact_posterior_kl(model, scores, ids)
        bound_ok = bound_ok and elbo <= marginal + 1e-12
        worst = max(worst, abs(marginal - elbo - kl))
    report(9, bound_ok and worst <= 1e-8,
           f"ELBO <= marginal on 100 random (theta, phi) at T=4; "
           f"gap equals enumerated KL, max err {worst:.2e}")


def test_criterion_10_importance_weighted_consistency():
    cfg = tiny_config(gen_dim=6, inf_hidden=6, mlp_hidden=8)
    model, net = build_models(cfg, 10, rng=np.random.default_rng(10))
    ids2 = np.array([2, 3])
    exact2 = oracle.exact_marginal(model, ids2)
    exact_any_k = all(
        abs(iw_log_marginal(model, net, ids2, k=k,
                            rng=np.random.default_rng(0)) - exact2) <= 1e-12
        for k in (1, 5, 64))
    ids6 = np.array([2, 5, 3, 7, 4, 6])
    exact6 = oracle.exact_marginal(model, ids6)
    est = iw_log_marginal(model, net, ids6, k=2000,
                          rng=np.random.default_rng(1))
    rel = abs(est - exact6) / abs(exact6)
    report(10, exact_any_k and rel < 0.005,
           f"IW marginal: T=2 exact for any K; T=6 K=2000 within "
           f"{100 * rel:.3f}% of enumeration (limit 0.5%)")


def test_criterion_11_f1_conventions():
    lb = left_branching(4)
    identity = unlabeled_f1([lb], [lb], [[False] * 4])[0] == 100.0

    low = [(1, 1), (2, 2), (3, 3), (4, 4), (3, 4), (2, 4), (1, 4)]
    high = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 3), (2, 4), (1, 4)]
    punct_gold = parse_sexprs("(S (X a) (VP (X b) (X c)) (. d))")
    mask = [[False, False, False, True]]
    punct_same = (unlabeled_f1([TreeRepr(4, frozenset(low))],
                               punct_gold, mask)
                  == unlabeled_f1([TreeRepr(4, frozenset(high))],
                                  punct_gold, mask))

    plain = parse_sexprs("(S (NP (X a) (X b)) (VP (X c) (X d)))")
    wrapped = parse_sexprs(
        "(TOP (S (NP (X a) (X b)) (VP (X c) (NN (X d)))))")
    trivial_same = (unlabeled_f1([lb], plain, [[False] * 4])
                    == unlabeled_f1([lb], wrapped, [[False] * 4]))

    mixed_pred = [left_branching(4), left_branching(3), left_branching(2)]
    mixed_gold = parse_sexprs(
        "(S (NP (NP (X a) (X b))) (VP (X c) (X d)))"
        "(S (NP (X a) (X b)) (X c))"
        "(S (X a) (. b))")
    mixed_punct = [[False] * 4, [False] * 3, [False, True]]
    mixed_f1, _ = unlabeled_f1(mixed_pred, mixed_gold, mixed_punct)
    mixed_ok = abs(mixed_f1 - 57.14) <= 0.01
    report(11, identity and punct_same and trivial_same and mixed_ok,
           f"F1 conventions: identity 100, punctuation-only and "
           f"trivial-span-only differences score-neutral, mixed fixture "
           f"{mixed_f1:.2f} (target 57.14 +/- 0.01)")


# -- the synthetic end-to-end experiment --------------------------------------


DESK_SEED = 0


@pytest.fixture(scope="module")
def desk_data():
    grammar = Grammar.from_text(
        (resources.files("urnng") / "data" / "default_grammar.txt")
        .read_text(encoding="utf-8"))
    train_trees = synth_corpus(grammar, 5000, 3, 12, seed=1)
    valid_trees = synth_corpus(grammar, 500, 3, 12, seed=2)
    vocab = Vocabulary.build([t.leaves() for t in train_trees], min_count=2)
    return {
        "vocab": vocab,
        "train": [make_sentence(t.leaves(), vocab) for t in train_trees],
        "valid": [make_sentence(t.leaves(), vocab) for t in valid_trees],
        "train_gold": train_trees,
        "valid_gold": valid_trees,
    }


def desk_run(data, mode: str):
    cfg = TrainConfig(mode=mode, samples=8, batch_size=16, epochs=5,
                      gen_dim=64, inf_hidden=64, max_len=20, seed=DESK_SEED)
    model, inference = build_models(cfg, len(data["vocab"]),
                                    rng=np.random.default_rng(cfg.seed))
    trainer = Trainer(model, inference, cfg)
    if mode == "supervised":
        train = [(s, binarize_right(t))
                 for s, t in zip(data["train"], data["train_gold"])]
        valid = [(s, binarize_right(t))
                 for s, t in zip(data["valid"], data["valid_gold"])]
    else:
        train, valid = data["train"], data["valid"]
    records = trainer.train(train, valid)
    return trainer, records


def test_criterion_12_end_to_end_desk_run(desk_data):
    start = time.monotonic()
    trainer, records = desk_run(desk_data, "urnng")
    elapsed = time.monotonic() - start

    improved = (records[-1]["val_elbo_per_token"]
                > records[0]["val_elbo_per_token"])
    entropies = [r["val_entropy"] for r in records]
    entropy_ok = min(entropies) > 0.1

    valid = desk_data["valid"]
    gold = desk_data["valid_gold"]
    punct = [s.punct for s in valid]
    f1, _ = unlabeled_f1(viterbi_parses(trainer.inference, valid),
                         gold, punct)
    baselines = []
    for seed in range(5):
        rng = np.random.default_rng((7700, seed))
        rand = [random_tree(len(s.ids), rng) for s in valid]
        baselines.append(unlabeled_f1(rand, gold, punct)[0])
    margin = f1 - float(np.mean(baselines))

    _, records_again = desk_run(desk_data, "urnng")
    deterministic = records == records_again
    total = time.monotonic() - start

    report(12, improved and entropy_ok and margin >= 10.0
           and deterministic and total < 1800.0,
           f"desk run: val ELBO/token {records[0]['val_elbo_per_token']:.4f}"
           f" -> {records[-1]['val_elbo_per_token']:.4f}, F1 {f1:.1f} vs "
           f"random {np.mean(baselines):.1f} (margin {margin:.1f}, need 10),"
           f" min entropy {min(entropies):.3f} nats, identical reruns: "
           f"{deterministic}, {total / 60:.1f} min")


def test_criterion_13_supervised_parser_sanity(desk_data):
    trainer, _ = desk_run(desk_data, "supervised")
    valid = desk_data["valid"]
    gold_binary = [binarize_right(t) for t in desk_data["valid_gold"]]
    f1, _ = unlabeled_f1(viterbi_parses(trainer.inference, valid),
                         gold_binary, [s.punct for s in valid])
    report(13, f1 >= 90.0,
           f"supervised training reaches Viterbi F1 {f1:.1f} vs binarized "
           f"gold within 5 epochs (need 90)")
