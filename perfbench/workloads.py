"""The benchmark's workloads: inputs made from a seed, set-up, timed rounds
and checks.

Every workload is driven through the entry points a user calls:
``Trainer.train`` for the two training workloads and
``evaluate.evaluate_corpus`` for IW evaluation.  A round is one such call
over the workload's whole corpus, and every round of a run repeats the same
call, so a run attempts whole rounds of the same sentences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
from urnng import crf, evaluate, synth
from urnng.trainer import TrainConfig, Trainer, build_models
from urnng.treebank import (EOS_TOKEN, UNK_TOKEN, Vocabulary, binarize_right,
                            make_sentence)

DESK = {"gen_dim": 64, "inf_hidden": 64}
PAPER = {"gen_dim": 650, "inf_hidden": 256}
SAMPLES = 8                 # K posterior samples per training sentence
BATCH = 4
IW_SAMPLES = 1000           # K proposal samples per evaluated sentence
IW_TEMPERATURE = 2.0
MODEL_SEED = 1234           # fixed initialisation of the evaluated model

# Sentence lengths are fixed per workload and the seed picks the words, so
# every seed costs about the same.  A training round is one full batch, so
# a run repeats it often enough for its median to ignore a slow round.
LONG_LENGTHS = (48,) * BATCH
LONG_VALID = (48,)
PAPER_LENGTHS = (10,) * BATCH
PAPER_VALID = (10,)
PAPER_TYPES = 10_000        # vocabulary size, <unk> and </s> included
EVAL_LENGTHS = (3, 4, 5, 6, 7, 12)
EVAL_WARMUP_SENTENCES = 48
EVAL_WARMUP_PHI_LR = 1e-2   # sharpens q so the proposal repeats trees


@dataclass
class Prepared:
    """What one set-up hands to the timed rounds and the checks."""

    model: object
    inference: object
    config: TrainConfig
    sentences: list
    valid: list = field(default_factory=list)
    gold: list = field(default_factory=list)


# -- inputs -------------------------------------------------------------------


def grammar_by_length(grammar, lengths, seed):
    """One grammar tree per requested length, in the requested order."""
    picked = [None] * len(lengths)
    for attempt in range(1000):
        for tree in synth.synth_corpus(grammar, 64, min(lengths),
                                       max(lengths), seed=(*seed, attempt)):
            t = len(tree.leaves())
            slot = next((i for i, want in enumerate(lengths)
                         if want == t and picked[i] is None), None)
            if slot is not None:
                picked[slot] = tree
        if None not in picked:
            return picked
    raise RuntimeError(f"grammar yields no sentences of lengths {lengths}")


def joined_sentences(grammar, lengths, seed) -> list[list[str]]:
    """Long sentences: consecutive grammar sentences joined, then cut to
    the exact target length (the tail of the cut sentence is dropped)."""
    stream = iter(synth.synth_corpus(grammar, sum(lengths) // 2, 1, 25,
                                     seed=seed))
    out = []
    for t in lengths:
        words: list[str] = []
        while len(words) < t:
            words += next(stream).leaves()
        out.append(words[:t])
    return out


def zipf_sentences(grammar, lengths, n_types: int, seed) -> list[list[str]]:
    """Grammar sentences with every word replaced from a Zipf lexicon.

    Each grammar word owns an offset into ``n_types`` word types; a token
    becomes type ``(offset + r) % n_types`` with P(r) proportional to
    1 / (r + 1), so the lexicon's head is frequent and its tail is rare.
    """
    trees = grammar_by_length(grammar, lengths, seed)
    rng = np.random.default_rng((*seed, 17))
    weights = 1.0 / np.arange(1, n_types + 1)
    weights /= weights.sum()
    stride = n_types // len(grammar.terminals)
    offset = {w: i * stride for i, w in enumerate(grammar.terminals)}
    out = []
    for tree in trees:
        leaves = tree.leaves()
        ranks = rng.choice(n_types, size=len(leaves), p=weights)
        out.append([f"w{(offset[w] + r) % n_types:05d}"
                    for w, r in zip(leaves, ranks)])
    return out


# -- training workloads -----------------------------------------------------------


class RecordingTrainer(Trainer):
    """A Trainer that keeps each ELBO step's diagnostics for the checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.steps: list[tuple[int, dict]] = []

    def elbo_step(self, ids, anneal=1.0, *, update=True):
        diag = super().elbo_step(ids, anneal, update=update)
        self.steps.append((np.shape(ids)[1], diag))
        return diag


def setup_train(grammar, seed: int, paper: bool) -> Prepared:
    if paper:
        train, valid, dims = PAPER_LENGTHS, PAPER_VALID, PAPER
        words = zipf_sentences(grammar, train + valid, PAPER_TYPES - 2,
                               (seed, 1))
        vocab = Vocabulary([UNK_TOKEN, EOS_TOKEN] + [
            f"w{i:05d}" for i in range(PAPER_TYPES - 2)])
    else:
        train, valid, dims = LONG_LENGTHS, LONG_VALID, DESK
        words = joined_sentences(grammar, train + valid, (seed, 2))
        vocab = Vocabulary.build(words, min_count=1)
    sentences = [make_sentence(w, vocab) for w in words]
    n_train = len(train)
    # no annealing: with one batch per epoch its weight would stay 0
    config = TrainConfig(mode="urnng", samples=SAMPLES, batch_size=BATCH,
                         epochs=1, anneal_epochs=0.0, seed=seed, **dims)
    model, inference = build_models(config, len(vocab),
                                    rng=np.random.default_rng(seed))
    prep = Prepared(model, inference, config, sentences[:n_train],
                    sentences[n_train:])
    # untimed warm-up: one ELBO step on the first batch
    Trainer(model, inference, config).elbo_step(
        np.array([s.ids for s in prep.sentences[:BATCH]]))
    return prep


def train_round(prep: Prepared, seed: int):
    """One ``Trainer.train`` call; returns (seconds, batches, diagnostics)."""
    trainer = RecordingTrainer(prep.model, prep.inference, prep.config)
    start = perf_counter()
    trainer.train(prep.sentences, prep.valid)
    return perf_counter() - start, len(trainer.steps), trainer.steps


def check_train(prep: Prepared, before: dict, outputs) -> None:
    for steps in outputs:
        for length, diag in steps:
            checks.check_batch(diag, length)
    checks.check_params_trained(before, parameters(prep))
    inf, model = prep.inference, prep.model
    first = np.array(prep.sentences[0].ids, dtype=np.int64)
    scores = inf.span_scores(first[None, :7])
    checks.check_log_partition(
        float(crf.inside(scores).log_z.data[0]),
        checks.enum_log_partition(checks.span_table(scores.flat.data[0], 7),
                                  7), "enumeration over all trees")
    longest = max(prep.sentences, key=lambda s: len(s.ids))
    t = len(longest.ids)
    scores = inf.span_scores(np.array(longest.ids)[None])
    checks.check_log_partition(
        float(crf.inside(scores).log_z.data[0]),
        checks.dense_inside(checks.span_table(scores.flat.data[0], t), t),
        "dense inside recursion")
    checks.check_action_normalizer(
        checks.action_log_normalizer(model, first[:6]))


def parameters(prep: Prepared) -> dict:
    """Copies of every parameter array of both models, by name."""
    named = dict(prep.model.parameters())
    named.update(prep.inference.parameters())
    return {name: p.data.copy() for name, p in named.items()}


# -- IW evaluation ------------------------------------------------------------


def setup_eval(grammar, seed: int) -> Prepared:
    test = grammar_by_length(grammar, EVAL_LENGTHS, (seed, 3))
    # the evaluated model is the same for every seed: a fixed initialisation
    # and a fixed warm-up corpus; the seed picks the held-out sentences
    warm = synth.synth_corpus(grammar, EVAL_WARMUP_SENTENCES, 3, 12,
                              seed=MODEL_SEED)
    vocab = Vocabulary([UNK_TOKEN, EOS_TOKEN] + grammar.terminals)
    config = TrainConfig(mode="supervised", phi_lr=EVAL_WARMUP_PHI_LR,
                         batch_size=16, epochs=1, seed=MODEL_SEED, **DESK)
    model, inference = build_models(config, len(vocab),
                                    rng=np.random.default_rng(MODEL_SEED))
    pairs = [(make_sentence(t.leaves(), vocab), binarize_right(t))
             for t in warm]
    Trainer(model, inference, config).train(pairs, pairs[:1])
    prep = Prepared(model, inference, config,
                    [make_sentence(t.leaves(), vocab) for t in test],
                    gold=test)
    # untimed warm-up: evaluate the length-4 sentence, the shortest that
    # always keeps a scorable bracket once punctuation is removed
    evaluate.evaluate_corpus(prep.sentences[1:2], model, inference,
                             gold=test[1:2], k=IW_SAMPLES,
                             temperature=IW_TEMPERATURE, seed=seed)
    return prep


def eval_round(prep: Prepared, seed: int):
    """One ``evaluate_corpus`` call; returns (seconds, sentences, outputs)."""
    parses = []
    parse = evaluate.viterbi_parses

    def recording(inference, sentences):
        trees = parse(inference, sentences)
        parses.extend(trees)
        return trees

    evaluate.viterbi_parses = recording
    try:
        start = perf_counter()
        report = evaluate.evaluate_corpus(
            prep.sentences, prep.model, prep.inference, gold=prep.gold,
            k=IW_SAMPLES, temperature=IW_TEMPERATURE, seed=seed)
        spent = perf_counter() - start
    finally:
        evaluate.viterbi_parses = parse
    return spent, len(prep.sentences), (report, parses)


def check_eval(prep: Prepared, before: dict, outputs) -> None:
    checks.check_params_unchanged(before, parameters(prep))
    tokens = sum(len(s.ids) for s in prep.sentences)
    for report, parses in outputs:
        checks.check_perplexity(report.perplexity, report.log_marginals,
                                tokens)
        checks.check_f1(report.corpus_f1)
        checks.check_entropy_order(report.posterior_entropy,
                                   report.uniform_entropy)
        for sentence, log_m, tree in zip(prep.sentences, report.log_marginals,
                                         parses, strict=True):
            t = len(sentence.ids)
            if t > 7:
                continue
            scores = prep.inference.span_scores(np.array(sentence.ids)[None])
            table = checks.span_table(scores.flat.data[0], t)
            checks.check_iw_estimate(float(log_m), *checks.iw_reference(
                prep.model, table, sentence.ids, IW_SAMPLES, IW_TEMPERATURE))
            checks.check_viterbi(tree.spans, table, t)


@dataclass(frozen=True)
class Workload:
    setup: object       # (grammar, seed) -> Prepared
    round: object       # (Prepared, seed) -> (seconds, operations, output)
    check: object       # (Prepared, parameters before, outputs); may raise


WORKLOADS = {
    "train-long": Workload(lambda g, s: setup_train(g, s, paper=False),
                           train_round, check_train),
    "train-paper": Workload(lambda g, s: setup_train(g, s, paper=True),
                            train_round, check_train),
    "eval-iw": Workload(setup_eval, eval_round, check_eval),
}
