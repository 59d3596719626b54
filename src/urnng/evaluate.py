"""Measurement: importance-weighted perplexity, bracketing scores, and
posterior diagnostics, in one pass per sentence that scores its spans once
and the distinct trees of both of its proposals together once.

Bracket scoring mirrors the standard evalb conventions: punctuation tokens
are removed and positions re-indexed, and width-one and whole-sentence spans
are discarded.  Gold brackets keep their multiplicity, so duplicates from
unary chains each need their own match; predicted brackets are counted once
per sentence, which makes the score invariant to where a binary tree hangs
its punctuation.  Perplexities exclude the EOS event from token counts but
include its probability.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .autodiff import NumericError
from .crf import (InferenceNetwork, flatten, inside, sample_trees,
                  tree_entropy, tree_log_prob_batch, viterbi)
from .rnng import GenerativeModel
from .treebank import (DataError, ParseNode, Sentence, TreeRepr,
                       count_trees, tree_actions)

DEFAULT_LABELS = ("NP", "VP", "PP", "SBAR", "ADJP", "ADVP")

DEFAULT_SAMPLES = 1000
DEFAULT_TEMPERATURE = 2.0


# -- importance-weighted marginals ------------------------------------------


def iw_log_marginal(model: GenerativeModel, inference: InferenceNetwork,
                    ids, k: int = DEFAULT_SAMPLES,
                    temperature: float = DEFAULT_TEMPERATURE,
                    rng: np.random.Generator | None = None) -> float:
    """log((1/K) sum_k p(x, z_k) / q~(z_k|x)) with a flattened proposal.

    Duplicate samples are scored once and weighted by their multiplicity,
    which leaves the estimate unchanged.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    ids = np.asarray(ids, dtype=np.int64)
    chart = inside(flatten(inference.span_scores(ids[None]), temperature))
    return _log_marginal(*_sampled_joints(model, ids, chart, rng, k), k)


def _log_marginal(terminal, action, which, log_qs, k: int) -> float:
    """:func:`iw_log_marginal` of k draws from the distinct trees scored."""
    if not np.all(np.isfinite(log_qs)):
        raise NumericError("proposal assigned a sampled tree -inf log q")
    log_counts = [math.log(count) for count in np.bincount(which)]
    terms = terminal + action - log_qs + log_counts
    top = terms.max()
    return float(top + np.log(np.exp(terms - top).sum()) - math.log(k))


def _sampled_joints(model: GenerativeModel, ids: np.ndarray, chart,
                    rng: np.random.Generator, k: int):
    """Draw k trees from row 0 of ``chart`` and score each distinct tree
    once: their terminal and action log-likelihoods and log q (in order of
    first draw), and which of them each draw is."""
    return _joints(model, ids, [(chart, rng)], k)[0]


def _joints(model: GenerativeModel, ids: np.ndarray, proposals: list,
            k: int) -> list:
    """:func:`_sampled_joints` of each (chart, generator) in ``proposals``,
    scoring the distinct trees of all of them once, in eval mode, 256 rows
    at a time and sorted, so that trees with a common prefix share states."""
    if k < 1:
        raise ValueError("k must be >= 1")
    draws = [sample_trees(chart, rng, [0] * k) for chart, rng in proposals]
    acts = [tree_actions(spans, ids.size) for spans, _ in draws]
    rows, back = np.unique(np.vstack(acts), axis=0, return_inverse=True)
    joint = [model.joint_log_likelihood_batch(np.tile(ids, (len(c), 1)), c)
             for c in np.split(rows, range(256, len(rows), 256))]
    terminal, action = np.hstack([[t.data for t in pair] for pair in joint])
    # ravelled, as the inverse's shape differs across NumPy versions
    back = np.split(back.ravel(), np.cumsum([len(a) for a in acts])[:-1])
    return [(terminal[at], action[at], which,
             tree_log_prob_batch(chart, spans, [0] * len(spans)).data)
            for at, (spans, which), (chart, _) in zip(back, draws, proposals)]


def _corpus(sentences: list[Sentence], model: GenerativeModel,
            inference: InferenceNetwork, k: int, temperature: float,
            seed: int, iw: bool = True, diagnostics: bool = True) -> tuple:
    """(perplexity, log marginals, :func:`distributional_metrics`), or None
    for a part not asked for, in one pass; sentence i draws with generators
    (seed, 9000 + i) for IW and (seed, 7000 + i) for the diagnostics."""
    if not sentences:
        raise DataError("empty corpus")
    halves = [(9000, temperature)] * iw + [(7000, 1.0)] * diagnostics
    log_marginals, sums = [], np.zeros(5)
    for i, sentence in enumerate(sentences):
        ids = np.asarray(sentence.ids, dtype=np.int64)
        scores = inference.span_scores(ids[None])
        proposals = [(inside(flatten(scores, t)),
                      np.random.default_rng((seed, at + i))) for at, t in halves]
        joints = _joints(model, ids, proposals, k)
        if iw:
            log_marginals.append(_log_marginal(*joints[0], k))
        if diagnostics:
            # the means run over all k draws, the sums in sentence order
            chart, rng = proposals[-1]
            terminal, action, which, log_qs = joints[-1]
            _, prior_lp = model.sample_actions_conditional(ids, k, rng)
            sums += (terminal[which].mean(),
                     (log_qs[which] - action[which]).mean(),
                     tree_entropy(chart).data[0], -prior_lp.mean(),
                     math.log(count_trees(len(ids))))
    tokens, n = sum(len(s.ids) for s in sentences), len(sentences)
    recon, kl, post, prior, uniform = map(float, sums)
    dist = {"reconstruction_perplexity": float(np.exp(-recon / tokens)),
            "kl": kl / n, "posterior_entropy": post / n,
            "prior_entropy": prior / n, "uniform_entropy": uniform / n}
    log_marginals = np.array(log_marginals)
    return (float(np.exp(-log_marginals.sum() / tokens)) if iw else None,
            log_marginals if iw else None, dist if diagnostics else None)


def iw_perplexity(sentences: list[Sentence], model: GenerativeModel,
                  inference: InferenceNetwork, k: int = DEFAULT_SAMPLES,
                  temperature: float = DEFAULT_TEMPERATURE,
                  seed: int = 0) -> tuple[float, np.ndarray]:
    """Corpus perplexity and the per-sentence log-marginal estimates."""
    return _corpus(sentences, model, inference, k, temperature, seed,
                   diagnostics=False)[:2]


def ppl_by_length(sentences: list[Sentence], log_marginals: np.ndarray,
                  edges) -> dict[str, float | None]:
    """Per-bucket perplexity; bucket i covers lengths in (edges[i], edges[i+1]].

    Empty buckets map to None.
    """
    edges = list(edges)
    if len(edges) < 2 or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"edges must be strictly increasing: {edges}")
    if len(sentences) != len(log_marginals):
        raise DataError("one log marginal per sentence required")
    lengths = np.array([len(s.ids) for s in sentences])
    out = {}
    for lo, hi in zip(edges, edges[1:]):
        mask = (lengths > lo) & (lengths <= hi)
        name = f"({lo},{hi}]"
        if not mask.any():
            out[name] = None
            continue
        out[name] = float(np.exp(-log_marginals[mask].sum()
                                 / lengths[mask].sum()))
    return out


def prefer_grammatical(ids_a, ids_b, model: GenerativeModel,
                       inference: InferenceNetwork, k: int = DEFAULT_SAMPLES,
                       temperature: float = DEFAULT_TEMPERATURE,
                       seed: int = 0) -> tuple[int, float]:
    """(0 or 1 for the higher-scoring sentence, log-probability margin a-b).

    Each sentence's sample stream is derived from its own token ids, so the
    margin is exactly antisymmetric under argument swap and exactly zero for
    identical sentences.
    """
    def score(ids):
        ids = np.asarray(ids, dtype=np.int64)
        rng = np.random.default_rng((seed, *ids.tolist()))
        return iw_log_marginal(model, inference, ids, k, temperature, rng)

    margin = score(ids_a) - score(ids_b)
    return (0 if margin >= 0 else 1), float(margin)


# -- bracket scoring ----------------------------------------------------------


def bracket_multiset(spans, punct_mask) -> Counter:
    """Evaluable brackets of a tree: punctuation removed and positions
    re-indexed, width-one and whole-sentence spans dropped."""
    kept = _kept_before(punct_mask)
    return Counter(b for b in (_bracket(span, kept) for span in spans) if b)


def _kept_before(punct_mask) -> list[int]:
    """Entry p counts the non-punctuation words among positions 1..p."""
    return list(accumulate((not punct for punct in punct_mask), initial=0))


def _bracket(span, kept):
    """The re-indexed bracket (a, b) of span (i, j), or None if it keeps
    fewer than two words or all of them."""
    a, b = kept[span[0] - 1] + 1, kept[span[1]]
    if a >= b or (a, b) == (1, kept[-1]):
        return None
    return a, b


def _gold_brackets(gold, punct_mask):
    """(labeled list, unlabeled multiset) for gold given as ParseNode or
    TreeRepr."""
    if isinstance(gold, TreeRepr):
        labeled = [(i, j, "X") for (i, j) in sorted(gold.spans)]
    else:
        labeled = gold.constituents()
    kept = _kept_before(punct_mask)
    brackets = [(_bracket((i, j), kept), label) for (i, j, label) in labeled]
    relabeled = [(*b, label) for b, label in brackets if b]
    return relabeled, Counter(b for b, _ in brackets if b)


def _check_alignment(predicted, gold, punct):
    if not (len(predicted) == len(gold) == len(punct)):
        raise DataError(
            f"misaligned inputs: {len(predicted)} predictions, "
            f"{len(gold)} gold trees, {len(punct)} punctuation masks")
    for idx, (tree, g, mask) in enumerate(zip(predicted, gold, punct)):
        gold_len = g.length if isinstance(g, TreeRepr) else len(g.leaves())
        if tree.length != gold_len or tree.length != len(mask):
            raise DataError(
                f"sentence {idx}: predicted length {tree.length}, gold "
                f"{gold_len}, mask {len(mask)}")


def unlabeled_f1(predicted: list[TreeRepr], gold, punct
                 ) -> tuple[float, list[float | None]]:
    """Corpus unlabeled F1 (0-100) and per-sentence F1 values.

    Sentences whose gold tree has no evaluable bracket are skipped (None in
    the per-sentence list) and contribute nothing to the corpus score.
    """
    _check_alignment(predicted, gold, punct)
    matched = n_pred = n_gold = 0
    per_sentence: list[float | None] = []
    for tree, g, mask in zip(predicted, gold, punct):
        # a binary tree has distinct spans; only punctuation stripping can
        # collapse two of them onto one bracket, and that costs nothing
        pred_ms = Counter(set(bracket_multiset(tree.spans, mask)))
        _, gold_ms = _gold_brackets(g, mask)
        if not gold_ms:
            per_sentence.append(None)
            continue
        hits = sum((pred_ms & gold_ms).values())
        matched += hits
        n_pred += sum(pred_ms.values())
        n_gold += sum(gold_ms.values())
        per_sentence.append(_f1(hits, sum(pred_ms.values()),
                                sum(gold_ms.values())))
    if n_gold == 0:
        raise DataError("no evaluable gold spans in the corpus")
    return _f1(matched, n_pred, n_gold), per_sentence


def _f1(matched, n_pred, n_gold) -> float:
    precision = matched / n_pred if n_pred else 0.0
    recall = matched / n_gold if n_gold else 0.0
    if precision + recall == 0:
        return 0.0
    return 100.0 * 2.0 * precision * recall / (precision + recall)


def label_recall(predicted: list[TreeRepr], gold: list[ParseNode], punct,
                 labels=DEFAULT_LABELS) -> dict[str, float | None]:
    """Fraction of gold constituents per label whose span is predicted.

    Labels absent from the gold corpus map to None.
    """
    _check_alignment(predicted, gold, punct)
    total: Counter = Counter()
    hit: Counter = Counter()
    for tree, g, mask in zip(predicted, gold, punct):
        pred_spans = set(bracket_multiset(tree.spans, mask))
        labeled, _ = _gold_brackets(g, mask)
        for (i, j, label) in labeled:
            if label not in labels:
                continue
            total[label] += 1
            hit[label] += (i, j) in pred_spans
    return {label: (hit[label] / total[label] if total[label] else None)
            for label in labels}


# -- posterior diagnostics ----------------------------------------------------


def distributional_metrics(sentences: list[Sentence],
                           model: GenerativeModel,
                           inference: InferenceNetwork,
                           k: int = DEFAULT_SAMPLES,
                           seed: int = 0) -> dict[str, float]:
    """Reconstruction PPL, KL, and entropy diagnostics, Monte Carlo where
    needed.

    KL here is E_q[log q(z|x) - log p(z|x_<z)]; the prior entropy samples
    actions from the conditional prior with words held fixed.  Posterior and
    uniform entropies are exact.
    """
    return _corpus(sentences, model, inference, k, DEFAULT_TEMPERATURE, seed,
                   iw=False)[2]


# -- report assembly ----------------------------------------------------------


@dataclass
class EvalReport:
    perplexity: float
    reconstruction_perplexity: float
    kl: float
    posterior_entropy: float
    prior_entropy: float
    uniform_entropy: float
    corpus_f1: float | None = None
    label_recall: dict = field(default_factory=dict)
    ppl_by_length: dict = field(default_factory=dict)
    log_marginals: np.ndarray | None = None
    sentence_f1: list | None = None


def viterbi_parses(inference: InferenceNetwork,
                   sentences: list[Sentence]) -> list[TreeRepr]:
    """Highest-scoring tree per sentence under the span scores."""
    return [viterbi(inference.span_scores(
        np.asarray(s.ids, dtype=np.int64)[None]))[0] for s in sentences]


def evaluate_corpus(sentences: list[Sentence], model: GenerativeModel,
                    inference: InferenceNetwork, gold=None,
                    k: int = DEFAULT_SAMPLES,
                    temperature: float = DEFAULT_TEMPERATURE,
                    length_edges=(0, 10, 20, 30, 40, 150),
                    labels=DEFAULT_LABELS, seed: int = 0) -> EvalReport:
    """Full measurement pass; gold trees (if given) add bracketing scores.

    Bracketing runs first, so a gold corpus with no evaluable bracket raises
    ``DataError`` before the costly importance-weighted pass.
    """
    brackets = {}
    if gold is not None:
        predicted = viterbi_parses(inference, sentences)
        punct = [s.punct for s in sentences]
        brackets["corpus_f1"], brackets["sentence_f1"] = unlabeled_f1(
            predicted, gold, punct)
        if all(isinstance(g, ParseNode) for g in gold):
            brackets["label_recall"] = label_recall(predicted, gold, punct,
                                                    labels)
    perplexity, log_marginals, dist = _corpus(sentences, model, inference, k,
                                              temperature, seed)
    return EvalReport(perplexity=perplexity, log_marginals=log_marginals,
                      ppl_by_length=ppl_by_length(
                          sentences, log_marginals, length_edges),
                      **dist, **brackets)


def format_report(report: EvalReport) -> str:
    """Plain-text key/value rendering of an EvalReport."""
    lines = []
    for key in ("perplexity", "reconstruction_perplexity", "kl",
                "posterior_entropy", "prior_entropy", "uniform_entropy"):
        lines.append(f"{key} {getattr(report, key)}")
    if report.corpus_f1 is not None:
        lines.append(f"corpus_f1 {report.corpus_f1}")
    for label, value in report.label_recall.items():
        lines.append(f"label_recall.{label} "
                     f"{'none' if value is None else value}")
    for bucket, value in report.ppl_by_length.items():
        lines.append(f"ppl_by_length.{bucket} "
                     f"{'empty' if value is None else value}")
    return "\n".join(lines) + "\n"


def format_sentence_tsv(report: EvalReport,
                        sentences: list[Sentence]) -> str:
    """Per-sentence TSV: index, length, log marginal, F1 (blank if skipped)."""
    rows = ["index\tlength\tlog_marginal\tf1"]
    for i, sentence in enumerate(sentences):
        log_m = "" if report.log_marginals is None \
            else repr(float(report.log_marginals[i]))
        f1 = ""
        if report.sentence_f1 is not None and report.sentence_f1[i] is not None:
            f1 = repr(report.sentence_f1[i])
        rows.append(f"{i}\t{len(sentence.ids)}\t{log_m}\t{f1}")
    return "\n".join(rows) + "\n"
