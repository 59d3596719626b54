"""Cross-checks of the chart and model code against brute-force enumeration.

Each property builds fresh random instances and compares a fast
implementation with its oracle counterpart.  Run through the command line
to sanity-check a build, or from tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .autodiff import Tape
from .crf import (SpanScores, inside, sample_tree, span_indicator,
                  tree_entropy, tree_log_prob, viterbi)
from .rnng import GenerativeModel
from .treebank import count_trees

TOL = 1e-9


@dataclass(frozen=True)
class PropertyResult:
    name: str
    passed: bool
    detail: str


def _random_scores(rng: np.random.Generator, length: int) -> SpanScores:
    table = np.zeros((length, length))
    table[np.triu_indices(length)] = rng.normal(size=length * (length + 1) // 2)
    return SpanScores.from_table(table, requires_grad=True)


def _check_enumeration(rng, max_length, trials) -> PropertyResult:
    worst = ""
    for t in range(1, max_length + 1):
        trees = oracle.enumerate_trees(t)
        if len(trees) != count_trees(t) or len(set(trees)) != len(trees):
            worst = f"T={t}: {len(trees)} trees vs Catalan {count_trees(t)}"
    return PropertyResult("enumeration matches Catalan counts", not worst,
                          worst or f"T up to {max_length}")


def _max_gap(rng, max_length, trials, gap, shortest=1) -> float:
    """The largest ``gap(scores)`` over ``trials`` random score tables."""
    worst = 0.0
    for _ in range(trials):
        t = int(rng.integers(shortest, max_length + 1))
        worst = max(worst, gap(_random_scores(rng, t)))
    return worst


def _check_partition(rng, max_length, trials) -> PropertyResult:
    worst = _max_gap(rng, max_length, trials, lambda scores: abs(
        float(inside(scores).log_z.data[0]) - oracle.exact_partition(scores)))
    return PropertyResult("inside log-partition matches enumeration",
                          worst <= TOL, f"max gap {worst:.2e}")


def _check_viterbi(rng, max_length, trials) -> PropertyResult:
    # only the score is compared: a different tree with the same score is a
    # genuine tie and is accepted
    worst = _max_gap(rng, max_length, trials, lambda scores: abs(
        viterbi(scores, 0)[1] - oracle.exact_argmax(scores)[1]))
    return PropertyResult("Viterbi matches enumerated argmax",
                          worst <= TOL, f"max score gap {worst:.2e}")


def _check_entropy(rng, max_length, trials) -> PropertyResult:
    worst = _max_gap(rng, max_length, trials, lambda scores: abs(
        float(tree_entropy(inside(scores)).data[0])
        - oracle.exact_entropy(scores)))
    return PropertyResult("chart entropy matches enumeration",
                          worst <= TOL, f"max gap {worst:.2e}")


def _check_sampler_scores(rng, max_length, trials) -> PropertyResult:
    def gap(scores):
        chart = inside(scores)
        tree, log_q = sample_tree(chart, rng, 0)
        trees, probs = oracle.exact_distribution(scores)
        exact = float(np.log(probs[trees.index(tree)]))
        return max(abs(log_q - exact),
                   abs(tree_log_prob(chart, tree, 0) - exact))

    worst = _max_gap(rng, max_length, trials, gap, shortest=2)
    return PropertyResult("sampled-tree log q matches enumeration",
                          worst <= TOL, f"max gap {worst:.2e}")


def _check_span_marginals(rng, max_length, trials) -> PropertyResult:
    def gap(scores):  # the inside node's vjp, the outside sweep
        with Tape() as tape:
            log_z = inside(scores).log_z
        trees, probs = oracle.exact_distribution(scores)
        return np.abs(tape.backward(log_z)[scores.flat][0]
                      - probs @ span_indicator(trees, scores.length)).max()

    worst = max(gap(_random_scores(rng, t)) for t in range(1, max_length + 1))
    return PropertyResult("log-partition gradient matches span marginals",
                          worst <= TOL, f"max gap {worst:.2e}")


def _model_gaps(rng, max_length, trials, gap, shortest=1) -> list[float]:
    """``gap(model, ids)`` for a quarter of ``trials`` random sentences."""
    model = GenerativeModel(12, dim=8, layers=1, dropout=0.0, rng=rng)
    gaps = []
    for _ in range(max(1, trials // 4)):
        t = int(rng.integers(shortest, max_length + 1))
        gaps.append(gap(model, rng.integers(2, 12, size=t)))
    return gaps


def _check_action_normalization(rng, max_length, trials) -> PropertyResult:
    worst = max(_model_gaps(rng, max_length, trials, lambda model, ids: abs(
        sum(np.exp(model.joint_log_likelihood(ids, tree)[1])
            for tree in oracle.enumerate_trees(len(ids))) - 1.0)))
    return PropertyResult("action probabilities sum to one over trees",
                          worst <= 1e-8, f"max gap {worst:.2e}")


def _check_marginal(rng, max_length, trials) -> PropertyResult:
    def gap(model, ids):
        joints = np.array([sum(model.joint_log_likelihood(ids, tree))
                           for tree in oracle.enumerate_trees(len(ids))])
        lse = joints.max() + np.log(np.exp(joints - joints.max()).sum())
        return abs(lse - oracle.exact_marginal(model, ids))

    worst = max(_model_gaps(rng, max_length, trials, gap))
    return PropertyResult("joint sum matches exact marginal",
                          worst <= TOL, f"max gap {worst:.2e}")


def _check_elbo_bound(rng, max_length, trials) -> PropertyResult:
    worst = min(_model_gaps(rng, max_length, trials, lambda model, ids: (
        oracle.exact_marginal(model, ids) - oracle.exact_elbo(
            model, _random_scores(rng, len(ids)), ids)), shortest=2))
    return PropertyResult("ELBO never exceeds the marginal",
                          worst >= -TOL, f"min KL {worst:.2e}")


CHECKS = (
    _check_enumeration,
    _check_partition,
    _check_viterbi,
    _check_entropy,
    _check_sampler_scores,
    _check_action_normalization,
    _check_marginal,
    _check_elbo_bound,
    _check_span_marginals,
)


def run_verification(max_length: int = 6, trials: int = 20,
                     seed: int = 0) -> list[PropertyResult]:
    if not (2 <= max_length <= 8):
        raise ValueError(f"max_length must be in [2, 8], got {max_length}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    return [check(rng, max_length, trials) for check in CHECKS]
