"""Reference computations and output checks for the benchmark.

Nothing here calls the chart code under test.  Trees are enumerated
directly, the inside recursion is a dense NumPy loop over span widths, and
the Catalan numbers come from the closed form.  Every ``check_*`` function
returns quietly on a correct output and raises :class:`CheckFailed`
otherwise, so a perturbed output can be fed to it directly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Action coding of the generative model: SHIFT pushes a word, REDUCE merges.
SHIFT, REDUCE = 0, 1

# Largest length the benchmark enumerates (429 trees at T = 8).
MAX_ENUM = 8

# Chart and dense recursions agree to rounding; a wrong chart is far off.
LOG_Z_TOL = 1e-8
# The action distribution of the generative model must sum to one.
NORMALIZER_TOL = 1e-8
# An IW estimate may miss the exact log marginal by this many of its own
# standard errors; over 200 eval-iw sentences the largest miss was 3.5.
IW_SIGMAS = 6.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def max_tree_entropy(length: int) -> float:
    """log of the number of binary trees over ``length`` words."""
    return math.log(catalan(length - 1))


@lru_cache(maxsize=None)
def _trees(i: int, j: int) -> tuple[tuple[frozenset, tuple], ...]:
    """Every binary tree over words i..j as (span set, action sequence)."""
    if i == j:
        return ((frozenset({(i, i)}), (SHIFT,)),)
    out = []
    for k in range(i, j):
        for left, left_acts in _trees(i, k):
            for right, right_acts in _trees(k + 1, j):
                out.append((left | right | {(i, j)},
                            left_acts + right_acts + (REDUCE,)))
    return tuple(out)


def enumerate_trees(length: int) -> tuple[tuple[frozenset, tuple], ...]:
    if not 1 <= length <= MAX_ENUM:
        raise ValueError(f"enumeration covers 1 <= T <= {MAX_ENUM}")
    return _trees(1, length)


def span_table(flat_row, length: int) -> np.ndarray:
    """Dense [T+1, T+1] table from one row of lexicographic span scores."""
    table = np.full((length + 1, length + 1), -np.inf)
    pos = 0
    for i in range(1, length + 1):
        for j in range(i, length + 1):
            table[i, j] = flat_row[pos]
            pos += 1
    if pos != len(flat_row):
        raise ValueError(f"{len(flat_row)} scores for length {length}")
    return table


def _logsumexp(values, axis=None):
    values = np.asarray(values, dtype=np.float64)
    top = values.max(axis=axis, keepdims=True)
    out = top + np.log(np.exp(values - top).sum(axis=axis, keepdims=True))
    return out.item() if axis is None else np.squeeze(out, axis)


def tree_scores(table: np.ndarray, length: int) -> list[tuple[frozenset, float]]:
    return [(spans, float(sum(table[i, j] for i, j in spans)))
            for spans, _ in enumerate_trees(length)]


def enum_log_partition(table: np.ndarray, length: int) -> float:
    return _logsumexp([score for _, score in tree_scores(table, length)])


def enum_argmax(table: np.ndarray, length: int) -> frozenset:
    return max(tree_scores(table, length), key=lambda item: item[1])[0]


def dense_inside(table: np.ndarray, length: int) -> float:
    """Inside log partition, one vectorised logsumexp per span width."""
    beta = np.full((length + 2, length + 2), -np.inf)
    idx = np.arange(1, length + 1)
    beta[idx, idx] = table[idx, idx]
    for width in range(2, length + 1):
        i = np.arange(1, length - width + 2)
        j = i + width - 1
        k = i[:, None] + np.arange(width - 1)[None, :]
        cand = beta[i[:, None], k] + beta[k + 1, j[:, None]]
        beta[i, j] = table[i, j] + _logsumexp(cand, axis=1)
    return float(beta[1, length])


def joint_table(model, ids) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(span sets, terminal [n], action [n]) for every tree of a sentence."""
    ids = np.asarray(ids, dtype=np.int64)
    trees = enumerate_trees(len(ids))
    acts = np.array([a for _, a in trees], dtype=np.int64)
    terminal, action = model.joint_log_likelihood_batch(
        np.tile(ids[None], (len(trees), 1)), acts)
    return tuple(s for s, _ in trees), terminal.data, action.data


def iw_reference(model, table: np.ndarray, ids, k: int,
                 temperature: float) -> tuple[float, float]:
    """(exact log marginal, standard error of a K-sample IW estimate of it).

    The proposal is the chart distribution of ``table / temperature``.  One
    importance weight w = p(x, z) / q(z) has relative variance
    E_q[(w / p(x))^2] - 1, so the log of the K-sample mean has standard
    error sqrt(that / K) to first order.
    """
    length = len(ids)
    _, terminal, action = joint_table(model, ids)
    joint = terminal + action
    proposal = np.array([s for _, s in tree_scores(table / temperature,
                                                   length)])
    log_q = proposal - _logsumexp(proposal)
    log_p = _logsumexp(joint)
    rel_var = math.exp(_logsumexp(2 * (joint - log_q) + log_q) - 2 * log_p)
    return log_p, math.sqrt(max(rel_var - 1.0, 0.0) / k)


def action_log_normalizer(model, ids) -> float:
    """log of the summed action probabilities over all trees; 0 if normal."""
    return _logsumexp(joint_table(model, ids)[2])


# -- checks -------------------------------------------------------------------


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_batch(diag: dict, length: int) -> None:
    """One ELBO step: entropy within [0, log C(T-1)], recon <= 0, ELBO finite."""
    n = diag["sentences"]
    bound = n * max_tree_entropy(length)
    ent = diag["entropy_sum"]
    _require(-1e-9 <= ent <= bound * (1 + 1e-12) + 1e-9,
             f"batch entropy {ent} outside [0, {bound}] at T={length}")
    _require(diag["reconstruction_sum"] <= 0.0,
             f"reconstruction {diag['reconstruction_sum']} > 0")
    _require(math.isfinite(diag["elbo_sum"]),
             f"non-finite ELBO {diag['elbo_sum']}")


def check_params_trained(before: dict, after: dict) -> None:
    _require(before.keys() == after.keys(), "parameter sets differ")
    for name, value in after.items():
        _require(bool(np.isfinite(value).all()), f"{name} is not finite")
        _require(bool((value != before[name]).any()),
                 f"{name} did not change during training")


def check_params_unchanged(before: dict, after: dict) -> None:
    _require(before.keys() == after.keys(), "parameter sets differ")
    for name, value in after.items():
        _require(bool((value == before[name]).all()),
                 f"{name} changed during evaluation")


def check_log_partition(log_z: float, reference: float, what: str) -> None:
    _require(abs(log_z - reference) <= LOG_Z_TOL * (1 + abs(reference)),
             f"chart log Z {log_z!r} vs {what} {reference!r}")


def check_action_normalizer(log_total: float) -> None:
    _require(abs(log_total) <= NORMALIZER_TOL,
             f"action probabilities sum to exp({log_total!r}), not 1")


def check_iw_estimate(estimate: float, exact: float, std_error: float) -> None:
    tol = IW_SIGMAS * std_error + 1e-9 * (1 + abs(exact))
    _require(abs(estimate - exact) <= tol,
             f"IW log marginal {estimate!r} vs exact {exact!r} "
             f"(standard error {std_error:.3g})")


def check_perplexity(reported: float, log_marginals, tokens: int) -> None:
    expected = math.exp(-float(np.sum(log_marginals)) / tokens)
    _require(math.isclose(reported, expected, rel_tol=1e-12),
             f"perplexity {reported!r}, recomputed {expected!r}")


def check_viterbi(spans: frozenset, table: np.ndarray, length: int) -> None:
    best = enum_argmax(table, length)
    _require(spans == best, f"Viterbi tree {sorted(spans)} is not the "
             f"enumerated argmax {sorted(best)}")


def check_f1(f1: float) -> None:
    _require(0.0 <= f1 <= 100.0, f"F1 {f1} outside [0, 100]")


def check_entropy_order(posterior: float, uniform: float) -> None:
    _require(posterior <= uniform + 1e-9,
             f"posterior entropy {posterior} above uniform {uniform}")
