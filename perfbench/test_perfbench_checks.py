"""Fast tests of the benchmark's reference computations and output checks.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import run  # noqa: E402
from urnng import oracle  # noqa: E402
from urnng.crf import SpanScores  # noqa: E402
from urnng.evaluate import iw_log_marginal  # noqa: E402
from urnng.trainer import TrainConfig, build_models  # noqa: E402


def random_scores(length: int, seed: int) -> tuple[SpanScores, np.ndarray]:
    scores = SpanScores.from_table(
        np.random.default_rng(seed).normal(size=(length, length)))
    return scores, checks.span_table(scores.flat.data[0], length)


@pytest.fixture(scope="module")
def small_models():
    config = TrainConfig(gen_dim=8, inf_hidden=8, max_len=10)
    return build_models(config, 12, rng=np.random.default_rng(5))


@pytest.mark.parametrize("length", range(1, 7))
def test_dense_inside_and_enumeration_match_oracle(length):
    scores, table = random_scores(length, length)
    expected = oracle.exact_partition(scores)
    assert checks.dense_inside(table, length) == pytest.approx(expected,
                                                               abs=1e-10)
    assert checks.enum_log_partition(table, length) == pytest.approx(
        expected, abs=1e-10)


@pytest.mark.parametrize("length", range(1, 7))
def test_enumerated_argmax_matches_oracle(length):
    scores, table = random_scores(length, 100 + length)
    assert checks.enum_argmax(table, length) == \
        oracle.exact_argmax(scores)[0].spans


def test_enumeration_counts_distinct_trees():
    for length in range(1, checks.MAX_ENUM + 1):
        trees = checks.enumerate_trees(length)
        assert len(trees) == checks.catalan(length - 1)
        assert len({spans for spans, _ in trees}) == len(trees)
        assert all(len(spans) == 2 * length - 1 and len(acts) == len(spans)
                   for spans, acts in trees)


def test_log_partition_check_rejects_offset():
    scores, table = random_scores(6, 7)
    log_z = checks.dense_inside(table, 6)
    checks.check_log_partition(log_z, checks.enum_log_partition(table, 6),
                               "enumeration")
    with pytest.raises(checks.CheckFailed):
        checks.check_log_partition(log_z + 1e-3, log_z, "enumeration")


def test_batch_check_rejects_each_bad_field():
    bound = 2 * checks.max_tree_entropy(6)
    good = {"sentences": 2, "entropy_sum": bound, "reconstruction_sum": -1.0,
            "elbo_sum": -3.0}
    checks.check_batch(good, 6)
    for field, value in (("entropy_sum", bound + 1e-3),
                         ("entropy_sum", -1e-3),
                         ("reconstruction_sum", 1e-6),
                         ("elbo_sum", math.nan)):
        with pytest.raises(checks.CheckFailed):
            checks.check_batch({**good, field: value}, 6)


def test_params_check_rejects_unchanged_or_non_finite():
    before = {"w": np.zeros(3)}
    checks.check_params_trained(before, {"w": np.array([0.0, 0.1, 0.0])})
    for after in (np.zeros(3), np.array([0.0, math.inf, 0.1])):
        with pytest.raises(checks.CheckFailed):
            checks.check_params_trained(before, {"w": after})


def test_params_unchanged_check_rejects_any_change():
    before = {"w": np.zeros(3)}
    checks.check_params_unchanged(before, {"w": np.zeros(3)})
    with pytest.raises(checks.CheckFailed):
        checks.check_params_unchanged(before, {"w": np.array([0, 1e-12, 0])})


def test_action_normalizer(small_models):
    model, _ = small_models
    log_total = checks.action_log_normalizer(model, [3, 4, 5, 6, 7])
    checks.check_action_normalizer(log_total)
    with pytest.raises(checks.CheckFailed):
        checks.check_action_normalizer(log_total + 1e-3)


def test_iw_reference_matches_oracle_and_sampling(small_models):
    model, inference = small_models
    ids = np.array([2, 5, 3, 7])
    scores = inference.span_scores(ids[None])
    table = checks.span_table(scores.flat.data[0], len(ids))
    k = 20
    exact, std_error = checks.iw_reference(model, table, ids, k, 2.0)
    assert exact == pytest.approx(oracle.exact_marginal(model, ids),
                                  abs=1e-10)
    draws = [iw_log_marginal(model, inference, ids, k, 2.0,
                             np.random.default_rng(seed))
             for seed in range(200)]
    assert np.std(draws) == pytest.approx(std_error, rel=0.3)
    checks.check_iw_estimate(draws[0], exact, std_error)
    with pytest.raises(checks.CheckFailed):
        checks.check_iw_estimate(exact + 7 * std_error, exact, std_error)


def test_perplexity_check_recomputes():
    log_marginals = np.array([-10.0, -20.5])
    value = math.exp(30.5 / 7)
    checks.check_perplexity(value, log_marginals, 7)
    with pytest.raises(checks.CheckFailed):
        checks.check_perplexity(value * (1 + 1e-9), log_marginals, 7)


def test_viterbi_check_rejects_other_tree():
    _, table = random_scores(5, 11)
    best = checks.enum_argmax(table, 5)
    checks.check_viterbi(best, table, 5)
    other = next(s for s, _ in checks.enumerate_trees(5) if s != best)
    with pytest.raises(checks.CheckFailed):
        checks.check_viterbi(other, table, 5)


def test_f1_and_entropy_order_checks():
    for f1 in (0.0, 100.0):
        checks.check_f1(f1)
    for f1 in (-0.1, 100.001):
        with pytest.raises(checks.CheckFailed):
            checks.check_f1(f1)
    checks.check_entropy_order(1.0, 1.5)
    with pytest.raises(checks.CheckFailed):
        checks.check_entropy_order(1.5 + 1e-3, 1.5)


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    reported = {name: unit for name, (_, unit)
                in run.per_layer({}, {}, 1).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
