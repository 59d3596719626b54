"""Benchmark command for urnng.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One workload runs in this single
process with closed-loop calls.  It is set up several times (``setup_s`` is
the median), then whole rounds repeat until ``--seconds`` have passed, then
every round's outputs are checked.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` the layers are wrapped by
:mod:`spans` and the per-layer metrics are reported instead.  The last line
of standard output is one JSON object; result and trace files go to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_REPEATS = 3
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-long", "train-paper", "eval-iw")

# Layers timed in the traced run, in ms per timed operation.
LAYER_MS = ("crf.span_scores", "crf.inside", "crf.tree_entropy",
            "crf.sample_tree", "crf.tree_log_prob_batch", "crf.viterbi",
            "rnng.joint", "rnng.prior_sample", "autodiff.backward",
            "optim.sgd", "optim.adam", "trainer.elbo_step",
            "trainer.validate", "evaluate.iw_perplexity",
            "evaluate.distributional_metrics", "evaluate.viterbi_parses")
LAYER_NODES = ("crf.span_scores", "crf.inside", "crf.tree_entropy",
               "rnng.joint", "autodiff.tape")
END_TO_END_UNITS = {"setup_s": "s", "sentences_per_s": "sentences/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import urnng from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "urnng" / "trainer.py").is_file():
        raise SystemExit(f"error: no urnng sources under {SRC}; run from a "
                         "checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import urnng.trainer
    if Path(urnng.trainer.__file__).resolve().parent != SRC / "urnng":
        raise SystemExit(f"error: urnng imported from {urnng.trainer.__file__}"
                         f", not from {SRC}")
    return urnng


def per_layer(setup_stats, stats, ops: int) -> dict:
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    out = {}
    for name in LAYER_MS:
        out[f"{name}.ms"] = (get(name, "total_s") * 1e3 / ops, "ms")
    for name in LAYER_NODES:
        out[f"{name}.nodes"] = (get(name, "nodes") / ops, "count")
    for name in ("crf.inside", "crf.sample_tree"):
        out[f"{name}.calls"] = (get(name, "calls") / ops, "count")
    out["rnng.joint.rows"] = (get("rnng.joint", "rows") / ops, "count")
    samples = get("evaluate.iw_perplexity", "samples")
    out["evaluate.iw.rows_per_sample"] = (
        get("evaluate.iw_perplexity", "rows") / samples if samples else 0.0,
        "ratio")
    step = stats.get("trainer.elbo_step")
    out["trainer.elbo_step.layer_share"] = (
        100.0 * (step["total_s"] - step["self_s"]) / step["total_s"]
        if step else 0.0, "%")
    synth = setup_stats.get("synth.synth_corpus", {"total_s": 0.0})
    out["synth.synth_corpus.ms"] = (synth["total_s"] * 1e3 / SETUP_REPEATS,
                                    "ms")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: at these sizes a second one adds CPU time, not speed.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    urnng = import_program()
    import checks
    import spans
    import workloads
    from urnng.synth import Grammar

    spec = workloads.WORKLOADS[args.workload]
    grammar = Grammar.from_file(SRC / "urnng" / "data" /
                                "default_grammar.txt")
    tracer = spans.Tracer(urnng) if args.trace else None
    if tracer:
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        prep = None     # drop the previous set-up before building the next
        gc.collect()
        start = perf_counter()
        prep = spec.setup(grammar, args.seed)
        setup_times.append(perf_counter() - start)
    setup_stats = tracer.take() if tracer else {}
    before = workloads.parameters(prep)

    durations, outputs = [], []
    ops = 0
    start = perf_counter()
    while not durations or perf_counter() - start < args.seconds:
        # every round starts from the same collector state, so a full
        # collection of the previous round's tapes never lands inside it
        gc.collect()
        spent, done, output = spec.round(prep, args.seed)
        ops += done
        durations.append(spent)
        outputs.append(output)
    timed_wall = perf_counter() - start
    stats = tracer.take() if tracer else {}
    if tracer:
        tracer.uninstall()

    failures = []
    try:
        spec.check(prep, before, outputs)
    except checks.CheckFailed as err:
        failures.append(str(err))

    per_round = len(prep.sentences)
    attempted = per_round * len(durations)
    if args.trace:
        metrics = per_layer(setup_stats, stats, ops)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "sentences_per_s": statistics.median(
                per_round / d for d in durations),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"args": vars(args), "nproc": nproc,
              "blas_threads": BLAS_THREADS, "rounds": len(durations),
              "round_s": durations, "setup_s": setup_times,
              "timed_wall_s": timed_wall, "failures": failures, **result}
    if tracer:
        detail["spans"] = {"setup": setup_stats, "timed": stats}
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} rounds={len(durations)} "
          f"attempted={attempted} failed=0")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
