"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions of each layer with wrappers
that time the call, subtract the time of nested traced calls to get self
time, and read ``len(tape)`` of the active tape before and after the call
to count the tape nodes it recorded.  Spans are aggregated per layer name
in memory; ``take`` returns and clears the totals.
"""

from __future__ import annotations

import functools
from time import perf_counter


def _active_tape(ad):
    return ad._tape_stack[-1] if ad._tape_stack else None


class Tracer:
    def __init__(self, urnng):
        self._urnng = urnng
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self.stats: dict[str, dict] = {}

    # -- recording ------------------------------------------------------------

    def _stat(self, name: str) -> dict:
        return self.stats.setdefault(name, {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "nodes": 0, "rows": 0,
            "samples": 0})

    def _wrap(self, name: str, fn, count=None):
        """Trace ``fn`` as ``name``; ``count(args)`` names counters that this
        span and every span enclosing it accumulate."""
        ad = self._urnng.autodiff

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tape = _active_tape(ad)
            before = len(tape) if tape is not None else 0
            frame = [name, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                self._stack.pop()
                stat = self._stat(name)
                stat["calls"] += 1
                stat["total_s"] += spent
                stat["self_s"] += spent - frame[1]
                if tape is not None:
                    stat["nodes"] += len(tape) - before
                if self._stack:
                    self._stack[-1][1] += spent
                if count is not None:
                    for key, value in count(args).items():
                        stat[key] += value
                        for outer, _ in self._stack:
                            self._stat(outer)[key] += value
        return traced

    def _tape_exit(self, fn):
        @functools.wraps(fn)
        def traced(tape, *args):
            self._stat("autodiff.tape")["nodes"] += len(tape)
            return fn(tape, *args)
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        u = self._urnng
        one_sample = {"samples": 1}
        for fname, count in (("inside", None), ("tree_entropy", None),
                             ("sample_tree", lambda args: one_sample),
                             ("tree_log_prob_batch", None), ("viterbi", None)):
            original = getattr(u.crf, fname)
            wrapped = self._wrap(f"crf.{fname}", original, count)
            # trainer and evaluate bind these names at import time
            for module in (u.crf, u.trainer, u.evaluate):
                if getattr(module, fname, None) is original:
                    self._patch(module, fname, wrapped)
        methods = (
            (u.crf.InferenceNetwork, "span_scores", "crf.span_scores", None),
            (u.rnng.GenerativeModel, "joint_log_likelihood_batch",
             "rnng.joint", lambda args: {"rows": len(args[1])}),
            (u.rnng.GenerativeModel, "sample_actions_conditional",
             "rnng.prior_sample", None),
            (u.autodiff.Tape, "backward", "autodiff.backward", None),
            (u.optim.SGD, "step", "optim.sgd", None),
            (u.optim.Adam, "step", "optim.adam", None),
            (u.trainer.Trainer, "elbo_step", "trainer.elbo_step", None),
            (u.trainer.Trainer, "validate", "trainer.validate", None),
        )
        for owner, attr, name, count in methods:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr),
                                                count))
        self._patch(u.autodiff.Tape, "__exit__",
                    self._tape_exit(u.autodiff.Tape.__exit__))
        for fname in ("iw_perplexity", "distributional_metrics",
                      "viterbi_parses"):
            self._patch(u.evaluate, fname, self._wrap(
                f"evaluate.{fname}", getattr(u.evaluate, fname)))
        self._patch(u.synth, "synth_corpus",
                    self._wrap("synth.synth_corpus", u.synth.synth_corpus))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, dict]:
        out, self.stats = self.stats, {}
        return out
