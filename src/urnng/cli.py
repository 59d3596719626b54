"""Command-line driver: train, parse, evaluate, sample, generate, synth,
verify.

Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from importlib import resources
from types import SimpleNamespace

import numpy as np

from .autodiff import NumericError
from .checkpoint import (CheckpointError, atomic_write_text, load_checkpoint,
                         save_checkpoint)
from .crf import inside, sample_trees, tree_log_prob_batch
from .evaluate import (evaluate_corpus, format_report, format_sentence_tsv,
                       viterbi_parses)
from .synth import Grammar, synth_corpus, write_corpus
from .trainer import MODES, TrainConfig, Trainer, build_models
from .treebank import (DataError, TreeRepr, Vocabulary, binarize_right,
                       read_bracketed, read_corpus, read_tokenized)
from .verify import run_verification

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_VERIFY = 4

DEFAULT_GRAMMAR = "default"


class UsageError(Exception):
    """Bad flag combination caught after argparse."""


# -- corpus and checkpoint plumbing ------------------------------------------


def _is_bracketed(path) -> bool:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    return line.lstrip().startswith("(")
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err
    raise DataError(f"{path}: no usable sentences")


def _corpus_tokens(path) -> list[list[str]]:
    """Token lists from either a tokens file or a bracketed-trees file."""
    if _is_bracketed(path):
        from .treebank import read_trees
        return [tree.leaves() for tree in read_trees(path)]
    return read_tokenized(path)


def _load_corpus(path, vocab: Vocabulary, *, with_trees: bool):
    """Sentences, or (Sentence, TreeRepr) pairs when trees are required."""
    if _is_bracketed(path):
        pairs = read_bracketed(path, vocab)
        if with_trees:
            return [(s, binarize_right(t)) for s, t in pairs]
        return [s for s, _ in pairs]
    if with_trees:
        raise DataError(f"{path}: this mode needs bracketed trees, "
                        "got a plain tokens file")
    return read_corpus(path, vocab)


def _checkpoint_metadata(trainer: Trainer, vocab: Vocabulary) -> dict:
    return {
        "config": dataclasses.asdict(trainer.config),
        "vocab": list(vocab.tokens),
        "trainer": trainer.metadata(),
    }


def _save_trainer(path, trainer: Trainer, vocab: Vocabulary) -> None:
    save_checkpoint(path, trainer.named_arrays(),
                    _checkpoint_metadata(trainer, vocab))


def _read_checkpoint(path) -> tuple[dict, TrainConfig, Vocabulary, dict]:
    """(arrays, config, vocabulary, trainer metadata) saved at ``path``."""
    arrays, meta = load_checkpoint(path)
    try:
        return (arrays, TrainConfig(**meta["config"]),
                Vocabulary(list(meta["vocab"])), meta["trainer"])
    except (KeyError, TypeError) as err:
        raise CheckpointError(f"{path}: malformed metadata: {err}") from err


def _load_trainer(path, config: TrainConfig | None = None
                  ) -> tuple[Trainer, Vocabulary]:
    """The trainer saved at ``path``.  Given a ``config``, a new trainer for
    it that takes only the saved parameters; its optimizers start fresh."""
    arrays, saved, vocab, trainer_meta = _read_checkpoint(path)
    fresh = config is not None
    config = config if fresh else saved
    # every parameter is loaded below, so none is drawn: each starts as zeros
    undrawn = SimpleNamespace(uniform=lambda low, high, size: np.zeros(size))
    model, inference = build_models(config, len(vocab), rng=undrawn)
    trainer = Trainer(model, inference, config)
    if fresh:
        trainer.load_parameters(arrays)
    else:
        trainer.load_state(arrays, trainer_meta)
    return trainer, vocab


def _load_parser(args) -> tuple[Trainer, Vocabulary, list]:
    """The checkpoint's trainer, which must have an inference network, its
    vocabulary, and the corpus read with that vocabulary."""
    trainer, vocab = _load_trainer(args.checkpoint)
    if trainer.inference is None:
        raise DataError(f"{args.checkpoint}: {trainer.config.mode} "
                        "checkpoint has no inference network")
    return trainer, vocab, _load_corpus(args.corpus, vocab, with_trees=False)


def _emit(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)


def _grammar_from(arg) -> Grammar:
    if arg == DEFAULT_GRAMMAR:
        text = (resources.files("urnng") / "data" /
                "default_grammar.txt").read_text(encoding="utf-8")
        return Grammar.from_text(text, source="default_grammar.txt")
    return Grammar.from_file(arg)


# -- subcommands --------------------------------------------------------------


def cmd_train(args) -> int:
    if args.config is not None:
        config = TrainConfig.from_file(args.config)
    elif args.mode == "finetune":
        config = TrainConfig(mode="finetune", theta_lr=0.1)
    else:
        config = TrainConfig()
    if args.mode is not None:
        config = dataclasses.replace(config, mode=args.mode)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    config.validate()
    if config.mode == "finetune" and args.from_checkpoint is None:
        raise UsageError("finetune mode needs --from-checkpoint")

    # a resumed run builds no trainer here: it restores one below
    resuming = args.resume is not None
    if args.from_checkpoint is None:
        vocab = Vocabulary.build(_corpus_tokens(args.corpus),
                                 min_count=args.min_count)
        if not resuming:
            models = build_models(config, len(vocab),
                                  rng=np.random.default_rng(config.seed))
            trainer = Trainer(*models, config)
    elif resuming:
        vocab = _read_checkpoint(args.from_checkpoint)[2]
    else:
        trainer, vocab = _load_trainer(args.from_checkpoint, config)

    with_trees = config.mode == "supervised"
    train_data = _load_corpus(args.corpus, vocab, with_trees=with_trees)
    val_data = _load_corpus(args.valid, vocab, with_trees=with_trees)

    os.makedirs(args.out, exist_ok=True)
    if resuming:
        trainer, saved_vocab = _load_trainer(args.resume)
        if saved_vocab.tokens != vocab.tokens:
            raise DataError(f"{args.resume}: vocabulary does not match "
                            "the training corpus")
        current = dataclasses.asdict(config)
        # the epoch budget can grow on resume; nothing else may change,
        # or the continuation would not reproduce an uninterrupted run
        diff = sorted(k for k, v in dataclasses.asdict(trainer.config).items()
                      if k != "epochs" and v != current[k])
        if diff:
            raise DataError(f"{args.resume}: config differs from this run "
                            f"({', '.join(diff)}); resuming would not be "
                            "reproducible")
        trainer.config = config

    last_path = os.path.join(args.out, "last.ckpt")
    best_path = os.path.join(args.out, "best.ckpt")

    def checkpoint_callback(tr: Trainer, record: dict) -> None:
        _save_trainer(last_path, tr, vocab)
        if record["improved"]:
            _save_trainer(best_path, tr, vocab)

    records = trainer.train(train_data, val_data,
                            log_path=os.path.join(args.out, "metrics.txt"),
                            epoch_callback=checkpoint_callback)
    if records:
        final = records[-1]
        print(f"trained {final['epoch']} epochs; best epoch "
              f"{final['best_epoch']} (val {trainer.best_val:.6f}); "
              f"checkpoints in {args.out}")
    else:
        print("nothing to do: checkpoint already at the epoch budget")
    return EXIT_OK


def cmd_parse(args) -> int:
    trainer, _, sentences = _load_parser(args)
    trees = viterbi_parses(trainer.inference, sentences)
    lines = [tree.to_bracketed(list(s.words))
             for tree, s in zip(trees, sentences)]
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    trainer, vocab, sentences = _load_parser(args)
    gold = None
    if args.gold is not None:
        gold = [tree for _, tree in read_bracketed(args.gold, vocab)]
    report = evaluate_corpus(sentences, trainer.model, trainer.inference,
                             gold=gold, k=args.samples,
                             temperature=args.temperature, seed=args.seed)
    text = format_report(report)
    sys.stdout.write(text)
    if args.out is not None:
        atomic_write_text(args.out, text)
    if args.tsv is not None:
        atomic_write_text(args.tsv, format_sentence_tsv(report, sentences))
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    trainer, _, sentences = _load_parser(args)
    lines = []
    for i, sentence in enumerate(sentences):
        rng = np.random.default_rng((args.seed, i))
        ids = np.asarray(sentence.ids, dtype=np.int64)
        chart = inside(trainer.inference.span_scores(ids[None]))
        spans, which = sample_trees(chart, rng, [0] * args.samples)
        log_qs = tree_log_prob_batch(chart, spans, [0] * len(spans)).data
        texts = [TreeRepr.from_array(row).to_bracketed(list(sentence.words))
                 for row in spans]
        lines.extend(f"{i}\t{log_qs[s]:.6f}\t{texts[s]}" for s in which)
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def cmd_generate(args) -> int:
    trainer, vocab = _load_trainer(args.checkpoint)
    if trainer.config.mode == "lm":
        raise DataError(f"{args.checkpoint}: lm checkpoints cannot generate "
                        "trees")
    rng = np.random.default_rng(args.seed)
    lines = []
    for _ in range(args.n):
        result = trainer.model.generate(rng, max_len=args.max_len)
        if result.empty:
            text = "<empty>"
        else:
            words = list(vocab.decode(result.ids))
            text = result.tree.to_bracketed(words)
            if result.truncated:
                text += "\t<truncated>"
        lines.append(f"{result.log_likelihood:.6f}\t{text}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return EXIT_OK


def cmd_synth(args) -> int:
    grammar = _grammar_from(args.grammar)
    trees = synth_corpus(grammar, args.n, args.min_len, args.max_len,
                         seed=args.seed)
    tokens_path = args.out_prefix + ".tokens"
    trees_path = args.out_prefix + ".trees"
    write_corpus(trees, tokens_path, trees_path)
    lengths = [len(t.leaves()) for t in trees]
    print(f"wrote {len(trees)} sentences (lengths {min(lengths)}-"
          f"{max(lengths)}) to {tokens_path} and {trees_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_verification(max_length=args.max_length,
                               trials=args.trials, seed=args.seed)
    for r in results:
        print(f"{'ok  ' if r.passed else 'FAIL'} {r.name} -- {r.detail}")
    failed = sum(not r.passed for r in results)
    if failed:
        print(f"{failed} of {len(results)} properties failed")
        return EXIT_VERIFY
    print(f"all {len(results)} properties passed")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnng",
        description="Unsupervised recurrent neural network grammars: "
                    "variational training, parsing, and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a model")
    train.add_argument("--corpus", required=True,
                       help="training corpus: tokens or bracketed trees")
    train.add_argument("--valid", required=True, help="validation corpus")
    train.add_argument("--mode", choices=MODES,
                       help="training objective (default from config file)")
    train.add_argument("--config", help="key/value config file")
    train.add_argument("--seed", type=int, help="override the config seed")
    train.add_argument("--out", required=True, help="output directory")
    train.add_argument("--min-count", type=int, default=2,
                       help="vocabulary threshold (default 2)")
    train.add_argument("--from-checkpoint",
                       help="initialize parameters from this checkpoint "
                            "(required for finetune)")
    train.add_argument("--resume",
                       help="continue an interrupted run bit-identically")
    train.set_defaults(func=cmd_train)

    parse = sub.add_parser("parse", help="emit Viterbi trees")
    parse.add_argument("--corpus", required=True)
    parse.add_argument("--checkpoint", required=True)
    parse.add_argument("--out", help="output file (default stdout)")
    parse.set_defaults(func=cmd_parse)

    ev = sub.add_parser("evaluate", help="perplexity and bracketing metrics")
    ev.add_argument("--corpus", required=True)
    ev.add_argument("--gold", help="bracketed gold trees for F1")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--samples", type=int, default=1000,
                    help="importance samples per sentence (default 1000)")
    ev.add_argument("--temperature", type=float, default=2.0,
                    help="proposal flattening (default 2.0)")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", help="also write the report here")
    ev.add_argument("--tsv", help="write per-sentence TSV here")
    ev.set_defaults(func=cmd_evaluate)

    sample = sub.add_parser("sample",
                            help="draw trees from the inference network")
    sample.add_argument("--corpus", required=True)
    sample.add_argument("--checkpoint", required=True)
    sample.add_argument("--samples", type=int, default=5,
                        help="draws per sentence (default 5)")
    sample.add_argument("--seed", type=int, default=0)
    sample.add_argument("--out", help="output file (default stdout)")
    sample.set_defaults(func=cmd_sample)

    gen = sub.add_parser("generate",
                         help="sample sentences from the generative model")
    gen.add_argument("--checkpoint", required=True)
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--max-len", type=int, default=60)
    gen.add_argument("--out", help="output file (default stdout)")
    gen.set_defaults(func=cmd_generate)

    synth = sub.add_parser("synth", help="write a synthetic corpus")
    synth.add_argument("--grammar", default=DEFAULT_GRAMMAR,
                       help="grammar file (default: packaged grammar)")
    synth.add_argument("--n", type=int, required=True,
                       help="number of sentences")
    synth.add_argument("--min-len", type=int, default=3)
    synth.add_argument("--max-len", type=int, default=12)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out-prefix", required=True,
                       help="writes <prefix>.tokens and <prefix>.trees")
    synth.set_defaults(func=cmd_synth)

    verify = sub.add_parser("verify",
                            help="cross-check charts and models against "
                                 "enumeration")
    verify.add_argument("--max-length", type=int, default=6)
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_OK if err.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, ValueError, OSError) as err:  # DataError too
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
