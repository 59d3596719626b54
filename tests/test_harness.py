"""Harness tests: checkpoint container, synthetic-grammar generator, and
the command-line contracts (exit codes, file outputs, resumability)."""

import importlib.util
import json
import math
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from urnng import cli
from urnng.checkpoint import (MAGIC, VERSION, CheckpointError,
                              atomic_write_bytes, load_checkpoint,
                              save_checkpoint)
from urnng.crf import inside, tree_log_prob
from urnng.synth import Grammar, format_tree, synth_corpus, write_corpus
from urnng.treebank import DataError, parse_sexprs, binarize_right

SMALL_GRAMMAR = """
S -> A B 0.7
S -> A 0.3
A -> x 0.6
A -> y 0.4
B -> A B 0.2
B -> z 0.8
"""


def default_grammar() -> Grammar:
    return cli._grammar_from(cli.DEFAULT_GRAMMAR)


class TestCheckpointContainer:
    def sample_state(self):
        arrays = {
            "w": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([-1.5, 2.5]),
            "t": np.array(7.0),
        }
        metadata = {"config": {"dim": 3, "lr": 0.1}, "note": "x",
                    "big": 2 ** 100, "neg_inf": -math.inf}
        return arrays, metadata

    def test_round_trip_preserves_values(self, tmp_path):
        arrays, metadata = self.sample_state()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, arrays, metadata)
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].shape == arrays[name].shape
            assert np.array_equal(loaded[name], arrays[name])
        assert meta["config"] == {"dim": 3, "lr": 0.1}
        assert meta["big"] == 2 ** 100
        assert meta["neg_inf"] == -math.inf

    def test_save_load_save_is_byte_identical(self, tmp_path):
        arrays, metadata = self.sample_state()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, arrays, metadata)
        save_checkpoint(second, *load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()

    def test_version_mismatch_is_rejected(self, tmp_path):
        arrays, metadata = self.sample_state()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, arrays, metadata)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        path.write_bytes(b"ZZZZ" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncation_is_rejected_everywhere(self, tmp_path):
        arrays, metadata = self.sample_state()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, arrays, metadata)
        data = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in (8, 20, len(data) - 5):
            bad.write_bytes(data[:cut])
            with pytest.raises(CheckpointError,
                               match="truncated|not a checkpoint"):
                load_checkpoint(bad)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        arrays, metadata = self.sample_state()
        path = tmp_path / "a.ckpt"
        save_checkpoint(path, arrays, metadata)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_corrupt_header_is_rejected(self, tmp_path):
        path = tmp_path / "a.ckpt"
        blob = b"{not json"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                         + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(CheckpointError, match="corrupt header"):
            load_checkpoint(path)

    def test_missing_file_is_a_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_atomic_write_replaces_not_appends(self, tmp_path):
        path = tmp_path / "f.bin"
        atomic_write_bytes(path, b"first version, longer")
        atomic_write_bytes(path, b"second")
        assert path.read_bytes() == b"second"
        assert list(tmp_path.iterdir()) == [path]  # no temp files left


class TestGrammar:
    def test_parses_rules_and_classifies_symbols(self):
        g = Grammar.from_text(SMALL_GRAMMAR)
        assert g.start == "S"
        assert g.nonterminals == {"S", "A", "B"}
        assert g.terminals == ["x", "y", "z"]
        assert len(g.rules) == 6

    def test_comments_and_blank_lines_are_ignored(self):
        g = Grammar.from_text("# all of it\nS -> a 1.0  # trailing\n\n")
        assert g.terminals == ["a"]

    def test_malformed_lines_are_rejected(self):
        for text, why in [("S a 1.0", "expected"),
                          ("S -> 1.0", "expected"),
                          ("S -> a b c 1.0", "one or two symbols"),
                          ("S -> a oops", "bad probability")]:
            with pytest.raises(DataError, match=why):
                Grammar.from_text(text)

    def test_probability_sums_must_be_one(self):
        with pytest.raises(DataError, match="sum to"):
            Grammar.from_text("S -> a 0.6\nS -> b 0.5")

    def test_mixed_terminal_nonterminal_rhs_is_rejected(self):
        with pytest.raises(DataError, match="alone"):
            Grammar.from_text("S -> A word 1.0\nA -> a 1.0")

    def test_nonpositive_probability_is_rejected(self):
        with pytest.raises(DataError, match="positive"):
            Grammar.from_text("S -> a 0.0\nS -> b 1.0")

    def test_improper_grammar_is_rejected(self):
        # S -> S S at 0.9 has extinction probability 1/9
        with pytest.raises(DataError, match="improper"):
            Grammar.from_text("S -> S S 0.9\nS -> a 0.1")

    def test_critical_grammar_is_rejected(self):
        # branching expectation exactly 1: terminates a.s. but with
        # infinite expected size, useless for sampling
        with pytest.raises(DataError, match="improper"):
            Grammar.from_text("S -> S S 0.5\nS -> a 0.5")

    def test_packaged_grammar_loads_and_is_proper(self):
        g = default_grammar()
        assert g.start == "TOP"
        assert 40 <= len(g.terminals) <= 55
        assert {"NP", "VP", "PP", "S"} <= g.nonterminals

    def test_rule_frequencies_match_probabilities(self):
        # unbounded samples avoid the bias that length rejection introduces
        g = Grammar.from_text(SMALL_GRAMMAR)
        rng = np.random.default_rng(0)
        counts: dict[tuple, int] = {}
        lhs_totals: dict[str, int] = {}

        def tally(node):
            if node.is_preterminal:
                key = (node.label, (node.word,))
            else:
                key = (node.label, tuple(c.label for c in node.children))
                for child in node.children:
                    tally(child)
            counts[key] = counts.get(key, 0) + 1
            lhs_totals[node.label] = lhs_totals.get(node.label, 0) + 1

        n = 10_000
        for _ in range(n):
            tally(g.sample_tree(rng))
        for rule in g.rules:
            total = lhs_totals[rule.lhs]
            seen = counts.get((rule.lhs, rule.rhs), 0) / total
            se = math.sqrt(rule.prob * (1 - rule.prob) / total)
            assert abs(seen - rule.prob) <= 3 * se, (rule, seen)


class TestSynthCorpus:
    def test_deterministic_given_seed(self, tmp_path):
        g = default_grammar()
        a = synth_corpus(g, 50, 3, 12, seed=9)
        b = synth_corpus(g, 50, 3, 12, seed=9)
        c = synth_corpus(g, 50, 3, 12, seed=10)
        assert a == b
        assert a != c

    def test_lengths_respect_bounds(self):
        trees = synth_corpus(default_grammar(), 100, 4, 9, seed=1)
        lengths = [len(t.leaves()) for t in trees]
        assert min(lengths) >= 4 and max(lengths) <= 9

    def test_trees_round_trip_and_binarize(self):
        for tree in synth_corpus(default_grammar(), 100, 3, 12, seed=2):
            assert parse_sexprs(format_tree(tree))[0] == tree
            binarize_right(tree)  # TreeRepr validates its own spans

    def test_incompatible_bounds_raise(self):
        g = Grammar.from_text("S -> a 1.0")
        with pytest.raises(DataError, match="length bounds"):
            synth_corpus(g, 5, 5, 6, seed=0)

    def test_bad_arguments_raise(self):
        g = Grammar.from_text("S -> a 1.0")
        with pytest.raises(DataError, match="min_len"):
            synth_corpus(g, 5, 0, 6)
        with pytest.raises(DataError, match="n_sentences"):
            synth_corpus(g, 0, 1, 6)

    def test_written_files_have_one_line_per_sentence(self, tmp_path):
        trees = synth_corpus(default_grammar(), 20, 3, 12, seed=3)
        tokens, bracketed = tmp_path / "c.tokens", tmp_path / "c.trees"
        write_corpus(trees, tokens, bracketed)
        token_lines = tokens.read_text().splitlines()
        tree_lines = bracketed.read_text().splitlines()
        assert len(token_lines) == len(tree_lines) == 20
        for toks, line in zip(token_lines, tree_lines):
            assert parse_sexprs(line)[0].leaves() == toks.split()


TINY_CONFIG = """
mode = urnng
samples = 4
batch_size = 8
epochs = 2
anneal_epochs = 1.0
gen_dim = 10
inf_hidden = 8
mlp_hidden = 12
max_len = 20
dropout = 0.0
seed = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpora plus a finished tiny training run."""
    root = tmp_path_factory.mktemp("cli")
    assert cli.main(["synth", "--n", "40", "--seed", "5",
                     "--out-prefix", str(root / "train")]) == 0
    assert cli.main(["synth", "--n", "12", "--seed", "6",
                     "--out-prefix", str(root / "valid")]) == 0
    (root / "tiny.cfg").write_text(TINY_CONFIG)
    assert cli.main(["train", "--corpus", str(root / "train.tokens"),
                     "--valid", str(root / "valid.tokens"),
                     "--config", str(root / "tiny.cfg"),
                     "--out", str(root / "run")]) == 0
    return root


class TestCliContracts:
    def test_train_writes_checkpoints_and_metrics(self, workspace):
        assert (workspace / "run" / "last.ckpt").exists()
        assert (workspace / "run" / "best.ckpt").exists()
        text = (workspace / "run" / "metrics.txt").read_text()
        starts = [line for line in text.splitlines()
                  if line.startswith("epoch ")]
        assert starts == ["epoch 1", "epoch 2"]
        assert "val_metric" in text

    def test_parse_line_count_matches_corpus(self, workspace, tmp_path):
        out = tmp_path / "parses.txt"
        assert cli.main(["parse", "--corpus", str(workspace / "valid.tokens"),
                         "--checkpoint", str(workspace / "run" / "best.ckpt"),
                         "--out", str(out)]) == 0
        n_corpus = len((workspace / "valid.tokens").read_text().splitlines())
        lines = out.read_text().splitlines()
        assert len(lines) == n_corpus
        for toks, line in zip(
                (workspace / "valid.tokens").read_text().splitlines(), lines):
            assert parse_sexprs(line)[0].leaves() == toks.split()

    def test_evaluate_writes_report_and_tsv(self, workspace, tmp_path,
                                            capsys):
        report = tmp_path / "report.txt"
        tsv = tmp_path / "per_sentence.tsv"
        assert cli.main(["evaluate",
                         "--corpus", str(workspace / "valid.tokens"),
                         "--gold", str(workspace / "valid.trees"),
                         "--checkpoint", str(workspace / "run" / "best.ckpt"),
                         "--samples", "20",
                         "--out", str(report), "--tsv", str(tsv)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == report.read_text()
        assert "corpus_f1 " in stdout and "label_recall.NP " in stdout
        n_valid = len((workspace / "valid.tokens").read_text().splitlines())
        assert len(tsv.read_text().splitlines()) == n_valid + 1

    def test_sample_draws_k_trees_per_sentence(self, workspace, capsys):
        assert cli.main(["sample",
                         "--corpus", str(workspace / "valid.tokens"),
                         "--checkpoint", str(workspace / "run" / "last.ckpt"),
                         "--samples", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        n_valid = len((workspace / "valid.tokens").read_text().splitlines())
        assert len(lines) == 3 * n_valid
        assert lines[0].split("\t")[0] == "0"

    def test_sample_prints_the_log_q_of_each_printed_tree(self, workspace,
                                                          capsys):
        ckpt = str(workspace / "run" / "last.ckpt")
        corpus = workspace / "valid.tokens"
        assert cli.main(["sample", "--corpus", str(corpus),
                         "--checkpoint", ckpt, "--samples", "4",
                         "--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        trainer, vocab = cli._load_trainer(ckpt)
        sentences = cli._load_corpus(corpus, vocab, with_trees=False)
        assert len(lines) == 4 * len(sentences)
        for line in lines:
            index, log_q, bracketed = line.split("\t")
            sentence = sentences[int(index)]
            parsed = parse_sexprs(bracketed)[0]
            assert parsed.leaves() == list(sentence.words)
            ids = np.asarray(sentence.ids, dtype=np.int64)[None]
            chart = inside(trainer.inference.span_scores(ids))
            assert tree_log_prob(chart, binarize_right(parsed)) == \
                pytest.approx(float(log_q), abs=5e-7)
            assert float(log_q) <= 0.0

    def test_generate_emits_n_lines(self, workspace, capsys):
        assert cli.main(["generate",
                         "--checkpoint", str(workspace / "run" / "last.ckpt"),
                         "--n", "7", "--seed", "1", "--max-len", "15"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 7
        for line in lines:
            float(line.split("\t")[0])  # leading log-likelihood

    def test_verify_passes_on_fresh_build(self, capsys):
        assert cli.main(["verify", "--max-length", "4",
                         "--trials", "6"]) == 0
        out = capsys.readouterr().out
        assert "all 8 properties passed" in out
        assert "FAIL" not in out

    def test_synth_is_deterministic_across_processes(self, tmp_path):
        for prefix in ("a", "b"):
            assert cli.main(["synth", "--n", "25", "--seed", "11",
                             "--out-prefix", str(tmp_path / prefix)]) == 0
        assert ((tmp_path / "a.tokens").read_bytes()
                == (tmp_path / "b.tokens").read_bytes())
        assert ((tmp_path / "a.trees").read_bytes()
                == (tmp_path / "b.trees").read_bytes())


class TestCliExitCodes:
    def test_unknown_subcommand_is_usage(self, capsys):
        assert cli.main(["frobnicate"]) == 1
        assert cli.main([]) == 1

    def test_missing_required_flag_is_usage(self, capsys):
        assert cli.main(["parse", "--corpus", "x"]) == 1

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["train", "--help"]) == 0

    def test_finetune_without_source_is_usage(self, workspace, capsys):
        code = cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--mode", "finetune",
                         "--out", str(workspace / "ft")])
        assert code == 1
        assert "from-checkpoint" in capsys.readouterr().err

    def test_missing_corpus_path_is_data_error(self, workspace, tmp_path,
                                               capsys):
        code = cli.main(["train", "--corpus", str(tmp_path / "nope.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nope.tokens" in capsys.readouterr().err

    def test_supervised_mode_rejects_plain_tokens(self, workspace, tmp_path,
                                                  capsys):
        code = cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(workspace / "tiny.cfg"),
                         "--mode", "supervised",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "bracketed trees" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_data_error(self, workspace, tmp_path,
                                              capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"junkjunkjunkjunkjunk")
        assert cli.main(["parse", "--corpus",
                         str(workspace / "valid.tokens"),
                         "--checkpoint", str(bad)]) == 2

    @pytest.mark.parametrize("damage", [
        "no-arrays", "no-metadata", "no-shape", "float-shape", "string-shape",
        "list-header", "no-optimizer-array", "no-counter"])
    def test_malformed_checkpoint_is_data_error(self, workspace, tmp_path,
                                                capsys, damage):
        data = (workspace / "run" / "last.ckpt").read_bytes()
        (size,) = struct.unpack("<Q", data[8:16])
        header = json.loads(data[16:16 + size])
        payload = data[16 + size:]
        if damage == "no-arrays":
            del header["arrays"]
        elif damage == "no-metadata":
            del header["metadata"]
        elif damage == "no-shape":
            del header["arrays"][0]["shape"]
        elif damage == "float-shape":
            header["arrays"][0]["shape"] = [
                float(d) for d in header["arrays"][0]["shape"]]
        elif damage == "string-shape":
            header["arrays"][0]["shape"] = "".join(
                map(str, header["arrays"][0]["shape"]))
        elif damage == "list-header":
            header = [header]
        if damage in ("no-optimizer-array", "no-counter"):
            arrays, meta = load_checkpoint(workspace / "run" / "last.ckpt")
            missing = "opt.theta.lr.emb"
            if damage == "no-optimizer-array":
                del arrays[missing]
            else:
                missing = "epoch"
                del meta["trainer"][missing]
            save_checkpoint(tmp_path / "bad.ckpt", arrays, meta)
        else:
            blob = json.dumps(header).encode("utf-8")
            (tmp_path / "bad.ckpt").write_bytes(
                data[:8] + struct.pack("<Q", len(blob)) + blob + payload)
            missing = {"no-shape": "shape", "no-metadata": "metadata",
                       "float-shape": "malformed header",
                       "string-shape": "malformed header",
                       "list-header": "malformed header"}.get(damage, "arrays")
        assert cli.main(["parse", "--corpus",
                         str(workspace / "valid.tokens"),
                         "--checkpoint", str(tmp_path / "bad.ckpt")]) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_sample_without_draws_is_data_error(self, workspace, capsys,
                                                samples):
        assert cli.main(["sample", "--corpus",
                         str(workspace / "valid.tokens"),
                         "--checkpoint", str(workspace / "run" / "last.ckpt"),
                         "--samples", samples]) == 2
        assert f"--samples must be >= 1, got {samples}" in \
            capsys.readouterr().err

    def test_verification_failure_exit_code(self, monkeypatch, capsys):
        from urnng.verify import PropertyResult
        monkeypatch.setattr(
            "urnng.cli.run_verification",
            lambda **kw: [PropertyResult("doomed", False, "by design")])
        assert cli.main(["verify"]) == 4


class TestCheckpointedTraining:
    def test_trainer_checkpoint_save_load_save_byte_identical(
            self, workspace, tmp_path):
        src = workspace / "run" / "last.ckpt"
        trainer, vocab = cli._load_trainer(src)
        dst = tmp_path / "resaved.ckpt"
        cli._save_trainer(dst, trainer, vocab)
        assert src.read_bytes() == dst.read_bytes()

    @pytest.mark.parametrize("fresh", [False, True])
    def test_load_draws_nothing(self, workspace, monkeypatch, fresh):
        # the checkpoint overwrites every parameter, so no generator that
        # the load makes draws anything, fresh trainer or restored
        default_rng, draws = np.random.default_rng, []

        class Counted:
            def __init__(self, *args, **kwargs):
                self.rng = default_rng(*args, **kwargs)

            def __getattr__(self, name):
                attr = getattr(self.rng, name)
                if not callable(attr):
                    return attr

                def drawn(*args, **kwargs):
                    draws.append(name)
                    return attr(*args, **kwargs)
                return drawn

        monkeypatch.setattr(np.random, "default_rng", Counted)
        ckpt = workspace / "run" / "last.ckpt"
        config = cli._read_checkpoint(ckpt)[1] if fresh else None
        trainer, _ = cli._load_trainer(ckpt, config)
        assert draws == []
        arrays = load_checkpoint(ckpt)[0]
        for name, p in trainer.model.parameters().items():
            np.testing.assert_array_equal(p.data, arrays[name])

    def test_interrupted_resume_matches_straight_run(self, workspace,
                                                     tmp_path):
        args = ["--corpus", str(workspace / "train.tokens"),
                "--valid", str(workspace / "valid.tokens")]
        short_cfg = tmp_path / "short.cfg"
        short_cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 1"))
        full_cfg = workspace / "tiny.cfg"

        assert cli.main(["train", *args, "--config", str(short_cfg),
                         "--out", str(tmp_path / "half")]) == 0
        assert cli.main(["train", *args, "--config", str(full_cfg),
                         "--resume", str(tmp_path / "half" / "last.ckpt"),
                         "--out", str(tmp_path / "resumed")]) == 0
        straight = (workspace / "run" / "last.ckpt").read_bytes()
        resumed = (tmp_path / "resumed" / "last.ckpt").read_bytes()
        assert straight == resumed

    @pytest.mark.parametrize("fine_tuned", [False, True])
    def test_resume_builds_no_trainer_of_its_own(self, workspace, tmp_path,
                                                 monkeypatch, fine_tuned):
        # cmd_train itself builds no models when it resumes; the only
        # trainer is the one restored from the checkpoint
        build, built = cli.build_models, []

        def counted(*args, **kwargs):
            built.append(sys._getframe(1).f_code.co_name)
            return build(*args, **kwargs)

        monkeypatch.setattr(cli, "build_models", counted)
        source = ["--from-checkpoint", str(workspace / "run" / "best.ckpt")]
        assert cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(workspace / "tiny.cfg"),
                         *(source if fine_tuned else []),
                         "--resume", str(workspace / "run" / "last.ckpt"),
                         "--out", str(tmp_path / "out")]) == 0
        assert built.count("cmd_train") == 0
        assert built == ["_load_trainer"]

    def test_resume_with_changed_config_is_rejected(self, workspace,
                                                    tmp_path, capsys):
        changed = tmp_path / "changed.cfg"
        changed.write_text(TINY_CONFIG.replace("samples = 4", "samples = 6"))
        code = cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(changed),
                         "--resume", str(workspace / "run" / "last.ckpt"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "samples" in capsys.readouterr().err

    def test_resume_without_trainer_state_is_data_error(self, workspace,
                                                         tmp_path, capsys):
        arrays, meta = load_checkpoint(workspace / "run" / "last.ckpt")
        del meta["trainer"]
        save_checkpoint(tmp_path / "bad.ckpt", arrays, meta)
        code = cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(workspace / "tiny.cfg"),
                         "--resume", str(tmp_path / "bad.ckpt"),
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "malformed metadata" in capsys.readouterr().err

    def test_finetune_from_checkpoint_runs(self, workspace, tmp_path):
        ft_cfg = tmp_path / "ft.cfg"
        ft_cfg.write_text(TINY_CONFIG.replace("mode = urnng",
                                              "mode = finetune")
                          .replace("epochs = 2", "epochs = 1"))
        assert cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(ft_cfg),
                         "--from-checkpoint",
                         str(workspace / "run" / "best.ckpt"),
                         "--out", str(tmp_path / "ft")]) == 0
        assert (tmp_path / "ft" / "last.ckpt").exists()
        _, meta = load_checkpoint(tmp_path / "ft" / "last.ckpt")
        assert meta["config"]["mode"] == "finetune"

    def test_finetune_source_missing_a_parameter_is_data_error(
            self, workspace, tmp_path, capsys):
        arrays, meta = load_checkpoint(workspace / "run" / "best.ckpt")
        del arrays["gen.tree_w"]
        save_checkpoint(tmp_path / "partial.ckpt", arrays, meta)
        ft_cfg = tmp_path / "ft.cfg"
        ft_cfg.write_text(TINY_CONFIG.replace("mode = urnng",
                                              "mode = finetune"))
        code = cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(ft_cfg),
                         "--from-checkpoint", str(tmp_path / "partial.ckpt"),
                         "--out", str(tmp_path / "ft")])
        assert code == 2
        assert "gen.tree_w" in capsys.readouterr().err

    def test_supervised_training_on_trees(self, workspace, tmp_path):
        sup_cfg = tmp_path / "sup.cfg"
        sup_cfg.write_text(TINY_CONFIG.replace("mode = urnng",
                                               "mode = supervised")
                           .replace("epochs = 2", "epochs = 1"))
        assert cli.main(["train", "--corpus", str(workspace / "train.trees"),
                         "--valid", str(workspace / "valid.trees"),
                         "--config", str(sup_cfg),
                         "--out", str(tmp_path / "sup")]) == 0
        _, meta = load_checkpoint(tmp_path / "sup" / "last.ckpt")
        assert meta["config"]["mode"] == "supervised"

    def test_lm_checkpoint_cannot_parse(self, workspace, tmp_path, capsys):
        lm_cfg = tmp_path / "lm.cfg"
        lm_cfg.write_text(TINY_CONFIG.replace("mode = urnng", "mode = lm")
                          .replace("epochs = 2", "epochs = 1"))
        assert cli.main(["train", "--corpus", str(workspace / "train.tokens"),
                         "--valid", str(workspace / "valid.tokens"),
                         "--config", str(lm_cfg),
                         "--out", str(tmp_path / "lm")]) == 0
        code = cli.main(["parse", "--corpus", str(workspace / "valid.tokens"),
                         "--checkpoint", str(tmp_path / "lm" / "last.ckpt")])
        assert code == 2
        assert "no inference network" in capsys.readouterr().err


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")),
                         ids=lambda path: path.name)
def test_bench_record_names_the_benchmark(path):
    # each perf change's record speaks of the workloads and end-to-end
    # metrics that BENCHMARK.json declares
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"]}
    record = json.loads(path.read_text())
    assert record["pr"] == int(path.stem.removeprefix("BENCH_"))
    for key in ("change", "layer", "host", "method", "command"):
        assert record[key], key
    assert record["claim"]["workload"] in workloads
    assert record["claim"]["metric"] in metrics
    assert set(record["end_to_end"]) == workloads


def test_benchmark_tracer_wraps_names_that_exist_and_restores_them():
    # perfbench/spans.py patches layer functions and methods by name, so a
    # renamed one would otherwise show only in a traced benchmark run
    import urnng
    import urnng.evaluate
    import urnng.optim
    import urnng.rnng
    import urnng.synth
    import urnng.trainer  # noqa: F401

    spec = importlib.util.spec_from_file_location(
        "spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer(urnng)
    tracer.install()
    try:
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert callable(original), attr
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
