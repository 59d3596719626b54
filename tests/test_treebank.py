"""Tree representation, action bijection, vocabulary, and file IO tests."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnng import treebank as tb
from urnng.treebank import (REDUCE, SHIFT, DataError, ParseNode, Sentence,
                            TreeRepr, Vocabulary, actions_to_tree,
                            binarize_right, count_trees, left_branching,
                            make_sentence, parse_sexprs, random_tree,
                            read_bracketed, read_corpus, right_branching,
                            tree_to_actions)
from urnng import oracle
from urnng.crf import span_indicator, span_order

S, R = SHIFT, REDUCE


def spans(*pairs):
    return frozenset(pairs)


class TestCatalanCounts:
    def test_known_values(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132, 8: 429,
                    9: 1430, 10: 4862}
        for t, n in expected.items():
            assert count_trees(t) == n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            count_trees(0)


class TestTreeRepr:
    def test_validates_span_count(self):
        with pytest.raises(ValueError, match="needs 5 spans"):
            TreeRepr(3, spans((1, 1), (2, 2), (3, 3), (1, 3)))

    def test_validates_singletons_and_root(self):
        with pytest.raises(ValueError, match="singleton"):
            TreeRepr(3, spans((1, 1), (2, 2), (1, 2), (2, 3), (1, 3)))
        with pytest.raises(ValueError, match="root"):
            TreeRepr(3, spans((1, 1), (2, 2), (3, 3), (1, 2), (2, 3)))

    def test_validates_splits(self):
        # (1,4) with children (1,2),(3,3),(4,4) has no wide span covering 3-4
        bad = spans((1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 4), (1, 4))
        with pytest.raises(ValueError, match="does not split"):
            TreeRepr(4, bad)

    def test_single_word_tree(self):
        tree = TreeRepr(1, spans((1, 1)))
        assert tree.actions == (S,)
        assert tree.wide_spans == ()

    def test_branching_helpers(self):
        assert left_branching(4).actions == (S, S, R, S, R, S, R)
        assert right_branching(4).actions == (S, S, S, S, R, R, R)
        assert left_branching(4).wide_spans == ((1, 2), (1, 3), (1, 4))
        assert right_branching(4).wide_spans == ((1, 4), (2, 4), (3, 4))

    def test_mixed_tree_actions(self):
        # ((x1 (x2 x3)) x4): reduce the inner pair, then left, then outer
        tree = TreeRepr(4, spans((1, 1), (2, 2), (3, 3), (4, 4),
                                 (2, 3), (1, 3), (1, 4)))
        assert tree.actions == (S, S, S, R, R, S, R)

    def test_to_bracketed(self):
        tree = TreeRepr(3, spans((1, 1), (2, 2), (3, 3), (2, 3), (1, 3)))
        assert tree.to_bracketed(["a", "b", "c"]) == \
            "(X (X a) (X (X b) (X c)))"
        with pytest.raises(ValueError, match="3 words"):
            tree.to_bracketed(["a", "b"])


class TestActionBijection:
    def test_round_trip_exhaustive_small(self):
        from urnng.oracle import enumerate_trees
        for t in range(1, 7):
            for tree in enumerate_trees(t):
                assert actions_to_tree(tree_to_actions(tree), t) == tree

    @settings(max_examples=60, deadline=None)
    @given(t=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, t, seed):
        tree = random_tree(t, np.random.default_rng(seed))
        back = actions_to_tree(tree.actions, t)
        assert back == tree
        assert len(tree.actions) == 2 * t - 1
        assert tree.actions.count(S) == t

    def test_rejects_early_reduce(self):
        with pytest.raises(ValueError, match="REDUCE at step 1"):
            actions_to_tree((S, R))

    def test_rejects_unfinished_stack(self):
        with pytest.raises(ValueError, match="unreduced"):
            actions_to_tree((S, S))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="expected 3"):
            actions_to_tree((S, S, R), 3)

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown action"):
            actions_to_tree((S, 7, R))

    def test_prefix_shift_surplus(self):
        tree = random_tree(9, np.random.default_rng(0))
        depth = 0
        for a in tree.actions:
            depth += 1 if a == S else -1
            assert depth >= 1
        assert depth == 1


class TestRandomTree:
    def test_uniform_over_shapes(self):
        rng = np.random.default_rng(42)
        seen = {}
        for _ in range(5000):
            tree = random_tree(4, rng)
            seen[tree.spans] = seen.get(tree.spans, 0) + 1
        assert len(seen) == 5
        freqs = np.array(list(seen.values())) / 5000
        assert np.all(np.abs(freqs - 0.2) < 0.03)


class TestVocabulary:
    def test_build_applies_min_count(self):
        vocab = Vocabulary.build([["a", "b", "a"], ["b", "c"]], min_count=2)
        assert vocab.tokens[:2] == [tb.UNK_TOKEN, tb.EOS_TOKEN]
        assert "a" in vocab and "b" in vocab and "c" not in vocab
        assert vocab.encode_word("c") == vocab.unk_id
        assert vocab.encode_word("never-seen") == vocab.unk_id

    def test_frequency_then_alpha_order(self):
        vocab = Vocabulary.build([["z", "z", "z", "m", "m", "a", "a"]],
                                 min_count=2)
        assert vocab.tokens[2:] == ["z", "a", "m"]

    def test_reserved_tokens_rejected_in_corpus(self):
        with pytest.raises(DataError, match="reserved"):
            Vocabulary.build([["ok", tb.EOS_TOKEN]])

    def test_encode_decode(self):
        vocab = Vocabulary.build([["dog", "dog", "cat", "cat"]])
        ids = vocab.encode(["dog", "cat", "emu"])
        assert vocab.decode(ids) == ("dog", "cat", tb.UNK_TOKEN)


class TestSentences:
    def test_make_sentence_marks_punctuation(self):
        vocab = Vocabulary.build([["the", "the", "end", "end", ".", "."]])
        sent = make_sentence(["the", "end", "."], vocab)
        assert sent.punct == (False, False, True)
        assert sent.length == 3

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Sentence((), (), ())


class TestCorpusIO:
    def test_read_corpus(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("the dog barks\n\nthe cat sleeps\n")
        vocab = Vocabulary.build([["the", "dog", "barks", "cat", "sleeps"]] * 2)
        sents = read_corpus(path, vocab)
        assert [s.words for s in sents] == [("the", "dog", "barks"),
                                            ("the", "cat", "sleeps")]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_corpus(tmp_path / "nope.txt", Vocabulary.build([["a", "a"]]))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(DataError, match="no usable sentences"):
            read_corpus(path, Vocabulary.build([["a", "a"]]))


class TestBracketedTrees:
    def test_parse_basic(self):
        tree, = parse_sexprs("(S (NP (D the) (N dog)) (VP (V barks)))")
        assert tree.leaves() == ["the", "dog", "barks"]
        assert sorted(tree.constituents()) == [(1, 2, "NP"), (1, 3, "S"),
                                               (3, 3, "VP")]

    def test_parse_ptb_style_extra_wrapping(self):
        tree, = parse_sexprs("( (S (X a) (X b)) )")
        assert tree.label == "S"

    def test_parse_multiple_trees(self):
        trees = parse_sexprs("(S (X a))\n(S (X b) (X c))")
        assert [t.leaves() for t in trees] == [["a"], ["b", "c"]]

    def test_unbalanced_errors(self):
        with pytest.raises(DataError, match="unbalanced"):
            parse_sexprs("(S (X a)")
        with pytest.raises(DataError, match="unbalanced"):
            parse_sexprs("(S (X a)))")

    def test_mixed_node_rejected(self):
        with pytest.raises(DataError, match="mixes"):
            parse_sexprs("(S (X a) stray)")

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="no trees"):
            parse_sexprs("   ")


class TestBinarization:
    def test_two_children_natural(self):
        tree, = parse_sexprs("(S (NP (D the) (N dog)) (VP (V barks)))")
        assert binarize_right(tree).wide_spans == ((1, 2), (1, 3))

    def test_flat_node_right_binarized(self):
        tree, = parse_sexprs("(S (A a) (B b) (C c) (D d))")
        assert binarize_right(tree).wide_spans == ((1, 4), (2, 4), (3, 4))

    def test_unary_chain_collapses(self):
        tree, = parse_sexprs("(S (NP (NP (D the) (N dog))))")
        assert binarize_right(tree).wide_spans == ((1, 2),)

    def test_nested(self):
        tree, = parse_sexprs(
            "(S (NP (D the) (A big) (N dog)) (VP (V sees) (NP (D a) (N cat))))")
        got = binarize_right(tree)
        assert got.spans >= spans((1, 3), (2, 3), (5, 6), (4, 6), (1, 6))
        assert got.length == 6

    def test_round_trip_through_text(self):
        rng = np.random.default_rng(5)
        for t in (1, 2, 5, 9):
            tree = random_tree(t, rng)
            words = [f"w{i}" for i in range(t)]
            reparsed, = parse_sexprs(tree.to_bracketed(words))
            assert binarize_right(reparsed) == tree

    def test_read_bracketed(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("(S (NP (D the) (N dog)) (. .))\n(S (X runs))\n")
        vocab = Vocabulary.build([["the", "dog", ".", "runs"]] * 2)
        pairs = read_bracketed(path, vocab)
        assert len(pairs) == 2
        sent, tree = pairs[0]
        assert sent.words == ("the", "dog", ".")
        assert sent.punct == (False, False, True)
        assert tree.label == "S"


class TestParseNodeSpans:
    def test_preterminal_detection(self):
        node = ParseNode("D", (), "the")
        assert node.is_preterminal and node.leaves() == ["the"]

    def test_constituents_exclude_preterminals(self):
        tree, = parse_sexprs("(S (NP (D the) (N dog)) (VP (V barks)))")
        labels = [lab for (_, _, lab) in tree.constituents()]
        assert "D" not in labels and "NP" in labels


def reference_actions(tree):
    """Shift/reduce sequence by recursion over the tree's splits."""
    def visit(i, j):
        if i == j:
            return [S]
        k = next(k for k in range(i, j)
                 if (i, k) in tree.spans and (k + 1, j) in tree.spans)
        return visit(i, k) + visit(k + 1, j) + [R]
    return tuple(visit(1, tree.length))


class TestArrayForm:
    """Trees as [n, T-1, 2] wide-span arrays against their TreeRepr."""

    @staticmethod
    def assert_agrees(trees, t):
        wide = np.asarray(trees)
        assert wide.shape == (len(trees), t - 1, 2)
        assert wide.dtype == np.int64
        acts = tb.tree_actions(wide, t)
        marks = span_indicator(wide, t)
        assert acts.shape == (len(trees), 2 * t - 1)
        order = span_order(t)
        for tree, row, act, mark in zip(trees, wide, acts, marks):
            assert [tuple(span) for span in row.tolist()] == \
                list(tree.wide_spans)
            assert tuple(act.tolist()) == tree.actions == \
                reference_actions(tree)
            assert actions_to_tree(act.tolist(), t) == tree
            assert TreeRepr.from_array(row) == tree
            assert {order[c] for c in np.flatnonzero(mark)} == tree.spans
            assert mark.sum() == 2 * t - 1

    @pytest.mark.parametrize("t", range(1, 9))
    def test_every_tree_up_to_length_8(self, t):
        self.assert_agrees(oracle.enumerate_trees(t), t)

    @settings(max_examples=25, deadline=None)
    @given(t=st.integers(1, 150), n=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_random_trees(self, t, n, seed):
        rng = np.random.default_rng(seed)
        self.assert_agrees([random_tree(t, rng) for _ in range(n)], t)

    def test_one_word_trees_have_no_wide_spans(self):
        trees = [TreeRepr(1, spans((1, 1)))] * 3
        wide = np.asarray(trees)
        assert wide.shape == (3, 0, 2)
        assert tb.tree_actions(wide, 1).tolist() == [[S]] * 3
        assert span_indicator(wide, 1).tolist() == [[1.0]] * 3
        assert TreeRepr.from_array(wide[0]) == trees[0]
        self.assert_agrees(trees, 1)

    @pytest.mark.parametrize("t", [3, 5])
    def test_tree_actions_rejects_other_lengths(self, t):
        with pytest.raises(ValueError,
                           match=f"tree of length {t} in a length-4 batch"):
            tb.tree_actions([left_branching(t)], 4)


def test_tree_is_freed_without_the_cycle_collector():
    text = "(S (NP (DT the) (NN cat)) (VP (VBD sat) (PP (IN on) (NN it))))"
    parsed = tb.parse_sexprs(text)[0]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tree = random_tree(30, np.random.default_rng(0))
        assert len(tree.actions) == 59
        ref = weakref.ref(tree)
        del tree
        assert ref() is None
        # none of the recursive walks over trees leaves a reference cycle
        for walk in (lambda: random_tree(30, np.random.default_rng(0)),
                     lambda: tb.parse_sexprs(text),
                     lambda: tb.binarize_right(parsed),
                     parsed.constituents):
            gc.collect()
            walk()
            assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
