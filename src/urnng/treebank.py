"""Sentences, binary trees, and the action-sequence view of trees.

Span indices are 1-based and inclusive throughout: ``(i, j)`` covers words
``i..j`` and ``(1, T)`` is the whole sentence.  An unlabeled binary tree over
``T`` words is fully determined by its span set, which always contains the
``T`` singletons and the full-sentence span, ``2T - 1`` spans in total.

Inside the library n trees are one int64 array [n, T-1, 2]: each tree's wide
spans (width >= 2), sorted, so equal trees have equal rows.
``np.asarray(trees)`` turns a list of :class:`TreeRepr` into it, and
:meth:`TreeRepr.from_array` turns one row back into the object.

The same tree can be written as a shift/reduce action sequence: SHIFT pushes
the next word, REDUCE merges the top two stack elements.  ``tree_to_actions``
and ``actions_to_tree`` are exact inverses; :func:`tree_actions` takes arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SHIFT = 0
REDUCE = 1

# Surface forms treated as punctuation when scoring parses.  Matches the
# conventional evalb exclusion list used for unlabeled bracketing scores.
DEFAULT_PUNCT = frozenset({
    ",", ":", ";", ".", "!", "?", "...", "--", "-",
    "``", "''", "`", "'", '"', "-LRB-", "-RRB-", "-LCB-", "-RCB-",
})

UNK_TOKEN = "<unk>"
EOS_TOKEN = "</s>"


class DataError(ValueError):
    """Raised when an input file cannot be interpreted as corpus data."""


def count_trees(length: int) -> int:
    """Number of distinct binary trees over ``length`` words (a Catalan number)."""
    if length < 1:
        raise ValueError(f"count_trees: length must be >= 1, got {length}")
    return math.comb(2 * length - 2, length - 1) // length


@dataclass(frozen=True)
class TreeRepr:
    """An unlabeled binary tree as a validated span set."""

    length: int
    spans: frozenset[tuple[int, int]]

    def __post_init__(self):
        t = self.length
        if t < 1:
            raise ValueError(f"tree over {t} words")
        if len(self.spans) != 2 * t - 1:
            raise ValueError(
                f"binary tree over {t} words needs {2 * t - 1} spans, "
                f"got {len(self.spans)}")
        for i in range(1, t + 1):
            if (i, i) not in self.spans:
                raise ValueError(f"missing singleton span ({i}, {i})")
        if (1, t) not in self.spans:
            raise ValueError(f"missing root span (1, {t})")
        for (i, j) in self.spans:
            if i < j and not any((i, k) in self.spans and (k + 1, j) in
                                 self.spans for k in range(i, j)):
                raise ValueError(
                    f"span ({i}, {j}) does not split into two children")

    @classmethod
    def from_array(cls, wide) -> "TreeRepr":
        """The tree whose wide spans are the rows of ``wide`` [T-1, 2]."""
        t = len(wide) + 1
        return cls(t, frozenset(map(tuple, np.asarray(wide).tolist()))
                   | {(i, i) for i in range(1, t + 1)})

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The wide spans as an array [T-1, 2] of ``(i, j)`` rows, sorted."""
        return np.array(self.wide_spans, dtype=dtype or np.int64).reshape(
            self.length - 1, 2)

    @cached_property
    def actions(self) -> tuple[int, ...]:
        """Shift/reduce linearization; length is always ``2 * length - 1``."""
        return tuple(tree_actions([self], self.length)[0].tolist())

    @property
    def wide_spans(self) -> tuple[tuple[int, int], ...]:
        """Spans of width >= 2, sorted; includes the root span."""
        return tuple(sorted(s for s in self.spans if s[0] < s[1]))

    def to_bracketed(self, words: list[str], label: str = "X") -> str:
        if len(words) != self.length:
            raise ValueError(
                f"tree covers {self.length} words, got {len(words)} tokens")
        stack, pos = [], 0
        for a in self.actions:
            if a == SHIFT:
                stack.append(f"({label} {words[pos]})")
                pos += 1
            else:
                stack[-2:] = [f"({label} {stack[-2]} {stack[-1]})"]
        return stack[0]


def span_array(trees, length: int) -> np.ndarray:
    """``trees`` as the array form, checked to be over ``length`` words."""
    spans = np.asarray(trees, dtype=np.int64)
    if spans.shape[1:] != (length - 1, 2):
        got = (f"length {spans.shape[1] + 1}" if spans.ndim == 3
               else f"shape {spans.shape}")
        raise ValueError(f"tree of {got} in a length-{length} batch")
    return spans


def tree_actions(trees, length: int) -> np.ndarray:
    """Shift/reduce sequences [n, 2T-1] of trees in the array form: word
    p's SHIFT is followed by one REDUCE per wide span that ends at p."""
    spans = span_array(trees, length)
    rows = np.arange(len(spans))[:, None]
    ends = np.zeros((len(spans), length + 1), np.int64)
    np.add.at(ends, (rows, spans[..., 1]), 1)
    shifts = np.arange(length) + np.cumsum(ends, axis=1)[:, :-1]
    out = np.full((len(spans), 2 * length - 1), REDUCE, np.int64)
    out[rows, shifts] = SHIFT
    return out


def tree_to_actions(tree: TreeRepr) -> tuple[int, ...]:
    return tree.actions


def actions_to_tree(actions, length: int | None = None) -> TreeRepr:
    """Replay a shift/reduce sequence into a tree, validating as it runs."""
    stack: list[tuple[int, int]] = []
    spans: set[tuple[int, int]] = set()
    pos = 0
    for step, a in enumerate(actions):
        if a == SHIFT:
            pos += 1
            stack.append((pos, pos))
            spans.add((pos, pos))
        elif a == REDUCE:
            if len(stack) < 2:
                raise ValueError(
                    f"REDUCE at step {step} with {len(stack)} stack elements")
            left = stack[-2]
            right = stack[-1]
            stack[-2:] = [(left[0], right[1])]
            spans.add((left[0], right[1]))
        else:
            raise ValueError(f"unknown action {a!r} at step {step}")
    if length is not None and pos != length:
        raise ValueError(f"action sequence shifts {pos} words, expected {length}")
    if len(stack) != 1:
        raise ValueError(f"{len(stack)} unreduced stack elements remain")
    return TreeRepr(pos, frozenset(spans))


def left_branching(length: int) -> TreeRepr:
    spans = {(i, i) for i in range(1, length + 1)}
    spans.update((1, j) for j in range(2, length + 1))
    return TreeRepr(length, frozenset(spans))


def right_branching(length: int) -> TreeRepr:
    spans = {(i, i) for i in range(1, length + 1)}
    spans.update((i, length) for i in range(1, length))
    return TreeRepr(length, frozenset(spans))


def random_tree(length: int, rng: np.random.Generator) -> TreeRepr:
    """Draw a tree uniformly from all binary trees over ``length`` words."""
    spans: set[tuple[int, int]] = set()
    todo = [(1, length)]
    while todo:                     # preorder: the left child draws first
        i, j = todo.pop()
        spans.add((i, j))
        if i < j:
            weights = np.array([count_trees(k - i + 1) * count_trees(j - k)
                                for k in range(i, j)], dtype=np.float64)
            k = i + rng.choice(j - i, p=weights / weights.sum())
            todo += [(k + 1, j), (i, k)]
    return TreeRepr(length, frozenset(spans))


# ---------------------------------------------------------------------------
# Vocabulary and plain-text corpora


class Vocabulary:
    """Token/id mapping with reserved unknown and end-of-sentence entries."""

    def __init__(self, tokens: list[str]):
        if tokens[:2] != [UNK_TOKEN, EOS_TOKEN]:
            raise ValueError(
                f"vocabulary must start with {UNK_TOKEN!r}, {EOS_TOKEN!r}")
        self.tokens = list(tokens)
        self.index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index) != len(self.tokens):
            raise ValueError("vocabulary contains duplicate tokens")

    unk_id = 0
    eos_id = 1

    @classmethod
    def build(cls, sentences, min_count: int = 2) -> "Vocabulary":
        """Count tokens; those seen fewer than ``min_count`` times map to unk."""
        counts: dict[str, int] = {}
        for sent in sentences:
            for tok in sent:
                if tok in (UNK_TOKEN, EOS_TOKEN):
                    raise DataError(f"reserved token {tok!r} appears in corpus")
                counts[tok] = counts.get(tok, 0) + 1
        kept = sorted((tok for tok, c in counts.items() if c >= min_count),
                      key=lambda tok: (-counts[tok], tok))
        return cls([UNK_TOKEN, EOS_TOKEN] + kept)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, tok: str) -> bool:
        return tok in self.index

    def encode_word(self, tok: str) -> int:
        return self.index.get(tok, self.unk_id)

    def encode(self, toks) -> tuple[int, ...]:
        return tuple(self.encode_word(t) for t in toks)

    def decode(self, ids) -> tuple[str, ...]:
        return tuple(self.tokens[i] for i in ids)


@dataclass(frozen=True)
class Sentence:
    """A tokenized sentence with vocabulary ids and a punctuation mask."""

    words: tuple[str, ...]
    ids: tuple[int, ...]
    punct: tuple[bool, ...]

    def __post_init__(self):
        if not (len(self.words) == len(self.ids) == len(self.punct)):
            raise ValueError("words, ids, and punct must have equal length")
        if not self.words:
            raise ValueError("empty sentence")

    @property
    def length(self) -> int:
        return len(self.words)


def make_sentence(words, vocab: Vocabulary,
                  punct_forms=DEFAULT_PUNCT) -> Sentence:
    words = tuple(words)
    return Sentence(words, vocab.encode(words),
                    tuple(w in punct_forms for w in words))


def _read_text(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise DataError(f"cannot read {path}: {err}") from err


def read_tokenized(path) -> list[list[str]]:
    """Whitespace-tokenized sentences, one per non-empty line."""
    out = [line.split() for line in _read_text(path).splitlines() if line.split()]
    if not out:
        raise DataError(f"{path}: no usable sentences")
    return out


def read_corpus(path, vocab: Vocabulary,
                punct_forms=DEFAULT_PUNCT) -> list[Sentence]:
    return [make_sentence(toks, vocab, punct_forms)
            for toks in read_tokenized(path)]


# ---------------------------------------------------------------------------
# Labeled bracketed trees


@dataclass(frozen=True)
class ParseNode:
    """A node of a labeled constituency tree; preterminals carry the word."""

    label: str
    children: tuple["ParseNode", ...] = ()
    word: str | None = None

    @property
    def is_preterminal(self) -> bool:
        return self.word is not None

    def leaves(self) -> list[str]:
        if self.is_preterminal:
            return [self.word]
        return [word for child in self.children for word in child.leaves()]

    def constituents(self) -> list[tuple[int, int, str]]:
        """(i, j, label) for every non-preterminal node, sorted."""
        phrases: list = []
        _phrases(self, 0, phrases)
        return sorted((i, j, node.label) for node, i, j, _ in phrases)


def _phrases(node: ParseNode, start: int, out: list) -> int:
    """Append (node, i, j, first word of each child) for every
    non-preterminal node under ``node``, which begins after word ``start``,
    in postorder; return the position of its last word."""
    if node.is_preterminal:
        return start + 1
    starts, end = [], start
    for child in node.children:
        starts.append(end + 1)
        end = _phrases(child, end, out)
    out.append((node, start + 1, end, starts))
    return end


def parse_sexprs(text: str, source: str = "<string>") -> list[ParseNode]:
    """Parse one or more bracketed trees from ``text``."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    trees: list[ParseNode] = []
    pos = 0
    while pos < len(tokens):
        if tokens[pos] == ")":
            raise DataError(f"{source}: unbalanced parentheses (stray ')')")
        tree, pos = _parse_node(tokens, pos, source)
        trees.append(tree)
    if not trees:
        raise DataError(f"{source}: no trees found")
    return trees


def _parse_node(tokens: list[str], pos: int,
                source: str) -> tuple[ParseNode, int]:
    """The node opened at ``tokens[pos]``, and the position after it."""
    if tokens[pos] != "(":
        raise DataError(f"{source}: expected '(' at token {pos}, "
                        f"got {tokens[pos]!r}")
    pos += 1
    label = ""
    if pos < len(tokens) and tokens[pos] not in ("(", ")"):
        label = tokens[pos]
        pos += 1
    children: list[ParseNode] = []
    words: list[str] = []
    while pos < len(tokens) and tokens[pos] != ")":
        if tokens[pos] == "(":
            child, pos = _parse_node(tokens, pos, source)
            children.append(child)
        else:
            words.append(tokens[pos])
            pos += 1
    if pos >= len(tokens):
        raise DataError(f"{source}: unbalanced parentheses (missing ')')")
    pos += 1
    if words and children:
        raise DataError(f"{source}: node {label!r} mixes words and subtrees")
    if words:
        if len(words) != 1:
            raise DataError(
                f"{source}: preterminal {label!r} has {len(words)} words")
        return ParseNode(label, (), words[0]), pos
    if not children:
        raise DataError(f"{source}: empty node {label!r}")
    if label == "" and len(children) == 1:
        return children[0], pos
    return ParseNode(label or "TOP", tuple(children)), pos


def read_trees(path) -> list[ParseNode]:
    return parse_sexprs(_read_text(path), source=str(path))


def read_bracketed(path, vocab: Vocabulary,
                   punct_forms=DEFAULT_PUNCT) -> list[tuple[Sentence, ParseNode]]:
    """Load labeled trees plus the sentences they yield."""
    out = []
    for tree in read_trees(path):
        leaves = tree.leaves()
        if not leaves:
            raise DataError(f"{path}: tree with no leaves")
        out.append((make_sentence(leaves, vocab, punct_forms), tree))
    return out


def binarize_right(tree: ParseNode) -> TreeRepr:
    """Collapse unary chains and right-binarize n-ary nodes into a TreeRepr."""
    length = len(tree.leaves())
    spans: set[tuple[int, int]] = {(i, i) for i in range(1, length + 1)}
    phrases: list = []
    _phrases(tree, 0, phrases)
    for _, i, j, starts in phrases:
        if j > i:
            spans.add((i, j))
            # Grouping children 2..n, 3..n, ... reproduces right binarization.
            spans.update((s, j) for s in starts[1:-1])
    return TreeRepr(length, frozenset(spans))
