"""Stack-based generative model over (sentence, binary tree) pairs.

The model emits a sentence and its parse through shift/reduce actions over a
stack.  Each stack element is a pair (h, g): h is the hidden state of a
two-layer LSTM reading the stack bottom-to-top, g is the element's content
vector: a word embedding for shifted words (with zero cell state), or the
output of a binary tree-LSTM composing the two popped children on REDUCE.
The stack starts with a single zero pair.

Probabilities at step t condition on the hidden state of the current stack
top: a Bernoulli over REDUCE for the next action (only where both actions are
legal), and a categorical over the vocabulary for the word on SHIFT.  The
output softmax weights are the transposed input embedding table.  Steps where
only one action is legal (fewer than two real stack elements forces SHIFT;
exhausted words force REDUCE) contribute exactly zero action log-probability,
which makes the action distribution normalize over all binary trees of the
sentence.  End of sentence is one more forced SHIFT after the final REDUCE
whose word is the EOS token, scored by the same word head.

Every action pushes one element, and the state is kept in tables by push
(:class:`_Stack`): an integer pass gives each push its stack position, the
push beneath it, its word or its two children, and its tree height.  A
push's LSTM state depends only on the push beneath it and on its content,
and a REDUCE's content only on its two children, so scoring runs level by
level: the tree cell once per height, then each LSTM layer once per stack
position, over all rows at once.  Both cells run through one level routine,
:func:`~urnng.nn.lstm_levels`, and the scorer and the samplers through one
:meth:`_Stack.run`; the samplers must read the top state before each draw,
so each of their steps is one level, and their tables keep only the live
pushes, those on some row's stack.  Without a tape and without dropout,
rows that have taken the same actions over the same words share each push,
a node of the prefix trie.  Neither head feeds back into the stack, so the
action head scores all steps in one pass and the word head all SHIFT and
EOS contexts in one tied-softmax pass (untaped, in blocks of bounded
size).  On a tape the contexts are one node, whose vjp sweeps the levels
in reverse.

The RNNLM baseline is the same recurrence over SHIFTs alone, under its own
LSTM weights and word bias: a level per position, with the dropout draws
of a step-by-step LSTM, and the same word head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .treebank import REDUCE, SHIFT, TreeRepr, actions_to_tree


class _Stack:
    """The stacks of n rows over at most ``steps`` actions, as tables by
    push; push 0 is the zero pair under every stack.

    Push i sits at stack position ``pos[i]`` on push ``below[i]``; it holds
    word ``word[i]``, or -1 and the two children ``kids[i]`` on REDUCE; its
    tree height is ``height[i]``.  ``h`` and ``c`` hold layers + 1 tables
    [pushes, dim]: row i of table l is layer l's LSTM state of push i, of
    table ``layers`` its content.  ``top[r]`` is row r's top push.  If
    ``shared``, pushes are prefix-trie nodes: a step maps each distinct
    (top, action, word on SHIFT) to one push; else push 1 + t * n + r is
    row r's at step t.  The tables hold ``size`` pushes: the scorer's all
    n * steps + 1, as it reads every push; the samplers' fewer, as
    :meth:`compact` keeps only the live ones, those on some row's stack.
    """

    def __init__(self, model: "GenerativeModel", n: int, steps: int,
                 shared: bool, size: int):
        self.model, self.shared, self.count = model, shared, 1
        self.inputs = model.stack_params()
        self.stack = np.zeros((n, steps + 3), np.int64)  # pushes by position
        self.depth, self.used, self.top = np.zeros((3, n), np.int64)
        self.pos, self.below, self.height = np.zeros((3, size), np.int64)
        self.word, self.kids = np.full(size, -1), np.zeros((size, 2), np.int64)
        # a table per level, np.empty: untouched pages stay unmapped and
        # reused memory is not cleared; :meth:`run` writes all but row 0
        self.h, self.c = ([np.empty((size, model.dim))
                           for _ in range(model.layers + 1)] for _ in "hc")
        for table in self.h + self.c:
            table[0] = 0.0

    def push(self, actions: np.ndarray, word_ids: np.ndarray | None) -> tuple:
        """Advance every row one action, reading ``word_ids[r]`` on SHIFT
        rows; returns the new pushes and each row's index among them."""
        model, rows = self.model, np.arange(len(actions))
        shift = actions == SHIFT
        bad = np.flatnonzero(~shift & (self.depth < 2))
        if bad.size:
            raise ValueError(f"row {bad[0]}: REDUCE with stack depth "
                             f"{self.depth[bad[0]]}")
        words = np.where(shift, -1 if word_ids is None else word_ids, -1)
        if np.any((words[shift] < 0) | (words[shift] >= model.vocab_size)):
            raise ValueError("SHIFT needs a word id in the vocabulary")
        first = child = rows
        if self.shared:     # keys sort by top push first
            key = ((self.top * 2 + actions) * (model.vocab_size + 1)
                   + words + 1)
            _, first, child = np.unique(key, return_index=True,
                                        return_inverse=True)
            child = child.ravel()
        if self.count + first.size > len(self.pos):
            self.compact(first.size)
        new = self.count + np.arange(first.size)
        self.count += first.size
        self.depth += np.where(shift, 1, -1)
        self.used += shift
        p, word = self.depth[first], words[first]
        self.pos[new], self.below[new], self.word[new] = (
            p, self.stack[first, p - 1], word)
        self.kids[new] = self.stack[first[:, None], p[:, None] + [0, 1]]
        self.height[new] = np.where(
            word < 0, 1 + self.height[self.kids[new]].max(axis=1), 0)
        self.top = new[child]
        self.stack[rows, self.depth] = self.top
        return new, child

    def compact(self, new: int) -> None:
        """Move the live pushes to the front of the tables in place, in
        order, so each step's keys sort as before; grow the tables only if
        they and ``new`` pushes would fill more than half.  A live push's
        ``below`` is live; ``kids`` are read only in the step setting them."""
        on = np.arange(self.stack.shape[1]) <= self.depth[:, None]
        alive = np.bincount(self.stack[on], minlength=self.count) > 0
        live, number = np.flatnonzero(alive), np.cumsum(alive) - 1
        self.count, size = live.size, len(self.pos)
        if 2 * (live.size + new) > size:
            size = 2 * max(size, live.size + new)

        def move(table):
            out = table if size == len(table) else np.empty(
                (size, *table.shape[1:]), table.dtype)
            out[:live.size] = table[live]
            return out
        self.pos, self.below, self.height, self.word, self.kids = map(
            move, (self.pos, self.below, self.height, self.word, self.kids))
        self.h, self.c = (list(map(move, t)) for t in (self.h, self.c))
        self.below[:live.size] = number[self.below[:live.size]]
        self.stack, self.top = number[self.stack], number[self.top]

    def run(self, pushes: np.ndarray, heights: list, depths: list,
            keep: list | None = None, saved: list | None = None) -> None:
        """Set the contents and states of ``pushes``: a SHIFT's content is
        its word's embedding, a REDUCE's the tree cell's over the
        ``heights`` levels, then each layer runs over the ``depths``
        levels, all through :func:`~urnng.nn.lstm_levels`.  Given ``keep``
        (scoring), each layer reads the table below under its pattern and
        drops it, as nothing reads it again; ``saved`` collects, per layer
        and then for the tree cell, what its sweep reads."""
        layers, inputs = self.model.layers, self.inputs
        saved = saved or [None] * (layers + 1)
        word = self.word[pushes]
        shifts, word = pushes[word >= 0], word[word >= 0]
        self.h[layers][shifts] = inputs[0].data[word]
        self.c[layers][shifts] = 0.0    # a word's content has no cell state
        if heights:     # only a model with a tree cell has REDUCEs
            w, b = inputs[1 + 2 * layers:]
            nn.lstm_levels(None, self.kids, heights, w.data, b.data,
                           self.h[layers], self.c[layers], saved[layers])
        for layer in range(layers):
            lower = layer - 1 if layer else layers  # layer 0 reads contents
            x = self.h[lower]
            if keep is not None:
                x = ad.dropped(x[:self.count], keep[layer], self.model.dropout)
                self.h[lower] = self.c[lower] = None
            w, b = inputs[1 + 2 * layer:3 + 2 * layer]
            nn.lstm_levels(x, self.below[:, None], depths, w.data, b.data,
                           self.h[layer], self.c[layer], saved[layer])

    def step(self, actions: np.ndarray, word_ids: np.ndarray | None) -> tuple:
        """:meth:`push`, then :meth:`run` over the new pushes as one level:
        the samplers' step-major path, which reads each top state before
        the next draw."""
        new, child = self.push(actions, word_ids)
        reduce = new[self.word[new] < 0]
        self.run(new, [reduce] if reduce.size else [], [new])
        return new, child


def _keep_patterns(model: "GenerativeModel", n: int, steps: int,
                   rng: np.random.Generator | None) -> list:
    """The dropout keep patterns of the pushed element, each lower layer's h
    and the context, the order they apply in, as [n * steps + 1, dim]
    tables by unshared push (None without dropout).  They are drawn in the
    order of a step-major recurrence: per step the context, the pushed
    element and each lower layer's h; then the last context."""
    layers, dim = model.layers, model.dim
    if rng is None or model.dropout <= 0.0:
        return [None] * (layers + 1)
    draws = np.stack([ad.dropout_pattern((n, dim), model.dropout, rng)
                      for _ in range(steps * (layers + 1) + 1)])
    zero = np.zeros((1, dim), dtype=bool)   # the zero pair keeps nothing
    return [np.concatenate([zero, draws[k::layers + 1][:steps].reshape(
        -1, dim)]) for k in range(1, layers + 2)]


def _recurrence(model: "GenerativeModel", ids: np.ndarray,
                actions: np.ndarray, rng: np.random.Generator | None):
    """(contexts, tops, free) of [n, T] ``ids`` under [n, steps]
    ``actions`` (2T - 1 in the joint, T SHIFTs in the RNNLM): each push's
    top-layer h under its context dropout as one [pushes + 1, dim] node;
    each row's top push before each step and whether that step is free,
    both [steps + 1, n]."""
    (n, steps), t_len = actions.shape, ids.shape[1]
    layers, rate = model.layers, model.dropout
    keep = _keep_patterns(model, n, steps, rng)
    inputs = model.stack_params()
    taped = bool(ad._tape_stack) and any(t.requires_grad for t in inputs)
    stack = _Stack(model, n, steps, keep[0] is None and not taped,
                   n * steps + 1)
    tops, free = [], []
    for t in range(steps + 1):
        tops.append(stack.top)
        free.append((stack.depth >= 2) & (stack.used < t_len))
        if t < steps:
            stack.push(actions[:, t], ids[np.arange(n), stack.used % t_len])

    # contents one tree height at a time, then each layer one stack
    # position at a time; ``saved`` holds what each level keeps for the sweep
    size = stack.count
    pos, height, word = (a[:size] for a in (stack.pos, stack.height,
                                            stack.word))
    depths = [np.flatnonzero(pos == p) for p in range(1, pos.max() + 1)]
    heights = [np.flatnonzero(height == k) for k in range(1, height.max() + 1)]
    saved = [[] for _ in range(layers + 1)] if taped else None
    stack.run(np.arange(size), heights, depths, keep, saved)
    below, kids = stack.below[:, None], stack.kids

    def sweep(g):
        # the partials of ``inputs``; the levels are dropped as they are
        # swept, so this runs once
        nonlocal saved
        if saved is None:
            raise RuntimeError("stack recurrence: a backward swept it")
        (*levels, trees), saved, store = saved, None, {}
        gh = ad.dropped(g, keep[-1], rate)  # the backward's own array
        for layer in reversed(range(layers)):
            i = 1 + 2 * layer
            gh = ad.dropped(nn.lstm_levels_vjp(levels[layer], below,
                                               inputs[i].data, gh, store, i),
                            keep[layer], rate)
        if trees:   # the tree cell, highest first
            i = 1 + 2 * layers
            nn.lstm_levels_vjp(trees, kids, inputs[i].data, gh, store, i)
        shifts = np.flatnonzero(word >= 0)
        store[0] = ad._Factors(None, word[shifts], gh[shifts])
        return tuple(store.get(k) for k in range(len(inputs)))

    context = ad.dropped(stack.h[layers - 1][:size], keep[-1], rate)
    return (ad._emit("stack_recurrence", context, inputs, sweep),
            np.array(tops), np.array(free))


@dataclass
class GenerationResult:
    """One ancestral sample from the generative model."""

    ids: tuple[int, ...]
    actions: tuple[int, ...]
    tree: TreeRepr | None
    log_likelihood: float
    truncated: bool
    empty: bool
    eos_at_root: bool


class _TiedLM:
    """Sizes, dropout, the EOS id, the parameters both language models
    share, named under ``prefix`` (``head_shapes`` go before the word bias),
    and the word head both score with."""

    prefix = ""
    tree_names: tuple[str, ...] = ()

    def __init__(self, vocab_size: int, dim: int = 650, layers: int = 2,
                 dropout: float = 0.5, eos_id: int = 1,
                 rng: np.random.Generator | None = None,
                 init_scale: float = nn.INIT_SCALE):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.vocab_size, self.dim, self.layers = vocab_size, dim, layers
        self.dropout, self.eos_id = dropout, eos_id
        shapes = {"emb": (vocab_size, dim)}
        for layer in range(layers):
            shapes[f"{self.prefix}.lstm_w{layer}"] = (2 * dim, 4 * dim)
            shapes[f"{self.prefix}.lstm_b{layer}"] = (4 * dim,)
        shapes.update(self.head_shapes(dim))
        shapes[f"{self.prefix}.word_b"] = (vocab_size,)
        self.params = nn.make_params(rng, shapes, init_scale)

    def head_shapes(self, dim: int) -> dict:
        return {}

    def parameters(self) -> dict[str, Tensor]:
        """All parameters, including the embedding table."""
        return dict(self.params)

    def stack_params(self) -> tuple[Tensor, ...]:
        """What the stack recurrence reads: the embedding table, each
        layer's LSTM weight and bias, then the tree cell's, if any."""
        p = self.params
        return (p["emb"], *(p[f"{self.prefix}.lstm_{k}{layer}"]
                            for layer in range(self.layers) for k in "wb"),
                *(p[name] for name in self.tree_names))

    def word_log_likelihood(self, context: Tensor, tops: np.ndarray,
                            ids: np.ndarray, actions: np.ndarray) -> Tensor:
        """log p of each row's words and EOS, shape [n], read off the
        recurrence's ``context`` table at ``tops`` before each SHIFT and
        after the last step; each distinct (context, word) is scored once,
        in order of first occurrence, so rows sharing nothing keep order."""
        n, t_len = ids.shape
        read = np.hstack([actions == SHIFT, np.ones((n, 1), dtype=bool)])
        at = tops.T[read].reshape(n, t_len + 1).T.ravel()
        words = np.hstack([ids, np.full((n, 1), self.eos_id)]).T.ravel()
        _, first, which = np.unique(at * self.vocab_size + words,
                                    return_index=True, return_inverse=True)
        which = np.argsort(np.argsort(first))[which.ravel()]
        first = np.sort(first)
        word = nn.tied_word_log_prob(
            ad.take_rows(context, at[first]), self.params["emb"],
            self.params[f"{self.prefix}.word_b"], words[first])
        word = ad.take_rows(word, which)
        return ad.sum_axis(ad.reshape(word, (t_len + 1, n)), 0)


class GenerativeModel(_TiedLM):
    """Two-layer stack LSTM with tree-LSTM composition and tied word head."""

    prefix = "gen"
    tree_names = ("gen.tree_w", "gen.tree_b")

    def head_shapes(self, dim: int) -> dict:
        return {"gen.tree_w": (2 * dim, 5 * dim), "gen.tree_b": (5 * dim,),
                "gen.action_w": (dim,), "gen.action_b": (1,)}

    # -- scoring ------------------------------------------------------------

    def joint_log_likelihood_batch(self, ids: np.ndarray, actions: np.ndarray,
                                   rng: np.random.Generator | None = None
                                   ) -> tuple[Tensor, Tensor]:
        """(terminal, action) log-likelihood per row, each shape [n].

        ``ids`` is [n, T]; ``actions`` is [n, 2T-1] over rows of equal length.
        Pass ``rng`` to enable dropout.  The terminal term includes the final
        EOS event; the action term sums Bernoulli log-probs over free steps.
        """
        ids = np.asarray(ids, dtype=np.int64)
        actions = np.asarray(actions, dtype=np.int64)
        n, t_len = ids.shape
        steps = 2 * t_len - 1
        if actions.shape != (n, steps):
            raise ValueError(
                f"actions must be [{n}, {steps}] for length {t_len}, "
                f"got {actions.shape}")
        if np.any((actions != SHIFT) & (actions != REDUCE)):
            raise ValueError("actions must be 0 (SHIFT) or 1 (REDUCE)")
        if np.any((actions == SHIFT).sum(axis=1) != t_len):
            raise ValueError(f"every row must contain exactly {t_len} SHIFTs")

        context, at, free = _recurrence(self, ids, actions, rng)

        p = self.params
        # the step after the final REDUCE has depth 1, so it is never free
        sign = np.vstack([1.0 - 2.0 * actions.T, np.ones((1, n))])
        logits = ad.add_broadcast(ad.matmul(context, p["gen.action_w"]),
                                  p["gen.action_b"])
        logits = ad.take_rows(logits, at.ravel())
        terms = ad.mul(ad.softplus(ad.mul(logits, Tensor(sign.ravel()))),
                       Tensor(np.where(free, -1.0, 0.0).ravel()))
        action = ad.sum_axis(ad.reshape(terms, (steps + 1, n)), 0)

        terminal = self.word_log_likelihood(context, at, ids, actions)
        return terminal, action

    def joint_log_likelihood(self, ids, tree_or_actions) -> tuple[float, float]:
        """(terminal, action) log-likelihood of one sentence/tree, eval mode."""
        if isinstance(tree_or_actions, TreeRepr):
            acts = tree_or_actions.actions
        else:
            acts = tuple(tree_or_actions)
            actions_to_tree(acts, len(ids))
        ids = np.asarray(ids, dtype=np.int64)
        terminal, action = self.joint_log_likelihood_batch(
            ids[None, :], np.asarray(acts, dtype=np.int64)[None, :])
        return terminal.data[0].item(), action.data[0].item()

    # -- sampling -----------------------------------------------------------

    def sample_actions_conditional(self, ids, k: int,
                                   rng: np.random.Generator
                                   ) -> tuple[np.ndarray, np.ndarray]:
        """Sample k action sequences with the words held fixed.

        Draws from the conditional action prior p(z | generated words): free
        steps use the Bernoulli head, forced steps take the only legal action.
        Returns (actions [k, 2T-1], action log-prob [k]).
        """
        ids = np.asarray(ids, dtype=np.int64)
        t_len = ids.shape[0]
        if t_len == 0:
            raise ValueError("cannot sample actions for an empty sentence")
        steps = 2 * t_len - 1
        p = self.params
        stack = _Stack(self, k, steps, True, 4 * k + 1)
        new, child = np.zeros(1, np.int64), np.zeros(k, np.int64)
        actions = np.zeros((k, steps), dtype=np.int64)
        logprob = np.zeros(k)
        for step in range(steps):
            logits = (stack.h[self.layers - 1][new] @ p["gen.action_w"].data
                      + p["gen.action_b"].data[0])
            p_reduce = ad.sigmoid_array(logits)[child]
            must_shift = stack.depth < 2
            must_reduce = stack.used >= t_len
            draw = rng.random(k) < p_reduce
            acts = np.where(~must_shift & (must_reduce | draw), REDUCE, SHIFT)
            with np.errstate(divide="ignore"):
                term = np.where(acts == REDUCE, np.log(p_reduce),
                                np.log1p(-p_reduce))
            logprob += np.where(must_shift | must_reduce, 0.0, term)
            actions[:, step] = acts
            if step + 1 < steps:    # nothing reads the state after the last
                new, child = stack.step(acts, ids[stack.used % t_len])
        return actions, logprob

    def generate(self, rng: np.random.Generator,
                 max_len: int = 60) -> GenerationResult:
        """Ancestral sampling of one (sentence, tree) pair.

        Stops when the word head draws EOS (flagged ``empty`` if that is the
        very first word) or when ``max_len`` words have been emitted (flagged
        ``truncated``).  Any constituents still open at that point are closed
        by probability-free REDUCEs, mirroring how scoring treats actions
        after the last word.
        """
        if max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {max_len}")
        p = self.params
        stack = _Stack(self, 1, 2 * max_len, True, 5)
        ids: list[int] = []
        actions: list[int] = []
        total = 0.0
        eos_at_root = False
        while len(ids) < max_len:
            hidden = stack.h[self.layers - 1][stack.top[0]]
            if stack.depth[0] >= 2:
                p_reduce = float(ad.sigmoid_array(
                    hidden @ p["gen.action_w"].data + p["gen.action_b"].data[0]))
                if rng.random() < p_reduce:
                    total += np.log(p_reduce)
                    actions.append(REDUCE)
                    stack.step(np.array([REDUCE]), None)
                    continue
                total += np.log1p(-p_reduce)
            logits = hidden @ p["emb"].data.T + p["gen.word_b"].data
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            word = int(rng.choice(self.vocab_size, p=probs))
            total += np.log(probs[word])
            if word == self.eos_id:
                eos_at_root = stack.depth[0] <= 1
                break
            ids.append(word)
            actions.append(SHIFT)
            stack.step(np.array([SHIFT]), np.array([word]))
        truncated = len(ids) >= max_len     # EOS ends the loop before that
        if not ids:
            return GenerationResult((), (), None, total, truncated, True,
                                    eos_at_root)
        # the closing REDUCEs carry no probability, so no cell runs for them
        actions.extend([REDUCE] * (stack.depth[0] - 1))
        tree = actions_to_tree(tuple(actions), len(ids))
        return GenerationResult(tuple(ids), tuple(actions), tree, total,
                                truncated, False, eos_at_root)


class RNNLM(_TiedLM):
    """Two-layer LSTM language model with tied embeddings (the baseline)."""

    prefix = "lm"

    def log_likelihood_batch(self, ids: np.ndarray,
                             rng: np.random.Generator | None = None) -> Tensor:
        """Per-sentence log-likelihood including the EOS event, shape [n]:
        the stack recurrence over SHIFTs alone, and its word head."""
        ids = np.asarray(ids, dtype=np.int64)
        actions = np.full(ids.shape, SHIFT)
        context, tops, _ = _recurrence(self, ids, actions, rng)
        return self.word_log_likelihood(context, tops, ids, actions)
