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

Scoring runs many rows in lockstep: every action pushes exactly one element,
so the stack top after step t-1 is always the element pushed at step t-1, and
one LSTM step per layer serves all rows at once.  Without dropout the stack
after step t depends only on the actions and words so far, so untaped rows
that share that prefix share one node of the prefix trie, and the cells and
heads run once per node.  Neither head feeds back into the stack, so the step
loop runs only the recurrence; the action head then scores all steps in one
pass, and the word head all SHIFT and EOS contexts in one tied-softmax pass
(untaped, in blocks of bounded size), as the RNNLM baseline scores its words.

The recurrence runs on plain arrays indexed by stack position and node.  On
a tape each step keeps [rows, ·] arrays only: the rows' new top positions,
the SHIFT rows with their words, the REDUCE rows with their depths, what the
tree cell (if any row reduced) and each LSTM cell save for their vjps, and
boolean dropout patterns.  The contexts of all steps are one tape node whose
vjp sweeps the steps in reverse with gradient buffers shaped like the state:
a step reads and zeroes the gradients of the slots it wrote, runs its cells
backward, and adds the gradients of what it read at their positions.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .treebank import REDUCE, SHIFT, TreeRepr, actions_to_tree


# A taped step's record, field by field as the module docstring lists it.
_Step = namedtuple("_Step", "top shift words reduce depth tree cells drops")


class _Stepper:
    """Lockstep shift/reduce execution over n rows on plain arrays.

    ``h`` and ``c`` hold the stack state, shape [layers + 1, depth + 1, n,
    dim]: at [l, p, i], layer l's LSTM state after node i pushed the element
    at position p; at [layers, p, i], that element's content.  Position 0
    holds the zero pair under every stack.  Rows with the same actions over
    the same words so far share a prefix node, ``node[r]`` being row r's: a
    step maps each distinct (node, action, word on SHIFT) to a child, a
    node's first child keeps its slot and later ones get a copy, so the
    cells run once per node (one per row of ``top``).  On a tape or with
    dropout each row keeps a node of its own, and on a tape each step
    appends a :data:`_Step` to ``record`` for :meth:`sweep`.
    """

    def __init__(self, model: "GenerativeModel", n_rows: int,
                 rng: np.random.Generator | None, depth: int):
        self.model = model
        self.rng = rng
        # the parameters the recurrence reads come first, in this order:
        # the embedding, each layer's LSTM weight and bias, the tree cell's
        self.inputs = tuple(model.params.values())[:2 * model.layers + 3]
        taped = bool(ad._tape_stack) and any(t.requires_grad
                                             for t in self.inputs)
        shared = rng is None and not taped
        # np.zeros, not zeros_like: pages no node touches stay unmapped
        shape = (model.layers + 1, depth + 1, n_rows, model.dim)
        self.h, self.c = np.zeros(shape), np.zeros(shape)
        self.depth = np.zeros(n_rows, dtype=np.int64)
        self.words_used = np.zeros(n_rows, dtype=np.int64)
        self.node = np.zeros(n_rows, np.int64) if shared else np.arange(n_rows)
        self.top = np.zeros((1 if shared else n_rows, model.dim))  # node tops
        self.record = [] if taped else None
        self.drops = []     # the keep patterns of the contexts

    def drop(self, x: np.ndarray, patterns: list) -> np.ndarray:
        """``x`` under dropout; its keep pattern is appended to ``patterns``."""
        rate = self.model.dropout
        patterns.append(ad.dropout_pattern(x.shape, rate, self.rng))
        return ad.dropped(x, patterns[-1], rate)

    def cell(self, parts: list, cells: tuple, w: Tensor, b: Tensor,
             kept: list) -> tuple[np.ndarray, np.ndarray]:
        """(h, c) of :func:`nn.cell`; on a tape what its vjp reads goes to
        ``kept``, else it dies here."""
        h, c, saved = nn.cell(parts, w.data, b.data, cells)
        if self.record is not None:
            kept.append(saved)
        return h, c

    def step(self, actions: np.ndarray, word_ids: np.ndarray | None) -> None:
        """Advance every row one action; ``word_ids[r]`` is read on SHIFT rows."""
        model = self.model
        shift = actions == SHIFT
        bad = np.flatnonzero(~shift & (self.depth < 2))
        if bad.size:
            raise ValueError(f"row {bad[0]}: REDUCE with stack depth "
                             f"{self.depth[bad[0]]}")
        words = np.where(shift, -1 if word_ids is None else word_ids, -1)

        # keys sort by parent node first; its first child keeps its slot
        key = (self.node * 2 + actions) * (model.vocab_size + 1) + words + 1
        _, first, child = np.unique(key, return_index=True, return_inverse=True)
        parent = self.node[first]
        forks = np.flatnonzero(parent[1:] == parent[:-1]) + 1
        slot = parent.copy()
        slot[forks] = len(self.top) + np.arange(forks.size)
        old, new = parent[forks], slot[forks]
        top = self.depth[first[forks]].max(initial=0) + 1
        for state in (*self.h, *self.c):    # one layer's array at a time
            state[:top, new] = state[:top, old]
        self.node = slot[child.ravel()]
        rows = first[np.argsort(slot)]      # a row of each node
        nodes = np.arange(rows.size)

        shifts = np.flatnonzero(shift[rows])
        r = np.flatnonzero(~shift[rows])
        shifted = words[rows[shifts]]
        depth = self.depth[rows[r]]
        if np.any((shifted < 0) | (shifted >= model.vocab_size)):
            raise ValueError("SHIFT needs a word id in the vocabulary")
        self.depth += np.where(shift, 1, -1)
        self.words_used += shift
        top = self.depth[rows]
        below = top - 1     # the LSTM state beneath the new push

        # the pushed element, the state's last level: the word for SHIFT
        # nodes (zero cell state), the two popped children composed for REDUCE
        pushed, cell = np.zeros((2, rows.size, model.dim))
        pushed[shifts] = self.inputs[0].data[shifted]
        tree, cells, drops = [], [], []
        if r.size:
            pushed[r], cell[r] = self.cell(
                [self.h[-1, depth - 1, r], self.h[-1, depth, r]],
                (self.c[-1, depth - 1, r], self.c[-1, depth, r]),
                *self.inputs[-2:], tree)
        self.h[-1, top, nodes], self.c[-1, top, nodes] = pushed, cell
        inp = self.drop(pushed, drops)
        for layer in range(model.layers):
            h, c = self.cell([inp, self.h[layer, below, nodes]],
                             (self.c[layer, below, nodes],),
                             *self.inputs[1 + 2 * layer:3 + 2 * layer], cells)
            self.h[layer, top, nodes], self.c[layer, top, nodes] = h, c
            if layer + 1 < model.layers:
                inp = self.drop(h, drops)
        if not np.isfinite(h).all():
            raise ad.NumericError("stack step: non-finite state")
        self.top = h
        if self.record is not None:
            self.record.append(_Step(top, shifts, shifted, r, depth, tree,
                                     cells, drops))

    def output(self, contexts: list) -> Tensor:
        """The ``contexts`` as one node; the state arrays are freed."""
        self.shape = self.h.shape
        del self.h, self.c
        return ad._emit("stack_recurrence", np.concatenate(contexts),
                        self.inputs, self.sweep)

    def sweep(self, g: np.ndarray) -> tuple:
        """The partials of ``inputs`` given the gradient ``g`` of the
        contexts.  Each step's record is dropped once swept, so this runs
        once; weight partials fold as ``autodiff._accumulate`` folds them
        and go back unformed, for the backward to adopt."""
        inputs, rate, record = self.inputs, self.model.dropout, self.record
        if len(record) + 1 != len(self.drops):
            raise RuntimeError("stack recurrence: a backward swept it")
        content, dim = self.shape[0] - 1, self.shape[-1]
        g = g.reshape(len(self.drops), -1, dim)
        rows = np.arange(g.shape[1])
        dh, dc = np.zeros(self.shape), np.zeros(self.shape)
        store, words, shifted = {}, [], []

        def back(i, saved, gh, gc, read):
            # a cell of two input parts backward: inputs[i], i + 1 (weight,
            # bias) and each slot in ``read`` get partials; returns part 0's
            dx, dz, dcells = nn.cell_vjp(saved, inputs[i].data, gh, gc)
            for k, part in ((i, ad._Factors(saved[0], None, dz)),
                            (i + 1, dz.sum(axis=0))):
                ad._accumulate(store, k, inputs[k].shape, part)
            dx = dx[:, :dim], dx[:, dim:]
            for at, dh_part, dc_part in zip(read, dx[-len(read):], dcells):
                dh[at] += dh_part
                dc[at] += dc_part
            return dx[0]

        for t in range(len(record), 0, -1):
            step = record.pop()
            top, below = step.top, step.top - 1
            # the slots this step wrote: their gradients, then zeros
            gh, gc = dh[:, top, rows], dc[:, top, rows]
            dh[:, top, rows] = dc[:, top, rows] = 0.0
            grad = ad.dropped(g[t], self.drops[t], rate)
            for layer in reversed(range(content)):
                grad = ad.dropped(back(1 + 2 * layer, step.cells[layer],
                                       gh[layer] + grad, gc[layer],
                                       [(layer, below, rows)]),
                                  step.drops[layer], rate)
            gh = gh[content] + grad
            words.append(step.words)
            shifted.append(gh[step.shift])
            r, d = step.reduce, step.depth
            if step.tree:
                back(len(inputs) - 2, step.tree[0], gh[r], gc[content, r],
                     [(content, d - 1, r), (content, d, r)])
        return (ad._Factors(None, np.concatenate(words),
                            np.concatenate(shifted)),
                *(store.get(i) for i in range(1, len(inputs))))


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
    """Sizes, dropout, the EOS id and the parameters both language models
    share, named under ``prefix``; ``head_shapes`` go before the word bias."""

    prefix = ""

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


class GenerativeModel(_TiedLM):
    """Two-layer stack LSTM with tree-LSTM composition and tied word head."""

    prefix = "gen"

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

        stepper = _Stepper(self, n, rng, t_len)
        contexts, free, at = [], [], []
        for step in range(steps + 1):
            free.append((stepper.depth >= 2) & (stepper.words_used < t_len))
            # each row's context: its node's top, after those of past steps
            at.append(sum(len(c) for c in contexts) + stepper.node)
            contexts.append(stepper.drop(stepper.top, stepper.drops))
            if step < steps:
                stepper.step(actions[:, step],
                             ids[np.arange(n), stepper.words_used % t_len])
        context, at = stepper.output(contexts), np.array(at)
        del contexts

        p = self.params
        # the step after the final REDUCE has depth 1, so it is never free
        sign = np.vstack([1.0 - 2.0 * actions.T, np.ones((1, n))])
        logits = ad.add_broadcast(ad.matmul(context, p["gen.action_w"]),
                                  p["gen.action_b"])
        logits = ad.take_rows(logits, at.ravel())
        terms = ad.mul(ad.softplus(ad.mul(logits, Tensor(sign.ravel()))),
                       Tensor(np.where(free, -1.0, 0.0).ravel()))
        action = ad.sum_axis(ad.reshape(terms, (steps + 1, n)), 0)

        # each word is read off the context before its SHIFT, EOS off the
        # last; each distinct (context, word) is scored once, in order of
        # first occurrence, so rows that share nothing keep their order
        read = np.hstack([actions == SHIFT, np.ones((n, 1), dtype=bool)])
        at = at.T[read].reshape(n, t_len + 1).T.ravel()
        words = np.hstack([ids, np.full((n, 1), self.eos_id)]).T.ravel()
        _, first, which = np.unique(at * self.vocab_size + words,
                                    return_index=True, return_inverse=True)
        which = np.argsort(np.argsort(first))[which.ravel()]
        first = np.sort(first)
        word = nn.tied_word_log_prob(ad.take_rows(context, at[first]),
                                     p["emb"], p["gen.word_b"], words[first])
        word = ad.take_rows(word, which)
        terminal = ad.sum_axis(ad.reshape(word, (t_len + 1, n)), 0)
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
        steps = 2 * t_len - 1
        p = self.params
        stepper = _Stepper(self, k, None, t_len)
        actions = np.zeros((k, steps), dtype=np.int64)
        logprob = np.zeros(k)
        for step in range(steps):
            logits = (stepper.top @ p["gen.action_w"].data
                      + p["gen.action_b"].data[0])
            p_reduce = ad.sigmoid_array(logits)[stepper.node]
            must_shift = stepper.depth < 2
            must_reduce = stepper.words_used >= t_len
            draw = rng.random(k) < p_reduce
            acts = np.where(~must_shift & (must_reduce | draw), REDUCE, SHIFT)
            with np.errstate(divide="ignore"):
                term = np.where(acts == REDUCE, np.log(p_reduce),
                                np.log1p(-p_reduce))
            logprob += np.where(must_shift | must_reduce, 0.0, term)
            actions[:, step] = acts
            if step + 1 < steps:    # nothing reads the state after the last
                stepper.step(acts, ids[stepper.words_used % t_len])
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
        stepper = _Stepper(self, 1, None, max_len)
        ids: list[int] = []
        actions: list[int] = []
        total = 0.0
        eos_at_root = False
        while len(ids) < max_len:
            hidden = stepper.top[0]
            if stepper.depth[0] >= 2:
                p_reduce = float(ad.sigmoid_array(
                    hidden @ p["gen.action_w"].data + p["gen.action_b"].data[0]))
                if rng.random() < p_reduce:
                    total += np.log(p_reduce)
                    actions.append(REDUCE)
                    stepper.step(np.array([REDUCE]), None)
                    continue
                total += np.log1p(-p_reduce)
            logits = hidden @ p["emb"].data.T + p["gen.word_b"].data
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            word = int(rng.choice(self.vocab_size, p=probs))
            total += np.log(probs[word])
            if word == self.eos_id:
                eos_at_root = stepper.depth[0] <= 1
                break
            ids.append(word)
            actions.append(SHIFT)
            stepper.step(np.array([SHIFT]), np.array([word]))
        truncated = len(ids) >= max_len     # EOS ends the loop before that
        if not ids:
            return GenerationResult((), (), None, total, truncated, True,
                                    eos_at_root)
        # the closing REDUCEs carry no probability, so no cell runs for them
        actions.extend([REDUCE] * (stepper.depth[0] - 1))
        tree = actions_to_tree(tuple(actions), len(ids))
        return GenerationResult(tuple(ids), tuple(actions), tree, total,
                                truncated, False, eos_at_root)


class RNNLM(_TiedLM):
    """Two-layer LSTM language model with tied embeddings (the baseline)."""

    prefix = "lm"

    def log_likelihood_batch(self, ids: np.ndarray,
                             rng: np.random.Generator | None = None) -> Tensor:
        """Per-sentence log-likelihood including the EOS event, shape [n]."""
        ids = np.asarray(ids, dtype=np.int64)
        n, t_len = ids.shape
        p = self.params
        zero = nn.zeros((n, self.dim))
        states = [(zero, zero) for _ in range(self.layers)]
        contexts = []
        for pos in range(t_len + 1):
            contexts.append(ad.dropout(states[-1][0], self.dropout, rng))
            if pos < t_len:
                inp = ad.dropout(ad.take_rows(p["emb"], ids[:, pos]),
                                 self.dropout, rng)
                for layer in range(self.layers):
                    states[layer] = nn.lstm_cell(inp, states[layer],
                                                 p[f"lm.lstm_w{layer}"],
                                                 p[f"lm.lstm_b{layer}"])
                    if layer + 1 < self.layers:
                        inp = ad.dropout(states[layer][0], self.dropout, rng)
        words = np.hstack([ids, np.full((n, 1), self.eos_id)]).T
        word = nn.tied_word_log_prob(ad.concat(contexts, axis=0), p["emb"],
                                     p["lm.word_b"], words.ravel())
        return ad.sum_axis(ad.reshape(word, (t_len + 1, n)), 0)
