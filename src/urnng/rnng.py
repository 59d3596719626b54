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
position, over all rows at once.  The samplers must read the top state
before each draw, so they run the cells step by step instead.  Without a
tape and without dropout, rows that have taken the same actions over the
same words share each push, a node of the prefix trie.  Neither head feeds
back into the stack, so the action head scores all steps in one pass and
the word head all SHIFT and EOS contexts in one tied-softmax pass (untaped,
in blocks of bounded size), as the RNNLM baseline scores its words.

On a tape the contexts are one node that keeps what each cell's vjp reads
and the boolean dropout patterns.  Its vjp walks the levels in reverse
(layers top-down, positions deepest first, then heights highest first) with
gradient tables shaped like the state.
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
    row r's at step t.  A list ``saved`` collects each cell call's pushes
    and what its vjp reads.
    """

    def __init__(self, model: "GenerativeModel", n: int, steps: int,
                 shared: bool):
        self.model, self.shared, self.saved, self.count = model, shared, None, 1
        self.inputs = tuple(model.params.values())[:2 * model.layers + 3]
        size = steps * n + 1
        self.stack = np.zeros((n, steps + 3), np.int64)  # pushes by position
        self.depth, self.used, self.top = np.zeros((3, n), np.int64)
        self.pos, self.below, self.height = np.zeros((3, size), np.int64)
        self.word, self.kids = np.full(size, -1), np.zeros((size, 2), np.int64)
        # a table per level, np.zeros: pages no push touches stay unmapped
        self.h, self.c = ([np.zeros((size, model.dim))
                           for _ in range(model.layers + 1)] for _ in "hc")

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

    def cell(self, at: np.ndarray, layer: int, x: np.ndarray | None = None):
        """Run layer ``layer``'s LSTM cell on pushes ``at`` over inputs
        ``x[at]``, or for ``layer`` = layers the tree cell over their
        children, and set their state."""
        h, c = self.h[layer], self.c[layer]
        if x is None:
            left, right = self.kids[at].T
            parts, cells = [h[left], h[right]], (c[left], c[right])
        else:
            under = self.below[at]
            parts, cells = [x[at], h[under]], (c[under],)
        w, b = self.inputs[1 + 2 * layer:3 + 2 * layer]
        new_h, new_c, saved = nn.cell(parts, w.data, b.data, cells)
        if not np.isfinite(new_h).all():
            raise ad.NumericError("stack recurrence: non-finite state")
        h[at], c[at] = new_h, new_c
        if self.saved is not None:
            self.saved.append((at, saved))

    def step(self, actions: np.ndarray, word_ids: np.ndarray | None) -> tuple:
        """:meth:`push`, then the cells of the new pushes: the samplers'
        step-major path, which reads each top state before the next draw."""
        new, child = self.push(actions, word_ids)
        layers, word = self.model.layers, self.word[new]
        self.h[layers][new[word >= 0]] = self.inputs[0].data[word[word >= 0]]
        if (word < 0).any():
            self.cell(new[word < 0], layers)
        for layer in range(layers):
            self.cell(new, layer, self.h[layer - 1 if layer else layers])
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
    """(contexts, tops, free) of [n, T] ``ids`` under [n, 2T - 1]
    ``actions``: each push's top-layer h under its context dropout as one
    [pushes + 1, dim] node; each row's top push before each step and
    whether that step is free, both [2T, n]."""
    (n, steps), t_len = actions.shape, ids.shape[1]
    layers, rate, dim = model.layers, model.dropout, model.dim
    keep = _keep_patterns(model, n, steps, rng)
    inputs = tuple(model.params.values())[:2 * layers + 3]
    taped = bool(ad._tape_stack) and any(t.requires_grad for t in inputs)
    stack = _Stack(model, n, steps, keep[0] is None and not taped)
    tops, free = [], []
    for t in range(steps + 1):
        tops.append(stack.top)
        free.append((stack.depth >= 2) & (stack.used < t_len))
        if t < steps:
            stack.push(actions[:, t], ids[np.arange(n), stack.used % t_len])

    # contents one tree height at a time, then each layer one stack
    # position at a time
    size, below, kids = stack.count, stack.below, stack.kids
    pos, word = stack.pos[:size], stack.word[:size]
    depths = [np.flatnonzero(pos == p) for p in range(1, pos.max() + 1)]
    heights = [np.flatnonzero(stack.height[:size] == k)
               for k in range(1, stack.height.max() + 1)]
    shifts = np.flatnonzero(word >= 0)
    stack.saved = [] if taped else None
    stack.h[layers][shifts] = inputs[0].data[word[shifts]]
    for at in heights:
        stack.cell(at, layers)
    for layer in range(layers):
        lower = layer - 1 if layer else layers  # layer 0 reads contents
        x = ad.dropped(stack.h[lower][:size], keep[layer], rate)
        stack.h[lower] = stack.c[lower] = None  # nothing reads them now
        for at in depths:
            stack.cell(at, layer, x)
    levels = stack.saved

    def sweep(g):
        # the partials of ``inputs``; the levels are dropped as they are
        # swept, so this runs once
        nonlocal levels
        if levels is None:
            raise RuntimeError("stack recurrence: a backward swept it")
        todo, levels, store = levels, None, {}

        def back(i, gh, gc):
            # the last level not yet swept, backward: its pushes, its input
            # gradient split in two parts, its previous cells' gradients
            at, saved = todo.pop()
            dx, dz, dcells = nn.cell_vjp(saved, inputs[i].data, gh[at],
                                         gc[at])
            for k, part in ((i, ad._Factors(saved[0], None, dz)),
                            (i + 1, dz.sum(axis=0))):
                ad._accumulate(store, k, inputs[k].shape, part)
            return at, dx[:, :dim], dx[:, dim:], dcells

        gh = ad.dropped(g, keep[-1], rate)  # the backward's own array
        for layer in reversed(range(layers)):
            gc, dx = np.zeros((2, size, dim))
            for _ in depths:
                at, dx_at, dh, (dc,) = back(1 + 2 * layer, gh, gc)
                dx[at] = dx_at
                # pushes of one level may share the push beneath
                np.add.at(gh, below[at], dh)
                np.add.at(gc, below[at], dc)
            gh = ad.dropped(dx, keep[layer], rate)
        gc = np.zeros_like(gh)
        for _ in heights:
            at, dl, dr, (dcl, dcr) = back(1 + 2 * layers, gh, gc)
            left, right = kids[at].T
            gh[left] += dl
            gh[right] += dr
            gc[left] += dcl
            gc[right] += dcr
        return (ad._Factors(None, word[shifts], gh[shifts]),
                *(store.get(i) for i in range(1, len(inputs))))

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
        stack = _Stack(self, k, steps, shared=True)
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
        stack = _Stack(self, 1, 2 * max_len, shared=True)
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
