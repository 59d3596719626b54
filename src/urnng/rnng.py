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
heads run once per node.  The stack state is arrays indexed by stack position
and node, so the state below each new element and the two children of every
REDUCE are each read with one index op.

Neither head feeds back into the stack, so the step loop runs only the
recurrence and keeps each step's stack top.  The action head then scores all
steps in one pass, and the word head all SHIFT and EOS contexts in one
tied-softmax pass (untaped, in blocks of bounded size); the RNNLM baseline
scores its words the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .treebank import REDUCE, SHIFT, TreeRepr, actions_to_tree


class _Slots:
    """An (h, c) pair for every stack position of every node, as two arrays
    [depth + 1, n, dim]; position 0 holds the zero pair under every stack.
    For the tape, ``steps`` maps a step to each Tensor it wrote, if taped.
    """

    def __init__(self, depth: int, n_rows: int, dim: int):
        self.data = np.zeros((2, depth + 1, n_rows, dim))
        self.steps: tuple[dict, dict] = ({}, {})

    def write(self, step: int, pos: np.ndarray, nodes: np.ndarray,
              pair: tuple[Tensor, Tensor]) -> None:
        """Store row r of each tensor of ``pair`` at (pos[r], nodes[r])."""
        for data, steps, tensor in zip(self.data, self.steps, pair):
            data[pos, nodes] = tensor.data
            if tensor.requires_grad:
                steps[step] = tensor

    def read(self, pos: np.ndarray, nodes: np.ndarray,
             written: np.ndarray) -> tuple[Tensor, Tensor]:
        """The pairs at (pos[r], nodes[r]), which step written[r] wrote."""
        return tuple(ad.take_steps(data[pos, nodes], steps, written, nodes)
                     if steps else Tensor(data[pos, nodes])
                     for data, steps in zip(self.data, self.steps))


class _Stepper:
    """Lockstep shift/reduce execution over n rows, one push per step.

    Rows with the same actions over the same words so far share a prefix
    node; ``node[r]`` is row r's.  The stack state is arrays indexed by
    stack position and node: each layer's LSTM state after pushing the
    element there, and that element's content (h, c).  A step maps each
    distinct (node, action, word on SHIFT) to a child; a node's first child
    keeps its slot and later ones get a copy, so the cells run once per
    node (one per row of ``top``), and nodes never outnumber rows.  On a
    tape or with dropout each row keeps a node of its own.  ``stack[i, p]``
    is the step that pushed node i's element at p; it routes gradients.
    """

    def __init__(self, model: "GenerativeModel", n_rows: int,
                 rng: np.random.Generator | None, depth: int):
        self.model = model
        self.rng = rng
        dim = model.dim
        self.state = [_Slots(depth, n_rows, dim) for _ in range(model.layers)]
        self.content = _Slots(depth, n_rows, dim)
        self.stack = np.zeros((n_rows, depth + 1), dtype=np.int64)
        self.depth = np.zeros(n_rows, dtype=np.int64)
        self.words_used = np.zeros(n_rows, dtype=np.int64)
        shared = rng is None and not ad.Tape.active()
        self.node = np.zeros(n_rows, np.int64) if shared else np.arange(n_rows)
        self.top = nn.zeros((1 if shared else n_rows, dim))  # node tops
        self.t = 0

    def step(self, actions: np.ndarray, word_ids: np.ndarray | None) -> None:
        """Advance every row one action; ``word_ids[r]`` is read on SHIFT rows."""
        model = self.model
        p = model.params
        shift = actions == SHIFT
        bad = np.flatnonzero(~shift & (self.depth < 2))
        if bad.size:
            raise ValueError(f"row {bad[0]}: REDUCE with stack depth "
                             f"{self.depth[bad[0]]}")
        # a SHIFT without a word reads word -1, which take_rows rejects
        words = np.where(shift, -1 if word_ids is None else word_ids, -1)

        # keys sort by parent node first; its first child keeps its slot
        key = (self.node * 2 + actions) * (model.vocab_size + 1) + words + 1
        _, first, child = np.unique(key, return_index=True, return_inverse=True)
        parent = self.node[first]
        forks = np.flatnonzero(parent[1:] == parent[:-1]) + 1
        slot = parent.copy()
        slot[forks] = len(self.top.data) + np.arange(forks.size)
        old, new = parent[forks], slot[forks]
        top = self.depth[first[forks]].max(initial=0) + 1
        for slots in (*self.state, self.content):
            slots.data[:, :top, new] = slots.data[:, :top, old]
        self.stack[new] = self.stack[old]
        self.node = slot[child.ravel()]
        rows = first[np.argsort(slot)]      # a row of each node
        nodes = np.arange(rows.size)

        shift_nodes = np.flatnonzero(shift[rows])
        reduce_nodes = np.flatnonzero(~shift[rows])
        composed = (None, None)
        if reduce_nodes.size:
            depth = self.depth[rows[reduce_nodes]]
            def child_pair(pos):
                return self.content.read(pos, reduce_nodes,
                                         self.stack[reduce_nodes, pos])
            composed = nn.tree_cell(child_pair(depth - 1), child_pair(depth),
                                    p["gen.tree_w"], p["gen.tree_b"])

        embedded = blank = None
        if shift_nodes.size:
            embedded = ad.take_rows(p["emb"], words[rows[shift_nodes]])
            blank = nn.zeros((shift_nodes.size, model.dim))

        self.t += 1
        self.depth += np.where(shift, 1, -1)
        self.words_used += shift
        top = self.depth[rows]
        below = top - 1
        # the LSTM state beneath the new push: the old top for SHIFT, the
        # element under the two popped children for REDUCE
        below_steps = self.stack[nodes, below]
        self.stack[nodes, top] = self.t

        # the pushed element: the word for SHIFT nodes (its cell state is
        # zero), the composition for REDUCE nodes
        order = np.argsort(np.concatenate([shift_nodes, reduce_nodes]))
        pushed = _merge(embedded, composed[0], order)
        self.content.write(self.t, top, nodes,
                           (pushed, _merge(blank, composed[1], order)))
        inp = ad.dropout(pushed, model.dropout, self.rng)
        for layer in range(model.layers):
            state = self.state[layer].read(below, nodes, below_steps)
            h, c = nn.lstm_cell(inp, state, p[f"gen.lstm_w{layer}"],
                                p[f"gen.lstm_b{layer}"])
            self.state[layer].write(self.t, top, nodes, (h, c))
            if layer + 1 < model.layers:
                inp = ad.dropout(h, model.dropout, self.rng)
        self.top = h


def _merge(shifted: Tensor | None, reduced: Tensor | None,
           order: np.ndarray) -> Tensor:
    """Rows of ``shifted`` then ``reduced``, put back in row order."""
    if reduced is None:
        return shifted
    if shifted is None:
        return reduced
    return ad.take_rows(ad.concat([shifted, reduced], axis=0), order)


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

        # Only the recurrence runs per step.  Neither head feeds back into
        # it, so both score every step's dropped-out node tops at the end.
        stepper = _Stepper(self, n, rng, t_len)
        contexts, free, at = [], [], []
        for step in range(steps + 1):
            free.append((stepper.depth >= 2) & (stepper.words_used < t_len))
            # each row's context: its node's top, after those of past steps
            at.append(sum(len(c.data) for c in contexts) + stepper.node)
            contexts.append(ad.dropout(stepper.top, self.dropout, rng))
            if step < steps:
                stepper.step(actions[:, step],
                             ids[np.arange(n), stepper.words_used % t_len])
        context, at = ad.concat(contexts, axis=0), np.array(at)
        del contexts    # untaped, this frees the per-step arrays

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
            hidden = stepper.top.data
            logits = hidden @ p["gen.action_w"].data + p["gen.action_b"].data[0]
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
        emb_t = p["emb"].data.T
        ids: list[int] = []
        actions: list[int] = []
        total = 0.0
        truncated = False
        eos_at_root = False
        while True:
            hidden = stepper.top.data[0]
            logit = hidden @ p["gen.action_w"].data + p["gen.action_b"].data[0]
            p_reduce = float(ad.sigmoid_array(logit))
            can_reduce = stepper.depth[0] >= 2
            if len(ids) >= max_len:
                truncated = True
                break
            if can_reduce and rng.random() < p_reduce:
                total += np.log(p_reduce)
                actions.append(REDUCE)
                stepper.step(np.array([REDUCE]), None)
                continue
            if can_reduce:
                total += np.log1p(-p_reduce)
            word_logits = hidden @ emb_t + p["gen.word_b"].data
            word_logits -= word_logits.max()
            probs = np.exp(word_logits)
            probs /= probs.sum()
            word = int(rng.choice(self.vocab_size, p=probs))
            total += np.log(probs[word])
            if word == self.eos_id:
                eos_at_root = stepper.depth[0] <= 1
                break
            ids.append(word)
            actions.append(SHIFT)
            stepper.step(np.array([SHIFT]), np.array([word]))
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
