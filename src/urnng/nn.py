"""Small neural-network building blocks shared by the two models.

Everything here is a pure function over :class:`~urnng.autodiff.Tensor`
values, except two pairs on plain arrays, which the stack model's reverse
sweep calls too: the cell, :func:`cell` and :func:`cell_vjp`, and the one
level routine that runs it over a push table, :func:`lstm_levels` and
:func:`lstm_levels_vjp`, where each push reads an optional input and k
parent pushes.  That routine runs every cell: the stack model's tree cell
(no input, the two children; a level per tree height), its and the
RNNLM's LSTM layers (an input, the push beneath; a level per stack
position, or per step while sampling) and, through the primitive
:func:`lstm_layer`, each direction of the span scorer's BiLSTM (a level
per position).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.1


def make_param(rng: np.random.Generator, name: str, shape,
               scale: float = INIT_SCALE) -> Tensor:
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True,
                  name=name)


def make_params(rng: np.random.Generator, shapes: dict,
                scale: float = INIT_SCALE) -> dict[str, Tensor]:
    """One parameter per name in ``shapes``, drawn in its order."""
    return {name: make_param(rng, name, shape, scale)
            for name, shape in shapes.items()}


WORD_BLOCK = 1 << 20    # most logits one tied-softmax block forms


def word_log_softmax(x: np.ndarray, emb: np.ndarray, b: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """log_softmax(x @ emb.T + b) over the vocabulary, formed in ``out``
    (a new array if None) with the ops and order of the unfused chain."""
    z = np.matmul(x, emb.T, out=out)
    z += b
    z -= z.max(axis=1, keepdims=True)
    z -= np.log(np.exp(z).sum(axis=1, keepdims=True))
    return z


def tied_word_log_prob(x: Tensor, emb: Tensor, b: Tensor, words) -> Tensor:
    """log p(words[r] | x[r]) under a softmax whose output weights are the
    embedding table ``emb`` and whose bias is ``b``: one primitive, run
    ``WORD_BLOCK`` logits at a time.  Untaped, each block's log-softmax dies
    with it; taped, the blocks fill one [rows, vocab] array, which the one
    backward turns into the logits' gradient in place."""
    xd, ed, words = x.data, emb.data, np.asarray(words, dtype=np.int64)
    n, vocab = xd.shape[0], ed.shape[0]
    ad._require(words.shape == (n,) and ((words >= 0) & (words < vocab)).all(),
                "tied_word_log_prob", f"need {n} word ids in the vocabulary")
    step, rows = max(1, WORD_BLOCK // vocab), np.arange(n)
    taped = bool(ad._tape_stack) and any(t.requires_grad for t in (x, emb, b))
    kept, picked = np.empty((n, vocab)) if taped else None, np.empty(n)
    for lo in range(0, n, step):
        block = word_log_softmax(xd[lo:lo + step], ed, b.data,
                                 None if kept is None else kept[lo:lo + step])
        picked[lo:lo + step] = block[rows[:len(block)], words[lo:lo + step]]

    def vjp(g):
        nonlocal kept
        if kept is None:
            raise RuntimeError("tied word head: a backward consumed it")
        dl, kept = np.exp(kept, out=kept), None     # the softmax
        dl *= -g[:, None]
        dl[rows, words] += g
        return dl @ ed, ad._Factors(dl, None, xd), dl.sum(axis=0)

    return ad._emit("tied_word_log_prob", picked, (x, emb, b), vjp)


def cell(parts: list, w: np.ndarray, b: np.ndarray, cells: tuple):
    """(h, c, saved) of one cell on plain arrays.

    The input is ``parts`` side by side, and z = input @ w + b holds the
    gates i, one forget gate f_k per previous cell state ``cells[k]``, o and
    g.  Then c = f_1 c_1 + ... + i g and h = o tanh(c), with the same ops in
    the same order as a composition of single primitives, so the values
    match that composition to the bit.  ``saved`` is what :func:`cell_vjp`
    reads.
    """
    xcat = np.concatenate(parts, axis=1)
    z = xcat @ w + b
    d = cells[0].shape[-1]
    split = (len(cells) + 2) * d
    sig = ad.sigmoid_array(z[:, :split])       # i, f_1 .. f_k, o
    g = np.tanh(z[:, split:])
    c = sig[:, d:2 * d] * cells[0]
    for k, prev in enumerate(cells[1:], 2):
        c = c + sig[:, k * d:(k + 1) * d] * prev
    c = c + sig[:, :d] * g
    tanh_c = np.tanh(c)
    return sig[:, split - d:] * tanh_c, c, (xcat, sig, g, tanh_c, cells)


def cell_vjp(saved, w: np.ndarray, gh, gc):
    """(input gradient, dz, previous cell states' gradients) of :func:`cell`
    with weight ``w``, given the gradients of h and c; None stands for 0.
    The k previous cell states' gradients are one [rows, k, hidden] array."""
    xcat, sig, g, tanh_c, cells = saved
    d = g.shape[1]
    gh, gc = (0.0 if grad is None else grad for grad in (gh, gc))
    dc = gc + gh * sig[:, -d:] * (1.0 - tanh_c * tanh_c)
    dsig = np.concatenate([dc * g, *(dc * prev for prev in cells),
                           gh * tanh_c], axis=1)
    dz = np.concatenate([dsig * sig * (1.0 - sig),
                         dc * sig[:, :d] * (1.0 - g * g)], axis=1)
    return dz @ w.T, dz, sig[:, d:-d].reshape(len(g), -1, d) * dc[:, None]


def lstm_levels(x: np.ndarray | None, parents: np.ndarray, levels,
                w: np.ndarray, b: np.ndarray, h: np.ndarray, c: np.ndarray,
                saved: list | None = None) -> None:
    """Run one cell over pushes, a level of them at a time: push i reads
    input row ``x[i]``, if there is an ``x``, and the states of its k
    parents ``parents[i]`` ([pushes, k]), each in an earlier level or push
    0, the zero state.  An LSTM layer has an input and one parent, the push
    beneath; the tree cell has no input and two, the children.  The
    [pushes, hidden] state tables ``h`` and ``c`` are set in place;
    ``saved`` collects each level's pushes and what :func:`cell_vjp` reads."""
    for at in levels:
        up = parents[at].T
        new_h, new_c, kept = cell(([] if x is None else [x[at]])
                                  + [h[p] for p in up], w, b,
                                  tuple(c[p] for p in up))
        if not np.isfinite(new_h).all():
            raise ad.NumericError(
                f"{'tree cell' if x is None else 'LSTM layer'}: "
                "non-finite state")
        h[at], c[at] = new_h, new_c
        if saved is not None:
            saved.append((at, kept))
        # drop this level's arrays before the next level allocates: held
        # across it, they make malloc fault in fresh pages for each level
        del new_h, new_c, kept


def lstm_levels_vjp(saved: list, parents: np.ndarray, w: np.ndarray,
                    gh: np.ndarray, store: dict, key: int) -> np.ndarray:
    """The reverse sweep of :func:`lstm_levels` with weight ``w``, given the
    gradient ``gh`` of its h table, which it adds into: the gradient of its
    x (no columns without one), with the partials of ``w`` and ``b`` summed
    into ``store`` at ``key`` and ``key + 1`` as the tape sums them.  It
    pops ``saved``."""
    d = gh.shape[1]
    split = w.shape[0] - parents.shape[1] * d
    gc, dx = np.zeros_like(gh), np.zeros((len(gh), split))
    while saved:
        at, kept = saved.pop()
        dxh, dz, dcs = cell_vjp(kept, w, gh[at], gc[at])
        dx[at] = dxh[:, :split]
        # pushes of one level may share a parent: sum each parent's
        # gradients in push order, then add each sum once
        up, which = np.unique(parents[at], return_inverse=True)
        flat = (which.reshape(-1, 1) * d + np.arange(d)).ravel()
        for table, part in ((gh, dxh[:, split:]), (gc, dcs)):
            table[up] += np.bincount(flat, part.ravel(),
                                     up.size * d).reshape(-1, d)
        ad._accumulate(store, key, w.shape, ad._Factors(kept[0], None, dz))
        ad._accumulate(store, key + 1, w.shape[1:], dz.sum(axis=0))
        del kept, dxh, dz, dcs  # as in lstm_levels
    return dx


def lstm_layer(x: Tensor, below: np.ndarray, levels, w: Tensor,
               b: Tensor) -> Tensor:
    """The h table of :func:`lstm_levels` over the rows of ``x``, as one
    primitive whose vjp, the reverse sweep, runs once."""
    h, c = np.zeros((2, x.shape[0], b.shape[0] // 4))
    saved, below = [], below[:, None]
    lstm_levels(x.data, below, levels, w.data, b.data, h, c, saved)

    def vjp(g):
        nonlocal saved
        if saved is None:
            raise RuntimeError("LSTM layer: a backward swept it")
        todo, saved, store = saved, None, {}
        return (lstm_levels_vjp(todo, below, w.data, g, store, 0),
                store.get(0), store.get(1))

    return ad._emit("lstm_layer", h, (x, w, b), vjp)
