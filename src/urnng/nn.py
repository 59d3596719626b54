"""Small neural-network building blocks shared by the two models.

Everything here is a pure function over :class:`~urnng.autodiff.Tensor`
values, except the cell pair :func:`cell` and :func:`cell_vjp`, which work
on plain arrays so that the stack model's reverse sweep can call them too;
parameter creation and ownership live with the model classes.
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


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return ad.add_row(ad.matmul(x, w), b)


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


def lstm_cell(x: Tensor, state: tuple[Tensor, Tensor], w: Tensor,
              b: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM step as one primitive.  ``w`` is [(x_dim + hidden),
    4 * hidden], gates i,f,o,g."""
    h_prev, c_prev = state
    h, c, saved = cell([x.data, h_prev.data], w.data, b.data, (c_prev.data,))
    wd, split = w.data, x.shape[1]

    def vjp(grads):
        dx, dz, (dc,) = cell_vjp(saved, wd, *grads)
        return (dx[:, :split], dx[:, split:], dc,
                ad._Factors(saved[0], None, dz), dz.sum(axis=0))

    return ad._emit("lstm_cell", (h, c), (x, h_prev, c_prev, w, b), vjp)


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
    with weight ``w``, given the gradients of h and c; None stands for 0."""
    xcat, sig, g, tanh_c, cells = saved
    d = g.shape[1]
    gh, gc = (0.0 if grad is None else grad for grad in (gh, gc))
    dc = gc + gh * sig[:, -d:] * (1.0 - tanh_c * tanh_c)
    dsig = np.concatenate([dc * g, *(dc * prev for prev in cells),
                           gh * tanh_c], axis=1)
    dz = np.concatenate([dsig * sig * (1.0 - sig),
                         dc * sig[:, :d] * (1.0 - g * g)], axis=1)
    return dz @ w.T, dz, [dc * sig[:, k * d:(k + 1) * d]
                          for k in range(1, len(cells) + 1)]
