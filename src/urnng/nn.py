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


WORD_BLOCK = 1 << 20    # most logits one untaped tied-softmax pass forms


def tied_word_log_prob(x: Tensor, emb: Tensor, b: Tensor, words) -> Tensor:
    """log p(words[r] | x[r]) under a softmax whose output weights are the
    transposed embedding table ``emb`` and whose bias is ``b``.  Untaped, rows
    go ``WORD_BLOCK`` logits at a time, so the [rows, vocab] arrays stay
    bounded; a tape keeps each pass's log-softmax anyway, so it gets one."""
    emb_t = ad.transpose(emb)
    step = max(1, WORD_BLOCK // emb.shape[0])
    if x.shape[0] <= step or x.requires_grad:
        blocks = [(x, words)]
    else:
        blocks = [(Tensor(x.data[lo:lo + step]), words[lo:lo + step])
                  for lo in range(0, x.shape[0], step)]
    parts = [ad.pick_per_row(ad.log_softmax(linear(rows, emb_t, b), axis=1),
                             targets) for rows, targets in blocks]
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)


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
