"""Small neural-network building blocks shared by the two models.

Everything here is a pure function over :class:`~urnng.autodiff.Tensor`
values; parameter creation and ownership live with the model classes.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

INIT_SCALE = 0.1


def uniform_init(rng: np.random.Generator, shape, scale: float = INIT_SCALE) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape)


def make_param(rng: np.random.Generator, name: str, shape,
               scale: float = INIT_SCALE) -> Tensor:
    return Tensor(uniform_init(rng, shape, scale), requires_grad=True,
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
    """One LSTM step.  ``w`` is [(x_dim + hidden), 4 * hidden], gates i,f,o,g."""
    h_prev, c_prev = state
    return _gates(linear(ad.concat([x, h_prev], axis=1), w, b), (c_prev,))


def tree_cell(left: tuple[Tensor, Tensor], right: tuple[Tensor, Tensor],
              w: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """Binary tree composition with one forget gate per child.

    ``w`` is [2 * dim, 5 * dim] with gate order i, f_left, f_right, o, g.
    The output depends on child order, so mirrored children compose to
    different vectors.
    """
    (hl, cl), (hr, cr) = left, right
    return _gates(linear(ad.concat([hl, hr], axis=1), w, b), (cl, cr))


def _gates(z: Tensor, cells: tuple[Tensor, ...]) -> tuple[Tensor, Tensor]:
    """(h, c) from the pre-activations ``z`` of a cell, as one primitive.

    ``z`` holds the gates i, one forget gate f_k per previous cell state
    ``cells[k]``, o and g.  Then c = f_1 c_1 + ... + i g and h = o tanh(c),
    with the same elementwise ops in the same order as a composition of
    single primitives, so the values match that composition to the bit.
    """
    d = cells[0].shape[-1]
    split = (len(cells) + 2) * d
    sig = ad.sigmoid_array(z.data[:, :split])       # i, f_1 .. f_k, o
    g = np.tanh(z.data[:, split:])
    i, o = sig[:, :d], sig[:, split - d:]
    forget = [sig[:, k * d:(k + 1) * d] for k in range(1, len(cells) + 1)]
    prev = [cell.data for cell in cells]
    c = forget[0] * prev[0]
    for f, cell in zip(forget[1:], prev[1:]):
        c = c + f * cell
    c = c + i * g
    tanh_c = np.tanh(c)

    def vjp(grads):
        gh, gc = (0.0 if grad is None else grad for grad in grads)
        dc = gc + gh * o * (1.0 - tanh_c * tanh_c)
        dsig = np.concatenate([dc * g, *(dc * cell for cell in prev),
                               gh * tanh_c], axis=1)
        dz = np.concatenate([dsig * sig * (1.0 - sig),
                             dc * i * (1.0 - g * g)], axis=1)
        return (dz, *(dc * f for f in forget))

    return ad._emit("cell_gates", (o * tanh_c, c), (z, *cells), vjp)
