"""Reverse-mode automatic differentiation over dense float64 arrays.

Every differentiable quantity in this package is a :class:`Tensor` wrapping a
numpy array.  Operations executed while a :class:`Tape` is active are appended
to that tape in execution order; :meth:`Tape.backward` replays the record in
reverse and returns a gradient for every leaf tensor that contributed to the
requested scalar.  Outside a tape the same operations run as plain numpy
evaluation, which is how all inference-time code paths avoid bookkeeping cost.

A node keeps its vjp, which closes over only the arrays its formula reads,
and per input a leaf Tensor or the key of an earlier node's output.  So an
intermediate array lives only while a vjp reads it, as in PyTorch's autograd.

Two kinds of partial are kept factored while :meth:`Tape.backward` runs, so
that a weight shared by many time steps gets its gradient from one GEMM or
one scatter instead of a full-size array per step: the right-operand partial
``a.T @ g`` of :func:`matmul` and the scatter of :func:`take_rows`.  They are
formed when the receiving node's vjp runs, or when ``backward`` returns for a
leaf.  All other partials are summed densely as they arrive; a vjp that
formed such a running sum itself hands it over whole, to be adopted.

All operations check their outputs for NaN/Inf and raise
:class:`NumericError` on violation.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "ShapeError",
    "NumericError",
    "GradCheckReport",
    "grad_check",
    "add",
    "add_broadcast",
    "add_const",
    "add_row",
    "concat",
    "dropout",
    "dropout_pattern",
    "dropped",
    "exp",
    "layer_norm",
    "layer_norm_array",
    "layer_norm_vjp",
    "log",
    "log_softmax",
    "logsumexp",
    "matmul",
    "mul",
    "narrow",
    "pick_per_row",
    "relu",
    "reshape",
    "scale",
    "sigmoid",
    "sigmoid_array",
    "softmax",
    "softplus",
    "stack0",
    "sub",
    "sum_all",
    "sum_axis",
    "take_rows",
    "tanh",
    "transpose",
]

_LN_EPS = 1e-5


class ShapeError(ValueError):
    """Operands passed to a primitive have incompatible shapes."""


class NumericError(RuntimeError):
    """A non-finite value appeared where the numeric contract forbids one."""


class Tensor:
    """A dense float64 array plus the bookkeeping needed for backward."""

    __slots__ = ("data", "requires_grad", "name", "node", "key")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.name = name
        self.node: _Node | None = None
        self.key: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return self.data.item()

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag})"


class _Node:
    # ``out`` holds the keys of the outputs and ``tape`` a weak reference, so
    # no reference cycle keeps a tape's arrays alive until the next cyclic
    # garbage collection.  ``inputs`` holds, per input, None if it needs no
    # gradient, a (key, shape) handle if this tape produced it, or the leaf
    # Tensor itself.  So a node keeps no intermediate Tensor alive, and an
    # array lives only while some vjp closure reads it.  Keys come from the
    # tape's counter, not ``id()``, which a later output reuses once an
    # output dies: a counter keeps every key on the tape distinct.
    __slots__ = ("out", "inputs", "vjp", "tape")

    def __init__(self, out, inputs, vjp, tape):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp
        self.tape = tape


# A partial kept factored: ``a.T @ g`` when ``rows`` is None, else the rows
# of ``g`` scatter-added at ``rows`` into a zero table.
_Factors = namedtuple("_Factors", "a rows g")


def _plus(total, part) -> np.ndarray:
    # The first dense partial is copied, so later ones can be added in place;
    # it may alias a live array (``add``'s (g, g), views from ``reshape``).
    if total is None:
        return np.array(part, dtype=np.float64, order="C")
    total += part
    return total


def _cat(arrays) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Sum:
    """Running gradient of a tensor that has received factored partials.

    The factors never hold more bytes than the dense gradient they stand
    for; once they would, they are folded into the dense sum.
    """

    __slots__ = ("dense", "factors", "shape", "nbytes")

    def __init__(self, dense, shape):
        self.dense, self.factors, self.shape, self.nbytes = dense, [], shape, 0

    def form(self) -> np.ndarray:
        outer = [(f.a, f.g) for f in self.factors if f.rows is None]
        scatter = [(f.rows, f.g) for f in self.factors if f.rows is not None]
        self.factors, self.nbytes = [], 0
        if outer:
            a, g = map(_cat, zip(*outer))
            del outer  # frees the per-step partials before the GEMM
            prod = a.T @ g
            self.dense = prod if self.dense is None else _plus(self.dense, prod)
        if scatter:
            # each distinct row's partials summed in index order, then added
            # once: no temporary the size of the table
            rows, g = map(_cat, zip(*scatter))
            rows, at = np.unique(rows, return_inverse=True)
            width = math.prod(self.shape[1:])
            flat = (at.reshape(-1, 1) * width + np.arange(width)).ravel()
            summed = np.bincount(flat, g.ravel(), rows.size * width)
            if self.dense is None:
                self.dense = np.zeros(self.shape)
            self.dense[rows] += summed.reshape((rows.size, *self.shape[1:]))
        return self.dense


def _formed(entry):
    return entry.form() if type(entry) is _Sum else entry


def _accumulate(store: dict, key, shape: tuple, part) -> None:
    # Dense partials stay plain arrays; a tensor's entry becomes a _Sum only
    # once a factored partial arrives for it, or as the _Sum a vjp returns.
    entry = store.get(key)
    if entry is None and type(part) is _Sum:
        store[key] = part
        return
    if type(part) is not _Factors:
        part = _formed(part)
        if type(entry) is _Sum:
            entry.dense = _plus(entry.dense, part)
        else:
            store[key] = _plus(entry, part)
        return
    if type(entry) is not _Sum:
        entry = store[key] = _Sum(entry, shape)
    entry.factors.append(part)
    entry.nbytes += part.g.nbytes + (
        part.a if part.rows is None else part.rows).nbytes
    if entry.nbytes > 8 * math.prod(shape):
        entry.form()


_tape_stack: list["Tape"] = []


class Tape:
    """Execution record for one differentiable computation.

    Use as a context manager; operations run inside the ``with`` block are
    recorded.  ``backward`` may run again on scalars of this record, from a
    fresh accumulator, unless a vjp it reaches already freed what it reads.
    """

    __slots__ = ("_nodes", "_ref", "_keys", "__weakref__")

    def __init__(self):
        self._nodes: list[_Node] = []
        self._ref = weakref.ref(self)  # what the nodes hold
        self._keys = itertools.count()  # one key per output

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack.pop()
        if popped is not self:
            raise RuntimeError("tape stack corrupted: mismatched enter/exit")

    def __len__(self) -> int:
        return len(self._nodes)

    def backward(self, root: Tensor, leaves=None) -> dict[Tensor, np.ndarray]:
        """Return, for every contributing leaf, d(root)/d(leaf).

        ``root`` must be a scalar produced on this tape.  Leaves are tensors
        with ``requires_grad`` set that were not themselves produced here;
        given ``leaves``, only those get a gradient.  Leaves that do not
        influence ``root`` are absent from the result.

        Right-operand partials of ``matmul`` and partials of ``take_rows``
        are held as factors and formed by one GEMM and one scatter per
        tensor, when its vjp runs or, for a leaf, before this returns; a
        ``_Sum`` that a vjp returns is adopted, not copied.
        """
        if root.data.size != 1:
            raise ShapeError(
                f"backward: root must be a scalar, got shape {root.data.shape}"
            )
        if root.node is None or root.node.tape() is not self:
            raise ValueError("backward: root was not produced on this tape")

        wanted = None if leaves is None else set(leaves)
        pending: dict[int, np.ndarray | _Sum] = {root.key: np.ones_like(root.data)}
        grads: dict[Tensor, np.ndarray | _Sum] = {}
        for node in reversed(self._nodes):
            many = type(node.out) is tuple
            g = [_formed(pending.pop(key, None))
                 for key in (node.out if many else (node.out,))]
            if all(part is None for part in g):
                continue
            for src, part in zip(node.inputs,
                                 node.vjp(tuple(g) if many else g[0])):
                if part is None or src is None:
                    continue
                if type(src) is tuple:
                    _accumulate(pending, *src, part)
                elif wanted is None or src in wanted:
                    _accumulate(grads, src, src.shape, part)
        return {t: _formed(g) for t, g in grads.items()}


def _emit(opname: str, out_data, inputs: tuple, vjp):
    # Single construction point: finiteness contract + conditional recording.
    # A tuple of arrays gives one node with a tuple of outputs; its vjp then
    # gets one gradient per output, None for an output that received none.
    many = type(out_data) is tuple
    arrays = out_data if many else (out_data,)
    for a in arrays:
        if not np.isfinite(a).all():
            raise NumericError(f"{opname}: non-finite value in output")
    tape = _tape_stack[-1] if _tape_stack else None
    taped = tape is not None and any(t.requires_grad for t in inputs)
    outs = tuple(Tensor(a, requires_grad=taped) for a in arrays)
    if taped:
        keys = tuple(next(tape._keys) for _ in outs)
        held = tuple(None if not t.requires_grad
                     else (t.key, t.shape)
                     if t.node is not None and t.node.tape is tape._ref
                     else t for t in inputs)
        node = _Node(keys if many else keys[0], held, vjp, tape._ref)
        for out, key in zip(outs, keys):
            out.node, out.key = node, key
        tape._nodes.append(node)
    return outs if many else outs[0]


def _require(cond: bool, opname: str, detail: str) -> None:
    if not cond:
        raise ShapeError(f"{opname}: {detail}")


# ---------------------------------------------------------------------------
# Elementwise and broadcast-free arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, "add", f"shape mismatch {a.shape} vs {b.shape}")
    return _emit("add", a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, "sub", f"shape mismatch {a.shape} vs {b.shape}")
    return _emit("sub", a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _require(a.shape == b.shape, "mul", f"shape mismatch {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    return _emit("mul", ad * bd, (a, b), lambda g: (g * bd, g * ad))


def scale(x: Tensor, alpha: float) -> Tensor:
    alpha = float(alpha)
    return _emit("scale", x.data * alpha, (x,), lambda g: (g * alpha,))


def add_const(x: Tensor, c: float) -> Tensor:
    return _emit("add_const", x.data + float(c), (x,), lambda g: (g,))


def add_broadcast(x: Tensor, s: Tensor) -> Tensor:
    """Add a single-element tensor to every entry of ``x``."""
    _require(s.data.size == 1, "add_broadcast",
             f"second operand must have one element, got shape {s.shape}")
    s_shape = s.shape
    return _emit("add_broadcast", x.data + s.data.item(), (x, s),
                 lambda g: (g, np.asarray(g.sum()).reshape(s_shape)))


def add_row(m: Tensor, v: Tensor) -> Tensor:
    """Add a vector to every row of a matrix (the bias-broadcast pattern)."""
    _require(m.ndim == 2 and v.ndim == 1, "add_row",
             f"expected matrix and vector, got {m.shape} and {v.shape}")
    _require(m.shape[1] == v.shape[0], "add_row",
             f"row width {m.shape[1]} vs vector length {v.shape[0]}")
    return _emit("add_row", m.data + v.data[None, :], (m, v),
                 lambda g: (g, g.sum(axis=0)))


# ---------------------------------------------------------------------------
# Linear algebra and shape manipulation


def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim == 2 and bd.ndim == 2:
        _require(ad.shape[1] == bd.shape[0], "matmul",
                 f"inner dims differ: {ad.shape} @ {bd.shape}")
        return _emit("matmul", ad @ bd, (a, b),
                     lambda g: (g @ bd.T, _Factors(ad, None, g)))
    if ad.ndim == 2 and bd.ndim == 1:
        _require(ad.shape[1] == bd.shape[0], "matmul",
                 f"inner dims differ: {ad.shape} @ {bd.shape}")
        return _emit("matmul", ad @ bd, (a, b),
                     lambda g: (np.outer(g, bd), ad.T @ g))
    if ad.ndim == 1 and bd.ndim == 2:
        _require(ad.shape[0] == bd.shape[0], "matmul",
                 f"inner dims differ: {ad.shape} @ {bd.shape}")
        return _emit("matmul", ad @ bd, (a, b),
                     lambda g: (bd @ g, _Factors(ad[None], None, g[None])))
    raise ShapeError(f"matmul: unsupported ranks {ad.shape} @ {bd.shape}")


def transpose(x: Tensor) -> Tensor:
    _require(x.ndim == 2, "transpose", f"expected a matrix, got {x.shape}")
    return _emit("transpose", x.data.T, (x,), lambda g: (g.T,))


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    _require(int(np.prod(shape, dtype=np.int64)) == x.data.size, "reshape",
             f"cannot view {x.shape} as {shape}")
    old = x.shape
    return _emit("reshape", x.data.reshape(shape), (x,),
                 lambda g: (g.reshape(old),))


def concat(parts: list[Tensor], axis: int = 0) -> Tensor:
    _require(len(parts) > 0, "concat", "empty input list")
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]
    return _emit("concat", np.concatenate([p.data for p in parts], axis=axis),
                 tuple(parts), lambda g: np.split(g, splits, axis=axis))


def stack0(parts: list[Tensor]) -> Tensor:
    """Stack same-shaped tensors along a new leading axis."""
    _require(len(parts) > 0, "stack0", "empty input list")
    base = parts[0].shape
    for p in parts:
        _require(p.shape == base, "stack0",
                 f"shape mismatch {p.shape} vs {base}")
    # the gradient of part i is g[i], as iterating g yields it
    return _emit("stack0", np.stack([p.data for p in parts], axis=0),
                 tuple(parts), tuple)


def _placed(shape: tuple, index):
    """The vjp of reading ``x.data[index]``: g placed into zeros."""
    def vjp(g):
        out = np.zeros(shape, dtype=np.float64)
        out[index] = g
        return (out,)
    return vjp


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    _require(0 <= start and start + length <= x.shape[axis], "narrow",
             f"slice [{start}:{start + length}] out of bounds for axis {axis} "
             f"of {x.shape}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    return _emit("narrow", x.data[index].copy(), (x,),
                 _placed(x.shape, index))


def take_rows(x: Tensor, rows) -> Tensor:
    """Gather rows by index; duplicate indices accumulate in the gradient."""
    rows = np.asarray(rows, dtype=np.int64)
    _require(rows.ndim == 1, "take_rows", f"indices must be 1-d, got {rows.shape}")
    _require(x.ndim in (1, 2), "take_rows", f"expected 1-d or 2-d input, got {x.shape}")
    if rows.size and (rows.min() < 0 or rows.max() >= x.shape[0]):
        raise ShapeError(f"take_rows: index out of range for {x.shape[0]} rows")
    return _emit("take_rows", x.data[rows], (x,),
                 lambda g: (_Factors(None, rows, g),))


def pick_per_row(x: Tensor, cols) -> Tensor:
    """Select one entry per row of a matrix: ``out[i] = x[i, cols[i]]``."""
    cols = np.asarray(cols, dtype=np.int64)
    _require(x.ndim == 2, "pick_per_row", f"expected a matrix, got {x.shape}")
    _require(cols.shape == (x.shape[0],), "pick_per_row",
             f"need one column index per row, got {cols.shape} for {x.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= x.shape[1]):
        raise ShapeError(f"pick_per_row: column index out of range for {x.shape}")
    r = np.arange(x.shape[0])
    return _emit("pick_per_row", x.data[r, cols], (x,),
                 _placed(x.shape, (r, cols)))


def sum_all(x: Tensor) -> Tensor:
    shape = x.shape
    return _emit("sum_all", np.asarray(x.data.sum()), (x,),
                 lambda g: (np.broadcast_to(g, shape).copy(),))


def sum_axis(x: Tensor, axis: int) -> Tensor:
    shape = x.shape
    return _emit("sum_axis", x.data.sum(axis=axis), (x,), lambda g: (
        np.broadcast_to(np.expand_dims(g, axis), shape).copy(),))


# ---------------------------------------------------------------------------
# Nonlinearities


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Logistic function of a plain array, stable in both tails: exp of a
    non-positive argument only, and no branch per entry."""
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(x: Tensor) -> Tensor:
    out = sigmoid_array(x.data)
    return _emit("sigmoid", out, (x,), lambda g: (g * out * (1.0 - out),))


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)
    return _emit("tanh", out, (x,), lambda g: (g * (1.0 - out * out),))


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return _emit("relu", np.maximum(x.data, 0.0), (x,),
                 lambda g: (g * mask,))


def exp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = np.exp(x.data)
    return _emit("exp", out, (x,), lambda g: (g * out,))


def log(x: Tensor) -> Tensor:
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(xd)
    return _emit("log", out, (x,), lambda g: (g / xd,))


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x) without overflow: max(x, 0) + log1p(e^{-|x|}).
    xd = x.data
    out = np.maximum(xd, 0.0) + np.log1p(np.exp(-np.abs(xd)))
    sig = sigmoid_array(xd)
    return _emit("softplus", out, (x,), lambda g: (g * sig,))


# ---------------------------------------------------------------------------
# Normalizations and reductions in log space


def _check_axis(opname: str, x: Tensor, axis: int) -> None:
    _require(-x.ndim <= axis < x.ndim, opname,
             f"axis {axis} out of range for shape {x.shape}")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    _check_axis("softmax", x, axis)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _emit("softmax", out, (x,), vjp)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    _check_axis("log_softmax", x, axis)
    out = x.data - x.data.max(axis=axis, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=axis, keepdims=True))

    def vjp(g):
        # the softmax is formed again, so a tape keeps one array, not two
        grad = np.exp(out)
        grad *= g.sum(axis=axis, keepdims=True)
        return (np.subtract(g, grad, out=grad),)

    return _emit("log_softmax", out, (x,), vjp)


def logsumexp(x: Tensor, axis: int = 0) -> Tensor:
    """Reduce ``axis`` by log-sum-exp; the axis is dropped from the output."""
    _check_axis("logsumexp", x, axis)
    m = x.data.max(axis=axis, keepdims=True)
    out = np.log(np.exp(x.data - m).sum(axis=axis, keepdims=True)) + m
    weights = np.exp(x.data - out)
    out = np.squeeze(out, axis=axis)
    return _emit("logsumexp", out, (x,),
                 lambda g: (weights * np.expand_dims(g, axis),))


def layer_norm_array(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """(out, y, inv) of :func:`layer_norm` on plain arrays, where out =
    y * gain + bias; :func:`layer_norm_vjp` reads y and inv."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    y = (x - mu) * inv
    return y * gain + bias, y, inv


def layer_norm_vjp(g: np.ndarray, y: np.ndarray, inv: np.ndarray,
                   gain: np.ndarray):
    """(dx, dgain, dbias) of :func:`layer_norm_array`, given d out."""
    dy = g * gain
    dx = inv * (dy - dy.mean(axis=-1, keepdims=True)
                - y * (dy * y).mean(axis=-1, keepdims=True))
    axes = tuple(range(g.ndim - 1))
    return dx, (g * y).sum(axis=axes), g.sum(axis=axes)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then affine."""
    d = x.shape[-1]
    _require(gain.shape == (d,) and bias.shape == (d,), "layer_norm",
             f"gain/bias must have shape ({d},), got {gain.shape}/{bias.shape}")
    out, y, inv = layer_norm_array(x.data, gain.data, bias.data)
    return _emit("layer_norm", out, (x, gain, bias),
                 lambda g: layer_norm_vjp(g, y, inv, gain.data))


def dropout_pattern(shape, rate: float, rng: np.random.Generator | None):
    """Where inverted dropout keeps an entry, one byte each; None when
    ``rng`` is None or ``rate`` is zero."""
    if rng is None or rate <= 0.0:
        return None
    _require(rate < 1.0, "dropout", f"rate must be < 1, got {rate}")
    return rng.random(shape) < 1.0 - rate


def dropped(x: np.ndarray, pattern: np.ndarray | None, rate: float):
    """``x`` with the entries outside ``pattern`` zeroed and the rest scaled
    by 1 / (1 - rate); the scaled mask lives only while the product forms."""
    return x if pattern is None else x * (pattern / (1.0 - rate))


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when ``rng`` is None or ``rate`` is zero."""
    pattern = dropout_pattern(x.shape, rate, rng)
    if pattern is None:
        return x
    return _emit("dropout", dropped(x.data, pattern, rate), (x,),
                 lambda g: (dropped(g, pattern, rate),))


# ---------------------------------------------------------------------------
# Finite-difference validation


@dataclass
class GradCheckReport:
    """Outcome of comparing taped gradients against central differences."""

    passed: bool
    max_rel_err: float
    tolerance: float
    worst_param: str
    worst_index: tuple

    def __bool__(self) -> bool:
        return self.passed


def grad_check(f, params: list[Tensor], step: float = 1e-5,
               tolerance: float = 1e-4) -> GradCheckReport:
    """Compare the taped gradient of ``f()`` against central differences.

    ``f`` must be a deterministic zero-argument callable returning a scalar
    Tensor that depends on ``params``.  Relative error uses a denominator
    floored at 1e-3 so that near-zero gradients are compared absolutely.
    """
    with Tape() as tape:
        out = f()
    first = out.data.item()
    with Tape() as tape:
        out = f()
    if out.data.item() != first:
        raise NumericError("grad_check: f() is not deterministic across calls")
    analytic = tape.backward(out)

    worst = (0.0, "", ())
    for p in params:
        name = p.name or f"param{id(p)}"
        ga = analytic.get(p)
        if ga is None:
            ga = np.zeros_like(p.data)
        for idx in np.ndindex(*p.data.shape) if p.data.ndim else [()]:
            orig = p.data[idx]
            p.data[idx] = orig + step
            hi = f().data.item()
            p.data[idx] = orig - step
            lo = f().data.item()
            p.data[idx] = orig
            numeric = (hi - lo) / (2.0 * step)
            a = float(ga[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-3)
            if rel > worst[0]:
                worst = (rel, name, idx)
    return GradCheckReport(passed=worst[0] <= tolerance, max_rel_err=worst[0],
                           tolerance=tolerance, worst_param=worst[1],
                           worst_index=worst[2])
