"""Gradient ascent plumbing: SGD and Adam over named parameter groups.

Each optimizer owns a name -> Tensor map and consumes the Tensor-keyed
gradient dicts of ``Tape.backward``: a step forms its updates in place in
the gradients it is given.  Clipping rescales the whole group to a
global-norm budget before the update, and ``step`` returns the pre-clip
norm for diagnostics.  State accessors expose everything needed to
reproduce subsequent steps bit-for-bit after a checkpoint round trip.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


def global_norm(arrays) -> float:
    return float(np.sqrt(sum(float(np.vdot(a, a)) for a in arrays)))


class SGD:
    """Plain SGD with a global-norm clip and optional per-parameter rates."""

    def __init__(self, params: dict[str, Tensor], lr: float, clip: float,
                 lr_overrides: dict[str, float] | None = None):
        if lr <= 0 or clip <= 0:
            raise ValueError("learning rate and clip must be positive")
        self.params = dict(params)
        overrides = lr_overrides or {}
        self.lr = {name: float(overrides.get(name, lr))
                   for name in self.params}
        self.clip = float(clip)

    def step(self, grads: dict[Tensor, np.ndarray]) -> float:
        picked = [(name, p, grads[p]) for name, p in self.params.items()
                  if p in grads]
        norm = global_norm([g for _, _, g in picked])
        scale = self.clip / norm if norm > self.clip else 1.0
        for name, p, g in picked:
            g *= self.lr[name] * scale
            p.data -= g
        return norm

    def decay(self, factor: float) -> None:
        self.lr = {name: lr / factor for name, lr in self.lr.items()}

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        return {f"{prefix}.lr.{name}": np.array(lr)
                for name, lr in self.lr.items()}

    def load_state(self, prefix: str, arrays: dict[str, np.ndarray]) -> None:
        for name in self.lr:
            self.lr[name] = float(arrays[f"{prefix}.lr.{name}"])


class Adam:
    """Adam with bias correction and a global-norm clip."""

    def __init__(self, params: dict[str, Tensor], lr: float, clip: float,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        if lr <= 0 or clip <= 0:
            raise ValueError("learning rate and clip must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must lie in [0, 1): {betas}")
        self.params = dict(params)
        self.lr = float(lr)
        self.clip = float(clip)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.t = 0
        self.m = {name: np.zeros_like(p.data)
                  for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data)
                  for name, p in self.params.items()}

    def step(self, grads: dict[Tensor, np.ndarray]) -> float:
        picked = [(name, p, grads[p]) for name, p in self.params.items()
                  if p in grads]
        if not picked:
            return 0.0
        norm = global_norm([g for _, _, g in picked])
        scale = self.clip / norm if norm > self.clip else 1.0
        b1, b2 = self.betas
        self.t += 1
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for name, p, g in picked:
            # in place, in the order of m = b1 m + (1 - b1) g, v = b2 v +
            # (1 - b2) g g and p -= lr (m / c1) / (sqrt(v / c2) + eps)
            m, v = self.m[name], self.v[name]
            g *= scale
            m *= b1
            m += (scratch := g * (1.0 - b1))
            v *= b2
            np.multiply(np.multiply(g, 1.0 - b2, out=scratch), g, out=scratch)
            v += scratch
            np.sqrt(np.divide(v, correct2, out=scratch), out=scratch)
            scratch += self.eps
            np.multiply(np.divide(m, correct1, out=g), self.lr, out=g)
            p.data -= np.divide(g, scratch, out=g)
        return norm

    def state_arrays(self, prefix: str) -> dict[str, np.ndarray]:
        out = {f"{prefix}.t": np.array(float(self.t)),
               f"{prefix}.lr": np.array(self.lr)}
        for name in self.params:
            out[f"{prefix}.m.{name}"] = self.m[name]
            out[f"{prefix}.v.{name}"] = self.v[name]
        return out

    def load_state(self, prefix: str, arrays: dict[str, np.ndarray]) -> None:
        self.t = int(arrays[f"{prefix}.t"])
        self.lr = float(arrays[f"{prefix}.lr"])
        for name in self.params:
            self.m[name] = np.array(arrays[f"{prefix}.m.{name}"],
                                    dtype=np.float64)
            self.v[name] = np.array(arrays[f"{prefix}.v.{name}"],
                                    dtype=np.float64)
