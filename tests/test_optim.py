import tracemalloc

import numpy as np
import pytest

from urnng.autodiff import Tensor
from urnng.optim import SGD, Adam, global_norm


def params_and_grads():
    a = Tensor(np.zeros(3), requires_grad=True, name="a")
    b = Tensor(np.zeros((2, 2)), requires_grad=True, name="b")
    grads = {a: np.array([3.0, 0.0, 0.0]),
             b: np.array([[0.0, 4.0], [0.0, 0.0]])}
    return {"a": a, "b": b}, grads


class TestSGD:
    def test_plain_step(self):
        params, grads = params_and_grads()
        opt = SGD(params, lr=0.5, clip=100.0)
        norm = opt.step(grads)
        assert norm == pytest.approx(5.0)
        assert params["a"].data[0] == pytest.approx(-1.5)
        assert params["b"].data[0, 1] == pytest.approx(-2.0)

    def test_per_parameter_rate_override(self):
        params, grads = params_and_grads()
        opt = SGD(params, lr=1.0, clip=100.0, lr_overrides={"b": 0.1})
        opt.step(grads)
        assert params["a"].data[0] == pytest.approx(-3.0)
        assert params["b"].data[0, 1] == pytest.approx(-0.4)

    def test_clip_rescales_to_global_norm_budget(self):
        params, grads = params_and_grads()
        opt = SGD(params, lr=1.0, clip=1.0)
        norm = opt.step(grads)
        assert norm == pytest.approx(5.0)  # pre-clip norm is reported
        moved = np.sqrt(sum((p.data ** 2).sum() for p in params.values()))
        assert moved == pytest.approx(1.0)

    def test_decay_divides_every_rate(self):
        params, _ = params_and_grads()
        opt = SGD(params, lr=1.0, clip=5.0, lr_overrides={"b": 0.1})
        opt.decay(2.0)
        opt.decay(2.0)
        assert opt.lr == {"a": 0.25, "b": 0.025}

    def test_state_round_trip(self):
        params, _ = params_and_grads()
        opt = SGD(params, lr=1.0, clip=5.0)
        opt.decay(2.0)
        state = opt.state_arrays("opt.theta")
        fresh = SGD(params, lr=1.0, clip=5.0)
        fresh.load_state("opt.theta", state)
        assert fresh.lr == opt.lr

    def test_step_scales_gradients_in_place(self):
        # the update forms in the gradient it consumes, not in a temporary
        # the size of the parameter, and moves the parameter by the same
        # bits as p -= (lr * scale) * g
        r = np.random.default_rng(0)
        big = Tensor(r.standard_normal((400, 300)), requires_grad=True)
        small = Tensor(r.standard_normal(50), requires_grad=True)
        grads = {big: r.standard_normal(big.shape),
                 small: r.standard_normal(small.shape)}
        want = [p.data - (0.3 * (2.0 / global_norm(grads.values()))) * g
                for p, g in grads.items()]
        opt = SGD({"big": big, "small": small}, lr=0.3, clip=2.0)
        tracemalloc.start()
        try:
            opt.step(grads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.data.nbytes / 2, peak / big.data.nbytes
        for p, expected in zip(grads, want):
            np.testing.assert_array_equal(p.data, expected)

    def test_rejects_bad_rates(self):
        params, _ = params_and_grads()
        with pytest.raises(ValueError):
            SGD(params, lr=0.0, clip=5.0)
        with pytest.raises(ValueError):
            SGD(params, lr=1.0, clip=-1.0)


def copied(grads):
    # a step consumes the gradient arrays it is given
    return {p: g.copy() for p, g in grads.items()}


class TestAdam:
    def test_steps_in_place_with_the_bits_of_the_formula(self):
        # three clipped steps move the parameters and moments by the same
        # bits as the textbook expressions, and a step allocates at most
        # one scratch array the size of the parameter beside the gradient
        r = np.random.default_rng(1)
        big = Tensor(r.standard_normal((400, 300)), requires_grad=True)
        small = Tensor(r.standard_normal(50), requires_grad=True)
        opt = Adam({"big": big, "small": small}, lr=0.01, clip=2.0)
        want = {p: p.data.copy() for p in (big, small)}
        m = {p: np.zeros(p.shape) for p in want}
        v = {p: np.zeros(p.shape) for p in want}
        b1, b2 = opt.betas
        for t in range(1, 4):
            grads = {p: r.standard_normal(p.shape) for p in want}
            scale = 2.0 / global_norm(grads.values())
            for p, g in grads.items():
                g = scale * g
                m[p] = b1 * m[p] + (1.0 - b1) * g
                v[p] = b2 * v[p] + (1.0 - b2) * g * g
                want[p] = want[p] - 0.01 * (m[p] / (1.0 - b1 ** t)) / (
                    np.sqrt(v[p] / (1.0 - b2 ** t)) + opt.eps)
            tracemalloc.start()
            try:
                opt.step(grads)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * big.data.nbytes, peak / big.data.nbytes
            for name, p in (("big", big), ("small", small)):
                np.testing.assert_array_equal(p.data, want[p])
                np.testing.assert_array_equal(opt.m[name], m[p])
                np.testing.assert_array_equal(opt.v[name], v[p])

    def test_first_step_moves_by_lr_per_coordinate(self):
        # bias correction makes the first update lr * g / (|g| + eps)
        params, grads = params_and_grads()
        opt = Adam(params, lr=0.01, clip=100.0)
        opt.step(grads)
        assert params["a"].data[0] == pytest.approx(-0.01, rel=1e-6)
        assert params["a"].data[1] == 0.0
        assert params["b"].data[0, 1] == pytest.approx(-0.01, rel=1e-6)

    def test_moments_accumulate(self):
        params, grads = params_and_grads()
        opt = Adam(params, lr=0.01, clip=100.0, betas=(0.9, 0.999))
        opt.step(copied(grads))
        opt.step(copied(grads))
        assert opt.t == 2
        assert opt.m["a"][0] == pytest.approx(3.0 * (1 - 0.9 ** 2))
        assert opt.v["a"][0] == pytest.approx(9.0 * (1 - 0.999 ** 2))

    def test_clip_applies_before_moments(self):
        params, grads = params_and_grads()
        opt = Adam(params, lr=0.01, clip=1.0)
        opt.step(grads)
        assert opt.m["a"][0] == pytest.approx(0.1 * 3.0 / 5.0)

    def test_empty_step_is_a_noop(self):
        params, _ = params_and_grads()
        opt = Adam(params, lr=0.01, clip=1.0)
        assert opt.step({}) == 0.0
        assert opt.t == 0

    def test_state_round_trip_reproduces_updates(self):
        params, grads = params_and_grads()
        opt = Adam(params, lr=0.01, clip=100.0)
        opt.step(copied(grads))
        state = {k: v.copy() for k, v in opt.state_arrays("opt.phi").items()}
        before = {k: p.data.copy() for k, p in params.items()}

        opt.step(copied(grads))
        after_direct = {k: p.data.copy() for k, p in params.items()}

        for k, p in params.items():
            p.data = before[k].copy()
        fresh = Adam(params, lr=0.01, clip=100.0)
        fresh.load_state("opt.phi", state)
        fresh.step(copied(grads))
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, after_direct[k])


def test_global_norm():
    assert global_norm([np.array([3.0]), np.array([4.0])]) == pytest.approx(5.0)
    assert global_norm([]) == 0.0
