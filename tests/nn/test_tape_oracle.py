"""Exact-equality oracle tests: tape gradients vs the hand-wired backward.

Before the tape refactor every op captured its backward as a closure with a
fixed numpy expression.  These tests freeze those expressions as *test-local
reference implementations* and assert the graph-derived gradients reproduce
them **bit-identically** (``np.array_equal``, no tolerance) on golden
weight/input sets.  Any reordering of the arithmetic inside a VJP — even a
mathematically equivalent one — fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor


def _golden(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# Reference implementations: the historical closure arithmetic, verbatim.
# ---------------------------------------------------------------------------


def ref_linear_backward(xd, w, grad):
    """Hand-wired fused linear backward (2-D batch case)."""
    grad_w = (xd.T @ grad).transpose()
    grad_x = grad @ w
    grad_b = grad.sum(axis=0)
    return grad_x, grad_w, grad_b


def ref_linear_backward_1d(xd, w, grad):
    """Hand-wired fused linear backward (single-sample case)."""
    grad_w = (xd[:, None] @ grad[None, :]).transpose()
    grad_x = (grad[None, :] @ w).reshape(xd.shape)
    grad_b = grad
    return grad_x, grad_w, grad_b


def _unbroadcast_ref(grad, shape):
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class TestFusedLinearOracle:
    def test_batch_gradients_bit_identical(self):
        xd = _golden((32, 6), seed=10)
        w = _golden((16, 6), seed=11)
        b = _golden((16,), seed=12)
        grad = _golden((32, 16), seed=13)

        x_t = Tensor(xd, requires_grad=True)
        w_t = Tensor(w, requires_grad=True)
        b_t = Tensor(b, requires_grad=True)
        out = F.linear(x_t, w_t, b_t)
        out.backward(grad)

        ref_x, ref_w, ref_b = ref_linear_backward(xd, w, grad)
        assert np.array_equal(x_t.grad, ref_x)
        assert np.array_equal(w_t.grad, ref_w)
        assert np.array_equal(b_t.grad, ref_b)

    def test_single_sample_gradients_bit_identical(self):
        xd = _golden((6,), seed=20)
        w = _golden((4, 6), seed=21)
        b = _golden((4,), seed=22)
        grad = _golden((4,), seed=23)

        x_t = Tensor(xd, requires_grad=True)
        w_t = Tensor(w, requires_grad=True)
        b_t = Tensor(b, requires_grad=True)
        F.linear(x_t, w_t, b_t).backward(grad)

        ref_x, ref_w, ref_b = ref_linear_backward_1d(xd, w, grad)
        assert np.array_equal(x_t.grad, ref_x)
        assert np.array_equal(w_t.grad, ref_w)
        assert np.array_equal(b_t.grad, ref_b)

    def test_no_bias_variant(self):
        xd = _golden((8, 5), seed=30)
        w = _golden((3, 5), seed=31)
        grad = _golden((8, 3), seed=32)
        w_t = Tensor(w, requires_grad=True)
        F.linear(Tensor(xd), w_t).backward(grad)
        assert np.array_equal(w_t.grad, (xd.T @ grad).transpose())


class TestPrimitiveOracles:
    """Each case replays one historical closure formula bit-exactly."""

    def test_mul_broadcast(self):
        a = _golden((7, 1, 4), seed=40)
        b = _golden((3, 4), seed=41)
        grad = _golden((7, 3, 4), seed=42)
        a_t = Tensor(a, requires_grad=True)
        b_t = Tensor(b, requires_grad=True)
        (a_t * b_t).backward(grad)
        assert np.array_equal(a_t.grad, _unbroadcast_ref(grad * b, a.shape))
        assert np.array_equal(b_t.grad, _unbroadcast_ref(grad * a, b.shape))

    def test_div(self):
        a = _golden((5, 3), seed=43)
        b = np.abs(_golden((5, 3), seed=44)) + 0.5
        grad = _golden((5, 3), seed=45)
        a_t = Tensor(a, requires_grad=True)
        b_t = Tensor(b, requires_grad=True)
        (a_t / b_t).backward(grad)
        assert np.array_equal(a_t.grad, grad / b)
        assert np.array_equal(b_t.grad, -grad * a / (b * b))

    def test_relu_mask(self):
        a = _golden((6, 6), seed=46)
        grad = _golden((6, 6), seed=47)
        a_t = Tensor(a, requires_grad=True)
        a_t.relu().backward(grad)
        assert np.array_equal(a_t.grad, grad * (a > 0.0))

    def test_tanh_uses_forward_output(self):
        a = _golden((4, 4), seed=48)
        grad = _golden((4, 4), seed=49)
        a_t = Tensor(a, requires_grad=True)
        a_t.tanh().backward(grad)
        out = np.tanh(a)
        assert np.array_equal(a_t.grad, grad * (1.0 - out * out))

    def test_sigmoid_uses_forward_output(self):
        a = _golden((4, 4), seed=50)
        grad = _golden((4, 4), seed=51)
        a_t = Tensor(a, requires_grad=True)
        a_t.sigmoid().backward(grad)
        out = 1.0 / (1.0 + np.exp(-a))
        assert np.array_equal(a_t.grad, grad * out * (1.0 - out))

    def test_matmul_adjoints(self):
        a = _golden((5, 3), seed=52)
        b = _golden((3, 4), seed=53)
        grad = _golden((5, 4), seed=54)
        a_t = Tensor(a, requires_grad=True)
        b_t = Tensor(b, requires_grad=True)
        a_t.matmul(b_t).backward(grad)
        assert np.array_equal(a_t.grad, grad @ b.T)
        assert np.array_equal(b_t.grad, a.T @ grad)

    def test_mean_spreads_uniformly(self):
        a = _golden((3, 8), seed=55)
        a_t = Tensor(a, requires_grad=True)
        a_t.mean().backward()
        assert np.array_equal(a_t.grad, np.broadcast_to(np.float64(1.0) / a.size, a.shape))

    def test_per_sample_mse_chain(self):
        # per_sample_mse = ((p - t)^2).mean(axis=1): the Breed hot path.
        p = _golden((6, 10), seed=56)
        t = _golden((6, 10), seed=57)
        grad = _golden((6,), seed=58)
        p_t = Tensor(p, requires_grad=True)
        F.per_sample_mse(p_t, Tensor(t)).backward(grad)
        diff = p - t
        # closure chain: mean-VJP spreads grad/10, two mul-VJP contributions
        g = np.broadcast_to(np.expand_dims(grad / 10.0, axis=(1,)), p.shape).copy()
        ref = g * diff + g * diff
        assert np.array_equal(p_t.grad, ref)


def ref_per_sample_mse(prediction, target):
    """The composed per-sample MSE, frozen: ``sub → mul → mean`` primitive nodes."""
    diff = prediction - target
    squared = diff * diff
    return squared.mean(axis=tuple(range(1, squared.ndim)))


class TestFusedPerSampleMseOracle:
    """The fused ``per_sample_mse`` node against the composed chain, bit for bit."""

    def _pair(self, p, t):
        """Two independent (prediction, target) leaf pairs, both requiring grad."""
        return [(Tensor(p, requires_grad=True), Tensor(t, requires_grad=True)) for _ in range(2)]

    @pytest.mark.parametrize("shape", [(6, 10), (4, 3, 5), (128, 64)])
    def test_forward_and_gradients_match_composed_chain(self, shape):
        p, t = _golden(shape, seed=60), _golden(shape, seed=61)
        grad = _golden(shape[:1], seed=62)
        (p_f, t_f), (p_r, t_r) = self._pair(p, t)
        fused = F.per_sample_mse(p_f, t_f)
        ref = ref_per_sample_mse(p_r, t_r)
        assert np.array_equal(fused.data, ref.data)
        fused.backward(grad)
        ref.backward(grad)
        assert np.array_equal(p_f.grad, p_r.grad)
        assert np.array_equal(t_f.grad, t_r.grad)

    def test_broadcast_target_gradient_is_unbroadcast(self):
        p, t = _golden((5, 7), seed=63), _golden((7,), seed=64)
        (p_f, t_f), (p_r, t_r) = self._pair(p, t)
        F.per_sample_mse(p_f, t_f).mean().backward()
        ref_per_sample_mse(p_r, t_r).mean().backward()
        assert t_f.grad.shape == (7,)
        assert np.array_equal(p_f.grad, p_r.grad)
        assert np.array_equal(t_f.grad, t_r.grad)

    def test_constant_target_gets_no_gradient(self):
        p, t = _golden((4, 6), seed=65), _golden((4, 6), seed=66)
        p_t, t_t = Tensor(p, requires_grad=True), Tensor(t)
        F.per_sample_mse(p_t, t_t).mean().backward()
        assert t_t.grad is None
        assert p_t.grad is not None

    def test_single_sample_returns_squared_errors(self):
        """1-D inputs go through the fused node too: squared errors, same gradients."""
        p, t = _golden((9,), seed=67), _golden((9,), seed=68)
        grad = _golden((9,), seed=69)
        (p_f, t_f), (p_r, t_r) = self._pair(p, t)
        out = F.per_sample_mse(p_f, t_f)
        assert np.array_equal(out.data, (p - t) * (p - t))
        diff = p_r - t_r
        ref = diff * diff  # the composed chain as reference
        out.backward(grad)
        ref.backward(grad)
        assert np.array_equal(p_f.grad, p_r.grad)
        assert np.array_equal(t_f.grad, t_r.grad)

    @pytest.mark.parametrize("architecture", ["mlp", "residual", "conv2d"])
    @pytest.mark.parametrize("target_grad", [False, True])
    def test_adam_runs_bit_identical(self, architecture, target_grad):
        """Seeded multi-step Adam replays: losses, gradients and parameters equal."""
        from repro.surrogate.model import SurrogateConfig, build_surrogate

        config = SurrogateConfig(
            input_dim=6,
            output_dim=36,  # 6x6 grid for conv2d
            hidden_size=8,
            n_hidden_layers=2,
            architecture=architecture,
        )
        runs = []
        for loss_fn in (F.per_sample_mse, ref_per_sample_mse):
            model = build_surrogate(config, rng=np.random.default_rng(7))
            target = Tensor(_golden((12, 36), seed=70), requires_grad=target_grad)
            params = list(model.parameters()) + ([target] if target_grad else [])
            optimizer = nn.Adam(params, lr=1e-2)
            trace = []
            for step in range(6):
                model.zero_grad()
                target.zero_grad()
                x = Tensor(_golden((12, 6), seed=80 + step))
                per_sample = loss_fn(model(x), target)
                loss = per_sample.mean()
                loss.backward()
                trace.append(loss.data.copy())
                trace.append(per_sample.data.copy())
                trace.extend(p.grad.copy() for p in params)
                optimizer.step()
            trace.extend(p.data.copy() for p in params)
            runs.append(trace)
        fused, ref = runs
        assert len(fused) == len(ref)
        for got, want in zip(fused, ref):
            assert np.array_equal(got, want)


class TestMlpTrainingStepOracle:
    """Replay a full hand-wired MLP backward and compare every parameter."""

    def _model_and_batch(self):
        rng = np.random.default_rng(99)
        model = nn.Sequential(
            nn.Linear(6, 16, rng=rng),
            nn.ReLU(),
            nn.Linear(16, 16, rng=rng),
            nn.ReLU(),
            nn.Linear(16, 25, rng=rng),
        )
        x = _golden((32, 6), seed=100)
        y = _golden((32, 25), seed=101)
        return model, x, y

    def test_all_parameter_gradients_bit_identical(self):
        model, x, y = self._model_and_batch()
        loss = F.mse_loss(model(Tensor(x)), Tensor(y))
        loss.backward()

        # Hand-wired reference: forward pass saving activations, then the
        # historical per-layer backward formulas, in the same order numpy
        # would have evaluated them.
        linears = [model[0], model[2], model[4]]
        w = [lin.weight.data for lin in linears]
        b = [lin.bias.data for lin in linears]

        h0 = x @ w[0].T + b[0]
        a0 = h0 * (h0 > 0.0)
        h1 = a0 @ w[1].T + b[1]
        a1 = h1 * (h1 > 0.0)
        out = a1 @ w[2].T + b[2]

        diff = out - y
        # mse_loss: mean over all elements of diff*diff; backward chain:
        g = np.broadcast_to(np.float64(1.0) / diff.size, diff.shape).copy()
        g = g * diff + g * diff

        ref_w2, ref_b2 = (a1.T @ g).transpose(), g.sum(axis=0)
        g = g @ w[2]
        g = g * (h1 > 0.0)
        ref_w1, ref_b1 = (a0.T @ g).transpose(), g.sum(axis=0)
        g = g @ w[1]
        g = g * (h0 > 0.0)
        ref_w0, ref_b0 = (x.T @ g).transpose(), g.sum(axis=0)

        assert np.array_equal(linears[2].weight.grad, ref_w2)
        assert np.array_equal(linears[2].bias.grad, ref_b2)
        assert np.array_equal(linears[1].weight.grad, ref_w1)
        assert np.array_equal(linears[1].bias.grad, ref_b1)
        assert np.array_equal(linears[0].weight.grad, ref_w0)
        assert np.array_equal(linears[0].bias.grad, ref_b0)

    def test_adam_step_after_tape_backward_is_deterministic(self):
        # Two independent replays of the same seeded step must agree bitwise.
        states = []
        for _ in range(2):
            model, x, y = self._model_and_batch()
            optimizer = nn.Adam(model.parameters(), lr=1e-3)
            loss = F.mse_loss(model(Tensor(x)), Tensor(y))
            loss.backward()
            optimizer.step()
            states.append({k: v.data.copy() for k, v in model.named_parameters()})
        for key in states[0]:
            assert np.array_equal(states[0][key], states[1][key]), key
