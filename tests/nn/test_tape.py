"""Tests for the recorded op graph: Tape, Node, VJP registry, edge cases."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import (
    Node,
    Tape,
    Tensor,
    needs_grad,
    no_grad,
    register_vjp,
    vjp_names,
    VJPS,
)


class TestTapeRecording:
    def test_records_ops_in_execution_order(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            ((a * b) + a).sum()
        assert tape.ops() == ["mul", "add", "sum"]
        assert len(tape) == 3

    def test_counts_per_op(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            (x.relu() + x.relu()).mean()
        assert tape.counts() == {"relu": 2, "add": 1, "mean": 1}

    def test_linear_records_single_fused_node(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.ones((5, 4)))
        with Tape() as tape:
            layer(x)
        assert tape.ops() == ["linear"]

    @pytest.mark.parametrize("shape", [(5, 4), (5,)])
    def test_per_sample_mse_records_single_fused_node(self, shape):
        p = Tensor(np.ones(shape), requires_grad=True)
        with Tape() as tape:
            F.per_sample_mse(p, Tensor(np.zeros(shape)))
        assert tape.ops() == ["per_sample_mse"]

    def test_mlp_forward_backward_op_count_is_layer_count(self):
        model = nn.Sequential(
            nn.Linear(6, 8, rng=np.random.default_rng(0)),
            nn.ReLU(),
            nn.Linear(8, 4, rng=np.random.default_rng(1)),
        )
        x = Tensor(np.ones((2, 6)))
        with Tape() as tape:
            loss = F.mse_loss(model(x), Tensor(np.zeros((2, 4))))
            loss.backward()
        # Forward only is recorded; backward derives from the graph.
        assert tape.counts()["linear"] == 2

    def test_nesting_inner_tape_records(self):
        a = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            _ = a * 2.0
            with Tape() as inner:
                _ = a + 1.0
            _ = a - 1.0
        assert inner.ops() == ["add"]
        assert outer.ops() == ["mul", "sub"]

    def test_no_grad_suppresses_recording(self):
        a = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            with no_grad():
                out = a * 2.0
        assert len(tape) == 0
        assert out.grad_fn is None

    def test_ops_without_grad_parents_not_recorded(self):
        a = Tensor([1.0])  # no requires_grad
        with Tape() as tape:
            _ = a * 2.0
        assert len(tape) == 0

    def test_tape_exit_restores_previous(self):
        a = Tensor([1.0], requires_grad=True)
        with Tape() as outer:
            with Tape():
                pass
            _ = a.relu()
        assert outer.ops() == ["relu"]


class TestVjpRegistry:
    def test_every_recorded_op_has_a_vjp(self):
        # Build a graph touching a broad op set and check each node resolves.
        a = Tensor(np.linspace(0.1, 1.0, 6).reshape(2, 3), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            out = ((a * b + a - b) / b).relu().exp().log().tanh().sigmoid()
            out = out.abs().sqrt() ** 2.0
            out = (-out).reshape(3, 2).transpose()[0]
            out.sum() + a.mean() + a.max()
        for node in tape.nodes:
            assert node.op in VJPS

    def test_register_vjp_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_vjp("add", lambda node, grad: (grad, grad))

    def test_register_vjp_overwrite_roundtrip(self):
        original = VJPS["neg"]
        try:
            register_vjp("neg", lambda node, grad: (-grad,), overwrite=True)
            assert VJPS["neg"] is not original
        finally:
            register_vjp("neg", original, overwrite=True)

    def test_unregistered_op_raises_named_error(self):
        node = Node("definitely-not-an-op", (Tensor([1.0]),))
        with pytest.raises(KeyError, match="definitely-not-an-op"):
            node.vjp(np.ones(1))

    def test_vjp_names_sorted_and_complete(self):
        names = vjp_names()
        assert names == sorted(names)
        for expected in ("add", "linear", "conv2d", "matmul", "mean", "stack"):
            assert expected in names


class TestDeadInputSkipping:
    def test_linear_skips_input_gradient_for_plain_leaf(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.ones((5, 4)))  # leaf, no requires_grad
        out = layer(x)
        node = out.grad_fn
        assert node.op == "linear"
        contributions = node.vjp(np.ones(out.shape))
        assert contributions[0] is None        # dead input skipped
        assert contributions[1] is not None    # weight gradient present
        assert contributions[2] is not None    # bias gradient present

    def test_linear_computes_input_gradient_when_needed(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.ones((5, 4)), requires_grad=True)
        out = layer(x)
        contributions = out.grad_fn.vjp(np.ones(out.shape))
        assert contributions[0] is not None
        out.backward(np.ones(out.shape))
        assert x.grad is not None
        assert x.grad.shape == x.shape

    def test_conv2d_skips_input_gradient_for_plain_leaf(self):
        layer = nn.Conv2d(2, 3, 3, padding="same", rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 2, 5, 5)))
        out = layer(x)
        contributions = out.grad_fn.vjp(np.ones(out.shape))
        assert contributions[0] is None
        assert contributions[1].shape == layer.weight.shape
        assert contributions[2].shape == layer.bias.shape

    def test_first_layer_input_never_accumulates(self):
        model = nn.Sequential(nn.Linear(4, 3, rng=np.random.default_rng(0)), nn.ReLU())
        x = Tensor(np.ones((5, 4)))
        loss = F.mse_loss(model(x), Tensor(np.zeros((5, 3))))
        loss.backward()
        assert x.grad is None


class TestNdimFallback:
    def test_linear_ndim3_falls_back_to_composed_ops(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 5, 4)), requires_grad=True)
        with Tape() as tape:
            out = layer(x)
        assert out.shape == (2, 5, 3)
        assert "linear" not in tape.ops()
        assert "matmul" in tape.ops()

    def test_linear_ndim3_forward_matches_flattened_2d(self):
        rng = np.random.default_rng(3)
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        data = rng.standard_normal((2, 5, 4))

        out3 = layer(Tensor(data))
        out2 = layer(Tensor(data.reshape(10, 4)))
        np.testing.assert_array_equal(out3.data.reshape(10, 3), out2.data)


class TestBroadcastingVjps:
    def test_add_broadcast_bias_gradient_sums_batch(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((5, 3)))
        (x + bias).sum().backward()
        np.testing.assert_array_equal(bias.grad, np.full(3, 5.0))

    def test_mul_broadcast_scalar(self):
        s = Tensor(2.0, requires_grad=True)
        x = Tensor(np.arange(6.0).reshape(2, 3))
        (x * s).sum().backward()
        assert s.grad.shape == ()
        assert s.grad == pytest.approx(np.arange(6.0).sum())

    def test_div_broadcast_keepdim_axis(self):
        d = Tensor(np.array([[2.0], [4.0]]), requires_grad=True)
        x = Tensor(np.ones((2, 3)))
        (x / d).sum().backward()
        np.testing.assert_allclose(d.grad, np.array([[-3.0 / 4.0], [-3.0 / 16.0]]))

    def test_sub_broadcast_gradient_shapes(self):
        a = Tensor(np.ones((4, 1, 3)), requires_grad=True)
        b = Tensor(np.ones((5, 3)), requires_grad=True)
        (a - b).sum().backward()
        assert a.grad.shape == (4, 1, 3)
        assert b.grad.shape == (5, 3)
        np.testing.assert_array_equal(a.grad, np.full((4, 1, 3), 5.0))
        np.testing.assert_array_equal(b.grad, np.full((5, 3), -4.0))


class TestSharedParameterAccumulation:
    def test_parameter_used_twice_accumulates_both_paths(self):
        w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        # y = sum(w * 3) + sum(w * 5) → dy/dw = 8 per element
        ((w * 3.0).sum() + (w * 5.0).sum()).backward()
        np.testing.assert_array_equal(w.grad, np.full(2, 8.0))

    def test_residual_identity_plus_inner_path(self):
        x = Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        block = nn.Residual(nn.Identity())
        # y = x + x → dy/dx = 2
        block(x).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 2), 2.0))

    def test_weight_shared_between_two_layers(self):
        rng = np.random.default_rng(5)
        shared = nn.Linear(3, 3, bias=False, rng=rng)
        x = Tensor(rng.standard_normal((4, 3)))
        # Apply the same layer twice: grad must be the sum of both uses.
        out = shared(shared(x))
        out.sum().backward()
        grad_both = shared.weight.grad.copy()

        # Reference: accumulate the two single-use gradients manually.
        shared.zero_grad()
        h = shared(x)
        h2 = Tensor(h.data)  # cut the graph between the two uses
        shared(h2).sum().backward()
        grad_second = shared.weight.grad.copy()
        shared.zero_grad()
        shared(x).backward(np.ones((4, 3)) @ shared.weight.data)
        grad_first = shared.weight.grad.copy()

        np.testing.assert_allclose(grad_both, grad_first + grad_second)

    def test_repeated_backward_accumulates_into_leaves(self):
        w = Tensor(np.ones(3), requires_grad=True)
        loss = (w * 2.0).sum()
        loss.backward()
        loss.backward()
        np.testing.assert_array_equal(w.grad, np.full(3, 4.0))


class TestNeedsGrad:
    def test_leaf_without_requires_grad(self):
        assert not needs_grad(Tensor([1.0]))

    def test_leaf_with_requires_grad(self):
        assert needs_grad(Tensor([1.0], requires_grad=True))

    def test_op_output_needs_grad(self):
        a = Tensor([1.0], requires_grad=True)
        assert needs_grad(a * 2.0)
