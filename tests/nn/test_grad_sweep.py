"""Seeded property-based finite-difference sweep over every registered op.

This is the CI grad-check gate: for each op in the VJP registry a family of
random-shape cases (seeded, so failures reproduce) is checked against central
finite differences; a coverage assertion fails the suite if an op is ever
registered without a sweep case.  The layer section runs the promoted
:func:`repro.nn.grad_check.assert_module_gradients` harness over the three
built-in architectures (MLP, residual, conv2d).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.grad_check import assert_module_gradients, check_gradients, grad_check_module
from repro.nn.tensor import Tensor, concatenate, stack, vjp_names


def _shapes(seed, n=3, max_ndim=3, max_side=5):
    """Deterministic random shapes for one op family."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ndim = int(rng.integers(1, max_ndim + 1))
        out.append(tuple(int(rng.integers(1, max_side + 1)) for _ in range(ndim)))
    return out


def _data(shape, seed, positive=False):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    if positive:
        arr = np.abs(arr) + 0.5
    return arr


# One finite-difference case family per registered op.  The coverage test
# below fails if an op is registered without an entry here, so extending the
# engine forces extending the sweep.
OP_CASES = {
    "add": lambda x: (x + Tensor(_data(x.shape, 1))).sum(),
    "sub": lambda x: (x - Tensor(_data(x.shape, 2))).sum(),
    "mul": lambda x: (x * Tensor(_data(x.shape, 3))).sum(),
    "div": lambda x: (x / Tensor(_data(x.shape, 4, positive=True))).sum(),
    "neg": lambda x: (-x).sum(),
    "pow": lambda x: ((x * x + 1.0) ** 1.5).sum(),
    "matmul": lambda x: (x @ Tensor(_data((x.shape[-1], 3), 5))).sum(),
    "relu": lambda x: (x + 10.0).relu().sum(),  # shifted off the kink
    "exp": lambda x: x.exp().sum(),
    "log": lambda x: (x * x + 1.0).log().sum(),
    "tanh": lambda x: x.tanh().sum(),
    "sigmoid": lambda x: x.sigmoid().sum(),
    "abs": lambda x: (x + 10.0).abs().sum(),  # shifted off the kink
    "sqrt": lambda x: (x * x + 1.0).sqrt().sum(),
    "reshape": lambda x: (x.reshape(-1) * Tensor(_data((x.size,), 6))).sum(),
    "transpose": lambda x: (x.transpose() * Tensor(_data(x.shape[::-1], 7))).sum(),
    "getitem": lambda x: (x[0] * 2.0).sum(),
    "sum": lambda x: (x.sum(axis=0) * Tensor(_data(x.shape[1:], 8))).sum(),
    "mean": lambda x: (x.mean(axis=0, keepdims=True) * 3.0).sum(),
    "max": lambda x: x.max(),
    "stack": lambda x: stack([x * 2.0, x * 3.0], axis=0).sum(),
    "concatenate": lambda x: (concatenate([x, x * 2.0], axis=0)).sum(),
    "linear": lambda x: F.linear(
        x, Tensor(_data((4, x.shape[-1]), 9)), Tensor(_data((4,), 10))
    ).sum(),
    "conv2d": None,  # 4-D input; swept separately below
    "per_sample_mse": lambda x: (
        F.per_sample_mse(x, Tensor(_data(x.shape, 11))) * Tensor(_data(x.shape[:1], 12))
    ).sum(),
}

_MATRIX_ONLY = {"matmul", "linear", "transpose"}  # need ndim == 2
_MULTI_AXIS = {"sum", "mean", "getitem", "per_sample_mse"}  # need ndim >= 2


def test_every_registered_op_is_swept():
    missing = sorted(set(vjp_names()) - set(OP_CASES))
    assert not missing, f"ops registered without a grad-sweep case: {missing}"


@pytest.mark.parametrize("op", sorted(op for op, fn in OP_CASES.items() if fn is not None))
def test_op_gradients_match_finite_differences(op):
    fn = OP_CASES[op]
    op_seed = sum(ord(c) * 31**i for i, c in enumerate(op)) % (2**32)  # stable across runs
    for case_index, shape in enumerate(_shapes(seed=op_seed, n=3)):
        if op in _MATRIX_ONLY or op in _MULTI_AXIS:
            shape = (shape + (3, 4))[:2] if len(shape) < 2 else shape[:2]
        x = _data(shape, seed=1000 + case_index)
        assert check_gradients(fn, x, rtol=1e-4, atol=1e-6), (
            f"op {op!r} failed finite-difference check on shape {shape} "
            f"(case {case_index})"
        )


@pytest.mark.parametrize("padding", [0, 1, "same"])
def test_conv2d_gradients_match_finite_differences(padding):
    rng = np.random.default_rng(77)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
    b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)

    def fn(x):
        return F.conv2d(x, w, b, padding=padding).sum()

    x = rng.standard_normal((2, 2, 5, 5))
    assert check_gradients(fn, x, rtol=1e-4, atol=1e-6)


def test_conv2d_weight_and_bias_gradients():
    layer = nn.Conv2d(2, 3, 3, padding="same", rng=np.random.default_rng(8))
    inputs = np.random.default_rng(9).standard_normal((2, 2, 4, 4))

    class Wrap(nn.Module):
        def __init__(self):
            super().__init__()
            self.add_module("conv", layer)

        def forward(self, x):
            return self.conv(x)

    report = grad_check_module(
        Wrap(),
        inputs,
        np.zeros((2, 3, 4, 4)),
        lambda p, t: F.mse_loss(p, t),
    )
    assert report.ok, report.describe()
    assert {e.name for e in report.entries} == {"conv.weight", "conv.bias"}


# ---------------------------------------------------------------------------
# Architecture sweep: every built-in surrogate body passes the FD harness.
# ---------------------------------------------------------------------------


def _architecture_module(name, seed):
    from repro.surrogate.model import SurrogateConfig, build_surrogate

    config = SurrogateConfig(
        input_dim=5,
        output_dim=16,  # 4x4 grid for conv2d
        hidden_size=4,
        n_hidden_layers=2,
        architecture=name,
    )
    return build_surrogate(config, rng=np.random.default_rng(seed))


@pytest.mark.parametrize("architecture", ["mlp", "residual", "conv2d"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_architecture_gradients_match_finite_differences(architecture, seed):
    module = _architecture_module(architecture, seed)
    rng = np.random.default_rng(200 + seed)
    inputs = rng.standard_normal((3, 5))
    targets = rng.standard_normal((3, 16))
    report = assert_module_gradients(
        module, inputs, targets, lambda p, t: F.mse_loss(p, t),
        rtol=1e-3, atol=1e-5,
    )
    assert report.ok
    assert len(report.entries) == len(list(module.named_parameters()))


def test_report_names_failing_parameter():
    """Failures are reported by parameter name, not as a bare boolean."""
    from repro.nn.grad_check import GradCheckEntry, GradCheckReport

    module = _architecture_module("mlp", seed=3)
    rng = np.random.default_rng(300)
    report = grad_check_module(
        module,
        rng.standard_normal((3, 5)),
        rng.standard_normal((3, 16)),
        lambda p, t: F.mse_loss(p, t),
    )
    assert report.ok and report.failures == []

    bad = GradCheckReport(
        entries=[
            GradCheckEntry("layer0.weight", 1.0, 0.5, passed=False),
            GradCheckEntry("layer0.bias", 0.0, 0.0, passed=True),
        ]
    )
    assert not bad.ok
    assert bad.failures == ["layer0.weight"]
    assert "FAILED parameters: ['layer0.weight']" in bad.describe()


def test_assert_module_gradients_raises_with_names():
    from repro.nn.grad_check import GradCheckEntry, GradCheckReport

    module = _architecture_module("mlp", seed=4)
    rng = np.random.default_rng(400)
    report = assert_module_gradients(
        module,
        rng.standard_normal((2, 5)),
        rng.standard_normal((2, 16)),
        lambda p, t: F.mse_loss(p, t),
    )
    assert isinstance(report, GradCheckReport)
    assert all(isinstance(e, GradCheckEntry) for e in report.entries)
