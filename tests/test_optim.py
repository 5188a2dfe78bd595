"""Adam update rule and the finite-difference gradient checker."""

import numpy as np
import pytest

from pixtime import (
    Adam,
    ModelDims,
    NodeShapeConfig,
    Parameter,
    PiXTime,
    Tensor,
    backward,
    grad_check,
    matmul,
    mse,
)
from pixtime.errors import DeterminismError


def scripted_adam(values, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Independent Adam recurrence over a gradient sequence (scalar or array)."""
    theta = np.array(values, dtype=np.float64)
    m = v = 0.0
    trace = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta -= lr * m_hat / (np.sqrt(v_hat) + eps)
        trace.append(theta.copy())
    return trace


def test_first_step_approximates_signed_lr():
    lr = 1e-2
    p = Parameter("p", np.array([1.0, -2.0]))
    p.grad[...] = np.array([0.5, -3.0])
    opt = Adam(p.data, p.grad, lr=lr)
    opt.step()
    expected = np.array([1.0, -2.0]) - lr * np.sign([0.5, -3.0])
    assert np.max(np.abs(p.data - expected)) < lr * 1e-6


def test_zero_gradient_leaves_parameter_unchanged():
    p = Parameter("p", np.array([1.5]))
    opt = Adam(p.data, p.grad, lr=1e-2)
    for _ in range(10):
        opt.step()
    assert p.data.tolist() == [1.5]


def test_five_step_sequence_matches_scripted_recurrence():
    lr = 1e-2
    grads = [0.3, -1.2, 0.05, 2.0, -0.7]
    p = Parameter("p", np.array([0.4]))
    opt = Adam(p.data, p.grad, lr=lr)
    observed = []
    for g in grads:
        p.grad[...] = g
        opt.step()
        observed.append(float(p.data[0]))
    expected = scripted_adam(0.4, grads, lr)
    assert np.max(np.abs(np.array(observed) - np.array(expected))) < 1e-12


def test_model_adam_matches_scripted_recurrence_per_parameter():
    # one step over the model's flat vectors updates every parameter as
    # its own Adam would
    dims = ModelDims(D=8, L=1, H=2, d_ff=16, n_all=4)
    cfg = NodeShapeConfig(node_id=0, T=8, S=4, PL=4, var_ids=[1, 2], target_id=0)
    model = PiXTime(dims, cfg, seed=5)
    lr = 1e-2
    rng = np.random.default_rng(5)
    start = {name: p.data.copy() for name, p in model.params.items()}
    grads = {name: [rng.standard_normal(p.shape) for _ in range(4)]
             for name, p in model.params.items()}
    opt = Adam(model.values, model.grads, lr=lr)
    for t in range(4):
        opt.zero_grad()
        for name, p in model.params.items():
            p.grad += grads[name][t]
        opt.step()
    assert opt.t == 4
    for name, p in model.params.items():
        expected = scripted_adam(start[name], grads[name], lr)[-1]
        assert np.max(np.abs(p.data - expected)) < 1e-12, name


def test_adam_state_moments_nonnegative_and_t_increments():
    p = Parameter("p", np.array([1.0]))
    opt = Adam(p.data, p.grad, lr=1e-3)
    for t in range(1, 6):
        p.grad[...] = np.random.default_rng(t).standard_normal(1)
        opt.step()
        assert opt.t == t
        assert np.all(opt.v >= 0)


def test_grad_check_quadratic():
    w = Parameter("w", np.array([[3.0]]))

    def f():
        return mse(matmul(w, Tensor([[1.0]])), Tensor([[0.0]]))

    # d/dw of w^2 at w=3 is 6
    report = grad_check(f, {"w": w})
    assert report.max_rel_error < 1e-8
    backward(f())


def test_grad_check_constant_function():
    w = Parameter("w", np.array([[3.0]]))

    def f():
        return mse(Tensor([[1.0]]), Tensor([[1.0]]))

    # no dependence on w: both gradients vanish
    report = grad_check(f, {"w": w})
    assert report.max_rel_error == 0.0


def test_grad_check_rejects_nondeterministic_function():
    w = Parameter("w", np.array([[3.0]]))
    rng = np.random.default_rng(0)

    def f():
        return mse(matmul(w, Tensor([[1.0]])), Tensor([[rng.standard_normal()]]))

    with pytest.raises(DeterminismError):
        grad_check(f, {"w": w})
