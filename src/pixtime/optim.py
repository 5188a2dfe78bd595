"""Adam optimizer and the finite-difference gradient checker."""

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .autodiff import Parameter, backward, no_grad
from .errors import ConfigError, DeterminismError


class Adam:
    """Adam with bias correction over a value array and its gradient array.

    Both arrays are updated in place; a model passes its flat `values`
    and `grads` vectors, so one step covers every parameter.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, lr: float = 1e-4,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.values, self.grads = values, grads
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, None, None

    def zero_grad(self) -> None:
        self.grads[...] = 0.0

    def step(self) -> None:
        if self.t == 0:
            # zeroed here, not at construction, so building a model
            # allocates no moments
            self.m, self.v = np.zeros_like(self.values), np.zeros_like(self.values)
        self.t += 1
        m, v, g = self.m, self.v, self.grads
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        update = m / (1.0 - self.beta1 ** self.t)
        update *= self.lr
        update /= np.sqrt(v / (1.0 - self.beta2 ** self.t)) + self.eps
        self.values -= update


@dataclass
class GradCheckReport:
    """Worst-case relative error between tape and finite-difference grads."""

    max_rel_error: float
    worst_param: str
    per_param: dict

    def __str__(self):
        return (
            f"grad check: max relative error {self.max_rel_error:.3e} "
            f"(parameter {self.worst_param})"
        )


def grad_check(
    f: Callable[[], object],
    params: Mapping[str, Parameter],
    h: float = 1e-5,
) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences.

    `f` must be deterministic and close over `params`; it is evaluated
    twice up front and a bitwise mismatch raises DeterminismError. The
    relative error per coordinate is |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).
    """
    if not (0.0 < h <= 1e-3):
        raise ConfigError(f"grad_check step h must lie in (0, 1e-3], got {h}")

    first = f().item()
    second = f().item()
    if first != second:
        raise DeterminismError(
            f"function returned {first!r} then {second!r} on identical inputs"
        )

    for p in params.values():
        p.zero_grad()
    loss = f()
    if loss.requires_grad:
        backward(loss)
    analytic = {name: p.grad.copy() for name, p in params.items()}

    per_param = {}
    max_err, worst = 0.0, ""
    for name, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                up = f().item()
                flat[i] = original - h
                down = f().item()
                flat[i] = original
                fd[i] = (up - down) / (2.0 * h)
        g_ad = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(fd)), 1e-8)
        rel = np.abs(g_ad - fd) / denom
        err = float(rel.max()) if rel.size else 0.0
        per_param[name] = err
        if err >= max_err:
            max_err, worst = err, name
    return GradCheckReport(max_rel_error=max_err, worst_param=worst, per_param=per_param)
