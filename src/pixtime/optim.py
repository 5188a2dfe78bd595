"""Adam optimizer and the finite-difference gradient checker."""

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .autodiff import Parameter, backward, no_grad
from .errors import DeterminismError

# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# grad_check's central-difference step
FD_STEP = 1e-5


class Adam:
    """Adam with bias correction over a value array and its gradient array.

    Both arrays are updated in place; a model passes its flat `values`
    and `grads` vectors, so one step covers every parameter.
    """

    def __init__(self, values: np.ndarray, grads: np.ndarray, lr: float):
        self.values, self.grads, self.lr = values, grads, lr
        self.t, self.m, self.v = 0, None, None
        self._update = self._denom = None

    def zero_grad(self) -> None:
        self.grads[...] = 0.0

    def step(self) -> None:
        if self.t == 0:
            # zeroed here, not at construction, so building a model
            # allocates no moments; the two scratch vectors hold every
            # intermediate, so a step allocates nothing
            self.m, self.v = np.zeros_like(self.values), np.zeros_like(self.values)
            self._update, self._denom = np.empty_like(self.values), np.empty_like(self.values)
        self.t += 1
        m, v, g = self.m, self.v, self.grads
        update, denom = self._update, self._denom
        # both bias corrections folded into two scalars:
        # lr * m_hat / (sqrt(v_hat) + EPS) = step * m / (sqrt(v) + eps_t)
        root_bc2 = np.sqrt(1.0 - BETA2 ** self.t)
        step = self.lr * root_bc2 / (1.0 - BETA1 ** self.t)
        eps_t = EPS * root_bc2
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=update)
        v *= BETA2
        np.multiply(g, g, out=update)
        v += np.multiply(1.0 - BETA2, update, out=update)
        np.sqrt(v, out=denom)
        denom += eps_t
        np.multiply(m, step, out=update)
        update /= denom
        self.values -= update


@dataclass
class GradCheckReport:
    """Worst-case relative error between tape and finite-difference grads."""

    max_rel_error: float
    worst_param: str

    def __str__(self):
        return (
            f"grad check: max relative error {self.max_rel_error:.3e} "
            f"(parameter {self.worst_param})"
        )


def grad_check(f: Callable[[], object], params: Mapping[str, Parameter]) -> GradCheckReport:
    """Compare tape gradients of a scalar function against central differences of step FD_STEP.

    `f` must be deterministic and close over `params`; it is evaluated
    twice up front and a bitwise mismatch raises DeterminismError. The
    relative error per coordinate is |g_ad - g_fd| / max(|g_ad|, |g_fd|, 1e-8).
    """
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

    max_err, worst = 0.0, ""
    for name, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros_like(flat)
        with no_grad():
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + FD_STEP
                up = f().item()
                flat[i] = original - FD_STEP
                down = f().item()
                flat[i] = original
                fd[i] = (up - down) / (2.0 * FD_STEP)
        g_ad = analytic[name].reshape(-1)
        denom = np.maximum(np.maximum(np.abs(g_ad), np.abs(fd)), 1e-8)
        rel = np.abs(g_ad - fd) / denom
        err = float(rel.max()) if rel.size else 0.0
        if err >= max_err:
            max_err, worst = err, name
    return GradCheckReport(max_rel_error=max_err, worst_param=worst)
