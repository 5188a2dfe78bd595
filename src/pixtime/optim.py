"""Adam optimizer and the directional finite-difference gradient checker."""

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .autodiff import Parameter, backward, no_grad
from .errors import DeterminismError

# Adam's moment decay rates and denominator floor
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# grad_check's random directions per parameter, their seed, and its larger step
DIRECTIONS, DIRECTION_SEED, FD_STEP = 2, 0, 1e-4


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
    """Worst relative error between tape and finite-difference directional derivatives."""

    max_rel_error: float
    worst_param: str

    def __str__(self):
        return (
            f"grad check: max relative error {self.max_rel_error:.3e} "
            f"(parameter {self.worst_param})"
        )


def grad_check(f: Callable[[], object], params: Mapping[str, Parameter]) -> GradCheckReport:
    """Compare tape gradients of a scalar function with finite differences along directions.

    `f` must be deterministic and close over `params`; it is evaluated
    twice up front and a bitwise mismatch raises DeterminismError. Each
    parameter p is checked along DIRECTIONS Gaussian directions v, drawn
    from DIRECTION_SEED: g.v against fd = (4 c(h/2) - c(h)) / 3, the Richardson
    extrapolation of c(h) = (f(p + hv) - f(p - hv)) / 2h at h = FD_STEP, with
    relative error |g.v - fd| / max(|g.v|, |fd|, 1e-8). A direction moves
    every coordinate of p, at 4 * DIRECTIONS calls of `f` whatever p's size.
    """
    first, second = f().item(), f().item()
    if first != second:
        raise DeterminismError(f"function returned {first!r} then {second!r} on identical inputs")

    for p in params.values():
        p.zero_grad()
    loss = f()
    if loss.requires_grad:
        backward(loss)

    rng = np.random.default_rng(DIRECTION_SEED)
    max_err, worst = 0.0, ""
    with no_grad():
        for name, p in params.items():
            start, err = p.data.copy(), 0.0
            for _ in range(DIRECTIONS):
                v = rng.standard_normal(start.shape)
                slopes = []
                for h in (FD_STEP, FD_STEP / 2):
                    np.add(start, h * v, out=p.data)
                    up = f().item()
                    np.subtract(start, h * v, out=p.data)
                    slopes.append((up - f().item()) / (2.0 * h))
                p.data[...] = start
                g_v, fd = float(np.vdot(p.grad, v)), (4.0 * slopes[1] - slopes[0]) / 3.0
                err = max(err, abs(g_v - fd) / max(abs(g_v), abs(fd), 1e-8))
            if err >= max_err:
                max_err, worst = err, name
    return GradCheckReport(max_rel_error=max_err, worst_param=worst)
