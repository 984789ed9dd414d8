"""Adam with decoupled weight decay, the lr schedule, weight init, and
`train_epochs`, the one training loop (and policy) of both stages."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor
from .errors import NonFiniteError


@dataclass
class AdamState:
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState, lr: float,
              weight_decay: float = 0.0) -> None:
    """One in-place update of every parameter from its current .grad.

    Weight decay is decoupled: params shrink by lr*wd before the moment
    update, so decay never leaks into the moment estimates. Parameters with
    a missing gradient are an error; a zero gradient is fine (fixed point
    when wd = 0).
    """
    state.step_count += 1
    t = state.step_count
    b1, b2, eps = state.beta1, state.beta2, state.epsilon
    for name in params:
        p = params[name]
        if p.grad is None:
            raise ValueError(f"adam_step: parameter {name!r} has no gradient")
        g = p.grad
        if g.shape != p.data.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} does not "
                             f"match parameter {name!r} {p.data.shape}")
        if weight_decay:
            p.data *= 1.0 - lr * weight_decay
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = state.first_moment[name] = np.zeros_like(p.data)
            v = state.second_moment[name] = np.zeros_like(p.data)
        # In place, in the order of m = b1*m + (1-b1)*g,
        # v = b2*v + (1-b2)*g*g, p -= (lr*m_hat) / sqrt(v_hat + eps).
        step = np.multiply(g, 1.0 - b1, dtype=p.data.dtype)
        m *= b1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - b2
        v *= b2
        v += step
        np.divide(m, 1.0 - b1 ** t, out=step)
        step *= lr
        denom = np.divide(v, 1.0 - b2 ** t)
        denom += eps
        np.sqrt(denom, out=denom)
        step /= denom
        p.data -= step


def lr_decay(lr: float, epoch: int, rate: float) -> float:
    """Exponential per-epoch schedule: lr * rate**epoch."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"decay rate must be in (0, 1], got {rate}")
    return lr * rate ** epoch


def train_epochs(params: dict, state: AdamState, n: int, loss_of, step, *,
                 epochs: int, batch_size: int, learning_rate: float,
                 decay_rate: float, weight_decay: float, rng):
    """The training loop of both stages; yields (epoch, mean loss) per epoch.

    Per epoch: the decayed lr and one permutation of range(n) drawn from
    `rng`; per slice, `loss_of(indices)`, its backward, then `step` (the
    caller's `adam_step`). A non-finite value names epoch and iteration.
    """
    for epoch in range(1, epochs + 1):
        lr = lr_decay(learning_rate, epoch - 1, decay_rate)
        order = rng.permutation(n)
        total = 0.0
        for it, start in enumerate(range(0, n, batch_size)):
            chosen = order[start:start + batch_size]
            try:
                loss = loss_of(chosen)
                loss.backward()
            except NonFiniteError as e:
                raise NonFiniteError(
                    f"epoch {epoch} iteration {it}: {e}") from e
            step(params, state, lr, weight_decay)
            total += loss.item() * len(chosen)
            del loss      # build the next graph with this one released
        yield epoch, total / n


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   dtype=np.float32) -> Tensor:
    """Uniform(-a, a) weight with a = sqrt(6 / (fan_in + fan_out))."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    data = rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(dtype)
    return Tensor(data, requires_grad=True)


def zeros_param(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def ones_param(shape, dtype=np.float32) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)
