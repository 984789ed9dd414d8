"""Adam steps against hand-computed references; init distributions."""

import numpy as np
import pytest

from meshact import engine
from meshact.engine import Tensor
from meshact.errors import NonFiniteError
from meshact.optim import (AdamState, adam_step, glorot_uniform, lr_decay,
                           ones_param, train_epochs, zeros_param)


def _param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_first_step_reference_value():
    # unit gradient, lr 1e-3: bias correction makes the step lr/sqrt(1+eps)
    p = _param([[1.0]])
    p.grad = np.array([[1.0]])
    state = AdamState()
    adam_step({"w": p}, state, lr=1e-3, weight_decay=0.0)
    expected = 1.0 - 1e-3 / np.sqrt(1.0 + 1e-8)
    assert abs(p.data[0, 0] - expected) < 1e-15
    assert abs((1.0 - p.data[0, 0]) - 9.99999995e-4) < 1e-12
    assert state.step_count == 1


def test_two_steps_match_reference_loop():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 2))
    grads = [rng.standard_normal((3, 2)) for _ in range(2)]
    lr, wd, b1, b2, eps = 1e-2, 0.01, 0.9, 0.999, 1e-8

    ref = w.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(grads, start=1):
        ref *= 1.0 - lr * wd                     # decoupled decay first
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        ref -= lr * m_hat / np.sqrt(v_hat + eps)

    p = _param(w)
    state = AdamState()
    for g in grads:
        p.grad = g.copy()
        adam_step({"w": p}, state, lr=lr, weight_decay=wd)
    assert np.abs(p.data - ref).max() < 1e-14


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_steps_equal_the_out_of_place_formula_bit_for_bit(dtype):
    rng = np.random.default_rng(7)
    w = rng.standard_normal((5, 4)).astype(dtype)
    grads = [rng.standard_normal((5, 4)).astype(dtype) for _ in range(3)]
    lr, wd, b1, b2, eps = 3e-3, 0.02, 0.9, 0.999, 1e-8

    ref = w.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(grads, start=1):
        ref *= 1.0 - lr * wd
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        ref -= lr * m_hat / np.sqrt(v_hat + eps)

    p = Tensor(w.copy(), requires_grad=True)
    state = AdamState()
    for g in grads:
        p.grad = g.copy()
        adam_step({"w": p}, state, lr=lr, weight_decay=wd)
        assert np.array_equal(p.grad, g)            # read, never written
    assert p.data.dtype == dtype
    assert p.data.tobytes() == ref.tobytes()
    assert state.first_moment["w"].tobytes() == m.tobytes()
    assert state.second_moment["w"].tobytes() == v.tobytes()


def test_zero_gradient_still_decays_weights():
    p = _param([[2.0]])
    p.grad = np.zeros((1, 1))
    adam_step({"w": p}, AdamState(), lr=0.1, weight_decay=0.5)
    assert abs(p.data[0, 0] - 2.0 * (1 - 0.1 * 0.5)) < 1e-15


def test_missing_gradient_is_an_error():
    p = _param([[1.0]])
    with pytest.raises(ValueError):
        adam_step({"w": p}, AdamState(), lr=1e-3, weight_decay=0.0)


def test_quadratic_converges():
    p = _param([[5.0]])
    state = AdamState()
    for _ in range(800):
        p.grad = 2.0 * p.data
        adam_step({"w": p}, state, lr=0.05, weight_decay=0.0)
    assert abs(p.data[0, 0]) < 0.05


def test_lr_decay_schedule():
    assert lr_decay(1e-3, 0, 0.99) == 1e-3
    assert abs(lr_decay(1e-3, 10, 0.99) - 1e-3 * 0.99 ** 10) < 1e-18
    assert abs(lr_decay(1e-4, 3, 0.7) - 1e-4 * 0.343) < 1e-18


def test_glorot_bounds_and_determinism():
    limit = np.sqrt(6.0 / (20 + 30))
    w1 = glorot_uniform(np.random.default_rng(7), 20, 30)
    w2 = glorot_uniform(np.random.default_rng(7), 20, 30)
    assert w1.data.shape == (20, 30)
    assert np.abs(w1.data).max() <= limit
    assert np.array_equal(w1.data, w2.data)
    assert w1.requires_grad


def test_zero_and_one_inits():
    z = zeros_param((3,))
    o = ones_param((4,))
    assert np.array_equal(z.data, np.zeros(3, dtype=np.float32))
    assert np.array_equal(o.data, np.ones(4, dtype=np.float32))
    assert z.requires_grad and o.requires_grad


# A least-squares fit over 7 samples: batches of 3 leave a tail of 1.
_X = np.random.default_rng(5).standard_normal((7, 3))
_Y = _X @ np.array([[1.0], [-2.0], [0.5]])


def _fit_loss(w, chosen):
    d = engine.sub(engine.matmul(Tensor(_X[chosen]), w), Tensor(_Y[chosen]))
    return engine.mean(engine.mul(d, d))


def test_train_epochs_matches_a_hand_written_loop():
    schedule = dict(learning_rate=0.1, decay_rate=0.9, weight_decay=0.01)
    w = _param(np.zeros((3, 1)))
    state, rng = AdamState(), np.random.default_rng(3)
    lrs = []

    def step(params, st, lr, wd):
        lrs.append(lr)
        adam_step(params, st, lr, wd)

    got = list(train_epochs({"w": w}, state, 7, lambda c: _fit_loss(w, c),
                            step, epochs=4, batch_size=3, rng=rng,
                            **schedule))

    ref_w = _param(np.zeros((3, 1)))
    ref_state, ref_rng = AdamState(), np.random.default_rng(3)
    want, want_lrs = [], []
    for epoch in range(1, 5):
        lr = 0.1 * 0.9 ** (epoch - 1)
        order = ref_rng.permutation(7)
        total = 0.0
        for start in range(0, 7, 3):
            chosen = order[start:start + 3]
            loss = _fit_loss(ref_w, chosen)
            loss.backward()
            adam_step({"w": ref_w}, ref_state, lr, 0.01)
            want_lrs.append(lr)
            total += loss.item() * len(chosen)
        want.append((epoch, total / 7))
    assert got == want
    assert lrs == want_lrs
    assert w.data.tobytes() == ref_w.data.tobytes()
    assert state.step_count == 12


def test_train_epochs_with_no_epochs_yields_nothing_and_draws_nothing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    epochs = train_epochs({}, AdamState(), 5, None, None, epochs=0,
                          batch_size=2, learning_rate=0.1, decay_rate=1.0,
                          weight_decay=0.0, rng=rng)
    assert list(epochs) == []
    assert rng.bit_generator.state == before


def test_train_epochs_names_the_epoch_and_iteration_of_a_non_finite_value():
    w = _param(np.zeros((3, 1)))
    calls = []

    def loss_of(chosen):
        calls.append(len(chosen))
        if len(calls) == 5:            # epoch 2, iteration 1
            raise NonFiniteError("matmul produced 1 non-finite value(s)")
        return _fit_loss(w, chosen)

    with pytest.raises(NonFiniteError, match=r"^epoch 2 iteration 1: matmul"):
        list(train_epochs({"w": w}, AdamState(), 7, loss_of, adam_step,
                          epochs=3, batch_size=3, learning_rate=0.1,
                          decay_rate=1.0, weight_decay=0.0,
                          rng=np.random.default_rng(0)))
