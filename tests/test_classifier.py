"""Shared training loop, metrics files, confusion counting."""

import numpy as np
import pytest

from meshact import classifier, engine
from meshact.attention import TransformerConfig
from meshact.classifier import (confusion_matrix, evaluate,
                                head_parameter_counts, make_head,
                                read_metrics_csv, train_head,
                                write_confusion_csv, write_metrics_csv,
                                write_parameter_csv)
from meshact.engine import Tensor
from meshact.errors import NonFiniteError


def _cfg(c=4, n_classes=2):
    return TransformerConfig(in_dim=c, n_classes=n_classes, d_model=8,
                             heads=(1,), pe_mode="none")


def _toy_set(rng, n, length=4, c=4):
    out = []
    for i in range(n):
        label = i % 2
        base = 1.0 if label == 0 else -1.0
        emb = base + 0.1 * rng.standard_normal((length, c))
        out.append((emb.astype(np.float32), label))
    return out


def test_make_head_kinds_and_errors():
    rng = np.random.default_rng(0)
    for kind in classifier.HEAD_KINDS:
        params, forward = make_head(kind, _cfg(), rng, length=4)
        out = forward(params, Tensor(np.zeros((4, 4), dtype=np.float32)))
        assert out.shape == (1, 2)
    with pytest.raises(ValueError):
        make_head("gru", _cfg(), rng, length=4)
    with pytest.raises(ValueError):
        make_head("mlp", _cfg(), rng)  # needs the length


def test_evaluate_counts_matches_manual():
    # stub head: per sequence of the (B, L, C) batch, logit 0 is the mean
    # embedding value, logit 1 its negation, so the prediction is 0 when
    # the mean is positive
    def forward(params, tokens):
        m = tokens.data.mean(axis=(1, 2))
        return Tensor(np.stack([m, -m], axis=1))

    data = [(np.full((3, 2), 0.5, dtype=np.float32), 0),
            (np.full((3, 2), -0.5, dtype=np.float32), 1),
            (np.full((3, 2), 2.0, dtype=np.float32), 1)]
    acc, preds = evaluate(forward, {}, data)
    assert preds.tolist() == [0, 1, 0]
    assert acc == pytest.approx(2.0 / 3.0)


def test_evaluate_empty_set():
    acc, preds = evaluate(lambda p, t: Tensor(np.zeros((1, 2))), {}, [])
    assert acc == 0.0 and len(preds) == 0


def test_train_head_separates_toy_classes():
    rng = np.random.default_rng(1)
    train = _toy_set(rng, 8)
    test = _toy_set(rng, 4)
    params, forward, metrics = train_head(
        "transformer", _cfg(), train, test, epochs=30, learning_rate=1e-2,
        decay_rate=0.99, weight_decay=0.0, batch_size=4, seed=0)
    assert len(metrics) == 30
    assert [m[0] for m in metrics] == list(range(1, 31))
    assert metrics[-1][2] == 1.0
    assert metrics[-1][1] < metrics[0][1]
    acc, _ = evaluate(forward, params, test)
    assert acc == 1.0


def test_train_head_is_deterministic():
    rng = np.random.default_rng(2)
    train = _toy_set(rng, 6)
    test = _toy_set(rng, 4)
    kw = dict(epochs=5, learning_rate=1e-3, decay_rate=0.97,
              weight_decay=5e-5, batch_size=4, seed=7)
    *_, m1 = train_head("transformer", _cfg(), train, test, **kw)
    *_, m2 = train_head("transformer", _cfg(), train, test, **kw)
    assert m1 == m2


def test_train_head_rejects_empty_train_set():
    with pytest.raises(ValueError):
        train_head("transformer", _cfg(), [], [], epochs=1,
                   learning_rate=1e-3, decay_rate=1.0, weight_decay=0.0,
                   batch_size=1, seed=0)


@pytest.mark.parametrize("kind", classifier.HEAD_KINDS)
def test_non_finite_embedding_names_epoch_and_iteration(kind):
    # the head's forward, not only its loss, runs where an abort is labelled
    train = _toy_set(np.random.default_rng(4), 6)
    train[3][0][1, 2] = np.nan
    with pytest.raises(NonFiniteError, match=r"^epoch 1 iteration \d+: "):
        train_head(kind, _cfg(), train, [], epochs=1, learning_rate=1e-3,
                   decay_rate=1.0, weight_decay=0.0, batch_size=2, seed=0)


def test_confusion_matrix_matches_counting_loop():
    rng = np.random.default_rng(3)
    n_classes = 4
    labels = rng.integers(0, n_classes, size=50)
    preds = rng.integers(0, n_classes, size=50)
    cm = confusion_matrix(preds, labels, n_classes)
    ref = np.zeros((n_classes, n_classes), dtype=np.int64)
    for p, t in zip(preds, labels):
        ref[t, p] += 1
    assert np.array_equal(cm, ref)
    assert cm.sum() == 50


def test_confusion_matrix_perfect_is_diagonal():
    labels = np.array([0, 1, 2, 2, 1, 0])
    cm = confusion_matrix(labels, labels, 3)
    assert np.array_equal(cm, np.diag([2, 2, 2]))


def test_confusion_matrix_errors():
    with pytest.raises(ValueError):
        confusion_matrix([0, 1], [0], 2)
    with pytest.raises(ValueError):
        confusion_matrix([0, 3], [0, 1], 3)


def test_metrics_csv_roundtrip_exact(tmp_path):
    metrics = [(1, 1.0986122886681098, 0.25), (2, 0.3333333333333333, 1.0)]
    path = tmp_path / "m.csv"
    write_metrics_csv(path, metrics)
    text = path.read_text()
    assert text.splitlines()[0] == "epoch,train_loss,test_accuracy"
    assert read_metrics_csv(path) == metrics


def test_metrics_csv_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_metrics_csv(path)


def test_confusion_csv_layout(tmp_path):
    cm = np.array([[3, 0], [1, 2]])
    path = tmp_path / "cm.csv"
    write_confusion_csv(path, cm)
    assert path.read_text() == "3,0\n1,2\n"


def test_head_parameter_counts_table(tmp_path):
    cfg = _cfg()
    lengths = (8, 16, 32)
    rows = head_parameter_counts(cfg, lengths)
    assert len(rows) == len(classifier.HEAD_KINDS) * len(lengths)
    by_kind = {}
    for kind, length, count in rows:
        by_kind.setdefault(kind, []).append((length, count))
    # only the mlp head grows with the sequence length
    for kind in ("transformer", "lstm", "cnn"):
        counts = {c for _, c in by_kind[kind]}
        assert len(counts) == 1
    mlp = dict(by_kind["mlp"])
    assert mlp[16] - mlp[8] == 8 * cfg.in_dim * 128
    assert mlp[32] - mlp[16] == 16 * cfg.in_dim * 128

    path = tmp_path / "params.csv"
    write_parameter_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "head,frames,param_count"
    assert len(lines) == 1 + len(rows)
    assert lines[1] == f"transformer,8,{dict(by_kind['transformer'])[8]}"


def _mixed_set(rng, lengths, c=4):
    return [(rng.standard_normal((n, c)).astype(np.float32), i % 2)
            for i, n in enumerate(lengths)]


@pytest.mark.parametrize("kind", ["transformer", "lstm", "cnn"])
def test_evaluate_mixed_lengths_matches_per_sequence(kind):
    rng = np.random.default_rng(4)
    data = _mixed_set(rng, (5, 3, 5, 4, 3, 5))
    params, forward = make_head(kind, _cfg(), rng)
    acc, preds = evaluate(forward, params, data)
    one = [forward(params, Tensor(emb)).data[0] for emb, _ in data]
    assert preds.tolist() == [int(np.argmax(row)) for row in one]
    assert acc == np.mean([p == label for p, (_, label)
                           in zip(preds, data)])


def test_train_head_mixed_lengths_loss_is_per_sequence_mean():
    # with lr 0 the parameters stay at their initial values, so the epoch
    # loss is the mean cross-entropy of the sequences one at a time
    rng = np.random.default_rng(5)
    train = _mixed_set(rng, (5, 3, 5, 4, 3, 5, 4))
    test = _mixed_set(rng, (3, 5, 4))
    params, forward, metrics = train_head(
        "lstm", _cfg(), train, test, epochs=1, learning_rate=0.0,
        decay_rate=1.0, weight_decay=0.0, batch_size=4, seed=3)
    losses = [engine.cross_entropy(forward(params, Tensor(emb)),
                                   np.array([label])).item()
              for emb, label in train]
    assert metrics[0][1] == pytest.approx(np.mean(losses), rel=1e-6)
