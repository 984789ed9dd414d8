"""Training and evaluation shared by the transformer and ablation heads.

Every head exposes forward(params, tokens): (B, L, C) tokens give
(B, n_classes) logits through the same engine, and an (L, C) sequence is
the B=1 case. So one loop covers the lot: one graph per mini-batch,
cross-entropy, per-epoch test accuracy from one forward over the split,
and the autoencoder's training policy, `optim.train_epochs`. All heads
therefore emit the same metrics schema and are directly comparable.
"""

from __future__ import annotations

import numpy as np

from . import attention, engine, heads
from .attention import TransformerConfig
from .binfmt import write_lines
from .engine import RowPlan, Tensor
from .optim import AdamState, adam_step, train_epochs

HEAD_KINDS = ("transformer", "mlp", "lstm", "cnn")


def make_head(kind: str, cfg: TransformerConfig, rng: np.random.Generator,
              length: int = None):
    """Returns (params, forward) for a head kind.

    `length` is required by the mlp head, whose first layer consumes the
    flattened sequence; the other heads are length-agnostic.
    """
    if kind == "transformer":
        params = attention.init_transformer_params(cfg, rng)
        return params, lambda p, t: attention.forward_sequence(p, cfg, t)
    if kind == "mlp":
        if length is None:
            raise ValueError("mlp head needs the sequence length up front")
        params = heads.init_mlp_params(rng, cfg.in_dim, length, cfg.n_classes)
        return params, heads.mlp_forward
    if kind == "lstm":
        params = heads.init_lstm_params(rng, cfg.in_dim, cfg.n_classes)
        return params, heads.lstm_forward
    if kind == "cnn":
        params = heads.init_cnn_params(rng, cfg.in_dim, cfg.n_classes)
        return params, heads.cnn_forward
    raise ValueError(f"unknown head kind {kind!r}; expected one of "
                     f"{', '.join(HEAD_KINDS)}")


def batch_logits(forward, params: dict, embeddings) -> Tensor:
    """(N, n_classes) logits of N sequences, rows in input order.

    Sequences of one length share one forward; each further length adds
    one, and a row permutation restores the input order.
    """
    groups = {}
    for i, emb in enumerate(embeddings):
        groups.setdefault(emb.shape[0], []).append(i)
    parts = [forward(params, Tensor(np.stack([embeddings[i] for i in idx])))
             for idx in groups.values()]
    if len(parts) == 1:
        return parts[0]
    order = np.concatenate(list(groups.values()))
    return engine.sparse_mm(RowPlan.gather(np.argsort(order), len(order)),
                            engine.concat_rows(parts))


def evaluate(forward, params: dict, dataset) -> tuple:
    """Accuracy and per-sequence predictions with frozen parameters."""
    if not dataset:
        return 0.0, np.zeros(0, dtype=np.int64)
    frozen = {name: p.detach() for name, p in params.items()}
    logits = batch_logits(forward, frozen, [
        np.asarray(emb, dtype=np.float32) for emb, _ in dataset])
    preds = np.argmax(logits.data, axis=1).astype(np.int64)
    labels = np.array([int(label) for _, label in dataset], dtype=np.int64)
    return float((preds == labels).mean()), preds


def train_head(kind: str, cfg: TransformerConfig, train_set, test_set, *,
               epochs: int, learning_rate: float, decay_rate: float,
               weight_decay: float, batch_size: int, seed: int, log=None):
    """Returns (params, forward, metrics rows (epoch, train_loss, test_acc)).

    Runs through `optim.train_epochs`, adding per-epoch test accuracy.
    """
    if not train_set:
        raise ValueError("empty training set")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC1]))
    params, forward = make_head(kind, cfg, rng, length=max(
        emb.shape[0] for emb, _ in train_set))
    metrics = []
    for epoch, loss in train_epochs(
            params, AdamState(), len(train_set),
            lambda chosen: engine.cross_entropy(batch_logits(
                forward, params, [train_set[i][0] for i in chosen]),
                np.array([train_set[i][1] for i in chosen])),
            adam_step, epochs=epochs, batch_size=batch_size,
            learning_rate=learning_rate, decay_rate=decay_rate,
            weight_decay=weight_decay, rng=rng):
        metrics.append((epoch, loss, evaluate(forward, params, test_set)[0]))
        if log is not None:
            log(*metrics[-1])
    return params, forward, metrics


def confusion_matrix(preds, labels, n_classes: int) -> np.ndarray:
    """Counts with rows = true class, columns = predicted class."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape:
        raise ValueError(f"length mismatch: {len(preds)} predictions vs "
                         f"{len(labels)} labels")
    both = np.concatenate([preds, labels])
    if both.size and (both.min() < 0 or both.max() >= n_classes):
        raise ValueError(f"class id out of range [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def write_metrics_csv(path, metrics) -> None:
    write_lines(path, ["epoch,train_loss,test_accuracy",
                       *(f"{e},{loss!r},{acc!r}" for e, loss, acc in metrics)])


def read_metrics_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    if not lines or lines[0] != "epoch,train_loss,test_accuracy":
        raise ValueError(f"{path}: not a metrics file")
    out = []
    for line in lines[1:]:
        e, l, a = line.split(",")
        out.append((int(e), float(l), float(a)))
    return out


def write_confusion_csv(path, cm: np.ndarray) -> None:
    write_lines(path, (",".join(str(int(x)) for x in row) for row in cm))


def head_parameter_counts(cfg: TransformerConfig, lengths) -> list:
    """(head, frames, parameter count) rows for the scaling comparison.

    The transformer/lstm/cnn heads are length-independent by construction;
    the mlp head's first layer makes its count affine in L.
    """
    rng = np.random.default_rng(0)
    rows = []
    for kind in HEAD_KINDS:
        for length in lengths:
            params, _ = make_head(kind, cfg, rng, length=length)
            rows.append((kind, int(length), attention.parameter_count(params)))
    return rows


def write_parameter_csv(path, rows) -> None:
    write_lines(path, ["head,frames,param_count",
                       *(",".join(map(str, row)) for row in rows)])
