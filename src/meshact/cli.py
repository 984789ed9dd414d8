"""Command-line pipeline: generate data, build the hierarchy, train both
stages, evaluate, verify, sweep.

Exit codes: 0 success, 1 verification/eval failure or a numeric abort,
2 usage/configuration/input errors and files that cannot be read or
written (any OSError). All stages are deterministic for a fixed seed.

The run_* functions do the work on plain config values and return results;
the cmd_* wrappers add argument parsing and printing, and tests drive the
run_* layer directly.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import classifier as clf
from . import spae as spae_mod
from .attention import PE_MODES
from .binfmt import write_lines
from .checkpoint import load_checkpoint, params_from_arrays, save_checkpoint
from .config import RunConfig, make_config, stage_seed, transformer_config
from .errors import ConfigError, FormatError, MeshError, NonFiniteError
from .hierarchy import get_hierarchy
from .sequence import (NormStats, apply_norm, compute_norm_stats,
                       load_sequence, read_manifest, save_sequence,
                       subject_split, uniform_sample_frames, write_manifest)
from .synth import CLASS_NAMES, synth_generate
from .topology import icosphere, load_template, tetrahedron
from .verify import run_checks

SPAE_CKPT = "spae.ckpt"
CLF_CKPT = "classifier.ckpt"
TRAIN_EMB = "embeddings_train.emb"
TEST_EMB = "embeddings_test.emb"


def resolve_template(name: str):
    """'tetrahedron', 'icosphereN', or a mesh file path -> (topology, coords).

    A builtin template is a pure function of its name, so it is made once
    per process and its arrays are read-only; a file is read on every call.
    """
    if name == "tetrahedron" or name.startswith("icosphere"):
        return _builtin_template(name)
    if os.path.exists(name):
        return load_template(name)
    raise ConfigError(f"template {name!r} is neither a builtin name nor a file")


@functools.cache
def _builtin_template(name: str):
    if name == "tetrahedron":
        topo, coords = tetrahedron()
    else:
        suffix = name[len("icosphere"):]
        try:
            topo, coords = icosphere(int(suffix) if suffix else 0)
        except ValueError as e:
            raise ConfigError(f"bad template {name!r}: {e}") from e
    for a in (topo.faces, *topo.adjacency, coords):
        a.setflags(write=False)
    return topo, coords


def _manifest_path(cfg: RunConfig) -> str:
    return os.path.join(cfg.data_dir, "manifest.csv")


def _require(path: str, hint: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"missing {path}; run `{hint}` first")
    return path


# ------------------------------------------------------------------ stages

def run_gen_data(cfg: RunConfig):
    if cfg.classes < 1 or cfg.classes > len(CLASS_NAMES):
        raise ConfigError(f"classes must be 1..{len(CLASS_NAMES)} "
                          f"(have generators for {', '.join(CLASS_NAMES)})")
    template = resolve_template(cfg.template)
    data_seed = stage_seed(cfg.seed, "data")
    rows = []
    for class_id in range(cfg.classes):
        for subject in range(cfg.subjects):
            seq = synth_generate(template, class_id, data_seed + subject,
                                 cfg.sequence_length)
            fname = f"cls{class_id}_sub{subject:03d}.seq"
            save_sequence(os.path.join(cfg.data_dir, fname), seq)
            rows.append({"path": fname, "label": class_id,
                         "subject_id": subject})
    write_manifest(_manifest_path(cfg), rows)
    return {class_id: cfg.subjects for class_id in range(cfg.classes)}


def run_build_hierarchy(cfg: RunConfig, rebuild: bool = False):
    topo, coords = resolve_template(cfg.template)
    return get_hierarchy(topo, coords, cfg.factors, cfg.spiral_lengths,
                         cache_root=cfg.cache_dir or None, rebuild=rebuild)


def _load_split(cfg: RunConfig):
    """Manifest -> (train rows, test rows): subject-disjoint, nonempty."""
    manifest = _require(_manifest_path(cfg), "gen-data")
    rows = read_manifest(manifest)
    if not rows:
        raise ConfigError(f"{manifest} lists no sequences")
    train, test = subject_split(rows, cfg.split_fraction,
                                stage_seed(cfg.seed, "split"))
    if not (train and test):
        raise ConfigError(
            f"{len({r['subject_id'] for r in rows})} subject(s) at "
            f"split_fraction {cfg.split_fraction} leave the "
            f"{'test' if train else 'train'} split empty")
    return train, test


def _load_sampled(cfg: RunConfig, rows, checksum: int):
    """Load sequences, pick cfg.frames per sequence, keep labels."""
    out = []
    for r in rows:
        seq = load_sequence(os.path.join(cfg.data_dir, r["path"]),
                            expected_checksum=checksum)
        out.append((uniform_sample_frames(seq, cfg.frames), r["label"]))
    return out


def run_train_spae(cfg: RunConfig, log=None):
    hierarchy = run_build_hierarchy(cfg)
    train_rows, _ = _load_split(cfg)
    train_seqs = _load_sampled(cfg, train_rows, hierarchy.source_checksum)
    frames = np.concatenate([seq.frames for seq, _ in train_seqs], axis=0)
    stats = compute_norm_stats(frames)
    normalized = apply_norm(frames, stats).astype(np.float32)
    extra = {"norm.center": stats.center.astype(np.float32),
             "norm.scale": np.array([stats.scale], dtype=np.float32)}
    params, state, curve = spae_mod.train_spae(
        normalized, hierarchy,
        latent_dim=cfg.latent_dim, epochs=cfg.spae_epochs,
        batch_size=cfg.spae_batch, learning_rate=cfg.spae_lr,
        decay_rate=cfg.spae_decay, weight_decay=cfg.weight_decay,
        seed=stage_seed(cfg.seed, "spae"), checkpoint_dir=cfg.out_dir,
        checkpoint_every=cfg.checkpoint_every, extra_tensors=extra, log=log)
    write_lines(os.path.join(cfg.out_dir, "spae_loss.csv"),
                ["epoch,train_loss", *(f"{epoch},{loss!r}" for epoch, loss
                                       in enumerate(curve, start=1))])
    return params, curve


def _check_fit(path, held: dict, needed: dict, what: str) -> None:
    """FormatError listing every tensor of the checkpoint at `path` whose
    name or shape differs from the name -> shape map `what` needs."""
    misfits = ""
    for name in sorted(set(held) | set(needed)):
        have = held[name].shape if name in held else "absent"
        want = needed.get(name, "absent")
        if have != want:
            misfits += f"\n  parameter {name!r} has shape {have}, needs {want}"
    if misfits:
        raise FormatError(
            f"{path} does not fit {what} at this configuration:{misfits}")


def _load_spae(cfg: RunConfig, hierarchy):
    path = _require(os.path.join(cfg.out_dir, SPAE_CKPT), "train-spae")
    arrays, _ = load_checkpoint(path)
    _check_fit(path, arrays, {
        **spae_mod.spae_param_shapes(hierarchy, cfg.latent_dim),
        "norm.center": (3,), "norm.scale": (1,)}, "the autoencoder")
    stats = NormStats(center=arrays["norm.center"].astype(np.float64),
                      scale=float(arrays["norm.scale"][0]))
    params = params_from_arrays(
        {k: v for k, v in arrays.items() if k.startswith("spae.")})
    return params, stats


def _encode_split(cfg: RunConfig, rows, hierarchy, params, stats):
    """Load, normalize and encode one split's sequences: (codes, label)."""
    seqs = _load_sampled(cfg, rows, hierarchy.source_checksum)
    pairs = [(apply_norm(seq.frames, stats).astype(np.float32), label)
             for seq, label in seqs]
    return spae_mod.encode_dataset(params, hierarchy, pairs)


def run_encode(cfg: RunConfig):
    hierarchy = run_build_hierarchy(cfg)
    params, stats = _load_spae(cfg, hierarchy)
    train_rows, test_rows = _load_split(cfg)
    written = {}
    for rows, fname in ((train_rows, TRAIN_EMB), (test_rows, TEST_EMB)):
        embedded = _encode_split(cfg, rows, hierarchy, params, stats)
        spae_mod.save_embeddings(os.path.join(cfg.out_dir, fname), embedded)
        written[fname] = len(embedded)
    return written


def _load_embeddings_split(cfg: RunConfig):
    return tuple(spae_mod.load_embeddings(
        _require(os.path.join(cfg.out_dir, fname), "encode"))
        for fname in (TRAIN_EMB, TEST_EMB))


def _train_head(cfg: RunConfig, head: str, tcfg, train, test, stage: str,
                log=None):
    """`clf.train_head` with the cfg's schedule and the seed of `stage`."""
    return clf.train_head(
        head, tcfg, train, test,
        epochs=cfg.trf_epochs, learning_rate=cfg.trf_lr,
        decay_rate=cfg.trf_decay, weight_decay=cfg.weight_decay,
        batch_size=cfg.trf_batch, seed=stage_seed(cfg.seed, stage), log=log)


def run_train_classifier(cfg: RunConfig, log=None):
    train, test = _load_embeddings_split(cfg)
    in_dim = train[0][0].shape[1]
    tcfg = transformer_config(cfg, in_dim)
    params, forward, metrics = _train_head(cfg, cfg.head, tcfg, train, test,
                                           "classifier", log=log)
    save_checkpoint(os.path.join(cfg.out_dir, CLF_CKPT), params)
    clf.write_metrics_csv(os.path.join(cfg.out_dir, "metrics.csv"), metrics)
    return params, metrics


def run_eval(cfg: RunConfig):
    _, test = _load_embeddings_split(cfg)
    in_dim = test[0][0].shape[1]
    tcfg = transformer_config(cfg, in_dim)
    path = _require(os.path.join(cfg.out_dir, CLF_CKPT), "train-classifier")
    arrays, _ = load_checkpoint(path)
    fresh, forward = clf.make_head(cfg.head, tcfg, np.random.default_rng(0),
                                   length=max(emb.shape[0] for emb, _ in test))
    _check_fit(path, arrays, {name: p.shape for name, p in fresh.items()},
               f"head {cfg.head!r}")
    params = params_from_arrays(arrays)
    acc, preds = clf.evaluate(forward, params, test)
    labels = np.array([label for _, label in test])
    cm = clf.confusion_matrix(preds, labels, tcfg.n_classes)
    clf.write_confusion_csv(os.path.join(cfg.out_dir, "confusion.csv"), cm)
    return acc, cm


def run_sweep_frames(cfg: RunConfig, log=None):
    """Accuracy vs sampled frame count, reusing the trained autoencoder."""
    hierarchy = run_build_hierarchy(cfg)
    params, stats = _load_spae(cfg, hierarchy)
    train_rows, test_rows = _load_split(cfg)
    results = []
    for n in cfg.sweep_frames:
        sub = replace(cfg, frames=n)
        train, test = (_encode_split(sub, rows, hierarchy, params, stats)
                       for rows in (train_rows, test_rows))
        tcfg = transformer_config(sub, train[0][0].shape[1])
        head_params, forward, metrics = _train_head(cfg, cfg.head, tcfg,
                                                    train, test, "sweep")
        ckpt = os.path.join(cfg.out_dir, f"classifier_frames{n}.ckpt")
        save_checkpoint(ckpt, head_params)
        acc = metrics[-1][2]
        results.append((n, acc, os.path.getsize(ckpt)))
        if log is not None:
            log(n, acc)
    write_lines(os.path.join(cfg.out_dir, "sweep_frames.csv"), [
        "# published full-scale reference: accuracy peaks at 48 frames "
        "(95.42%); 24 frames reach 94.16%",
        "frames,test_accuracy,checkpoint_bytes",
        *(f"{n},{acc!r},{size}" for n, acc, size in results)])
    return results


def run_sweep_heads(cfg: RunConfig, log=None):
    train, test = _load_embeddings_split(cfg)
    in_dim = train[0][0].shape[1]
    results = []
    for head_counts in cfg.sweep_heads:
        sub = replace(cfg, heads=tuple(head_counts))
        tcfg = transformer_config(sub, in_dim)
        _, _, metrics = _train_head(cfg, "transformer", tcfg, train, test,
                                    "sweep")
        acc = metrics[-1][2]
        results.append((head_counts, acc))
        if log is not None:
            log(head_counts, acc)
    write_lines(os.path.join(cfg.out_dir, "sweep_heads.csv"), [
        "heads,test_accuracy",
        *(f"{'-'.join(map(str, heads))},{acc!r}" for heads, acc in results)])
    return results


# ------------------------------------------------------------ command layer

def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("--config", metavar="PATH", help="key=value config file")
    sub.add_argument("--seed", type=int, help="root random seed")
    sub.add_argument("--frames", type=int, help="frames sampled per sequence")
    sub.add_argument("--heads", help="attention heads per layer, e.g. 2,2,2")
    sub.add_argument("--pe", choices=PE_MODES,
                     help="positional encoding mode")
    sub.add_argument("--head", choices=clf.HEAD_KINDS,
                     help="temporal head to train/evaluate")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--data-dir", metavar="DIR", help="dataset directory")


def _config_from_args(args) -> RunConfig:
    overrides = {
        "seed": args.seed, "frames": args.frames, "heads": args.heads,
        "pe": args.pe, "head": args.head,
        "out_dir": args.out, "data_dir": args.data_dir,
    }
    return make_config(args.config, overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="meshact",
        description="Action recognition on fixed-topology mesh sequences: "
                    "spiral autoencoder embeddings + attention classifier.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("gen-data", "generate the synthetic labeled dataset"),
            ("build-hierarchy", "decimate the template and cache the result"),
            ("train-spae", "train the reconstruction autoencoder"),
            ("encode", "cache per-frame embeddings for both splits"),
            ("train-classifier", "train the temporal head on embeddings"),
            ("eval", "evaluate the trained head; write confusion matrix"),
            ("verify", "run the self-check suite"),
            ("sweep", "accuracy across frame counts or head counts")):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "build-hierarchy":
            sub.add_argument("--rebuild", action="store_true",
                             help="ignore any cached hierarchy")
        if name == "verify":
            sub.add_argument("--inject-fault", metavar="CHECK",
                             help="corrupt one gradient check (harness test)")
        if name == "sweep":
            sub.add_argument("--axis", choices=("frames", "heads"),
                             default="frames")
    args = parser.parse_args(argv)

    try:
        cfg = _config_from_args(args)
        return _dispatch(args, cfg)
    except (ConfigError, MeshError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NonFiniteError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


def _dispatch(args, cfg: RunConfig) -> int:
    if args.command == "gen-data":
        counts = run_gen_data(cfg)
        for class_id, count in sorted(counts.items()):
            print(f"class {class_id} ({CLASS_NAMES[class_id]}): "
                  f"{count} sequences")
        print(f"manifest: {_manifest_path(cfg)}")
        return 0
    if args.command == "build-hierarchy":
        h = run_build_hierarchy(cfg, rebuild=args.rebuild)
        print(" → ".join(str(c) for c in h.vertex_counts()))
        return 0
    if args.command == "train-spae":
        _, curve = run_train_spae(
            cfg, log=lambda e, l: print(f"epoch {e}: loss {l:.6f}"))
        print(f"final loss {curve[-1]:.6f}; checkpoint in {cfg.out_dir}")
        return 0
    if args.command == "encode":
        written = run_encode(cfg)
        for fname, count in written.items():
            print(f"{fname}: {count} sequences")
        return 0
    if args.command == "train-classifier":
        _, metrics = run_train_classifier(
            cfg, log=lambda e, l, a: print(
                f"epoch {e}: loss {l:.6f} test_acc {a:.4f}"))
        print(f"final test accuracy {metrics[-1][2]:.4f}")
        return 0
    if args.command == "eval":
        acc, cm = run_eval(cfg)
        print(f"test accuracy: {acc:.4f}")
        print("confusion matrix (rows = true class):")
        for row in cm:
            print("  " + " ".join(f"{int(x):4d}" for x in row))
        return 0
    if args.command == "verify":
        try:
            results = run_checks(inject_fault=args.inject_fault)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        failed = 0
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            print(f"{status}  {r.name:<22} max_error={r.max_error:.3e}  "
                  f"{r.detail}")
            failed += 0 if r.passed else 1
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return 0 if failed == 0 else 1
    if args.command == "sweep":
        sweep = run_sweep_frames if args.axis == "frames" else run_sweep_heads
        sweep(cfg, log=lambda x, a: print(f"{args.axis} {x}: accuracy {a:.4f}"))
        print(f"wrote {os.path.join(cfg.out_dir, f'sweep_{args.axis}.csv')}")
        return 0
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
