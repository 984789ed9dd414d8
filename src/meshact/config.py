"""Flat key=value run configuration with command-line overrides.

Defaults document the full-scale training recipe (1024-dim codes, 300/100
epochs, the published optimizer settings); the shipped desk profile
(configs/desk.cfg) shrinks everything to laptop scale. One root seed fans
out to fixed per-stage seeds so any stage can be reproduced on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .attention import PE_MODES, TransformerConfig
from .classifier import HEAD_KINDS
from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    # paths / environment
    template: str = "icosphere2"   # tetrahedron | icosphereN | mesh file path
    data_dir: str = "data"
    cache_dir: str = ""            # empty -> SPATR_CACHE_DIR or ~/.cache
    out_dir: str = "out"
    seed: int = 0
    # synthetic data
    classes: int = 3
    subjects: int = 40
    sequence_length: int = 192     # raw generated frames per sequence
    frames: int = 24               # frames sampled per sequence (N)
    split_fraction: float = 0.8
    # hierarchy
    factors: tuple[float, ...] = (4.0, 4.0, 4.0, 4.0)
    spiral_lengths: tuple[int, ...] = (12, 11, 10, 9, 8)
    # autoencoder training
    latent_dim: int = 1024
    spae_epochs: int = 300
    spae_lr: float = 1e-3
    spae_decay: float = 0.99
    spae_batch: int = 8
    weight_decay: float = 5e-5
    checkpoint_every: int = 50
    # temporal classifier
    head: str = "transformer"
    d_model: int = 128
    heads: tuple[int, ...] = (2, 2, 2)
    ff_mult: int = 2
    pe: str = "sinusoidal"
    pe_capacity: int = 192
    class_token: bool = False
    trf_epochs: int = 100
    trf_lr: float = 1e-4
    trf_decay: float = 0.7
    trf_batch: int = 8
    # sweep axes
    sweep_frames: tuple[int, ...] = (16, 24, 48, 96, 192)
    sweep_heads: tuple[tuple[int, ...], ...] = ((1, 1, 1), (2, 2, 2),
                                                 (4, 4, 4))


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parser(kind):
    """The parser of one config value from the field's type: bool words,
    or a tuple of its item type, separated by commas at the innermost
    level and by semicolons above it ("1,1,1;2,2,2")."""
    if kind is bool:
        return _parse_bool
    if get_origin(kind) is not tuple:
        return kind
    item = get_args(kind)[0]
    parse, sep = _parser(item), ";" if get_origin(item) is tuple else ","
    return lambda s: tuple(parse(part) for part in str(s).split(sep)
                           if part.strip())


_PARSERS = {name: _parser(kind)
            for name, kind in get_type_hints(RunConfig).items()}


def parse_config_file(path) -> dict:
    """key=value lines; '#' comments and blank lines are skipped."""
    values = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, "
                                  f"got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = _PARSERS[key](value)
            except ValueError as e:
                raise ConfigError(f"{path}:{ln}: bad value for {key}: {e}") \
                    from e
    return values


def make_config(config_path=None, overrides: dict = None) -> RunConfig:
    """File values override defaults; explicit overrides win over both."""
    cfg = RunConfig()
    if config_path:
        cfg = replace(cfg, **parse_config_file(config_path))
    if overrides:
        clean = {}
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in _PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            clean[key] = (_PARSERS[key](value) if isinstance(value, str)
                          else value)
        cfg = replace(cfg, **clean)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    for key in ("classes", "frames", "sequence_length", "latent_dim",
                "spae_epochs", "spae_lr", "spae_batch", "checkpoint_every",
                "d_model", "ff_mult", "trf_epochs", "trf_lr", "trf_batch"):
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key} must be positive")
    if not all(h > 0 for hs in (cfg.heads, *cfg.sweep_heads) for h in hs):
        raise ConfigError("every heads and sweep_heads entry must be positive")
    for key in ("spae_decay", "trf_decay"):
        if not 0.0 < getattr(cfg, key) <= 1.0:
            raise ConfigError(f"{key} must be in (0, 1]")
    if not 0.0 < cfg.split_fraction < 1.0:
        raise ConfigError("split_fraction must be in (0, 1)")
    if cfg.frames > cfg.sequence_length:
        raise ConfigError(f"cannot sample {cfg.frames} frames from "
                          f"{cfg.sequence_length}-frame sequences")
    if len(cfg.spiral_lengths) != len(cfg.factors) + 1:
        raise ConfigError(
            f"{len(cfg.factors)} factors imply {len(cfg.factors) + 1} levels; "
            f"got {len(cfg.spiral_lengths)} spiral lengths")
    if cfg.head not in HEAD_KINDS:
        raise ConfigError(f"unknown head {cfg.head!r}")
    if cfg.pe not in PE_MODES:
        raise ConfigError(f"unknown positional encoding {cfg.pe!r}")


STAGES = ("data", "split", "hierarchy", "spae", "encode", "classifier",
          "sweep", "verify")


def stage_seed(root_seed: int, stage: str) -> int:
    """Independent deterministic seed for one pipeline stage."""
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}")
    ss = np.random.SeedSequence([int(root_seed), STAGES.index(stage)])
    return int(ss.generate_state(1)[0])


def transformer_config(cfg: RunConfig, in_dim: int) -> TransformerConfig:
    return TransformerConfig(
        in_dim=in_dim, n_classes=cfg.classes, d_model=cfg.d_model,
        heads=tuple(cfg.heads), ff_mult=cfg.ff_mult, pe_mode=cfg.pe,
        pe_capacity=cfg.pe_capacity, use_class_token=cfg.class_token)
