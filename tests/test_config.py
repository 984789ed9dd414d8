"""Run configuration: file parsing, overrides, validation, stage seeds."""

import dataclasses

import numpy as np
import pytest

from meshact.config import (RunConfig, STAGES, make_config,
                            parse_config_file, stage_seed,
                            transformer_config)
from meshact.errors import ConfigError


def test_defaults_describe_full_scale_recipe():
    cfg = RunConfig()
    assert cfg.latent_dim == 1024
    assert cfg.frames == 24
    assert cfg.factors == (4.0, 4.0, 4.0, 4.0)
    assert cfg.heads == (2, 2, 2)
    assert cfg.sweep_frames == (16, 24, 48, 96, 192)
    assert cfg.sweep_heads == ((1, 1, 1), (2, 2, 2), (4, 4, 4))


def test_parse_file_with_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# full line comment\n"
        "\n"
        "latent_dim = 64   # trailing comment\n"
        "factors = 2,2\n"
        "spiral_lengths = 9,8,7\n"
        "class_token = yes\n"
        "sweep_heads = 1,1;2,2\n")
    values = parse_config_file(path)
    assert values == {"latent_dim": 64, "factors": (2.0, 2.0),
                      "spiral_lengths": (9, 8, 7), "class_token": True,
                      "sweep_heads": ((1, 1), (2, 2))}


def test_every_default_reads_back_from_a_file(tmp_path):
    # each key's parser comes from its field's type: write every default
    # the way a config file spells it and read it back unchanged
    def spell(value):
        if isinstance(value, bool):
            return "yes" if value else "no"
        if isinstance(value, tuple):
            sep = ";" if value and isinstance(value[0], tuple) else ","
            return sep.join(spell(v) for v in value)
        return str(value)
    defaults = {f.name: getattr(RunConfig(), f.name)
                for f in dataclasses.fields(RunConfig)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {spell(v)}\n"
                            for k, v in defaults.items()))
    values = parse_config_file(path)
    assert values == defaults
    assert [type(v) for v in values.values()] == \
        [type(v) for v in defaults.values()]


def test_parse_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("latent_dmi = 64\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_file(path)


def test_parse_file_rejects_bad_value(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("spae_epochs = many\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_file(path)


def test_parse_file_rejects_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(path)


def test_overrides_beat_file_beat_defaults(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("latent_dim = 64\nframes = 12\n")
    cfg = make_config(path, {"frames": 8, "seed": None})
    assert cfg.latent_dim == 64     # from file
    assert cfg.frames == 8          # override wins
    assert cfg.seed == 0            # None override ignored, default kept


def test_string_overrides_are_parsed():
    cfg = make_config(None, {"factors": "2,2", "spiral_lengths": "9,8,7",
                             "class_token": "true"})
    assert cfg.factors == (2.0, 2.0)
    assert cfg.class_token is True


def test_unknown_override_key():
    with pytest.raises(ConfigError):
        make_config(None, {"latent": 64})


@pytest.mark.parametrize("overrides", [
    {"classes": 0},
    {"split_fraction": 1.0},
    {"split_fraction": 0.0},
    {"frames": 0},
    {"frames": 300},                         # exceeds sequence_length 192
    {"factors": "4,4", "spiral_lengths": "12,11"},  # needs 3 lengths
    {"head": "gru"},
    {"pe": "rotary"},
    # each of these crashed a stage or let the pipeline run on a 0-wide model
    {"spae_epochs": 0},
    {"trf_epochs": 0},
    {"spae_batch": 0},
    {"trf_batch": -1},
    {"checkpoint_every": 0},
    {"spae_decay": 0.0},
    {"spae_decay": 1.5},
    {"trf_decay": -0.5},
    {"trf_decay": float("nan")},
    {"d_model": 0},
    {"heads": "2,0,2"},
    {"sweep_heads": "1,1;0,0"},
    {"latent_dim": 0},
    {"ff_mult": 0},
    {"spae_lr": 0.0},
    {"trf_lr": -1e-4},
])
def test_validation_rejects_bad_configs(overrides):
    with pytest.raises(ConfigError) as err:
        make_config(None, overrides)
    # the message names the key (the pe one says "positional encoding")
    assert "pe" in overrides or any(key in str(err.value) for key in overrides)


def test_benchmark_settings_validate():
    # DESK and each workload's overrides, read from bench/run.py's source
    # without importing it (its import sets BLAS variables)
    import ast
    from pathlib import Path
    source = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    literals = {}
    for node in ast.parse(source.read_text()).body:
        name = getattr(node, "targets", [None])[0]
        if isinstance(name, ast.Name) and name.id in ("DESK", "WORKLOADS"):
            literals[name.id] = node.value
    desk = ast.literal_eval(literals["DESK"])
    workloads = literals["WORKLOADS"].values
    assert workloads
    for call in workloads:
        make_config(None, {**desk, **ast.literal_eval(call.args[0])})


def test_desk_profile_parses_and_validates():
    from pathlib import Path
    desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
    cfg = make_config(desk, None)
    assert cfg.template == "icosphere2"
    assert cfg.factors == (2.0, 2.0, 2.0, 2.0)
    assert len(cfg.spiral_lengths) == len(cfg.factors) + 1


def test_stage_seeds_distinct_and_deterministic():
    seeds = {stage: stage_seed(7, stage) for stage in STAGES}
    assert len(set(seeds.values())) == len(STAGES)
    for stage in STAGES:
        assert stage_seed(7, stage) == seeds[stage]
        assert stage_seed(8, stage) != seeds[stage]
    with pytest.raises(ValueError):
        stage_seed(7, "mystery")


def test_stage_seed_feeds_default_rng():
    np.random.default_rng(stage_seed(0, "data"))  # must be a valid seed


def test_transformer_config_mirrors_run_config():
    cfg = make_config(None, {"classes": 5, "d_model": 64, "heads": "4,4",
                             "pe": "learned", "pe_capacity": 50,
                             "class_token": "true"})
    tc = transformer_config(cfg, in_dim=32)
    assert tc.in_dim == 32
    assert tc.n_classes == 5
    assert tc.heads == (4, 4)
    assert tc.pe_mode == "learned"
    assert tc.pe_capacity == 50
    assert tc.use_class_token is True
