"""Command layer: full micro pipeline, artifacts, exit codes, printing."""

import os

import numpy as np
import pytest

from meshact import cli, engine, hierarchy, spae
from meshact.checkpoint import save_checkpoint
from meshact.config import make_config
from meshact.errors import ConfigError, NonFiniteError
from meshact.topology import icosphere, save_template, tetrahedron

MICRO_CFG = """\
template = icosphere1
classes = 2
subjects = 5
sequence_length = 12
frames = 4
factors = 2,2,2,2
spiral_lengths = 6,5,5,4,4
latent_dim = 8
spae_epochs = 2
spae_lr = 1e-3
spae_batch = 8
d_model = 16
heads = 1,1
trf_epochs = 3
trf_lr = 1e-3
trf_batch = 4
checkpoint_every = 100
cache_dir = {cache}
"""


@pytest.fixture
def micro(tmp_path):
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(MICRO_CFG.format(cache=tmp_path / "cache"))
    data = str(tmp_path / "data")
    out = str(tmp_path / "out")

    def run(*argv):
        cmd = list(argv) + ["--config", str(cfg),
                            "--data-dir", data, "--out", out]
        return cli.main(cmd)

    return run, data, out


def test_full_micro_pipeline(micro, capsys):
    run, data, out = micro

    assert run("gen-data") == 0
    printed = capsys.readouterr().out
    assert "class 0 (twist): 5 sequences" in printed
    assert os.path.exists(os.path.join(data, "manifest.csv"))
    assert os.path.exists(os.path.join(data, "cls1_sub004.seq"))

    assert run("build-hierarchy") == 0
    assert capsys.readouterr().out.strip() == "42 → 21 → 11 → 6 → 4"

    assert run("train-spae") == 0
    assert "final loss" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "spae.ckpt"))
    assert os.path.exists(os.path.join(out, "spae_loss.csv"))

    assert run("encode") == 0
    printed = capsys.readouterr().out
    assert "embeddings_train.emb: 8 sequences" in printed
    assert "embeddings_test.emb: 2 sequences" in printed

    assert run("train-classifier") == 0
    assert "final test accuracy" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "classifier.ckpt"))
    with open(os.path.join(out, "metrics.csv")) as fh:
        assert fh.readline().strip() == "epoch,train_loss,test_accuracy"

    assert run("eval") == 0
    printed = capsys.readouterr().out
    assert "test accuracy:" in printed
    assert os.path.exists(os.path.join(out, "confusion.csv"))


def test_missing_artifacts_exit_2(micro, capsys):
    run, data, out = micro
    assert run("train-spae") == 2          # no dataset yet
    assert "gen-data" in capsys.readouterr().err
    assert run("gen-data") == 0
    capsys.readouterr()
    assert run("encode") == 2              # no autoencoder checkpoint
    assert "train-spae" in capsys.readouterr().err
    assert run("train-classifier") == 2    # no embeddings
    assert "encode" in capsys.readouterr().err
    assert run("eval") == 2
    capsys.readouterr()


def test_gen_data_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("template = icosphere0\nclasses = 2\nsubjects = 2\n"
                   "sequence_length = 6\nframes = 4\n")
    outs = []
    for name in ("a", "b"):
        data = tmp_path / name
        assert cli.main(["gen-data", "--config", str(cfg),
                         "--data-dir", str(data), "--seed", "5"]) == 0
        blobs = {f: (data / f).read_bytes()
                 for f in sorted(os.listdir(data))}
        outs.append(blobs)
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], name


def test_verify_command_exit_codes(tmp_path, capsys):
    assert cli.main(["verify"]) == 0
    printed = capsys.readouterr().out
    assert "9/9 checks passed" in printed
    assert printed.count("PASS") == 9

    assert cli.main(["verify", "--inject-fault", "gradient_attention"]) == 1
    printed = capsys.readouterr().out
    assert "FAIL  gradient_attention" in printed
    assert "8/9 checks passed" in printed

    assert cli.main(["verify", "--inject-fault", "gradient_everything"]) == 2
    assert "unknown fault target" in capsys.readouterr().err


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("latent_dmi = 8\n")
    assert cli.main(["verify", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err
    missing = tmp_path / "nope.cfg"
    assert cli.main(["verify", "--config", str(missing)]) == 2
    capsys.readouterr()


def test_too_many_classes_exits_2(tmp_path, capsys):
    cfg = tmp_path / "many.cfg"
    cfg.write_text("classes = 7\n")
    assert cli.main(["gen-data", "--config", str(cfg),
                     "--data-dir", str(tmp_path / "d")]) == 2
    assert "classes must be" in capsys.readouterr().err


def test_train_spae_with_checkpoint_every_0_exits_2(micro, tmp_path, capsys):
    run, data, out = micro
    assert run("gen-data") == 0
    bad = tmp_path / "bad.cfg"
    bad.write_text(MICRO_CFG.format(cache=tmp_path / "cache").replace(
        "checkpoint_every = 100", "checkpoint_every = 0"))
    capsys.readouterr()
    assert cli.main(["train-spae", "--config", str(bad), "--data-dir", data,
                     "--out", out]) == 2
    assert "checkpoint_every" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "spae.ckpt"))


def test_unknown_template_exits_2(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("template = dodecahedron\n")
    assert cli.main(["gen-data", "--config", str(cfg),
                     "--data-dir", str(tmp_path / "d")]) == 2
    assert "template" in capsys.readouterr().err


def test_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("template = icosphere1\nclasses = 1\nsubjects = 1\n"
                   "sequence_length = 4\nframes = 4\n")
    afile = tmp_path / "afile"
    afile.write_text("")
    data = afile / "data"
    assert cli.main(["gen-data", "--config", str(cfg),
                     "--data-dir", str(data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Not a directory" in err
    assert str(data) in err
    assert afile.read_text() == ""


def test_numeric_failure_exits_1(micro, monkeypatch, capsys):
    run, _, _ = micro

    def boom(cfg):
        raise NonFiniteError("overflow in test stub")

    monkeypatch.setattr(cli, "run_gen_data", boom)
    assert run("gen-data") == 1
    assert "numeric failure" in capsys.readouterr().err


def test_resolve_template_variants(tmp_path):
    topo, coords = cli.resolve_template("tetrahedron")
    assert topo.vertex_count == 4
    topo, _ = cli.resolve_template("icosphere1")
    assert topo.vertex_count == 42
    with pytest.raises(ConfigError):
        cli.resolve_template("icosphereX")
    with pytest.raises(ConfigError):
        cli.resolve_template("no/such/file.mesh")
    path = tmp_path / "tet.mesh"
    save_template(path, *tetrahedron())
    topo, _ = cli.resolve_template(str(path))
    assert topo.vertex_count == 4


def test_builtin_template_is_made_once_and_read_only():
    topo, coords = cli.resolve_template("icosphere1")
    assert cli.resolve_template("icosphere1")[0] is topo
    for arr in (coords, topo.faces, topo.adjacency[0]):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_template_file_edited_between_calls_is_read_again(tmp_path):
    path = tmp_path / "shape.mesh"
    save_template(path, *tetrahedron())
    assert cli.resolve_template(str(path))[0].vertex_count == 4
    save_template(path, *icosphere(1))
    assert cli.resolve_template(str(path))[0].vertex_count == 42


def test_warm_stage_calls_reuse_the_hierarchy_and_its_plans(
        micro, tmp_path, monkeypatch):
    run, data, out = micro
    for command in ("gen-data", "train-spae", "encode"):
        assert run(command) == 0
    cfg = make_config(str(tmp_path / "micro.cfg"),
                      {"data_dir": data, "out_dir": out})
    plans = []
    real = engine.RowPlan.__init__

    def counted(self, *args, **kwargs):
        plans.append(args[:2])
        real(self, *args, **kwargs)
    monkeypatch.setattr(engine.RowPlan, "__init__", counted)
    emb = tmp_path / "out" / cli.TRAIN_EMB
    encoded = emb.read_bytes()
    cli.run_encode(cfg)
    assert plans == []
    assert emb.read_bytes() == encoded
    h = cli.run_build_hierarchy(cfg)
    assert cli.run_build_hierarchy(cfg) is h


def test_build_hierarchy_rebuild_flag(micro, tmp_path, monkeypatch, capsys):
    run, _, _ = micro
    assert run("build-hierarchy") == 0
    capsys.readouterr()
    cache_file = tmp_path / "cache" / hierarchy.CACHE_FILENAME
    built = cache_file.read_bytes()
    cache_file.write_bytes(b"stale")

    def no_load(*args, **kwargs):
        raise AssertionError("--rebuild read the cache")
    monkeypatch.setattr(hierarchy, "load_hierarchy", no_load)
    assert run("build-hierarchy", "--rebuild") == 0
    assert capsys.readouterr().out.strip() == "42 → 21 → 11 → 6 → 4"
    assert cache_file.read_bytes() == built     # built and saved again


def test_eval_with_other_d_model_exits_2(micro, tmp_path, capsys):
    run, data, out = micro
    for command in ("gen-data", "train-spae", "encode", "train-classifier"):
        assert run(command) == 0
    capsys.readouterr()
    other = tmp_path / "wide.cfg"
    other.write_text(MICRO_CFG.format(cache=tmp_path / "cache")
                     .replace("d_model = 16", "d_model = 24"))
    assert cli.main(["eval", "--config", str(other), "--data-dir", data,
                     "--out", out]) == 2
    err = capsys.readouterr().err
    assert "parameter 'trf.fc3.weight' has shape (16, 2)" in err
    assert "needs (24, 2)" in err


def test_eval_of_a_checkpoint_with_a_non_utf8_name_exits_2(micro, capsys):
    run, _, out = micro
    rng = np.random.default_rng(0)
    emb = [(rng.standard_normal((4, 8)).astype(np.float32), 0)]
    for name in (cli.TRAIN_EMB, cli.TEST_EMB):
        spae.save_embeddings(os.path.join(out, name), emb)
    ckpt = os.path.join(out, cli.CLF_CKPT)
    save_checkpoint(ckpt, {"w": np.zeros(2, dtype=np.float32)})
    with open(ckpt, "r+b") as fh:
        fh.seek(16)         # the first byte of the only tensor name
        fh.write(b"\xff")
    assert run("eval") == 2
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("change, named", [
    ("spiral_lengths = 7,5,5,4,4",
     "parameter 'spae.enc.0.weight' has shape (18, 16), needs (21, 16)"),
    ("latent_dim = 16",
     "parameter 'spae.fc1.weight' has shape (512, 8), needs (512, 16)")],
    ids=["spiral_lengths", "latent_dim"])
def test_encode_with_an_autoencoder_of_another_shape_exits_2(
        micro, tmp_path, capsys, change, named):
    run, data, out = micro
    for command in ("gen-data", "train-spae"):
        assert run(command) == 0
    capsys.readouterr()
    other = tmp_path / "other.cfg"
    key = change.split(" = ")[0]
    other.write_text("".join(
        change + "\n" if line.startswith(key + " ") else line + "\n"
        for line in MICRO_CFG.format(cache=tmp_path / "cache").splitlines()))
    assert cli.main(["encode", "--config", str(other), "--data-dir", data,
                     "--out", out]) == 2
    assert named in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, cli.TRAIN_EMB))


@pytest.mark.parametrize("subjects, fraction, side",
                         [(1, 0.8, "test"), (2, 0.2, "train")])
def test_empty_split_exits_2(tmp_path, capsys, subjects, fraction, side):
    cfg = tmp_path / "few.cfg"
    cfg.write_text(MICRO_CFG.format(cache=tmp_path / "cache").replace(
        "subjects = 5", f"subjects = {subjects}\nsplit_fraction = {fraction}"))
    args = ["--config", str(cfg), "--data-dir", str(tmp_path / "data"),
            "--out", str(tmp_path / "out")]
    assert cli.main(["gen-data"] + args) == 0
    capsys.readouterr()
    assert cli.main(["train-spae"] + args) == 2
    err = capsys.readouterr().err
    assert f"{subjects} subject(s) at split_fraction {fraction}" in err
    assert f"leave the {side} split empty" in err


def test_sweep_frames_and_heads(micro, tmp_path, capsys):
    run, _, out = micro
    cfg = tmp_path / "micro.cfg"
    cfg.write_text(cfg.read_text() + "sweep_frames = 2,4\n"
                   "sweep_heads = 1,1;2,2\n")
    for command in ("gen-data", "train-spae", "encode"):
        assert run(command) == 0

    assert run("sweep", "--axis", "frames") == 0
    assert "frames 2: accuracy" in capsys.readouterr().out
    with open(os.path.join(out, "sweep_frames.csv")) as fh:
        lines = [line for line in fh.read().splitlines()
                 if not line.startswith("#")]
    assert lines[0] == "frames,test_accuracy,checkpoint_bytes"
    rows = [line.split(",") for line in lines[1:]]
    assert [n for n, _, _ in rows] == ["2", "4"]
    for n, _, size in rows:    # one checkpoint per frame count
        ckpt = os.path.join(out, f"classifier_frames{n}.ckpt")
        assert int(size) == os.path.getsize(ckpt)

    assert run("sweep", "--axis", "heads") == 0
    assert "heads (2, 2): accuracy" in capsys.readouterr().out
    with open(os.path.join(out, "sweep_heads.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "heads,test_accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == ["1-1", "2-2"]
