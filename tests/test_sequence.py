"""Sequences: normalization, frame sampling, file formats, manifests."""

import numpy as np
import pytest

from meshact.errors import FormatError, MeshError
from meshact.sequence import (MeshSequence, apply_norm, compute_norm_stats,
                              denormalize_frames, load_sequence,
                              normalize_frames, read_manifest, save_sequence,
                              subject_split, uniform_sample_frames,
                              write_manifest)


def _frames(rng, n=6, v=10):
    return (rng.standard_normal((n, v, 3)) * 2 + 0.5).astype(np.float32)


def test_sequence_validates_shape_and_finiteness():
    with pytest.raises(MeshError):
        MeshSequence(frames=np.zeros((3, 4)))
    bad = np.zeros((2, 3, 3), dtype=np.float32)
    bad[1, 2, 0] = np.nan
    with pytest.raises(MeshError):
        MeshSequence(frames=bad)


def test_normalize_roundtrip():
    rng = np.random.default_rng(0)
    frames = _frames(rng)
    normed, stats = normalize_frames(frames)
    assert np.abs(normed).max() <= 1.0 + 1e-6
    back = denormalize_frames(normed, stats)
    assert np.abs(back - frames).max() < 1e-6


def test_norm_stats_are_centroid_and_max_deviation():
    rng = np.random.default_rng(1)
    frames = _frames(rng)
    stats = compute_norm_stats(frames)
    flat = frames.reshape(-1, 3)
    assert np.allclose(stats.center, flat.mean(axis=0), atol=1e-6)
    assert np.isclose(stats.scale, np.abs(flat - flat.mean(axis=0)).max(),
                      rtol=1e-6)


def test_apply_norm_uses_given_stats():
    rng = np.random.default_rng(2)
    a, b = _frames(rng), _frames(rng)
    stats = compute_norm_stats(a)
    normed = apply_norm(b, stats)
    assert np.allclose(normed * stats.scale + stats.center, b, atol=1e-5)


def test_uniform_sampling_indices():
    frames = np.arange(12, dtype=np.float32)[:, None, None].repeat(3, axis=2)
    seq = MeshSequence(frames=frames)
    sampled = uniform_sample_frames(seq, 4)
    assert list(sampled.frames[:, 0, 0]) == [0.0, 3.0, 6.0, 9.0]
    # full-length sampling is the identity
    assert np.array_equal(uniform_sample_frames(seq, 12).frames, seq.frames)


def test_sampling_more_than_available_is_an_error():
    seq = MeshSequence(frames=np.zeros((4, 2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        uniform_sample_frames(seq, 5)
    with pytest.raises(ValueError):
        uniform_sample_frames(seq, 0)


def test_sequence_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    seq = MeshSequence(frames=_frames(rng), label=2, topology_checksum=12345)
    path = tmp_path / "a.seq"
    save_sequence(path, seq)
    back = load_sequence(path)
    assert back.frames.tobytes() == seq.frames.tobytes()
    assert back.label == 2
    assert back.topology_checksum == 12345
    # a second save is byte-identical
    save_sequence(tmp_path / "b.seq", seq)
    assert (tmp_path / "a.seq").read_bytes() == (tmp_path / "b.seq").read_bytes()


def test_load_checks_topology_checksum(tmp_path):
    rng = np.random.default_rng(4)
    seq = MeshSequence(frames=_frames(rng), label=0, topology_checksum=7)
    save_sequence(tmp_path / "a.seq", seq)
    assert load_sequence(tmp_path / "a.seq", expected_checksum=7).label == 0
    with pytest.raises(FormatError):
        load_sequence(tmp_path / "a.seq", expected_checksum=8)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "junk.seq"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_sequence(path)


def test_too_long_sequence_names_its_trailing_bytes(tmp_path):
    path = tmp_path / "a.seq"
    save_sequence(path, MeshSequence(frames=np.zeros((2, 4, 3))))
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes") as info:
        load_sequence(path)
    assert "truncated" not in str(info.value)


def test_every_cut_sequence_is_a_format_error(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "a.seq"
    save_sequence(path, MeshSequence(frames=_frames(rng, 2, 4), label=1,
                                     topology_checksum=9))
    raw = path.read_bytes()
    # every cut: the magic, the header fields, the coordinates
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        expected = "bad sequence magic" if cut < 4 else "truncated sequence"
        with pytest.raises(FormatError, match=f"^{expected}"):
            load_sequence(path)


def test_manifest_roundtrip(tmp_path):
    rows = [{"path": f"c{i}.seq", "label": i % 3, "subject_id": i // 3}
            for i in range(9)]
    path = tmp_path / "manifest.csv"
    write_manifest(path, rows)
    assert read_manifest(path) == rows


def test_subject_split_is_disjoint_and_deterministic():
    rows = [{"path": f"s{s}_{r}.seq", "label": r % 3, "subject_id": s}
            for s in range(10) for r in range(3)]
    train1, test1 = subject_split(rows, 0.8, seed=42)
    train2, test2 = subject_split(rows, 0.8, seed=42)
    assert train1 == train2 and test1 == test2
    train_subjects = {r["subject_id"] for r in train1}
    test_subjects = {r["subject_id"] for r in test1}
    assert not train_subjects & test_subjects
    assert len(train_subjects) == 8 and len(test_subjects) == 2
    assert len(train1) + len(test1) == len(rows)
    # a different seed picks a different split
    train3, _ = subject_split(rows, 0.8, seed=43)
    assert train3 != train1
