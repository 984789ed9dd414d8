"""Hierarchy assembly, the on-disk cache and the hierarchy held in
process."""

import struct
from dataclasses import replace

import numpy as np
import pytest

from meshact import hierarchy
from meshact.binfmt import Reader, write_array
from meshact.errors import FormatError
from meshact.hierarchy import (build_hierarchy, get_hierarchy, load_hierarchy,
                               save_hierarchy)
from meshact.topology import icosphere

FACTORS = (2.0, 2.0, 2.0, 2.0)
LENGTHS = (9, 8, 8, 7, 6)


def _build():
    topo, coords = icosphere(1)
    return build_hierarchy(topo, coords, FACTORS, LENGTHS)


def _assert_same(h, fresh):
    for a, b in zip(h.ref_coords, fresh.ref_coords):
        assert np.array_equal(a, b)
    for a, b in zip(h.levels, fresh.levels):
        assert np.array_equal(a.faces, b.faces)
    for a, b in zip(h.spirals, fresh.spirals):
        assert np.array_equal(a.indices, b.indices)
    for a, b in zip(h.downs + h.ups, fresh.downs + fresh.ups):
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.weights, b.weights)


def test_level_chain_and_tables():
    h = _build()
    assert h.vertex_counts() == (42, 21, 11, 6, 4)
    assert h.level_count == 5
    assert len(h.downs) == len(h.ups) == 4
    for level, (topo, table, length) in enumerate(
            zip(h.levels, h.spirals, LENGTHS)):
        assert table.indices.shape == (topo.vertex_count, length)
        assert np.array_equal(table.indices[:, 0],
                              np.arange(topo.vertex_count))


def test_spiral_length_count_must_match_levels():
    topo, coords = icosphere(1)
    with pytest.raises(ValueError):
        build_hierarchy(topo, coords, FACTORS, LENGTHS[:-1])


def test_cache_roundtrip_is_exact(tmp_path):
    h = _build()
    path = tmp_path / "hierarchy.bin"
    save_hierarchy(path, h)
    back = load_hierarchy(path, h.source_checksum, FACTORS, LENGTHS)
    assert back.vertex_counts() == h.vertex_counts()
    for a, b in zip(h.ref_coords, back.ref_coords):
        assert np.array_equal(a, b)
    for a, b in zip(h.spirals, back.spirals):
        assert np.array_equal(a.indices, b.indices)
    for a, b in zip(h.ups, back.ups):
        assert np.array_equal(a.row_idx, b.row_idx)
        assert np.array_equal(a.weights, b.weights)


def test_cache_key_mismatch_rejected(tmp_path):
    h = _build()
    path = tmp_path / "hierarchy.bin"
    save_hierarchy(path, h)
    with pytest.raises(FormatError):
        load_hierarchy(path, h.source_checksum + 1, FACTORS, LENGTHS)
    with pytest.raises(FormatError):
        load_hierarchy(path, h.source_checksum, (4.0, 4.0, 4.0, 4.0), LENGTHS)
    with pytest.raises(FormatError):
        load_hierarchy(path, h.source_checksum, FACTORS, (9, 8, 8, 7, 5))


def test_get_hierarchy_caches_and_rebuilds(tmp_path, capsys):
    topo, coords = icosphere(1)
    h1 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path))
    cache_file = tmp_path / "hierarchy.bin"
    assert cache_file.exists()
    stamp = cache_file.stat().st_mtime_ns
    h2 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path))
    assert cache_file.stat().st_mtime_ns == stamp   # reused, not rebuilt
    assert h2.vertex_counts() == h1.vertex_counts()

    # ask for different spiral lengths: stale cache is rebuilt with a warning
    capsys.readouterr()
    other = (10, 9, 8, 7, 6)
    h3 = get_hierarchy(topo, coords, FACTORS, other,
                       cache_root=str(tmp_path))
    err = capsys.readouterr().err
    assert "rebuild" in err.lower()
    assert h3.spirals[0].length == 10
    assert cache_file.stat().st_mtime_ns != stamp


def test_get_hierarchy_rebuilds_for_a_new_rest_pose(tmp_path, capsys):
    topo, coords = icosphere(2)
    get_hierarchy(topo, coords, FACTORS, LENGTHS, cache_root=str(tmp_path))
    stretched = coords * np.array([1.0, 1.0, 3.0])
    capsys.readouterr()
    h = get_hierarchy(topo, stretched, FACTORS, LENGTHS,
                      cache_root=str(tmp_path))
    assert "rebuilding hierarchy cache" in capsys.readouterr().err
    _assert_same(h, build_hierarchy(topo, stretched, FACTORS, LENGTHS))


def test_cache_with_trailing_bytes_is_rebuilt(tmp_path, capsys):
    topo, coords = icosphere(1)
    path = tmp_path / hierarchy.CACHE_FILENAME
    save_hierarchy(path, build_hierarchy(topo, coords, FACTORS, LENGTHS))
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes"):
        load_hierarchy(path, topo.checksum, FACTORS, LENGTHS)
    h = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                      cache_root=str(tmp_path))
    assert "rebuilding hierarchy cache" in capsys.readouterr().err
    _assert_same(h, build_hierarchy(topo, coords, FACTORS, LENGTHS))


def test_cache_with_a_bad_face_index_is_rebuilt(tmp_path, capsys):
    topo, coords = icosphere(1)
    path = tmp_path / hierarchy.CACHE_FILENAME
    save_hierarchy(path, build_hierarchy(topo, coords, FACTORS, LENGTHS))
    raw = bytearray(path.read_bytes())
    key = hierarchy._cache_key(topo.checksum, FACTORS, LENGTHS)
    # magic, version, key length, key, level count, vertex count, then the
    # first level's faces as ndim and two dims before the first index
    first_face = 4 + 4 + 4 + len(key) + 4 + 4 + 4 + 8
    assert raw[first_face:first_face + 4] == struct.pack(
        "<i", int(topo.faces[0, 0]))
    raw[first_face:first_face + 4] = struct.pack("<i", 999)
    path.write_bytes(bytes(raw))
    h = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                      cache_root=str(tmp_path))
    assert "rebuilding hierarchy cache" in capsys.readouterr().err
    _assert_same(h, build_hierarchy(topo, coords, FACTORS, LENGTHS))


def test_every_truncated_cache_is_a_format_error(tmp_path):
    topo, coords = icosphere(0)
    path = tmp_path / "hierarchy.bin"
    save_hierarchy(path, build_hierarchy(topo, coords, (2.0,), (5, 4)))
    raw = path.read_bytes()
    # every cut: the header, the key, each level's arrays, both operators
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        expected = "bad hierarchy cache magic" if cut < 4 else \
            "truncated hierarchy cache"
        with pytest.raises(FormatError, match=f"^{expected}"):
            load_hierarchy(path, topo.checksum, (2.0,), (5, 4))


def test_zero_d_array_keeps_its_shape(tmp_path):
    path = tmp_path / "arrays.bin"
    with open(path, "wb") as fh:
        fh.write(b"TEST" + struct.pack("<I", 1))
        write_array(fh, np.float64(1.5), "<f8")
        write_array(fh, np.arange(3), "<i4")
    r = Reader(path, b"TEST", 1, "test file")
    scalar = r.array("<f8")
    assert scalar.shape == () and scalar == 1.5
    assert r.array("<i4").shape == (3,)
    r.end()


def _count_loads(monkeypatch):
    loads = []
    real = hierarchy.load_hierarchy

    def counted(*args, **kwargs):
        loads.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(hierarchy, "load_hierarchy", counted)
    return loads


def test_unchanged_cache_file_gives_the_held_hierarchy(tmp_path, monkeypatch,
                                                       capsys):
    topo, coords = icosphere(1)
    h1 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path))
    loads = _count_loads(monkeypatch)
    assert get_hierarchy(topo, coords, FACTORS, LENGTHS,
                         cache_root=str(tmp_path)) is h1
    assert loads == []

    # other bytes with the same key and rest pose: loaded, not the held one
    cache_file = tmp_path / "hierarchy.bin"
    built = cache_file.read_bytes()
    moved = replace(h1, ref_coords=(h1.ref_coords[0],)
                    + tuple(c + 0.5 for c in h1.ref_coords[1:]))
    save_hierarchy(cache_file, moved)
    h2 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path))
    assert h2 is not h1 and len(loads) == 1
    assert np.array_equal(h2.ref_coords[1], h1.ref_coords[1] + 0.5)
    assert get_hierarchy(topo, coords, FACTORS, LENGTHS,
                         cache_root=str(tmp_path)) is h2
    assert len(loads) == 1

    # garbage: the rebuild message, a fresh build, the file written again
    capsys.readouterr()
    cache_file.write_bytes(b"garbage")
    h3 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path))
    assert "rebuilding hierarchy cache" in capsys.readouterr().err
    assert h3 is not h2 and cache_file.read_bytes() == built
    assert get_hierarchy(topo, coords, FACTORS, LENGTHS,
                         cache_root=str(tmp_path)) is h3


def test_rebuild_never_returns_the_held_hierarchy(tmp_path, monkeypatch):
    topo, coords = icosphere(1)
    h1 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path))
    loads = _count_loads(monkeypatch)
    h2 = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                       cache_root=str(tmp_path), rebuild=True)
    assert h2 is not h1
    assert get_hierarchy(topo, coords, FACTORS, LENGTHS,
                         cache_root=str(tmp_path)) is h2
    assert loads == []


def test_held_hierarchy_arrays_are_read_only(tmp_path):
    topo, coords = icosphere(1)
    h = get_hierarchy(topo, coords, FACTORS, LENGTHS,
                      cache_root=str(tmp_path))
    for arr in (h.ref_coords[0], h.levels[1].faces, h.levels[1].adjacency[0],
                h.spirals[0].indices, h.downs[0].row_idx, h.ups[0].weights):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    coords[0] = 0.0       # the caller's rest pose is copied, not frozen


def test_cache_dir_environment_override(tmp_path, monkeypatch):
    from meshact.hierarchy import cache_dir
    monkeypatch.setenv("SPATR_CACHE_DIR", str(tmp_path / "envcache"))
    assert cache_dir(None) == str(tmp_path / "envcache")
    assert cache_dir(str(tmp_path / "explicit")) == str(tmp_path / "explicit")
