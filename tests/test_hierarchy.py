"""Hierarchy assembly and the on-disk cache."""

import numpy as np
import pytest

from meshact.errors import FormatError
from meshact.hierarchy import (build_hierarchy, get_hierarchy, load_hierarchy,
                               save_hierarchy)
from meshact.topology import icosphere

FACTORS = (2.0, 2.0, 2.0, 2.0)
LENGTHS = (9, 8, 8, 7, 6)


def _build():
    topo, coords = icosphere(1)
    return build_hierarchy(topo, coords, FACTORS, LENGTHS)


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
    fresh = build_hierarchy(topo, stretched, FACTORS, LENGTHS)
    for a, b in zip(h.ref_coords, fresh.ref_coords):
        assert np.array_equal(a, b)
    for a, b in zip(h.levels, fresh.levels):
        assert np.array_equal(a.faces, b.faces)
    for a, b in zip(h.spirals, fresh.spirals):
        assert np.array_equal(a.indices, b.indices)
    for a, b in zip(h.downs + h.ups, fresh.downs + fresh.ups):
        assert np.array_equal(a.col_idx, b.col_idx)
        assert np.array_equal(a.weights, b.weights)


def test_cache_dir_environment_override(tmp_path, monkeypatch):
    from meshact.hierarchy import cache_dir
    monkeypatch.setenv("SPATR_CACHE_DIR", str(tmp_path / "envcache"))
    assert cache_dir(None) == str(tmp_path / "envcache")
    assert cache_dir(str(tmp_path / "explicit")) == str(tmp_path / "explicit")
