"""The one writer: an artifact is replaced whole or not at all, and its
directory is made on demand."""

from types import SimpleNamespace

import numpy as np
import pytest

from meshact.checkpoint import save_checkpoint
from meshact.classifier import write_confusion_csv
from meshact.sequence import MeshSequence, save_sequence


class Unconvertible:
    """A value whose conversion to an array fails partway through a write."""

    def __array__(self, dtype=None, copy=None):
        raise RuntimeError("conversion failed")

    def __int__(self):
        raise RuntimeError("conversion failed")


def _checkpoint(path, bad):
    tensors = {"a.weight": np.ones((2, 3), dtype=np.float32)}
    if bad:                 # sorts after a.weight, so a.weight is written
        tensors["b.weight"] = Unconvertible()
    save_checkpoint(path, tensors)


def _sequence(path, bad):
    frames = np.zeros((2, 4, 3), dtype=np.float32)
    seq = MeshSequence(frames, label=1, topology_checksum=7)
    if bad:                 # the header is written before the frames
        seq = SimpleNamespace(frames=Unconvertible(), label=1, length=2,
                              vertex_count=4, topology_checksum=7)
    save_sequence(path, seq)


def _confusion(path, bad):
    write_confusion_csv(path, [[2, 0], [1, Unconvertible() if bad else 3]])


@pytest.mark.parametrize("write", [_checkpoint, _sequence, _confusion])
def test_interrupted_write_keeps_the_old_file(tmp_path, write):
    path = tmp_path / "artifact"
    write(path, bad=False)
    before = path.read_bytes()
    with pytest.raises(RuntimeError, match="conversion failed"):
        write(path, bad=True)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


@pytest.mark.parametrize("write", [_checkpoint, _sequence, _confusion])
def test_writer_creates_a_missing_directory(tmp_path, write):
    path = tmp_path / "new" / "nested" / "artifact"
    write(path, bad=False)
    assert path.is_file()
    assert [p.name for p in path.parent.iterdir()] == ["artifact"]

