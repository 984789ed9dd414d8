"""Artifact readers: checkpoints and the embedding cache round-trip byte
for byte, and every malformed or truncated file is a FormatError."""

import numpy as np
import pytest

from meshact import spae
from meshact.checkpoint import load_checkpoint, save_checkpoint
from meshact.engine import Tensor
from meshact.errors import FormatError
from meshact.optim import AdamState


SHAPES = {"b.bias": (3,), "a.weight": (2, 3), "s.scale": (1,)}


def _float32s(draw):
    return {name: draw(shape).astype(np.float32)
            for name, shape in SHAPES.items()}


def _write(tmp_path, with_adam):
    rng = np.random.default_rng(0)
    arrays = _float32s(rng.standard_normal)
    adam = None
    if with_adam:
        adam = AdamState(step_count=7, beta1=0.85, beta2=0.995, epsilon=1e-7,
                         first_moment=_float32s(rng.standard_normal),
                         second_moment=_float32s(rng.random))
    path = tmp_path / "x.ckpt"
    # parameters arrive as Tensors, extra tensors as plain arrays
    save_checkpoint(path, {**arrays, "a.weight": Tensor(arrays["a.weight"])},
                    adam)
    return path, arrays, adam


def _bytes(arrays: dict) -> dict:
    return {name: (a.dtype, a.shape, a.tobytes())
            for name, a in arrays.items()}


@pytest.mark.parametrize("with_adam", [False, True])
def test_checkpoint_round_trip_is_byte_exact(tmp_path, with_adam):
    path, arrays, adam = _write(tmp_path, with_adam)
    loaded, state = load_checkpoint(path)
    assert list(loaded) == sorted(SHAPES)
    assert _bytes(loaded) == _bytes(arrays)
    if with_adam:
        assert (state.step_count, state.beta1, state.beta2, state.epsilon) \
            == (7, 0.85, 0.995, 1e-7)
        assert _bytes(state.first_moment) == _bytes(adam.first_moment)
        assert _bytes(state.second_moment) == _bytes(adam.second_moment)
    else:
        assert state is None
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, state)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_bad_magic_and_version(tmp_path):
    path, _, _ = _write(tmp_path, False)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(FormatError, match="version 2"):
        load_checkpoint(path)


@pytest.mark.parametrize("with_adam", [False, True])
def test_every_truncated_checkpoint_is_a_format_error(tmp_path, with_adam):
    path, _, _ = _write(tmp_path, with_adam)
    raw = path.read_bytes()
    # every cut: in the header, the tensor block, the optimizer flag and,
    # with Adam state, its scalars and both moment blocks
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        expected = "bad checkpoint magic" if cut < 4 else \
            "truncated checkpoint"
        with pytest.raises(FormatError, match=f"^{expected}"):
            load_checkpoint(path)


@pytest.mark.parametrize("with_adam", [False, True])
def test_checkpoint_with_trailing_bytes_is_a_format_error(tmp_path,
                                                          with_adam):
    path, _, _ = _write(tmp_path, with_adam)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes"):
        load_checkpoint(path)


def test_tensor_name_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "x.ckpt"
    save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF          # the first byte of the only tensor name
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="not UTF-8.*x.ckpt"):
        load_checkpoint(path)


def test_zero_d_tensor_keeps_its_shape(tmp_path):
    path = tmp_path / "x.ckpt"
    tensors = {"t.scalar": np.float32(2.5), "t.vector": np.zeros(3)}
    save_checkpoint(path, tensors)
    loaded, _ = load_checkpoint(path)
    assert loaded["t.scalar"].shape == ()
    assert loaded["t.scalar"] == np.float32(2.5)
    assert loaded["t.vector"].shape == (3,)


def _embeddings(tmp_path):
    rng = np.random.default_rng(1)
    embedded = [(rng.standard_normal((5, 4)).astype(np.float32), 2),
                (rng.standard_normal((3, 4)).astype(np.float32), 0)]
    path = tmp_path / "x.emb"
    spae.save_embeddings(path, embedded)
    return path, embedded


def test_embeddings_round_trip_is_byte_exact(tmp_path):
    path, embedded = _embeddings(tmp_path)
    back = spae.load_embeddings(path)
    assert [(e.tobytes(), l) for e, l in back] == \
        [(e.tobytes(), l) for e, l in embedded]
    again = tmp_path / "again.emb"
    spae.save_embeddings(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_embeddings_bad_magic_and_version(tmp_path):
    path, _ = _embeddings(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError, match="magic"):
        spae.load_embeddings(path)
    path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])
    with pytest.raises(FormatError, match="version 2"):
        spae.load_embeddings(path)


def _expected_error(cut: int, embedded) -> str:
    if cut < 4:
        return "bad embedding cache magic"
    if cut < 16:
        return "truncated embedding cache header"
    at = 16
    for i, (emb, _) in enumerate(embedded):
        if cut < at + 8:
            return f"truncated embedding cache at sequence {i}"
        at += 8 + emb.nbytes
        if cut < at:
            return f"truncated embedding payload at sequence {i}"
    raise AssertionError(f"cut {cut} is past the end")


def test_every_truncated_embedding_cache_is_a_format_error(tmp_path):
    path, embedded = _embeddings(tmp_path)
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError,
                           match=f"^{_expected_error(cut, embedded)}"):
            spae.load_embeddings(path)


def test_embedding_cache_with_trailing_bytes_is_a_format_error(tmp_path):
    path, _ = _embeddings(tmp_path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(FormatError, match="7 trailing bytes"):
        spae.load_embeddings(path)
