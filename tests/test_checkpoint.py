import struct
import warnings

import numpy as np
import pytest

from toolselect.anp_selector import init_params
from toolselect.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    save_checkpoint,
)
from toolselect.errors import CheckpointError
from toolselect.evalharness import eval_panels
from toolselect.trainer import build_model, default_selector_config

from per_query import params_to_float32


def test_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(0)
    params = {"a": rng.standard_normal((3, 4)), "b": rng.standard_normal(5),
              "c": np.array(2.5)}
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert sorted(loaded) == ["a", "b", "c"]
    for name, arr in params.items():
        expect = np.asarray(arr, dtype=np.float32).astype(np.float64)
        np.testing.assert_array_equal(loaded[name], expect)
        assert loaded[name].shape == np.asarray(arr).shape
        assert loaded[name].dtype == np.float64


def test_export_is_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    params = {"w": rng.standard_normal((4, 4)), "b": rng.standard_normal(4)}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(params, p1)
    save_checkpoint(params, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_truncated_file_fails_crc(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint({"w": np.ones((2, 2))}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-7])
    with pytest.raises(CheckpointError, match="CRC|truncated"):
        load_checkpoint(path)


def test_flipped_byte_fails_crc(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint({"w": np.ones((2, 2))}, path)
    blob = bytearray(path.read_bytes())
    blob[20] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="CRC"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint({"w": np.ones(2)}, path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"XXXX"
    body = bytes(blob[:-4])
    import zlib
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_future_version_rejected(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint({"w": np.ones(2)}, path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = struct.pack("<I", VERSION + 1)
    body = bytes(blob[:-4])
    import zlib
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_header_constants():
    assert MAGIC == b"TSEL" and VERSION == 1


def test_selector_scores_survive_round_trip(tmp_path, small_world):
    """Routing with f32-rounded params is bit-identical after reload and
    within float32 noise of the original float64 parameters."""
    from toolselect import diffcore as dc
    cfg = default_selector_config(small_world)
    params64 = init_params(cfg, 0)
    params32 = params_to_float32(params64)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(params64, path)
    loaded = {k: dc.Tensor(v, requires_grad=True)
              for k, v in load_checkpoint(path).items()}
    for k in params32:
        np.testing.assert_array_equal(params32[k].data, loaded[k].data)

    m64 = build_model(small_world, params64, cfg)
    m32 = build_model(small_world, loaded, cfg)
    panels = eval_panels(small_world, "test", 4, seed=0)
    for lq, panel in list(zip(small_world.splits["test"], panels))[:20]:
        d64 = m64.select(lq.query, panel)
        d32 = m32.select(lq.query, panel)
        np.testing.assert_allclose(d32.probs, d64.probs, atol=1e-4)
        again = m32.select(lq.query, panel)
        np.testing.assert_array_equal(d32.probs, again.probs)


def test_the_unchecked_writer_writes_what_save_checkpoint_writes(tmp_path,
                                                                  write_unchecked_checkpoint):
    params = {"w": np.arange(6.0).reshape(2, 3) / 7, "b": np.array([0.5, -2.0]), "s": np.array(3.0)}
    save_checkpoint(params, tmp_path / "a.bin")
    write_unchecked_checkpoint(params, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan],
                         ids=["past_float32", "past_float32_negative", "inf", "nan"])
def test_save_refuses_a_tensor_not_finite_in_float32(tmp_path, value):
    """The tensor is named, no ``RuntimeWarning`` of the cast escapes, and
    neither the checkpoint nor a temporary file is left behind."""
    params = {"a_b": np.ones(3), "head1_W": np.array([[0.5, value], [1.0, 2.0]])}
    path = tmp_path / "ckpt.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CheckpointError, match="tensor 'head1_W' is not finite in float32"):
            save_checkpoint(params, path)
    assert list(tmp_path.iterdir()) == []


def test_a_refused_save_keeps_the_checkpoint_already_there(tmp_path):
    path = tmp_path / "ckpt.bin"
    save_checkpoint({"w": np.ones(2)}, path)
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="'w'"):
        save_checkpoint({"w": np.array([1.0, np.nan])}, path)
    assert path.read_bytes() == before and list(tmp_path.iterdir()) == [path]


def test_save_accepts_the_largest_float32(tmp_path):
    top = float(np.finfo(np.float32).max)
    save_checkpoint({"w": np.array([top, -top])}, tmp_path / "ckpt.bin")
    assert load_checkpoint(tmp_path / "ckpt.bin")["w"].tolist() == [top, -top]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
def test_load_refuses_a_crc_valid_tensor_holding_nan_or_inf(tmp_path, value,
                                                             write_unchecked_checkpoint):
    path = tmp_path / "ckpt.bin"
    write_unchecked_checkpoint({"a": np.zeros(2), "cov1_W": np.array([[1.0, value]])}, path)
    with pytest.raises(CheckpointError, match="tensor 'cov1_W' is not finite in float32"):
        load_checkpoint(path)


def test_load_refuses_a_crc_valid_corrupt_tensor_table(tmp_path, write_corrupt_table):
    path = tmp_path / "ckpt.bin"
    write_corrupt_table(path)
    with pytest.raises(CheckpointError, match="tensor table"):
        load_checkpoint(path)
