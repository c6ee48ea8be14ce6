import struct

import numpy as np
import pytest

from toolselect.anp_selector import init_params
from toolselect.checkpoint import (
    MAGIC,
    VERSION,
    load_checkpoint,
    params_to_float32,
    save_checkpoint,
)
from toolselect.errors import CheckpointError
from toolselect.evalharness import eval_panels
from toolselect.trainer import build_model, default_selector_config


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
