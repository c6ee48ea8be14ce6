import struct
import zlib

import numpy as np
import pytest
from hypothesis import settings

from toolselect import diffcore as dc
from toolselect.simworld import WorldConfig, generate_world

# Property tests draw the same examples on every run and have no deadline,
# so the suite stays deterministic and does not fail on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def small_world():
    """One shared small 4-task world for fast unit tests."""
    cfg = WorldConfig(n_train=200, n_val=40, n_test=120, n_ref_pool=200,
                      tools_per_task=6, ref_size=8)
    return generate_world(cfg, 0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def handed_dtypes(monkeypatch):
    """The set of dtypes of the gradients handed to ``Tensor.accumulate``
    while the test runs; a test may clear it between cases."""
    handed = set()
    accumulate = dc.Tensor.accumulate

    def spy(self, g):
        handed.add(np.asarray(g).dtype)
        accumulate(self, g)
    monkeypatch.setattr(dc.Tensor, "accumulate", spy)
    return handed


@pytest.fixture
def write_unchecked_checkpoint():
    """A writer of the checkpoint format (magic, version, float32 tensors,
    CRC) that checks nothing, for files ``save_checkpoint`` would refuse."""
    def write(tensors, path):
        body = bytearray(b"TSEL" + struct.pack("<II", 1, len(tensors)))
        for name in sorted(tensors):
            data = np.asarray(tensors[name], dtype="<f4")
            encoded = name.encode("utf-8")
            body += struct.pack("<H", len(encoded)) + encoded + struct.pack("<B", data.ndim)
            body += struct.pack(f"<{data.ndim}I", *data.shape) + data.tobytes()
        body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
        with open(path, "wb") as fh:
            fh.write(bytes(body))
    return write
