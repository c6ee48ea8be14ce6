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
def block_fills(monkeypatch):
    """(world, task, block) of every ``_OutcomeTable`` block filled while
    the test runs, in order."""
    from toolselect.simworld import _OutcomeTable
    fills = []
    fill_block = _OutcomeTable._fill_block

    def counted(self, world, block):
        fills.append((world, self.spec.task, block))
        return fill_block(self, world, block)
    monkeypatch.setattr(_OutcomeTable, "_fill_block", counted)
    return fills


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


def _tensor_entry(name, dims, n_values):
    """One tensor-table entry: name length, name bytes, rank, dims, then
    ``n_values`` float32 zeros."""
    return (struct.pack("<H", len(name)) + name + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
            + np.zeros(n_values, dtype="<f4").tobytes())


# (tensor count, tensor table) of CRC-valid checkpoints whose table is corrupt
_CORRUPT_TABLES = {
    "name_not_utf8": (1, _tensor_entry(b"\xff\xfe", (2,), 2)),
    "rank_200": (1, _tensor_entry(b"w", (1,) * 200, 1)),
    "count_past_body": (3, _tensor_entry(b"w", (2,), 2)),
    "trailing_bytes": (1, _tensor_entry(b"w", (2,), 2) + b"\x00\x00\x00"),
}


@pytest.fixture(params=list(_CORRUPT_TABLES))
def write_corrupt_table(request):
    """A writer of a checkpoint with a valid header and CRC whose tensor
    table is corrupt: a name that is not UTF-8, a rank of 200, a tensor
    count past the body, or bytes after the table."""
    count, table = _CORRUPT_TABLES[request.param]

    def write(path):
        body = b"TSEL" + struct.pack("<II", 1, count) + table
        with open(path, "wb") as fh:
            fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    return write
