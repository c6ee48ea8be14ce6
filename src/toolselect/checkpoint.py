"""Binary selector checkpoint: magic, version, named float32 tensors, CRC."""

import os
import struct
import tempfile
import zlib

import numpy as np

from . import diffcore as dc
from .errors import CheckpointError

MAGIC = b"TSEL"
VERSION = 1


def save_checkpoint(params, path):
    """Serialize a name->Tensor dict as little-endian float32 with a CRC.

    A tensor that is not finite in float32 (NaN, inf, or a value past the
    float32 range) is a ``CheckpointError`` naming it, and no file is written.
    """
    body = bytearray()
    body += MAGIC
    body += struct.pack("<I", VERSION)
    body += struct.pack("<I", len(params))
    for name in sorted(params):
        with np.errstate(over="ignore"):
            data = np.asarray(params[name].data if isinstance(params[name], dc.Tensor)
                              else params[name], dtype=np.float32)
        _check_finite(name, data)
        encoded = name.encode("utf-8")
        body += struct.pack("<H", len(encoded))
        body += encoded
        body += struct.pack("<B", data.ndim)
        for dim in data.shape:
            body += struct.pack("<I", dim)
        body += data.astype("<f4").tobytes(order="C")
    body += struct.pack("<I", zlib.crc32(bytes(body)) & 0xFFFFFFFF)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(bytes(body))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Load a checkpoint back into a name -> float64 array dict.

    Values carry float32 precision exactly (bit-exact round-trip at f32). A
    tensor holding NaN or inf is a ``CheckpointError`` naming it, even in a
    file whose CRC is valid.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointError("checkpoint truncated: shorter than header+crc")
    body, crc_bytes = blob[:-4], blob[-4:]
    (crc_stored,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError("checkpoint CRC mismatch")
    if body[:4] != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {body[:4]!r}")
    offset = 4
    (version,) = struct.unpack_from("<I", body, offset)
    offset += 4
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack_from("<I", body, offset)
    offset += 4
    out = {}
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", body, offset)
            offset += 2
            name = body[offset:offset + name_len].decode("utf-8")
            offset += name_len
            (rank,) = struct.unpack_from("<B", body, offset)
            offset += 1
            dims = struct.unpack_from(f"<{rank}I", body, offset) if rank else ()
            offset += 4 * rank
            n = int(np.prod(dims)) if dims else 1
            arr = np.frombuffer(body, dtype="<f4", count=n, offset=offset)
            offset += 4 * n
            out[name] = arr.reshape(dims).astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise CheckpointError(f"corrupt tensor table: {exc}") from exc
    if offset != len(body):
        raise CheckpointError("trailing bytes after tensor table")
    for name, arr in out.items():
        _check_finite(name, arr)
    return out


def _check_finite(name, data):
    if not np.isfinite(data).all():
        raise CheckpointError(f"checkpoint tensor {name!r} is not finite in float32")
