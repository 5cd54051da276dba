"""Binary containers for point clouds and model checkpoints.

Point clouds use a little-endian container: magic ``MDPC``, u32 version 2,
u32 N, u32 d, u8 molecule-type code, then exactly N x 3 points and N x d
features as f8. Checkpoints use magic ``MDCK`` with a CRC-32 trailer over the
payload. Round trips are lossless at 64-bit precision.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path

import numpy as np

__all__ = [
    "FormatError",
    "ChecksumError",
    "write_pointcloud",
    "read_pointcloud",
    "save_checkpoint",
    "load_checkpoint",
    "atomic_write_bytes",
    "atomic_write_text",
]

POINTCLOUD_MAGIC = b"MDPC"
CHECKPOINT_MAGIC = b"MDCK"
_VERSION = 1              # checkpoints
_POINTCLOUD_VERSION = 2   # version 1 also stored unit normals

_TYPE_CODES = {"protein": 0, "small-molecule": 1}
_TYPE_NAMES = {v: k for k, v in _TYPE_CODES.items()}


class FormatError(ValueError):
    """A file does not follow its format: bad magic, version, truncated
    payload, or a malformed label."""


class ChecksumError(FormatError):
    """Checkpoint payload does not match its CRC-32 trailer."""


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file + rename so readers never see partial output."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


# ---------------------------------------------------------------------------
# point-cloud container
# ---------------------------------------------------------------------------

def encode_pointcloud(cloud) -> bytes:
    """Serialize a SurfacePointCloud (duck-typed: points/features/molecule_type)."""
    points = np.ascontiguousarray(cloud.points, dtype="<f8")
    features = np.ascontiguousarray(cloud.features, dtype="<f8")
    n = points.shape[0]
    d = features.shape[1] if features.ndim == 2 else 0
    header = POINTCLOUD_MAGIC + struct.pack(
        "<IIIB", _POINTCLOUD_VERSION, n, d, _TYPE_CODES[cloud.molecule_type]
    )
    return header + points.tobytes() + features.tobytes()


def decode_pointcloud(blob: bytes):
    from .surface import SurfacePointCloud  # local import to avoid a cycle

    if blob[:4] != POINTCLOUD_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {POINTCLOUD_MAGIC!r}")
    if len(blob) < 4 + 13:
        raise FormatError("truncated point-cloud header")
    version, n, d, type_code = struct.unpack("<IIIB", blob[4:17])
    if version != _POINTCLOUD_VERSION:
        raise FormatError(f"unsupported point-cloud version {version}")
    if type_code not in _TYPE_NAMES:
        raise FormatError(f"unknown molecule-type code {type_code}")
    need = 17 + 8 * n * (3 + d)
    if len(blob) != need:
        kind = "truncated payload" if len(blob) < need else "payload longer than its header"
        raise FormatError(f"{kind}: need {need} bytes, have {len(blob)}")
    points = np.frombuffer(blob, "<f8", n * 3, 17).reshape(n, 3).copy()
    features = np.frombuffer(blob, "<f8", n * d, 17 + 8 * n * 3).reshape(n, d).copy()
    return SurfacePointCloud(points, features, _TYPE_NAMES[type_code])


def write_pointcloud(cloud, path) -> None:
    atomic_write_bytes(path, encode_pointcloud(cloud))


def read_pointcloud(path):
    """Load and validate a point cloud; a malformed file raises FormatError naming ``path``."""
    from .surface import SurfaceError

    try:
        return decode_pointcloud(Path(path).read_bytes())
    except (FormatError, SurfaceError) as err:
        raise FormatError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

def _pack_array(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    name_b = name.encode()
    shape = arr.shape
    head = struct.pack("<HB", len(name_b), len(shape)) + name_b
    head += struct.pack(f"<{len(shape)}I", *shape)
    return head + arr.tobytes()


def save_checkpoint(path, params: dict[str, np.ndarray], config_digest: str, meta: dict | None = None) -> None:
    """Serialize named parameter arrays plus the config digest and metadata.

    ``meta`` values must be floats/ints/strings; they are stored as text.
    """
    body = bytearray()
    digest_b = config_digest.encode()
    body += struct.pack("<H", len(digest_b)) + digest_b
    meta = meta or {}
    meta_text = "\n".join(f"{k}={v}" for k, v in sorted(meta.items()))
    meta_b = meta_text.encode()
    body += struct.pack("<I", len(meta_b)) + meta_b
    body += struct.pack("<I", len(params))
    for name in sorted(params):
        body += _pack_array(name, params[name])
    payload = bytes(body)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    blob = CHECKPOINT_MAGIC + struct.pack("<I", _VERSION) + payload + struct.pack("<I", crc)
    atomic_write_bytes(path, blob)


def load_checkpoint(path, expected_digest: str | None = None, warn=print):
    """Load a checkpoint; digest mismatch warns (via ``warn``) but still loads."""
    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    if len(blob) < 12:
        raise FormatError(f"truncated checkpoint: {len(blob)} bytes, under the 12-byte header")
    (version,) = struct.unpack("<I", blob[4:8])
    if version != _VERSION:
        raise FormatError(f"unsupported checkpoint version {version}")
    payload, trailer = blob[8:-4], blob[-4:]
    (crc_stored,) = struct.unpack("<I", trailer)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise ChecksumError("checkpoint CRC-32 mismatch (corrupted file)")
    off = 0
    (dlen,) = struct.unpack_from("<H", payload, off)
    off += 2
    digest = payload[off : off + dlen].decode()
    off += dlen
    (mlen,) = struct.unpack_from("<I", payload, off)
    off += 4
    meta_text = payload[off : off + mlen].decode()
    off += mlen
    meta = {}
    for line in meta_text.splitlines():
        k, v = line.split("=", 1)
        meta[k] = v
    (count,) = struct.unpack_from("<I", payload, off)
    off += 4
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        nlen, ndim = struct.unpack_from("<HB", payload, off)
        off += 3
        name = payload[off : off + nlen].decode()
        off += nlen
        shape = struct.unpack_from(f"<{ndim}I", payload, off)
        off += 4 * ndim
        size = int(np.prod(shape)) if ndim else 1
        arr = np.frombuffer(payload, "<f8", size, off).reshape(shape).copy()
        off += 8 * size
        params[name] = arr
    if expected_digest is not None and digest != expected_digest:
        warn(
            f"checkpoint config digest {digest} does not match current config "
            f"{expected_digest}; loading anyway"
        )
    return params, digest, meta
