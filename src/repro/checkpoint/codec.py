"""Canonical binary codec for checkpoint snapshots.

The snapshot contract is *bit-identity*: two captures of the same
simulation state must encode to the same bytes, and decoding must give
back exactly the value that was encoded — including every float bit
pattern (NaN payloads, signed zeros, infinities, subnormals).  JSON
cannot do this (it has one NaN spelling and decimal round-trips), so
snapshots use a small tagged binary encoding instead:

==========  ==================================================
tag         value
==========  ==================================================
``N``       None
``T``/``F`` True / False
``I``       int (decimal text, unbounded)
``D``       float, raw little-endian IEEE-754 bits
``S``       str (utf-8)
``B``       bytes
``L``/``U`` list / tuple, length-prefixed items
``M``       dict, items sorted by encoded key bytes
``A``       ``array.array``, typecode + raw buffer
==========  ==================================================

Dict items are sorted by their *encoded key bytes*, so encoding is
insensitive to insertion order (and well-defined for mixed key types);
container identity (list vs tuple) survives the round trip.

On disk a snapshot is ``magic | version | sha256(body) | len | body``
written atomically (temp file + ``os.replace``).  Readers verify the
magic, the version and the content hash before decoding; any mismatch
raises :class:`CheckpointCorruptError` / :class:`CheckpointVersionError`
rather than returning a silently wrong state.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from array import array
from typing import Any, List, Tuple

from ..core.errors import SimConfigError, SimError

#: File magic for snapshot files.
MAGIC = b"RPSNAP"
#: Bump on any change to the encoding, the captured-state schema, the
#: meaning of a boundary or the ``ArchConfig`` fields a snapshot carries
#: (3: sharded boundaries became virtual times — a version-2 sharded
#: file counts coordination rounds — and ``worker_start_method`` left
#: the config, so an older file would otherwise fail
#: ``ArchConfig(**config)`` with a TypeError instead of this error;
#: 4: the captured ``columns`` lost ``inbox_len``, so a version-3 file
#: would otherwise fail as a replay mismatch; 5: the three round-protocol
#: settings left the config for constants, so a version-4 file would
#: again fail ``ArchConfig(**config)`` with a TypeError; 6: five
#: model-variant switches left the config and its two shadow fields
#: became the one ``shadow`` setting, the same TypeError again).
CHECKPOINT_VERSION = 6

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


class CheckpointError(SimError):
    """Base class for checkpoint failures."""


class CheckpointIntervalError(CheckpointError, SimConfigError):
    """``checkpoint_every`` is not a positive virtual time (a config
    error of the run as much as a checkpoint error)."""


class CheckpointCorruptError(CheckpointError):
    """The snapshot bytes fail the magic, hash or structural checks."""


class CheckpointVersionError(CheckpointError):
    """The snapshot was written by an incompatible codec version."""


class CheckpointMismatchError(CheckpointError):
    """Replayed state diverged from the captured state (determinism bug)."""


# -- encoding -----------------------------------------------------------------

def _encode_into(obj: Any, out: List[bytes]) -> None:
    if obj is None:
        out.append(b"N")
    elif obj is True:
        out.append(b"T")
    elif obj is False:
        out.append(b"F")
    elif isinstance(obj, int):
        text = str(obj).encode()
        out.append(b"I" + _U32.pack(len(text)) + text)
    elif isinstance(obj, float):
        out.append(b"D" + _F64.pack(obj))
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(b"S" + _U32.pack(len(data)) + data)
    elif isinstance(obj, (bytes, bytearray)):
        out.append(b"B" + _U32.pack(len(obj)) + bytes(obj))
    elif isinstance(obj, (list, tuple)):
        out.append((b"L" if isinstance(obj, list) else b"U")
                   + _U32.pack(len(obj)))
        for item in obj:
            _encode_into(item, out)
    elif isinstance(obj, dict):
        pairs = []
        for key, value in obj.items():
            kparts: List[bytes] = []
            _encode_into(key, kparts)
            vparts: List[bytes] = []
            _encode_into(value, vparts)
            pairs.append((b"".join(kparts), b"".join(vparts)))
        pairs.sort(key=lambda kv: kv[0])
        out.append(b"M" + _U32.pack(len(pairs)))
        for kbytes, vbytes in pairs:
            out.append(kbytes)
            out.append(vbytes)
    elif isinstance(obj, array):
        raw = obj.tobytes()
        out.append(b"A" + obj.typecode.encode("ascii")
                   + _U32.pack(len(raw)) + raw)
    else:
        raise CheckpointError(
            f"cannot encode {type(obj).__name__!r} into a snapshot; "
            "capture code must reduce state to plain containers first")


def encode(obj: Any) -> bytes:
    """Encode ``obj`` into canonical snapshot bytes."""
    out: List[bytes] = []
    _encode_into(obj, out)
    return b"".join(out)


# -- decoding -----------------------------------------------------------------

def _decode_at(data: bytes, pos: int) -> Tuple[Any, int]:
    try:
        tag = data[pos:pos + 1]
        if tag == b"N":
            return None, pos + 1
        if tag == b"T":
            return True, pos + 1
        if tag == b"F":
            return False, pos + 1
        if tag == b"I":
            (n,) = _U32.unpack_from(data, pos + 1)
            start = pos + 5
            return int(data[start:start + n].decode()), start + n
        if tag == b"D":
            (value,) = _F64.unpack_from(data, pos + 1)
            return value, pos + 9
        if tag == b"S":
            (n,) = _U32.unpack_from(data, pos + 1)
            start = pos + 5
            return data[start:start + n].decode("utf-8"), start + n
        if tag == b"B":
            (n,) = _U32.unpack_from(data, pos + 1)
            start = pos + 5
            if start + n > len(data):
                raise ValueError("truncated bytes")
            return data[start:start + n], start + n
        if tag in (b"L", b"U"):
            (n,) = _U32.unpack_from(data, pos + 1)
            pos += 5
            items = []
            for _ in range(n):
                item, pos = _decode_at(data, pos)
                items.append(item)
            return (items if tag == b"L" else tuple(items)), pos
        if tag == b"M":
            (n,) = _U32.unpack_from(data, pos + 1)
            pos += 5
            result = {}
            for _ in range(n):
                key, pos = _decode_at(data, pos)
                value, pos = _decode_at(data, pos)
                result[key] = value
            return result, pos
        if tag == b"A":
            typecode = data[pos + 1:pos + 2].decode("ascii")
            (n,) = _U32.unpack_from(data, pos + 2)
            start = pos + 6
            if start + n > len(data):
                raise ValueError("truncated array")
            arr = array(typecode)
            arr.frombytes(data[start:start + n])
            return arr, start + n
        raise ValueError(f"unknown tag {tag!r} at offset {pos}")
    except CheckpointCorruptError:
        raise
    except Exception as exc:
        raise CheckpointCorruptError(
            f"snapshot body is structurally invalid at offset {pos}: {exc}"
        ) from exc


def decode(data: bytes) -> Any:
    """Decode canonical snapshot bytes back into the original value."""
    value, end = _decode_at(data, 0)
    if end != len(data):
        raise CheckpointCorruptError(
            f"{len(data) - end} trailing bytes after the encoded value")
    return value


def content_hash(obj: Any) -> str:
    """sha256 hex digest over the canonical encoding of ``obj``."""
    return hashlib.sha256(encode(obj)).hexdigest()


# -- snapshot files -----------------------------------------------------------

def write_snapshot_file(path: str, payload: Any) -> str:
    """Atomically write ``payload`` as a snapshot file; return its hash.

    The temp file lives in the destination directory so ``os.replace``
    is a same-filesystem atomic rename: readers see either the previous
    snapshot or the complete new one, never a torn write.
    """
    body = encode(payload)
    digest = hashlib.sha256(body).digest()
    blob = (MAGIC + _U32.pack(CHECKPOINT_VERSION) + digest
            + _U64.pack(len(body)) + body)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return digest.hex()


def read_snapshot_file(path: str) -> Any:
    """Read and verify a snapshot file written by :func:`write_snapshot_file`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header = len(MAGIC) + 4 + 32 + 8
    if len(blob) < header or not blob.startswith(MAGIC):
        raise CheckpointCorruptError(f"{path} is not a snapshot file")
    (version,) = _U32.unpack_from(blob, len(MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path} is snapshot version {version}; this build reads "
            f"version {CHECKPOINT_VERSION}")
    digest = blob[len(MAGIC) + 4:len(MAGIC) + 36]
    (length,) = _U64.unpack_from(blob, len(MAGIC) + 36)
    body = blob[header:]
    if len(body) != length:
        raise CheckpointCorruptError(
            f"{path}: body is {len(body)} bytes, header says {length}")
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointCorruptError(f"{path}: content hash mismatch")
    return decode(body)
