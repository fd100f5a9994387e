"""The one file layout of datasets (``.dpds``) and checkpoints (``.dpaw``).

    magic          4 bytes, names the kind of file
    version        uint32, little-endian: FORMAT_VERSION
    header length  uint32, little-endian
    header         UTF-8 JSON (sort_keys): the caller's header fields plus
                   ``blocks``, a list of [name, shape] in payload order
    payload        every block as little-endian float64, C order, back to back
    digest         the first DIGEST_BYTES of the SHA-256 of every byte above

The reader trusts no length in the file: the payload size follows from the
file size, and the digest is verified before the header is parsed.  Every
failure raises DatasetIoError, ChecksumMismatch or FormatVersionMismatch.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import ChecksumMismatch, DatasetIoError, FormatVersionMismatch

FORMAT_VERSION = 2
DIGEST_BYTES = 8
_PREFIX = struct.Struct("<4sII")  # magic, version, header length
_CHUNK = 1 << 17  # float64 values read and hashed at a time (1 MiB)


def write(path, magic: bytes, header: dict, blocks: dict):
    """Write `blocks` (name -> float64 array) under `header` to `path`."""
    arrays = {name: np.ascontiguousarray(value, dtype="<f8")
              for name, value in blocks.items()}
    doc = dict(header, blocks=[[name, list(a.shape)] for name, a in arrays.items()])
    blob = json.dumps(doc, sort_keys=True).encode()
    digest = hashlib.sha256()
    try:
        with open(path, "wb") as fh:
            # arrays are hashed and written through the buffer protocol, so a
            # multi-gigabyte 2D dataset is never copied
            for part in [_PREFIX.pack(magic, FORMAT_VERSION, len(blob)), blob,
                         *arrays.values()]:
                digest.update(part)
                fh.write(part)
            fh.write(digest.digest()[:DIGEST_BYTES])
    except OSError as exc:
        raise DatasetIoError(f"cannot write {path}: {exc}") from exc


def read(path, magic: bytes):
    """(header, blocks) of the file at `path`: the header without its block
    list, and name -> float64 array, each a view of one payload array."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            size = os.fstat(fh.fileno()).st_size
            prefix = fh.read(_PREFIX.size)
            if prefix[:len(magic)] != magic:
                raise DatasetIoError(f"{path} is not a {magic.decode()} file")
            if len(prefix) < _PREFIX.size:
                raise ChecksumMismatch(f"{path} is truncated inside its prefix")
            _, version, header_len = _PREFIX.unpack(prefix)
            if version != FORMAT_VERSION:
                raise FormatVersionMismatch(
                    f"{path} has format version {version}; only version "
                    f"{FORMAT_VERSION} is read: re-run gen-data or train")
            payload_bytes = size - _PREFIX.size - header_len - DIGEST_BYTES
            if payload_bytes < 0 or payload_bytes % 8:
                raise ChecksumMismatch(
                    f"{path} is truncated or damaged: a {header_len}-byte header "
                    f"leaves {payload_bytes} payload bytes in {size}")
            digest = hashlib.sha256(prefix)
            blob = fh.read(header_len)
            digest.update(blob)
            flat = np.empty(payload_bytes // 8, dtype="<f8")
            for start in range(0, flat.size, _CHUNK):
                chunk = flat[start:start + _CHUNK]
                if fh.readinto(chunk) != chunk.nbytes:
                    raise ChecksumMismatch(f"{path} is truncated inside its payload")
                digest.update(chunk)
            stored = fh.read()
        except OSError as exc:
            raise DatasetIoError(f"cannot read {path}: {exc}") from exc
    if stored != digest.digest()[:DIGEST_BYTES]:
        raise ChecksumMismatch(f"{path} does not match its checksum")
    return _parse(path, blob, flat)


def _parse(path, blob: bytes, flat: np.ndarray):
    try:
        header = json.loads(blob.decode())
        layout = header.pop("blocks")
        blocks, offset = {}, 0
        for name, shape in layout:
            if not all(type(n) is int and n >= 0 for n in shape):
                raise ValueError(f"block {name!r} has shape {shape}")
            size = math.prod(shape)
            blocks[name] = flat[offset:offset + size].reshape(shape)
            offset += size
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DatasetIoError(
            f"{path} header is malformed: {type(exc).__name__}: {exc}") from exc
    if offset != flat.size:
        raise DatasetIoError(
            f"{path} header lists {offset} values; the payload holds {flat.size}")
    return header, blocks
