"""Shared plumbing: error types, seed derivation, stable hashing, atomic
writes, and the logistic function."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np


class CmrecError(Exception):
    """Base error; exit_code drives the CLI exit status."""

    exit_code = 3


class ConfigError(CmrecError):
    exit_code = 1


class DataError(CmrecError):
    exit_code = 2


class StageError(CmrecError):
    exit_code = 3


def stage_seed(seed: int, *labels: str) -> int:
    """Derive a per-stage seed from the global seed and a label path.

    Labeled fan-out keeps each stage's randomness independent of the
    others: adding a stage never perturbs existing ones.
    """
    key = f"{seed}|" + "/".join(labels)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFFFFFFFFFF


def stable_bucket(value: int | str, seed: int, buckets: int) -> int:
    """Hash a user id into one of `buckets` folds, independent of PYTHONHASHSEED."""
    key = f"{seed}#{value}"
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % buckets


def params_hash(payload) -> str:
    """Short content hash of a parameter mapping (or any JSON-able value).

    Key order does not matter; the same parameters always produce the
    same tag, which keeps derived feature names stable across runs.
    """
    canon = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha1(canon.encode("utf-8")).hexdigest()[:8]


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def fmt(x: float) -> str:
    """Shortest round-trip decimal form; keeps feature tables lossless."""
    return repr(float(x))


def atomic_write_bytes(path: Path | str, payload: bytes) -> None:
    """Write via temp-then-rename so partially written files never appear;
    a failed write or rename removes the temp file and re-raises."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Path | str, text: str) -> None:
    """atomic_write_bytes of the text's UTF-8 encoding."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_save_npy(path: Path | str, array: np.ndarray) -> None:
    """atomic_write_bytes of the bytes np.save writes for the array."""
    buf = io.BytesIO()
    np.save(buf, array)
    atomic_write_bytes(path, buf.getvalue())
