"""Shared plumbing: error types, the config-document loader, seed
derivation, stable hashing, the workspace file codec and the sigmoid."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import types
import typing
from collections.abc import Mapping, Sequence
from dataclasses import MISSING
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


def read_json_object(path) -> dict:
    """The JSON object in the file at path; anything else is a ConfigError."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"config root must be an object: {path}")
    return payload


def from_dict(cls, payload, where: str = "config"):
    """The frozen dataclass cls built from a JSON object whose keys are its
    fields (all those without a default), each value fitting its
    annotation: see _typed. A ValueError or TypeError from cls becomes a
    ConfigError naming where, the object's path in its document."""
    if not isinstance(payload, Mapping):
        raise ConfigError(f"{where} must be an object, not {payload!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config keys in {where}: {unknown}")
    for name, f in fields.items():
        required = f.default is MISSING and f.default_factory is MISSING
        if required and name not in payload:
            raise ConfigError(f"missing required config key {name!r} in {where}")
    hints = _type_hints(cls)
    kwargs = {k: _typed(hints[k], v, f"{where}.{k}")
              for k, v in payload.items()}
    try:
        return cls(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


# annotations evaluated once per class
_type_hints = functools.cache(typing.get_type_hints)


def _typed(tp, value, where: str):
    """value as the annotation tp takes it: a str, bool, int, finite float
    (an int is kept as is), None, Literal, tuple[X, ...] from a list,
    Mapping[str, X] from an object, a union of these or a dataclass
    (from_dict)."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        return from_dict(tp, value, where)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        *others, last = [arg for arg in args if arg is not type(None)]
        for arg in others:
            with contextlib.suppress(ConfigError):
                return _typed(arg, value, where)
        return _typed(last, value, where)
    if origin is tuple and isinstance(value, (list, tuple)):
        # a list of strings (an id list) takes no walk per item
        if args[0] is str and all(type(v) is str for v in value):
            return tuple(value)
        # list items are labelled by their "name", where they have one
        labels = [v.get("name", i) if isinstance(v, Mapping) else i
                  for i, v in enumerate(value)]
        return tuple(_typed(args[0], v, f"{where}[{label!r}]")
                     for label, v in zip(labels, value))
    if origin is Mapping and isinstance(value, Mapping):
        return {k: _typed(args[1], v, f"{where}[{k!r}]") if args else v
                for k, v in value.items()}
    if origin is typing.Literal and value in args:
        return value
    # a bool is an int to Python but not to a config
    if origin is None and isinstance(value, bool) == (tp is bool) and (
            isinstance(value, tp) or tp is float and isinstance(value, int)):
        # JSON reads NaN and Infinity as floats
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, not {value!r}")
        return value
    raise ConfigError(f"{where} must be "
                      f"{tp.__name__ if isinstance(tp, type) else tp}, "
                      f"not {value!r}")


class JsonConfig:
    """from_dict on a config class; dataclasses.asdict gives it back."""

    @classmethod
    def from_dict(cls, payload, where: str = "config"):
        return from_dict(cls, payload, where)


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


def write_json(path: Path | str, payload) -> str:
    """The one layout of a workspace JSON file (two-space indent, sorted
    keys, a final newline), written atomically; returns its sha256. A
    dataclass, in the payload or as it, is written as an object of its
    fields."""
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=_fields) + "\n"
    atomic_write_text(path, text)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fields(obj) -> dict:
    # no copy of the field values, unlike dataclasses.asdict
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def read_artifact(cls, path: Path | str):
    """The workspace JSON file at path as the frozen dataclass cls, built
    by from_dict; a file that is missing, unreadable or damaged, or whose
    document does not fit cls, is a StageError naming it and the field."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, not UTF-8, not JSON
        raise StageError(f"cannot read workspace file {path}: {exc}; "
                         f"re-run the stage that writes it") from None
    try:
        return from_dict(cls, doc, path.name)
    except ConfigError as exc:
        raise StageError(f"workspace file {path} does not fit its schema: "
                         f"{exc}; re-run the stage that writes it") from None


def file_sha256(path: Path | str) -> str | None:
    """sha256 hex digest of the file's bytes; None if it cannot be read."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


# Rows formatted per block in write_tsv. Its numpy and string temporaries
# grow with the block: writing a 4,000 x 37 table in blocks of 1,024 rows
# raised the peak RSS about 1 MB over a row-by-row writer, in blocks of
# 256 not at all.
_WRITE_BLOCK_ROWS = 256


def write_tsv(path: Path | str, header: Sequence[str],
              keys: Sequence[Sequence[str]], values) -> str:
    """A float table, written atomically: a header line, then per row of
    the 2-D values its key fields and fmt of each value, tab-joined. Each
    block of rows takes one repr per distinct float64 bit pattern, so
    -0.0 and 0.0 keep their own text. Returns the file's sha256."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    # the file is built from encoded blocks, so no list of every line and
    # no whole-file str exist next to its bytes
    blocks = [("\t".join(header) + "\n").encode("utf-8")]
    for start in range(0, len(values), _WRITE_BLOCK_ROWS):
        stop = start + _WRITE_BLOCK_ROWS
        bits = values[start:stop].view(np.int64)
        distinct, which = np.unique(bits, return_inverse=True)
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                        dtype=object)
        cells = np.empty((len(bits), len(keys) + bits.shape[1]), dtype=object)
        for pos, key in enumerate(keys):
            cells[:, pos] = key[start:stop]
        cells[:, len(keys):] = text[which.reshape(bits.shape)]
        lines = map("\t".join, cells.tolist())
        blocks.append(("\n".join(lines) + "\n").encode("utf-8"))
    payload = b"".join(blocks)
    atomic_write_bytes(path, payload)
    return hashlib.sha256(payload).hexdigest()
