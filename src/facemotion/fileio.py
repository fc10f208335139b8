"""File formats: motion (A2MO/CSV), codebooks (A2CB), tokens (A2TK),
blendshape models (JSON), feature sequences (A2FE), event logs and reports.

Binary containers are little-endian: 4 magic bytes, a u32 version, then
header fields. Each container's header is declared once, as a tuple of
(name, struct code) pairs that both the writer and the reader walk, and the
field names are what truncation errors name. Motion frames, codebook entries
and projections are stored as f32; loading promotes to f64. CSV motion files
quantize to f32 and print each value with numpy's shortest round-trip repr,
so CSV -> binary round-trips bit-exactly for any value representable in
f32. Every binary read is checked against the bytes left in the file first,
so a header that claims more data than the file holds raises FormatError
instead of allocating what it claims. A binary file must end where its data
ends, and content the package objects reject (non-finite values, K=0, zero
feature columns, token indices >= K, projection maps that are not
d_z x G*58) also raises FormatError. All JSON reports are written with
sorted keys and a trailing newline so identical inputs produce identical
bytes.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import List, Tuple, Union

import numpy as np

from . import losses, metrics, motion_core, rvq, streamsim
from .errors import FaceMotionError, FormatError, IncompatibleShapeError

MOTION_MAGIC = b"A2MO"
CODEBOOK_MAGIC = b"A2CB"
TOKEN_MAGIC = b"A2TK"
FEATURE_MAGIC = b"A2FE"
_VERSION = 1

_PathLike = Union[str, Path]
# A binary header after magic and version: (name, struct code) per field, in file order.
_Fields = Tuple[Tuple[str, str], ...]


def _row_fields(count: str) -> _Fields:
    """The header A2MO and A2FE share: f32 fps, u32 row count (``count`` in errors), u32 row width."""
    return (("fps", "f"), (count, "I"), ("dim", "I"))


_MOTION_FIELDS = _row_fields("frame_count")
_FEATURE_FIELDS = _row_fields("count")
_CODEBOOK_FIELDS = (("num_levels", "I"), ("codebook_size", "I"), ("latent_dim", "I"), ("group_size", "I"),
                    ("gamma", "f"))
_TOKEN_FIELDS = (("count", "I"), ("num_levels", "I"), ("codebook_size", "I"))


def _bytes_left(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def _read_exact(fh, n: int, what: str) -> bytes:
    # Compare with the bytes left before reading, so that a forged header
    # count cannot size an allocation.
    left = _bytes_left(fh)
    if n > left:
        raise FormatError(f"truncated file while reading {what}: {n} bytes claimed, {left} left")
    return fh.read(n)


def _read_fields(fh, fields: _Fields) -> list:
    """The values of ``fields``, read one field at a time so that a truncation names its field."""
    values = []
    for name, code in fields:
        values += struct.unpack("<" + code, _read_exact(fh, struct.calcsize("<" + code), name))
    return values


def _read_f32_array(fh, count: int, what: str) -> np.ndarray:
    data = _read_exact(fh, 4 * count, what)
    with np.errstate(invalid="ignore"):  # a signalling NaN is cast quietly, then refused as non-finite
        return np.frombuffer(data, dtype="<f4").astype(np.float64)


def _read_text(path: _PathLike) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def read_json(path: _PathLike):
    """Parse a UTF-8 JSON document; undecodable bytes or invalid JSON raise FormatError."""
    text = _read_text(path)
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def _write_container(path: _PathLike, magic: bytes, fields: _Fields, values, *payload: bytes) -> None:
    """Write magic, the version, ``values`` packed as ``fields`` declare, then each payload part.

    The header is packed before the file is opened, so a value it cannot hold leaves no file.
    """
    header = magic + struct.pack("<I" + "".join(code for _, code in fields), _VERSION, *values)
    with open(path, "wb") as fh:
        fh.write(header)
        for part in payload:
            fh.write(part)


@contextmanager
def _container(path: _PathLike, magic: bytes, kind: str, fields: _Fields):
    """Open a binary container written by _write_container; yield (file, header values).

    The body reads the payload and builds the object; when it leaves, also
    by return, the file must be at its end. Everything that goes wrong,
    including the objects' own ValueError/IncompatibleShapeError checks,
    raises FormatError naming the file.
    """
    with open(path, "rb") as fh:
        try:
            got = fh.read(4)
            if got != magic:
                raise FormatError(f"expected magic {magic!r}, found {got!r}")
            (version,) = _read_fields(fh, (("version", "I"),))
            if version != _VERSION:
                raise FormatError(f"unsupported {kind} version {version}")
            yield fh, _read_fields(fh, fields)
            left = _bytes_left(fh)
            if left:
                raise FormatError(f"{left} trailing bytes after the {kind} data")
        except (FormatError, ValueError, IncompatibleShapeError) as exc:
            raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Motion (A2MO, CSV) and feature (A2FE) sequences; A2MO and A2FE share one layout


def _save_rows(path: _PathLike, magic: bytes, fields: _Fields, fps: float, rows: np.ndarray) -> None:
    """Write a _row_fields header, then the f32 rows; the sequence types hold fps at f32 already."""
    _write_container(path, magic, fields, (fps, *rows.shape), rows.astype("<f4").tobytes())


def _load_rows(path: _PathLike, magic: bytes, kind: str, fields: _Fields, make, rows_what: str):
    """make(rows, fps=fps) from _save_rows' layout; rows_what names the rows in errors, make checks the width."""
    with _container(path, magic, kind, fields) as (fh, (fps, count, width)):
        return make(_read_f32_array(fh, count * width, rows_what).reshape(count, width), fps=fps)


def save_motion(path: _PathLike, m: motion_core.MotionSequence) -> None:
    """Write the A2MO binary container (f32 frames, row-major)."""
    _save_rows(path, MOTION_MAGIC, _MOTION_FIELDS, m.fps, m.params)


def load_motion(path: _PathLike) -> motion_core.MotionSequence:
    return _load_rows(path, MOTION_MAGIC, "motion", _MOTION_FIELDS, motion_core.MotionSequence, "frames")


def save_features(path: _PathLike, h: streamsim.AudioFeatureSequence) -> None:
    _save_rows(path, FEATURE_MAGIC, _FEATURE_FIELDS, h.fps, h.features)


def load_features(path: _PathLike) -> streamsim.AudioFeatureSequence:
    return _load_rows(path, FEATURE_MAGIC, "feature", _FEATURE_FIELDS, streamsim.AudioFeatureSequence, "features")


def _f32_repr(value: float) -> str:
    return np.format_float_positional(np.float32(value), unique=True, trim="0")


def save_motion_csv(path: _PathLike, m: motion_core.MotionSequence) -> None:
    """Lossless (at f32 precision) CSV alternative to the binary container."""
    lines = [f"# fps={_f32_repr(m.fps)}", ",".join(motion_core.CHANNEL_NAMES)]
    quantized = m.params.astype(np.float32)
    for row in quantized:
        lines.append(",".join(_f32_repr(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_number(path: _PathLike, line_no: int, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise FormatError(f"{path}:{line_no}: not a number: {cell!r}") from None


def load_motion_csv(path: _PathLike) -> motion_core.MotionSequence:
    text = _read_text(path)
    fps = motion_core.DEFAULT_FPS
    rows: List[List[float]] = []
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("fps="):
                fps = _csv_number(path, line_no, body[4:])
            continue
        if not header_seen:
            names = line.split(",")
            if names != motion_core.CHANNEL_NAMES:
                raise FormatError(f"{path}:{line_no}: header does not name the 58 channels")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != motion_core.FRAME_DIM:
            raise FormatError(f"{path}:{line_no}: expected {motion_core.FRAME_DIM} values")
        rows.append([_csv_number(path, line_no, p) for p in parts])
    if not header_seen:
        raise FormatError(f"{path}: missing CSV header row")
    params = np.asarray(rows, dtype=np.float64).reshape(len(rows), motion_core.FRAME_DIM)
    with np.errstate(over="ignore"):  # beyond f32 range becomes inf, rejected below
        params = params.astype(np.float32).astype(np.float64)
    try:
        return motion_core.MotionSequence(params, fps=fps)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Blendshape models (JSON key-value tree)


# The model's array fields, each mapped to whether it holds vertex indices.
_MODEL_ARRAYS = {"template": False, "expr_basis": False, "eyelid_basis": False, "jaw_joint": False,
                 "jaw_region": True}


def save_model(path: _PathLike, model: motion_core.BlendshapeModel) -> None:
    doc = {
        "format": "facemotion-model",
        "version": 1,
        **{name: getattr(model, name).tolist() for name in _MODEL_ARRAYS},
        "regions": {k: v.tolist() for k, v in model.regions.items()},
        "landmarks": dict(model.landmarks),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _json_array(value, what: str, integral: bool = False) -> np.ndarray:
    """A JSON number or nested list of numbers (integers if ``integral``) as an array.

    true and false are not numbers, though numpy reads them as 1 and 0 among numbers.
    """
    kind = "integers" if integral else "numbers"
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, bool):
            raise FormatError(f"{what} must hold only {kind}")
        if isinstance(item, list):
            stack.extend(item)
    arr = np.asarray(value)  # ragged nesting raises ValueError
    if arr.size and arr.dtype.kind not in ("iu" if integral else "iuf"):
        raise FormatError(f"{what} must hold only {kind}")
    return arr.astype(np.intp if integral else np.float64)


def load_model(path: _PathLike) -> motion_core.BlendshapeModel:
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != "facemotion-model":
        raise FormatError(f"{path}: not a facemotion model document")
    if doc.get("version") != 1:
        raise FormatError(f"{path}: unsupported model version {doc.get('version')}")
    try:
        regions, landmarks = doc["regions"], doc["landmarks"]
        if not isinstance(regions, dict) or not isinstance(landmarks, dict):
            raise FormatError("regions and landmarks must be JSON objects")
        for name, index in landmarks.items():
            if not isinstance(index, int) or isinstance(index, bool):
                raise FormatError(f"landmark {name!r} must be an integer vertex index, got {index!r}")
        return motion_core.BlendshapeModel(
            **{name: _json_array(doc[name], name, integral) for name, integral in _MODEL_ARRAYS.items()},
            regions={k: _json_array(v, f"region {k!r}", integral=True) for k, v in regions.items()},
            landmarks=landmarks,
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing model field {exc}") from exc
    except (ValueError, FaceMotionError) as exc:  # includes the model's own shape, range and finiteness checks
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Codebooks + projections (A2CB)


def save_codebook(path: _PathLike, cb: rvq.Codebook, proj: rvq.WindowProjection, cfg: rvq.QuantizerConfig) -> None:
    """A2CB: header, f32 codebook entries level-major, then encode/decode maps."""
    payload = [cb.entries.astype("<f4").tobytes()]
    for mat, bias in ((proj.encode_w, proj.encode_b), (proj.decode_w, proj.decode_b)):
        payload += [struct.pack("<II", *mat.shape), mat.astype("<f4").tobytes(), bias.astype("<f4").tobytes()]
    header = (cb.num_levels, cb.codebook_size, cb.latent_dim, cfg.group_size, cfg.gamma)
    _write_container(path, CODEBOOK_MAGIC, _CODEBOOK_FIELDS, header, *payload)


def load_codebook(path: _PathLike) -> Tuple[rvq.Codebook, rvq.WindowProjection, rvq.QuantizerConfig]:
    with _container(path, CODEBOOK_MAGIC, "codebook", _CODEBOOK_FIELDS) as (fh, (n_q, k, d_z, g, gamma)):
        cfg = rvq.QuantizerConfig(group_size=g, num_levels=n_q, codebook_size=k, latent_dim=d_z, gamma=gamma)
        entries = _read_f32_array(fh, n_q * k * d_z, "entries").reshape(n_q, k, d_z)
        maps = []
        for what in ("encode", "decode"):
            rows, cols = _read_fields(fh, ((f"{what} dims", "II"),))
            maps.append(_read_f32_array(fh, rows * cols, f"{what} matrix").reshape(rows, cols))
            maps.append(_read_f32_array(fh, rows, f"{what} bias"))
        proj = rvq.WindowProjection(*maps)
        if (proj.latent_dim, proj.window_dim) != (d_z, cfg.window_dim):
            raise FormatError(
                f"encode map is {proj.latent_dim}x{proj.window_dim}, expected {d_z}x{cfg.window_dim} (d_z x G*58)"
            )
        return rvq.Codebook(entries), proj, cfg


# ---------------------------------------------------------------------------
# Token grids (A2TK)


def save_tokens(path: _PathLike, tokens: rvq.TokenSequence) -> None:
    if tokens.codebook_size > 0xFFFF:
        raise FormatError("token files support codebook sizes up to 65535")
    header = (len(tokens), tokens.num_levels, tokens.codebook_size)
    _write_container(path, TOKEN_MAGIC, _TOKEN_FIELDS, header, tokens.indices.astype("<u2").tobytes())


def load_tokens(path: _PathLike, group_size: int = rvq.QuantizerConfig.group_size) -> rvq.TokenSequence:
    """Token files do not carry the temporal group size; pass the codec's."""
    with _container(path, TOKEN_MAGIC, "token", _TOKEN_FIELDS) as (fh, (count, n_q, k)):
        data = _read_exact(fh, 2 * count * n_q, "indices")
        indices = np.frombuffer(data, dtype="<u2").astype(np.int64).reshape(count, n_q)
        return rvq.TokenSequence(indices, group_size=group_size, num_levels=n_q, codebook_size=k)


# ---------------------------------------------------------------------------
# Event logs


def save_event_log(path: _PathLike, log: streamsim.StreamEventLog) -> None:
    lines = []
    for e in log.events:
        lines.append(f"{e.timestamp_ms!r} {e.kind} {e.payload}".rstrip())
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Reports and manifests (structured JSON text)


def write_json(path: _PathLike, doc: dict) -> None:
    """Write a JSON document with sorted keys, 2-space indent and a trailing newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def save_loss_report(path: _PathLike, report: losses.LossReport) -> None:
    write_json(path, {"report": "loss", **report.to_dict()})


def save_metrics_report(path: _PathLike, report: metrics.MetricsReport) -> None:
    write_json(path, {"report": "metrics", **report.to_dict()})


def save_latency_report(path: _PathLike, report: streamsim.LatencyReport) -> None:
    write_json(path, {"report": "latency", **asdict(report)})
