import json
import re
import struct

import numpy as np
import pytest

from facemotion import fileio, losses, metrics, rvq, streamsim, synth
from facemotion.errors import FormatError
from facemotion.motion_core import FRAME_DIM, MotionSequence


def random_f32_motion(rng, t=10):
    """Frames drawn from random finite float32 bit patterns."""
    bits = rng.integers(0, 2**32, size=(t * 4, FRAME_DIM), dtype=np.uint64).astype(np.uint32)
    values = bits.view(np.float32)
    finite = values[np.all(np.isfinite(values), axis=1)][:t]
    assert finite.shape[0] == t
    return MotionSequence(finite.astype(np.float64), fps=25.0)


# ---------------------------------------------------------------------------
# motion binary + csv


def test_motion_binary_round_trip(tmp_path, rng):
    m = random_f32_motion(rng)
    path = tmp_path / "m.a2mo"
    fileio.save_motion(path, m)
    loaded = fileio.load_motion(path)
    np.testing.assert_array_equal(loaded.params, m.params)
    assert loaded.fps == m.fps
    fileio.save_motion(tmp_path / "m2.a2mo", loaded)
    assert (tmp_path / "m.a2mo").read_bytes() == (tmp_path / "m2.a2mo").read_bytes()


def test_motion_bad_magic(tmp_path):
    path = tmp_path / "bad.a2mo"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        fileio.load_motion(path)


def test_motion_truncated_file(tmp_path):
    m = MotionSequence(np.zeros((4, 58)))
    path = tmp_path / "m.a2mo"
    fileio.save_motion(path, m)
    path.write_bytes(path.read_bytes()[:-7])
    with pytest.raises(FormatError):
        fileio.load_motion(path)


def test_motion_forged_frame_count(tmp_path):
    # 20 bytes whose header claims 2^31 frames (about 500 GB of payload)
    path = tmp_path / "forged.a2mo"
    path.write_bytes(b"A2MO" + struct.pack("<IfII", 1, 25.0, 2**31, 58))
    with pytest.raises(FormatError, match="claimed"):
        fileio.load_motion(path)


def test_csv_round_trips_bit_exactly_through_binary(tmp_path, rng):
    m = random_f32_motion(rng, t=8)
    direct = tmp_path / "direct.a2mo"
    fileio.save_motion(direct, m)

    csv_path = tmp_path / "m.csv"
    fileio.save_motion_csv(csv_path, m)
    via_csv = fileio.load_motion_csv(csv_path)
    through = tmp_path / "through.a2mo"
    fileio.save_motion(through, via_csv)
    assert direct.read_bytes() == through.read_bytes()


def test_csv_header_names_58_channels(tmp_path, seed0_motion):
    path = tmp_path / "m.csv"
    fileio.save_motion_csv(path, MotionSequence(seed0_motion.params[:3]))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# fps=")
    assert lines[1].split(",") == list(__import__("facemotion").CHANNEL_NAMES)
    assert len(lines) == 2 + 3


def test_csv_rejects_wrong_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(FormatError):
        fileio.load_motion_csv(path)


def _valid_csv_lines(tmp_path):
    path = tmp_path / "valid.csv"
    fileio.save_motion_csv(path, MotionSequence(np.zeros((2, FRAME_DIM))))
    return path.read_text().splitlines()


def _set_cell(lines, row, value):
    cells = lines[row].split(",")
    cells[0] = value
    lines[row] = ",".join(cells)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: _set_cell(lines, 2, "abc"),
        lambda lines: _set_cell(lines, 3, "nan"),
        lambda lines: _set_cell(lines, 2, "-inf"),
        lambda lines: _set_cell(lines, 2, "1e39"),  # finite in f64, beyond f32
        lambda lines: lines.__setitem__(0, "# fps=abc"),
        lambda lines: lines.__setitem__(0, "# fps=inf"),
        lambda lines: lines.__setitem__(0, "# fps=0"),
        lambda lines: lines.__setitem__(0, "# fps=1e39"),
        lambda lines: lines.__delitem__(slice(1, None)),
    ],
    ids=["word", "nan", "-inf", "beyond-f32", "fps-word", "fps-inf", "fps-zero", "fps-beyond-f32", "no-header"],
)
def test_csv_rejects_bad_values(tmp_path, edit):
    lines = _valid_csv_lines(tmp_path)
    edit(lines)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=str(path)):
        fileio.load_motion_csv(path)


@pytest.mark.parametrize("load", [fileio.load_motion_csv, fileio.load_model, fileio.read_json])
def test_text_loaders_reject_non_utf8(tmp_path, load):
    path = tmp_path / "latin1.txt"
    path.write_bytes("# fps=25 \u00e9\n".encode("latin-1"))
    with pytest.raises(FormatError, match="UTF-8"):
        load(path)


# ---------------------------------------------------------------------------
# model json


def _valid_model_doc(tmp_path):
    path = tmp_path / "valid_model.json"
    fileio.save_model(path, synth.make_model(synth.SynthConfig(num_vertices=17)))
    return json.loads(path.read_text())


def test_model_round_trip(tmp_path, seed0_model):
    path = tmp_path / "model.json"
    fileio.save_model(path, seed0_model)
    loaded = fileio.load_model(path)
    np.testing.assert_array_equal(loaded.template, seed0_model.template)
    np.testing.assert_array_equal(loaded.expr_basis, seed0_model.expr_basis)
    np.testing.assert_array_equal(loaded.eyelid_basis, seed0_model.eyelid_basis)
    np.testing.assert_array_equal(loaded.jaw_region, seed0_model.jaw_region)
    assert loaded.landmarks == seed0_model.landmarks
    for name in ("lips", "face", "upper_face"):
        np.testing.assert_array_equal(loaded.regions[name], seed0_model.regions[name])


def test_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(FormatError):
        fileio.load_model(path)


def test_model_rejects_invalid_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("not json {")
    with pytest.raises(FormatError):
        fileio.load_model(path)


def test_model_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(FormatError, match="not valid JSON"):
        fileio.load_model(path)


_DELETE = object()  # a value for _set that removes the key


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    if value is _DELETE:
        del doc[keys[-1]]
    else:
        doc[keys[-1]] = value


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (["regions"], [], "JSON objects"),
        (["landmarks"], None, "JSON objects"),
        (["landmarks", "upper_lip"], None, "upper_lip"),
        (["landmarks", "upper_lip"], 1.0, "upper_lip"),
        (["landmarks", "upper_lip"], True, "upper_lip"),
        (["landmarks", "upper_lip"], 17, "out of range"),
        (["template", 1], [0.0, 1.0], "inhomogeneous"),
        (["template"], "abc", "numbers"),
        (["template", 0, 0], "1.0", "numbers"),
        (["template"], [0.0, 1.0, 2.0], "shape"),
        (["template", 5, 0], float("nan"), "template contains non-finite"),
        (["expr_basis", 5, 0, 0], float("inf"), "expr_basis contains non-finite"),
        (["eyelid_basis", 0, 0, 0], float("-inf"), "eyelid_basis contains non-finite"),
        (["jaw_joint"], {}, "numbers"),
        (["jaw_region"], [0.5], "integers"),
        (["jaw_region"], [2**70], "integers"),
        (["regions", "lips"], [-1], "out of range"),
        (["regions", "lips"], None, "integers"),
        (["template", 0, 0], True, "numbers"),
        (["jaw_region"], [True, 1], "integers"),
        (["eyelid_basis"], _DELETE, "missing model field 'eyelid_basis'"),
    ],
)
def test_model_rejects_malformed_fields(tmp_path, keys, value, message):
    doc = _valid_model_doc(tmp_path)
    _set(doc, keys, value)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))  # NaN and infinities as the NaN/Infinity literals json.loads accepts
    with pytest.raises(FormatError, match=message):
        fileio.load_model(path)


# ---------------------------------------------------------------------------
# codebooks


def test_codebook_round_trip(tmp_path, rng):
    cfg = rvq.QuantizerConfig(group_size=5, num_levels=3, codebook_size=4, latent_dim=6, gamma=0.25, seed=0)
    entries = rng.standard_normal((3, 4, 6)).astype(np.float32).astype(np.float64)
    cb = rvq.Codebook(entries)
    proj = rvq.WindowProjection(
        rng.standard_normal((6, cfg.window_dim)).astype(np.float32).astype(np.float64),
        rng.standard_normal(6).astype(np.float32).astype(np.float64),
        rng.standard_normal((cfg.window_dim, 6)).astype(np.float32).astype(np.float64),
        rng.standard_normal(cfg.window_dim).astype(np.float32).astype(np.float64),
    )
    path = tmp_path / "cb.a2cb"
    fileio.save_codebook(path, cb, proj, cfg)
    cb2, proj2, cfg2 = fileio.load_codebook(path)
    np.testing.assert_array_equal(cb2.entries, entries)
    np.testing.assert_array_equal(proj2.encode_w, proj.encode_w)
    np.testing.assert_array_equal(proj2.decode_b, proj.decode_b)
    assert (cfg2.group_size, cfg2.num_levels, cfg2.codebook_size, cfg2.latent_dim) == (5, 3, 4, 6)
    assert cfg2.gamma == np.float32(0.25)
    assert path.read_bytes()[:4] == b"A2CB"


def test_codebook_bad_magic(tmp_path):
    path = tmp_path / "cb.a2cb"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError):
        fileio.load_codebook(path)


def test_codebook_forged_sizes(tmp_path):
    header = b"A2CB" + struct.pack("<IIIII", 1, 1, 2**31, 4, 5) + struct.pack("<f", 0.25)
    path = tmp_path / "forged.a2cb"
    path.write_bytes(header)  # entries claim 2^33 values
    with pytest.raises(FormatError, match="claimed"):
        fileio.load_codebook(path)
    header = b"A2CB" + struct.pack("<IIIII", 1, 1, 1, 4, 5) + struct.pack("<f", 0.25)
    path.write_bytes(header + bytes(16) + struct.pack("<II", 2**16, 2**16))  # encode map claims 2^32
    with pytest.raises(FormatError, match="claimed"):
        fileio.load_codebook(path)


# ---------------------------------------------------------------------------
# tokens


def test_tokens_round_trip(tmp_path, rng):
    idx = rng.integers(0, 256, size=(12, 6))
    tokens = rvq.TokenSequence(idx, group_size=5, num_levels=6, codebook_size=256)
    path = tmp_path / "t.a2tk"
    fileio.save_tokens(path, tokens)
    loaded = fileio.load_tokens(path, group_size=5)
    np.testing.assert_array_equal(loaded.indices, idx)
    assert (loaded.num_levels, loaded.codebook_size, loaded.group_size) == (6, 256, 5)
    blob = path.read_bytes()
    assert blob[:4] == b"A2TK"
    assert len(blob) == 20 + 12 * 6 * 2


def test_tokens_reject_huge_codebooks(tmp_path):
    tokens = rvq.TokenSequence(np.zeros((1, 1), dtype=np.int64), group_size=5, num_levels=1, codebook_size=70000)
    with pytest.raises(FormatError):
        fileio.save_tokens(tmp_path / "t.a2tk", tokens)


def test_tokens_forged_count(tmp_path):
    path = tmp_path / "forged.a2tk"
    path.write_bytes(b"A2TK" + struct.pack("<IIII", 1, 2**31, 6, 256))
    with pytest.raises(FormatError, match="claimed"):
        fileio.load_tokens(path)


# ---------------------------------------------------------------------------
# features


def test_features_round_trip(tmp_path, rng):
    h = streamsim.AudioFeatureSequence(
        rng.standard_normal((7, 5)).astype(np.float32).astype(np.float64), fps=25.0
    )
    path = tmp_path / "f.a2fe"
    fileio.save_features(path, h)
    loaded = fileio.load_features(path)
    np.testing.assert_array_equal(loaded.features, h.features)
    assert loaded.fps == 25.0


def test_features_forged_count(tmp_path):
    path = tmp_path / "forged.a2fe"
    path.write_bytes(b"A2FE" + struct.pack("<IfII", 1, 25.0, 2**31, 16))
    with pytest.raises(FormatError, match="claimed"):
        fileio.load_features(path)


def test_features_share_the_motion_layout(tmp_path, rng):
    rows = rng.standard_normal((3, FRAME_DIM))
    fileio.save_motion(tmp_path / "m.a2mo", MotionSequence(rows, fps=30.0))
    fileio.save_features(tmp_path / "f.a2fe", streamsim.AudioFeatureSequence(rows, fps=30.0))
    motion, features = (tmp_path / "m.a2mo").read_bytes(), (tmp_path / "f.a2fe").read_bytes()
    assert (motion[:4], features[:4]) == (b"A2MO", b"A2FE")
    assert motion[4:] == features[4:]


@pytest.mark.parametrize("fps", [1e39, 1e-320])  # beyond f32 range; 0 as f32
def test_writers_reject_fps_that_is_not_positive_and_finite_as_f32(tmp_path, fps):
    # The rule lives in the sequence types, so a writer is never handed such an fps.
    path = tmp_path / "out"
    for save, make in ((fileio.save_motion, lambda: MotionSequence(np.zeros((2, FRAME_DIM)), fps=fps)),
                       (fileio.save_features, lambda: streamsim.AudioFeatureSequence(np.zeros((2, 3)), fps=fps))):
        with pytest.raises(ValueError, match="fps must be positive and finite at f32 precision"):
            make()
        with pytest.raises(ValueError, match="fps must be positive and finite at f32 precision"):
            save(path, make())
        assert not path.exists()


@pytest.mark.parametrize("fps", [29.97, 25.0 / 3])
def test_sequences_hold_the_fps_their_files_hold(tmp_path, fps):
    rows = np.zeros((2, FRAME_DIM))
    fileio.save_motion(tmp_path / "m.a2mo", MotionSequence(rows, fps=fps))
    fileio.save_features(tmp_path / "f.a2fe", streamsim.AudioFeatureSequence(rows, fps=fps))
    fileio.save_motion_csv(tmp_path / "m.csv", MotionSequence(rows, fps=fps))
    held = float(np.float32(fps))
    assert held != fps
    for loaded in (fileio.load_motion(tmp_path / "m.a2mo"), fileio.load_features(tmp_path / "f.a2fe"),
                   fileio.load_motion_csv(tmp_path / "m.csv"), MotionSequence(rows, fps=fps),
                   streamsim.AudioFeatureSequence(rows, fps=fps)):
        assert loaded.fps == held
        assert type(loaded.fps) is float


# ---------------------------------------------------------------------------
# reports


def test_loss_report_serialization_is_deterministic(tmp_path, seed0_model, rng):
    a = MotionSequence(rng.standard_normal((5, 58)) * 0.05)
    b = MotionSequence(a.params + 0.01)
    report = losses.total_losses(seed0_model, a, b)
    fileio.save_loss_report(tmp_path / "r1.json", report)
    fileio.save_loss_report(tmp_path / "r2.json", report)
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    doc = fileio.read_json(tmp_path / "r1.json")
    assert doc["report"] == "loss"
    assert doc["values"]["l_rec"] == report.l_rec
    assert doc["reduction"] == "mean_over_frames_and_dims"


def test_metrics_report_serializes_undefined_flags(tmp_path, seed0_model):
    static = MotionSequence(np.zeros((30, 58)))
    report = metrics.full_report(seed0_model, static, static)
    path = tmp_path / "m.json"
    fileio.save_metrics_report(path, report)
    doc = fileio.read_json(path)
    assert doc["values"]["temporal_corr"] is None
    assert doc["undefined"]["temporal_corr"] == "zero variance"
    # no frame rate: peak alignment is timed at the clips' own fps
    assert doc["config"] == {"epsilon": 1e-8, "peak_min_prominence": 0.05, "peak_min_distance": 3,
                             "std_convention": "population"}


def test_latency_report_serialization(tmp_path):
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    log.append(50.0, "first_audio_token")
    log.append(90.0, "first_motion_frame")
    log.append(703.0, "stream_done", "content_ms=1000.0")
    fileio.save_latency_report(tmp_path / "l.json", streamsim.latency_report(log))
    doc = fileio.read_json(tmp_path / "l.json")
    assert doc["rtf"] == 0.703
    assert doc["ttft_ms"] == 50.0


# ---------------------------------------------------------------------------
# forged files: readable, but invalid content or trailing bytes


def _patch(blob, offset, fmt, value):
    size = struct.calcsize(fmt)
    return blob[:offset] + struct.pack(fmt, value) + blob[offset + size :]


def _valid_blob(tmp_path, kind):
    path = tmp_path / f"valid.{kind}"
    if kind == "a2mo":
        fileio.save_motion(path, MotionSequence(np.zeros((3, FRAME_DIM))))
    elif kind == "a2fe":
        fileio.save_features(path, streamsim.AudioFeatureSequence(np.zeros((3, 4))))
    elif kind == "a2tk":
        fileio.save_tokens(path, rvq.TokenSequence(np.zeros((2, 2)), group_size=5, num_levels=2, codebook_size=2))
    else:
        cfg = rvq.QuantizerConfig(group_size=1, num_levels=1, codebook_size=2, latent_dim=3)
        proj = rvq.WindowProjection(np.ones((3, FRAME_DIM)), np.zeros(3), np.ones((FRAME_DIM, 3)), np.zeros(FRAME_DIM))
        fileio.save_codebook(path, rvq.Codebook(np.zeros((1, 2, 3))), proj, cfg)
    return path.read_bytes()


LOADERS = {"a2mo": fileio.load_motion, "a2fe": fileio.load_features, "a2tk": fileio.load_tokens,
           "a2cb": fileio.load_codebook}
NAN, INF = float("nan"), float("inf")

# Each container's header as docs/formats.md lays it out (magic, u32 version,
# then its fields in order), the values _valid_blob writes there, and the
# payload bytes that follow it.
HEADERS = {
    "a2mo": ("<4sIfII", (b"A2MO", 1, 25.0, 3, FRAME_DIM), 3 * FRAME_DIM * 4),
    "a2fe": ("<4sIfII", (b"A2FE", 1, 25.0, 3, 4), 3 * 4 * 4),
    "a2tk": ("<4sIIII", (b"A2TK", 1, 2, 2, 2), 2 * 2 * 2),
    "a2cb": ("<4sIIIIIf", (b"A2CB", 1, 1, 2, 3, 1, 0.25), 6 * 4 + 2 * (8 + 3 * FRAME_DIM * 4) + (3 + FRAME_DIM) * 4),
}


@pytest.mark.parametrize("kind", list(HEADERS))
def test_binary_header_layout(tmp_path, kind):
    fmt, header, payload = HEADERS[kind]
    blob = _valid_blob(tmp_path, kind)
    assert struct.unpack_from(fmt, blob) == header
    assert len(blob) == struct.calcsize(fmt) + payload


@pytest.mark.parametrize(
    "kind, forge, message",
    [
        ("a2mo", lambda b: b + b"\x00", "trailing"),
        ("a2mo", lambda b: _patch(b, 8, "<f", NAN), "fps"),
        ("a2mo", lambda b: _patch(b, 8, "<f", INF), "fps"),
        ("a2mo", lambda b: _patch(b, 20, "<f", INF), "non-finite"),
        pytest.param("a2mo", lambda b: _patch(b, 16, "<I", FRAME_DIM // 2),
                     re.escape("params must have shape (T, 58), got (3, 29)"),
                     id="a2mo-<lambda>-frame dim must be 58, got 29"),  # the id before MotionSequence named the width
        ("a2fe", lambda b: b + bytes(4), "trailing"),
        ("a2fe", lambda b: _patch(b, 8, "<f", NAN), "fps"),
        ("a2fe", lambda b: _patch(b, 24, "<f", NAN), "non-finite"),
        ("a2fe", lambda b: _patch(_patch(b, 12, "<I", 2**32 - 1), 16, "<I", 0)[:20], "column"),
        ("a2tk", lambda b: b + bytes(2), "trailing"),
        pytest.param("a2tk", lambda b: _patch(b, 16, "<I", 0), "codebook_size must be >= 1, got 0",
                     id="a2tk-<lambda>-positive"),  # the id the case had before it named the count rule
        ("a2tk", lambda b: _patch(b, 20, "<H", 2), r"\[0, 2\)"),
        ("a2cb", lambda b: b + b"\x00", "trailing"),
        ("a2cb", lambda b: _patch(b, 12, "<I", 0), "codebook_size must be >= 1, got 0"),
        ("a2cb", lambda b: _patch(b, 24, "<f", NAN), "gamma"),
        ("a2cb", lambda b: _patch(b, 24, "<f", INF), "gamma must be finite"),
        ("a2cb", lambda b: _patch(b, 28, "<f", INF), "non-finite"),
        ("a2cb", lambda b: _patch(b, 20, "<I", 2), "expected 3x116"),
        ("a2cb", lambda b: b[:-4] + struct.pack("<f", NAN), "non-finite"),
    ],
)
def test_forged_file_raises_format_error(tmp_path, kind, forge, message):
    path = tmp_path / f"forged.{kind}"
    path.write_bytes(forge(_valid_blob(tmp_path, kind)))
    with pytest.raises(FormatError, match=message):
        LOADERS[kind](path)

