"""One test per value rule, over every type the rule serves: the array rule
(``motion_core.finite_array``), the vertex-index rule (``motion_core._vertex_indices``),
the count rule (``motion_core.count_at_least``) and the token grid rule
(``rvq.TokenSequence`` and ``rvq.check_fit``)."""

import dataclasses

import numpy as np
import pytest

from facemotion import losses, metrics, rvq, streamsim, synth
from facemotion.errors import IncompatibleShapeError, ModelConfigError
from facemotion.motion_core import FRAME_DIM, BlendshapeModel, MotionSequence, forward_batch

MODEL = synth.make_model(synth.SynthConfig(num_vertices=synth.MIN_VERTICES))
N = MODEL.num_vertices
PROBS = rvq.TokenSequence(np.zeros((1, 1), dtype=np.int64), group_size=5, num_levels=1, codebook_size=2)


def _model_with(field):
    def make(value):
        arrays = {name: getattr(MODEL, name) for name in ("template", "expr_basis", "eyelid_basis", "jaw_joint")}
        return BlendshapeModel(**{**arrays, field: value}, jaw_region=MODEL.jaw_region, regions=MODEL.regions,
                               landmarks=MODEL.landmarks)
    return make


def _projection_with(field):
    maps = {"encode_w": np.zeros((3, 5)), "encode_b": np.zeros(3), "decode_w": np.zeros((5, 3)),
            "decode_b": np.zeros(5)}

    def make(value):
        return rvq.WindowProjection(**{**maps, field: value})
    return make


def _report_with(cls, field):
    scores = [f.name for f in dataclasses.fields(cls) if f.name not in ("weights", "undefined", "config")]
    return lambda value: cls(**{**dict.fromkeys(scores, 0.0), field: value})


# (field the error names, its shape as the error states it, a valid value, the call that takes it)
ARRAYS = {
    "MotionSequence": ("params", "(T, 58)", np.zeros((3, FRAME_DIM)), MotionSequence),
    "forward_batch": ("params", "(T, 58)", np.zeros((3, FRAME_DIM)), lambda a: forward_batch(MODEL, a)),
    "BlendshapeModel.template": ("template", "(N, 3)", MODEL.template, _model_with("template")),
    "BlendshapeModel.expr_basis": ("expr_basis", f"({N}, 3, 50)", MODEL.expr_basis, _model_with("expr_basis")),
    "BlendshapeModel.eyelid_basis": ("eyelid_basis", f"({N}, 3, 2)", MODEL.eyelid_basis,
                                     _model_with("eyelid_basis")),
    "BlendshapeModel.jaw_joint": ("jaw_joint", "(3,)", MODEL.jaw_joint, _model_with("jaw_joint")),
    "AudioFeatureSequence": ("features", "(T, d_h)", np.zeros((4, 2)), streamsim.AudioFeatureSequence),
    "LatentSequence": ("latents", "(L, d_z)", np.zeros((3, 4)), rvq.LatentSequence),
    "Codebook.entries": ("entries", "(N_q, K, d_z)", np.zeros((2, 3, 4)), rvq.Codebook),
    "Codebook.usage": ("usage", "(2, 3)", np.zeros((2, 3)), lambda a: rvq.Codebook(np.zeros((2, 3, 4)), a)),
    "WindowProjection.encode_w": ("encode_w", "(d_z, G*58)", np.zeros((3, 5)), _projection_with("encode_w")),
    "WindowProjection.encode_b": ("encode_b", "(3,)", np.zeros(3), _projection_with("encode_b")),
    "WindowProjection.decode_w": ("decode_w", "(5, 3)", np.zeros((5, 3)), _projection_with("decode_w")),
    "WindowProjection.decode_b": ("decode_b", "(5,)", np.zeros(5), _projection_with("decode_b")),
    "PredictorSpec.key0": ("corpus key 0", "(d_h,)", np.zeros(3),
                           lambda a: streamsim.PredictorSpec("retrieval", corpus=[(a, [[0]])])),
    "PredictorSpec.key1": ("corpus key 1", "(3,)", np.zeros(3),
                           lambda a: streamsim.PredictorSpec("retrieval", corpus=[(np.zeros(3), [[0]]), (a, [[1]])])),
    "hierarchical_ce": ("pred_dists", "(L, N_q, K)", np.full((1, 1, 2), 0.5),
                        lambda a: streamsim.hierarchical_ce(a, PROBS)),
    "LossReport.l_acc": ("l_acc", "()", 0.0, _report_with(losses.LossReport, "l_acc")),
    "MetricsReport.mod_mm": ("mod_mm", "()", 0.0, _report_with(metrics.MetricsReport, "mod_mm")),
    "MetricsReport.peak_align_ms": ("peak_align_ms", "()", 0.0, _report_with(metrics.MetricsReport, "peak_align_ms")),
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "rank"])
@pytest.mark.parametrize("kind", ARRAYS)
def test_array_rule_refuses_non_finite_values_and_wrong_ranks_naming_the_field(kind, bad):
    field, shape, valid, make = ARRAYS[kind]
    make(valid)
    value = np.array(valid, dtype=np.float64)
    if bad == "rank":
        value = value[None]
        error, message = IncompatibleShapeError, f"{field} must have shape {shape}, got {value.shape}"
    else:
        value.flat[-1] = float(bad)
        error, message = ValueError, f"{field} contains non-finite values"
    with pytest.raises(error) as exc:
        make(value)
    assert str(exc.value) == message


def _retrieval_corpus(segment_tokens):
    features = streamsim.AudioFeatureSequence(np.zeros((10, 2)))
    tokens = rvq.TokenSequence(np.zeros((2, 1), dtype=np.int64), group_size=5, num_levels=1, codebook_size=2)
    return streamsim.make_retrieval_corpus(features, tokens, rvq.QuantizerConfig(), segment_tokens)


# (field, its minimum, the call that takes it)
COUNTS = {
    **{f"QuantizerConfig.{name}": (name, 1, lambda v, name=name: rvq.QuantizerConfig(**{name: v}))
       for name in ("group_size", "num_levels", "codebook_size", "latent_dim")},
    "SynthConfig.duration_frames": ("duration_frames", 1, lambda v: synth.SynthConfig(duration_frames=v)),
    "SynthConfig.num_vertices": ("num_vertices", synth.MIN_VERTICES, lambda v: synth.SynthConfig(num_vertices=v)),
    "MetricsConfig.peak_min_distance": ("peak_min_distance", 1, lambda v: metrics.MetricsConfig(peak_min_distance=v)),
    "segment_tokens": ("segment_tokens", 1, _retrieval_corpus),
    **{f"TokenSequence.{name}": (name, 1, lambda v, name=name: rvq.TokenSequence(
        np.zeros((1, 1), dtype=np.int64), **{"group_size": 5, "num_levels": 1, "codebook_size": 2, name: v}))
       for name in ("group_size", "num_levels", "codebook_size")},
}


@pytest.mark.parametrize("value", [2.5, True, 0], ids=["2.5", "True", "0"])
@pytest.mark.parametrize("kind", COUNTS)
def test_count_rule_refuses_non_integers_bools_and_small_values_naming_the_field(kind, value):
    field, minimum, make = COUNTS[kind]
    make(minimum)
    make(np.int64(minimum))
    with pytest.raises(ValueError) as exc:
        make(value)
    expected = f">= {minimum}, got 0" if value == 0 else f"an integer, got {value!r}"
    assert str(exc.value) == f"{field} must be {expected}"


# (name the error gives, a valid value, the call that takes it); a landmark is one index, the others 1-D arrays
INDICES = {
    "jaw_region": ("jaw_region", MODEL.jaw_region, lambda a: dataclasses.replace(MODEL, jaw_region=a)),
    "region": ("region 'face'", MODEL.regions["face"],
               lambda a: dataclasses.replace(MODEL, regions={**MODEL.regions, "face": a})),
    "landmark": ("landmark 'upper_lip'", MODEL.landmarks["upper_lip"],
                 lambda a: dataclasses.replace(MODEL, landmarks={**MODEL.landmarks, "upper_lip": a})),
    "forward_batch": ("vertices", np.arange(N), lambda a: forward_batch(MODEL, np.zeros((1, FRAME_DIM)), vertices=a)),
}


@pytest.mark.parametrize("bad", ["2-D", "0-d or 1-D", "negative", ">= N"])
@pytest.mark.parametrize("kind", INDICES)
def test_vertex_index_rule_refuses_wrong_ranks_and_indices_out_of_range_naming_the_field(kind, bad):
    name, valid, make = INDICES[kind]
    make(valid)
    value = np.array(valid)
    if bad in ("2-D", "0-d or 1-D"):  # "0-d or 1-D": one rank below a 1-D set, one above a landmark
        error, message = IncompatibleShapeError, f"{name} must be a 1-D array of vertex indices, got shape"
        if bad == "2-D":
            value = np.array(value, ndmin=2)
        else:
            value = value[None] if value.ndim == 0 else value[0]
    else:
        error, message = ModelConfigError, f"{name} indices out of range for {N} vertices"
        value.flat[0] = -1 if bad == "negative" else N
    with pytest.raises(error) as exc:
        make(value)
    assert str(exc.value).startswith(message)


def _codec(n_q=2, k=16, d_z=4):
    cfg = rvq.QuantizerConfig(num_levels=n_q, codebook_size=k, latent_dim=d_z)
    proj = rvq.WindowProjection(np.zeros((d_z, cfg.window_dim)), np.zeros(d_z), np.zeros((cfg.window_dim, d_z)),
                                np.zeros(cfg.window_dim))
    return cfg, proj, rvq.Codebook(np.zeros((n_q, k, d_z)))


def _grid(n_q=2, k=16):
    return rvq.TokenSequence(np.zeros((3, n_q), dtype=np.int64), group_size=5, num_levels=n_q, codebook_size=k)


def _step(cb):
    cfg, proj, _ = _codec()
    features = streamsim.AudioFeatureSequence(np.zeros((5, 2)))
    return streamsim.step(streamsim.initial_state(cfg), features, streamsim.PredictorSpec("uniform"), cb, proj)


FIT = "token grid does not match codebook configuration"
GRIDS = {
    "TokenSequence-index-K": (ValueError, "token indices must lie in [0, 16)",
                              lambda: rvq.TokenSequence(np.array([[0, 16]]), group_size=5, num_levels=2,
                                                        codebook_size=16)),
    "TokenSequence-index-negative": (ValueError, "token indices must lie in [0, 16)",
                                     lambda: rvq.TokenSequence(np.array([[0, -1]]), group_size=5, num_levels=2,
                                                               codebook_size=16)),
    "TokenSequence-shape": (IncompatibleShapeError, "token grid must have shape (L, 2), got (3,)",
                            lambda: rvq.TokenSequence(np.zeros(3), group_size=5, num_levels=2, codebook_size=16)),
    "rvq_decode-K": (IncompatibleShapeError, FIT, lambda: rvq.rvq_decode(_grid(k=64), _codec()[2], fps_latent=5.0)),
    "rvq_decode-N_q": (IncompatibleShapeError, FIT, lambda: rvq.rvq_decode(_grid(n_q=1), _codec()[2], fps_latent=5.0)),
    "step-K": (IncompatibleShapeError, FIT, lambda: _step(_codec(k=8)[2])),
    "step-N_q": (IncompatibleShapeError, FIT, lambda: _step(_codec(n_q=3)[2])),
}


@pytest.mark.parametrize("kind", GRIDS)
def test_token_grid_rule_refuses_grids_out_of_range_or_unfit_for_the_codebook(kind):
    error, message, call = GRIDS[kind]
    _step(_codec()[2])
    rvq.rvq_decode(_grid(), _codec()[2], fps_latent=5.0)
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
