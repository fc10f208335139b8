import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from facemotion import synth
from facemotion.metrics import detect_peaks
from facemotion.motion_core import forward_batch, landmark_distance

GOLDEN = Path(__file__).parent / "golden" / "seed0_model_landmarks.json"


def test_make_model_deterministic():
    cfg = synth.SynthConfig(seed=3)
    a, b = synth.make_model(cfg), synth.make_model(cfg)
    np.testing.assert_array_equal(a.template, b.template)
    np.testing.assert_array_equal(a.expr_basis, b.expr_basis)
    np.testing.assert_array_equal(a.eyelid_basis, b.eyelid_basis)
    np.testing.assert_array_equal(a.jaw_region, b.jaw_region)
    assert a.landmarks == b.landmarks


@pytest.mark.parametrize("seed", range(8))
def test_model_region_invariants_across_seeds(seed):
    model = synth.make_model(synth.SynthConfig(seed=seed))
    lips = set(model.regions["lips"])
    assert lips <= set(model.regions["face"])
    assert not lips & set(model.regions["upper_face"])
    assert model.regions["upper_face"].size > 0
    assert model.jaw_region.size > 0
    # lower lip articulates with the jaw, upper lip does not
    assert model.landmark("lower_lip") in set(model.jaw_region)
    assert model.landmark("upper_lip") not in set(model.jaw_region)


def test_seed0_landmarks_match_golden(seed0_model):
    golden = json.loads(GOLDEN.read_text())
    for name, coords in golden["landmarks"].items():
        np.testing.assert_allclose(seed0_model.template[seed0_model.landmark(name)], coords, rtol=0, atol=0)
    np.testing.assert_allclose(seed0_model.jaw_joint, golden["jaw_joint"], rtol=0, atol=0)


def test_expression_basis_is_orthonormal(seed0_model):
    flat = seed0_model.expr_basis.reshape(-1, 50)
    gram = flat.T @ flat
    np.testing.assert_allclose(gram, np.eye(50), rtol=0, atol=1e-12)


def test_make_motion_deterministic():
    cfg = synth.SynthConfig(seed=5, duration_frames=100)
    a, b = synth.make_motion(cfg), synth.make_motion(cfg)
    np.testing.assert_array_equal(a.params, b.params)


def test_make_motion_clean_config_moves_only_jaw_and_lids():
    cfg = synth.SynthConfig(seed=0, duration_frames=100, expression_amplitude=0.0, noise_std=0.0)
    m = synth.make_motion(cfg)
    assert np.all(m.params[:, :50] == 0.0)
    assert np.all(m.params[:, 51:56] == 0.0)
    assert np.any(m.params[:, 50] != 0.0)
    assert np.any(m.params[:, 56:] != 0.0)


def test_jaw_channel_is_rectified_sinusoid():
    cfg = synth.SynthConfig(seed=0, duration_frames=100, expression_amplitude=0.0, noise_std=0.0)
    m = synth.make_motion(cfg)
    t = np.arange(100) / cfg.fps
    expected = 0.15 * np.abs(np.sin(np.pi * cfg.speech_rate_hz * t))
    np.testing.assert_allclose(m.params[:, 50], expected, rtol=0, atol=1e-15)


def test_seed0_opening_peak_count_matches_speech_rate(seed0_model, seed0_motion, seed0_cfg):
    lips = [seed0_model.landmark("upper_lip"), seed0_model.landmark("lower_lip")]
    opening = landmark_distance(forward_batch(seed0_model, seed0_motion.params, zero_posed=True, vertices=lips), 0, 1)
    n_peaks = len(detect_peaks(opening, 0.05, 3))
    expected = round(seed0_cfg.duration_frames / seed0_cfg.fps * seed0_cfg.speech_rate_hz)
    assert abs(n_peaks - expected) <= 1
    # the library detector agrees with an unfiltered scan up to filtering:
    # every detected peak is a strict local maximum
    raw = set(oracles.local_maxima(opening))
    assert set(detect_peaks(opening, 0.05, 3)) <= raw


def test_all_58_channels_exercised():
    m = synth.make_motion(synth.SynthConfig(seed=0, duration_frames=250))
    assert np.all(m.params.std(axis=0) > 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        synth.SynthConfig(num_vertices=9)
    with pytest.raises(ValueError, match=">= 17"):
        synth.SynthConfig(num_vertices=16)
    with pytest.raises(ValueError):
        synth.SynthConfig(duration_frames=0)
    with pytest.raises(ValueError):
        synth.SynthConfig(fps=0)
    for noise_std in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="noise_std must be finite and >= 0"):
            synth.SynthConfig(noise_std=noise_std)


@pytest.mark.parametrize("t", [3, 5, 16, 100])
@pytest.mark.parametrize("window", [3, 15, 31, 201])  # 31 and 201 are longer than some clips
def test_smooth_matches_the_same_mode_formula(rng, t, window):
    x = rng.standard_normal((t, 4))
    np.testing.assert_array_equal(synth._smooth(x, window), oracles.smooth_same_mode(x, window))


@pytest.mark.parametrize("field, value", [
    ("speech_rate_hz", float("nan")), ("speech_rate_hz", float("inf")),
    ("expression_amplitude", float("nan")), ("expression_amplitude", float("-inf")),
    ("noise_std", float("inf")), ("fps", 1e39), ("fps", 1e-320),
])
def test_config_rejects_non_finite_values_naming_the_field(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be"):
        synth.SynthConfig(**{field: value})


def test_config_keeps_its_fps_and_the_motion_holds_it_at_f32():
    cfg = synth.SynthConfig(duration_frames=3, fps=29.97)
    assert cfg.fps == 29.97
    assert synth.make_motion(cfg).fps == float(np.float32(29.97))


def test_smallest_model_has_an_orthonormal_expression_basis():
    # 3N >= 50 rows are needed for the QR of the (3N, 50) expression basis
    model = synth.make_model(synth.SynthConfig(num_vertices=synth.MIN_VERTICES))
    assert synth.MIN_VERTICES == 17
    flat = model.expr_basis.reshape(-1, model.expr_basis.shape[2])
    np.testing.assert_allclose(flat.T @ flat, np.eye(flat.shape[1]), atol=1e-12)
