import dataclasses

import numpy as np
import pytest

import oracles
from facemotion import fileio, losses, metrics, rvq
from facemotion.errors import IncompatibleShapeError, ModelConfigError
from facemotion.motion_core import _BLOCK_FRAMES, BlendshapeModel, MotionSequence, forward_batch


def unit_basis_model(n=12, lips=(0, 1, 2), face=(0, 1, 2, 3, 4, 5, 6, 7), upper=(8, 9)):
    """Model whose expression channel 0 moves vertex lips[0] by +x only."""
    expr_basis = np.zeros((n, 3, 50))
    expr_basis[lips[0], 0, 0] = 1.0
    return BlendshapeModel(
        template=np.arange(n * 3, dtype=np.float64).reshape(n, 3) * 0.01,
        expr_basis=expr_basis,
        eyelid_basis=np.zeros((n, 3, 2)),
        jaw_joint=np.zeros(3),
        jaw_region=np.array([3]),
        regions={"lips": np.array(lips), "face": np.array(face), "upper_face": np.array(upper)},
        landmarks={"upper_lip": 0, "lower_lip": 1, "left_corner": 2, "right_corner": 3},
    )


def seeded_pair(rng, t=12, scale=0.05):
    a = MotionSequence(rng.standard_normal((t, 58)) * scale)
    b = MotionSequence(a.params + rng.standard_normal((t, 58)) * scale * 0.1)
    return a, b


# ---------------------------------------------------------------------------
# l_param


def test_param_loss_identical_is_zero(seed0_model, rng):
    m, _ = seeded_pair(rng)
    assert losses.total_losses(seed0_model, m, m).l_param == 0.0


def test_param_loss_single_channel_anchor():
    a = MotionSequence(np.zeros((3, 58)))
    b_params = np.zeros((3, 58))
    b_params[:, 17] = 2.0
    b = MotionSequence(b_params)
    assert losses.total_losses(unit_basis_model(), a, b).l_param == pytest.approx(4.0 / 58.0, rel=1e-15)


def test_param_loss_matches_summation_oracle(seed0_model, rng):
    a, b = seeded_pair(rng)
    got = losses.total_losses(seed0_model, a, b).l_param
    assert got == pytest.approx(oracles.mean_squared(a.params - b.params), rel=1e-12)


def test_param_loss_length_mismatch(seed0_model, rng):
    a, _ = seeded_pair(rng, t=5)
    b, _ = seeded_pair(rng, t=6)
    with pytest.raises(IncompatibleShapeError):
        losses.total_losses(seed0_model, a, b)


def test_param_loss_symmetry(seed0_model, rng):
    a, b = seeded_pair(rng)
    assert losses.total_losses(seed0_model, a, b).l_param == losses.total_losses(seed0_model, b, a).l_param


# ---------------------------------------------------------------------------
# l_lips, l_face


def geo_terms(model, a, b):
    report = losses.total_losses(model, a, b)
    return report.l_lips, report.l_face


def test_geo_loss_identical_is_zero(seed0_model, rng):
    m, _ = seeded_pair(rng, t=4)
    assert geo_terms(seed0_model, m, m) == (0.0, 0.0)


def test_geo_loss_single_vertex_single_frame_anchor():
    model = unit_basis_model()
    t = 6
    a = MotionSequence(np.zeros((t, 58)))
    params = np.zeros((t, 58))
    params[2, 0] = 1e-3  # moves one lip vertex by 1e-3 m in frame 2
    b = MotionSequence(params)
    l_lips, l_face = geo_terms(model, a, b)
    assert l_lips == pytest.approx(1e-6 / (t * 3 * 3), rel=1e-12)  # |lips| = 3
    assert l_face == pytest.approx(1e-6 / (t * 8 * 3), rel=1e-12)  # |face| = 8


def test_geo_loss_matches_vertex_oracle(seed0_model, rng):
    a, b = seeded_pair(rng, t=5)
    l_lips, l_face = geo_terms(seed0_model, a, b)
    va = forward_batch(seed0_model, a.params, zero_posed=True)
    vb = forward_batch(seed0_model, b.params, zero_posed=True)
    lips = seed0_model.regions["lips"]
    face = seed0_model.regions["face"]
    assert l_lips == pytest.approx(oracles.mean_squared(va[:, lips] - vb[:, lips]), rel=1e-12)
    assert l_face == pytest.approx(oracles.mean_squared(va[:, face] - vb[:, face]), rel=1e-12)


def test_geo_loss_missing_region():
    model = unit_basis_model()
    regions = {k: v for k, v in model.regions.items() if k != "face"}
    with pytest.raises(ModelConfigError, match="no region 'face'"):
        dataclasses.replace(model, regions=regions)


def test_geo_loss_invariant_to_shared_global_pose(seed0_model, rng):
    a, b = seeded_pair(rng, t=4)
    base = geo_terms(seed0_model, a, b)
    pose = np.array([0.4, -0.2, 0.1])
    ap = MotionSequence(a.params.copy())
    bp = MotionSequence(b.params.copy())
    ap.params[:, 53:56] = pose
    bp.params[:, 53:56] = pose
    assert geo_terms(seed0_model, ap, bp) == base


# ---------------------------------------------------------------------------
# l_vel, l_acc


def dyn_terms(model, a, b):
    report = losses.total_losses(model, a, b)
    return report.l_vel, report.l_acc


def test_dyn_loss_identical_is_zero(seed0_model, rng):
    m, _ = seeded_pair(rng, t=5)
    assert dyn_terms(seed0_model, m, m) == (0.0, 0.0)


def test_dyn_loss_cancels_constant_offset(seed0_model, rng):
    a, _ = seeded_pair(rng, t=6)
    a.params[:, 50:56] = 0.0  # no jaw/global rotation: expression maps linearly
    shifted = a.params.copy()
    shifted[:, 3] += 0.05  # constant expression offset -> constant vertex offset
    b = MotionSequence(shifted)
    l_vel, l_acc = dyn_terms(seed0_model, a, b)
    assert l_vel < 1e-28
    assert l_acc < 1e-28


def test_dyn_loss_matches_difference_oracle(seed0_model, rng):
    a, b = seeded_pair(rng, t=6)
    l_vel, l_acc = dyn_terms(seed0_model, a, b)
    va = forward_batch(seed0_model, a.params, zero_posed=True)
    vb = forward_batch(seed0_model, b.params, zero_posed=True)
    dva, dvb = np.diff(va, axis=0), np.diff(vb, axis=0)
    assert l_vel == pytest.approx(oracles.mean_squared(dva - dvb), rel=1e-12)
    assert l_acc == pytest.approx(oracles.mean_squared(np.diff(dva, axis=0) - np.diff(dvb, axis=0)), rel=1e-12)


def test_dyn_loss_too_short(seed0_model, rng):
    a, b = seeded_pair(rng, t=2)
    with pytest.raises(ValueError):
        losses.total_losses(seed0_model, a, b)


# ---------------------------------------------------------------------------
# total_losses


def test_total_losses_all_zero_for_perfect_reconstruction(seed0_model, rng):
    m, _ = seeded_pair(rng, t=5)
    z = rvq.LatentSequence(rng.standard_normal((3, 4)))
    report = losses.total_losses(seed0_model, m, m, z=z, q=rvq.LatentSequence(z.vectors.copy()))
    assert report.l_rec == 0.0
    assert report.l_vqvae == 0.0


def test_rec_weighting_anchor_500901():
    w = losses.LossWeights()
    assert losses.combine_rec(1.0, 2.0, 3.0, 4.0, 5.0, w) == 500901.0


def test_rec_weight_scaling_is_exact():
    w = losses.LossWeights(w_geo=2e5)
    base = losses.LossWeights()
    delta = losses.combine_rec(1, 2, 3, 4, 5, w) - losses.combine_rec(1, 2, 3, 4, 5, base)
    assert delta == 1e5 * (2 + 3)


def test_total_losses_report_consistency(seed0_model, rng):
    a, b = seeded_pair(rng, t=6)
    z = rvq.LatentSequence(rng.standard_normal((4, 8)))
    q = rvq.LatentSequence(z.vectors + rng.standard_normal((4, 8)) * 0.1)
    w = losses.LossWeights()
    report = losses.total_losses(seed0_model, a, b, z=z, q=q, weights=w)
    assert report.l_rec == pytest.approx(
        w.w_param * report.l_param + w.w_geo * (report.l_lips + report.l_face) + w.w_dyn * (report.l_vel + report.l_acc),
        rel=1e-9,
    )
    codebook_term, commit_term, _ = rvq.commitment_loss(z, q, rvq.QuantizerConfig().gamma)
    assert report.codebook_term == codebook_term
    assert report.commit_term == commit_term
    assert report.l_vqvae == report.l_rec + codebook_term + commit_term
    for value in (report.l_param, report.l_lips, report.l_face, report.l_vel, report.l_acc):
        assert value >= 0.0


def test_lambda_vq_scales_quantizer_terms(seed0_model, rng):
    a, b = seeded_pair(rng, t=6)
    z = rvq.LatentSequence(rng.standard_normal((4, 8)))
    q = rvq.LatentSequence(z.vectors + rng.standard_normal((4, 8)) * 0.1)
    codebook_term, commit_term, _ = rvq.commitment_loss(z, q, 0.25)
    reports = {
        lam: losses.total_losses(seed0_model, a, b, z=z, q=q, weights=losses.LossWeights(lambda_vq=lam))
        for lam in (0.0, 1.0, 2.0)
    }
    for report in reports.values():
        assert report.l_rec == reports[1.0].l_rec
        assert (report.codebook_term, report.commit_term) == (codebook_term, commit_term)
    assert reports[0.0].l_vqvae == reports[0.0].l_rec
    assert reports[2.0].l_vqvae == reports[2.0].l_rec + 2.0 * codebook_term + 2.0 * commit_term
    assert reports[2.0].l_vqvae - reports[2.0].l_rec == pytest.approx(
        2.0 * (reports[1.0].l_vqvae - reports[1.0].l_rec), rel=1e-12
    )


def test_total_losses_end_to_end_oracle(seed0_model, rng):
    a, b = seeded_pair(rng, t=6)
    report = losses.total_losses(seed0_model, a, b)
    va = forward_batch(seed0_model, a.params, zero_posed=True)
    vb = forward_batch(seed0_model, b.params, zero_posed=True)
    lips = seed0_model.regions["lips"]
    face = seed0_model.regions["face"]
    expected = (
        1.0 * oracles.mean_squared(a.params - b.params)
        + 1e5 * (oracles.mean_squared(va[:, lips] - vb[:, lips]) + oracles.mean_squared(va[:, face] - vb[:, face]))
        + 1e2
        * (
            oracles.mean_squared(np.diff(va, axis=0) - np.diff(vb, axis=0))
            + oracles.mean_squared(np.diff(va, axis=0, n=2) - np.diff(vb, axis=0, n=2))
        )
    )
    assert report.l_rec == pytest.approx(expected, rel=1e-10)


def test_each_render_is_at_most_one_forward_model_block(seed0_model, rng, monkeypatch):
    # a span of _BLOCK_FRAMES - 2 new frames and the two before it fill one
    # block, so no render splits into a full block and a 2-frame remainder
    a, b = seeded_pair(rng, t=300)
    lengths = []

    def recording_forward_batch(model, params, **kwargs):
        lengths.append(len(params))
        return forward_batch(model, params, **kwargs)

    monkeypatch.setattr(losses, "forward_batch", recording_forward_batch)
    losses.total_losses(seed0_model, a, b)
    assert _BLOCK_FRAMES == 128
    assert lengths == [126, 126, 128, 128, 50, 50]  # frames [0, 126), [124, 252), [250, 300) of each clip


def test_loss_weights_validation():
    with pytest.raises(ValueError, match="w_geo must be finite and >= 0, got -1.0"):
        losses.LossWeights(w_geo=-1.0)


@pytest.mark.parametrize("name", ["w_param", "w_geo", "w_dyn", "lambda_vq"])
def test_loss_weights_reject_nan(name):
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got nan"):
        losses.LossWeights(**{name: float("nan")})


@pytest.mark.parametrize("name", ["w_param", "w_geo", "w_dyn", "lambda_vq"])
def test_loss_weights_reject_inf(name):
    # an infinite weight times a zero term made l_rec NaN on identical motion
    with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got inf"):
        losses.LossWeights(**{name: float("inf")})


def test_gamma_is_the_codec_setting(seed0_model, rng):
    assert not hasattr(losses.LossWeights(), "gamma")
    a, b = seeded_pair(rng, t=6)
    z = rvq.LatentSequence(rng.standard_normal((4, 8)))
    q = rvq.LatentSequence(z.vectors + rng.standard_normal((4, 8)) * 0.1)
    default = losses.total_losses(seed0_model, a, b, z=z, q=q)
    assert default.commit_term == rvq.QuantizerConfig.gamma * default.codebook_term
    half = losses.total_losses(seed0_model, a, b, z=z, q=q, gamma=0.5)
    assert half.codebook_term == default.codebook_term
    assert half.commit_term == 0.5 * half.codebook_term


@pytest.mark.parametrize("suffix, save, load", [
    ("a2mo", fileio.save_motion, fileio.load_motion),
    ("csv", fileio.save_motion_csv, fileio.load_motion_csv),
])
def test_a_clip_scores_against_its_saved_copy(tmp_path, seed0_model, seed0_motion, suffix, save, load):
    # 29.97 is not an f32 value; the clip and its file both hold 29.969999313354492
    clip = MotionSequence(seed0_motion.params[:30].astype(np.float32).astype(np.float64), fps=29.97)
    save(tmp_path / f"clip.{suffix}", clip)
    saved = load(tmp_path / f"clip.{suffix}")
    assert saved.fps == clip.fps
    assert losses.total_losses(seed0_model, clip, saved).l_rec == 0.0
    assert metrics.full_report(seed0_model, saved, clip).mod_mm == 0.0
