import dataclasses

import numpy as np
import pytest

import oracles
from facemotion import metrics, synth
from facemotion.errors import IncompatibleShapeError
from facemotion.motion_core import BlendshapeModel, MotionSequence, forward_batch, landmark_distance


def opening_axis_model():
    """Expression channel 0 moves the lower lip straight down (-y);
    channel 1 moves the single upper-face vertex up; one jaw vertex."""
    n = 6
    template = np.array(
        [
            [0.0, 0.01, 0.0],   # upper_lip
            [0.0, -0.01, 0.0],  # lower_lip
            [-0.02, 0.0, 0.0],  # left corner
            [0.02, 0.0, 0.0],   # right corner
            [0.0, 0.05, 0.0],   # upper face
            [0.0, -0.05, 0.0],  # chin
        ]
    )
    expr_basis = np.zeros((n, 3, 50))
    expr_basis[1, 1, 0] = -1.0
    expr_basis[4, 1, 1] = 1.0
    return BlendshapeModel(
        template=template,
        expr_basis=expr_basis,
        eyelid_basis=np.zeros((n, 3, 2)),
        jaw_joint=np.zeros(3),
        jaw_region=np.array([5]),
        regions={"lips": np.arange(4), "face": np.arange(4), "upper_face": np.array([4])},
        landmarks={"upper_lip": 0, "lower_lip": 1, "left_corner": 2, "right_corner": 3},
    )


def landmark_series(model, m, a="upper_lip", b="lower_lip"):
    """Per-frame distance between two landmarks, zero-pose space (default: the mouth opening)."""
    v = forward_batch(model, m.params, zero_posed=True, vertices=[model.landmark(a), model.landmark(b)])
    return landmark_distance(v, 0, 1)


def motion_with_channel(values, channel=0, fps=25.0):
    params = np.zeros((len(values), 58))
    params[:, channel] = values
    return MotionSequence(params, fps=fps)


def bump_signal(length, peak_frames, width=1):
    x = np.zeros(length)
    for p in peak_frames:
        x[p] = 1.0
        for w in range(1, width + 1):
            x[p - w] = max(x[p - w], 1.0 - 0.5 * w)
            x[p + w] = max(x[p + w], 1.0 - 0.5 * w)
    return x


# ---------------------------------------------------------------------------
# MOD


def test_mod_identical_is_zero(seed0_model, seed0_motion):
    sub = MotionSequence(seed0_motion.params[:20], fps=25.0)
    assert metrics.full_report(seed0_model, sub, sub).mod_mm == 0.0


def test_mod_constant_opening_offset_anchor():
    model = opening_axis_model()
    gt = motion_with_channel(np.zeros(10))
    pred = motion_with_channel(np.full(10, 0.002))  # opening grows by 2 mm
    assert metrics.full_report(model, pred, gt).mod_mm == pytest.approx(2.0, rel=1e-9)


def test_mod_matches_landmark_oracle(seed0_model, seed0_motion, rng):
    gt = MotionSequence(seed0_motion.params[:15], fps=25.0)
    pred = MotionSequence(gt.params + rng.standard_normal(gt.params.shape) * 0.01, fps=25.0)
    got = metrics.full_report(seed0_model, pred, gt).mod_mm
    o_pred = landmark_series(seed0_model, pred)
    o_gt = landmark_series(seed0_model, gt)
    expected = sum(abs(a - b) for a, b in zip(o_pred, o_gt)) / 15 * 1000.0
    assert got == pytest.approx(expected, rel=1e-12)


def test_mod_length_mismatch(seed0_model, seed0_motion):
    a = MotionSequence(seed0_motion.params[:5])
    b = MotionSequence(seed0_motion.params[:6])
    with pytest.raises(IncompatibleShapeError):
        metrics.full_report(seed0_model, a, b)


def test_mod_invariant_under_shared_global_pose(seed0_model, seed0_motion, rng):
    gt = MotionSequence(seed0_motion.params[:10].copy(), fps=25.0)
    pred = MotionSequence(gt.params + rng.standard_normal(gt.params.shape) * 0.01, fps=25.0)
    base = metrics.full_report(seed0_model, pred, gt).mod_mm
    gt.params[:, 53:56] = [0.3, -0.2, 0.5]
    pred.params[:, 53:56] = [0.3, -0.2, 0.5]
    assert metrics.full_report(seed0_model, pred, gt).mod_mm == base


# ---------------------------------------------------------------------------
# UFD


def test_ufd_static_sequence_is_zero(seed0_model):
    m = MotionSequence(np.tile(np.linspace(0, 0.1, 58), (6, 1)))
    assert metrics.full_report(seed0_model, m, m).ufd == 0.0


def test_ufd_single_vertex_unit_growth_anchor():
    model = opening_axis_model()
    t = 8
    m = motion_with_channel(np.arange(t) * 1e-5, channel=1)  # displacement t * 1e-5
    assert metrics.full_report(model, m, m).ufd == pytest.approx(1.0, rel=1e-9)


def test_ufd_matches_displacement_oracle(seed0_model, seed0_motion):
    idx = seed0_model.region("upper_face")
    minus_zero = dataclasses.replace(seed0_model, template=seed0_model.template.copy())
    minus_zero.template[idx[::2], 1] = -0.0
    m = MotionSequence(seed0_motion.params[:12], fps=25.0)
    for model in (seed0_model, minus_zero):
        got = metrics.full_report(model, m, m).ufd
        neutral = forward_batch(model, np.zeros((1, 58)))[0, idx]
        verts = forward_batch(model, m.params, zero_posed=True)[:, idx]
        disp = np.sqrt(((verts - neutral) ** 2).sum(axis=2))
        acc = 0.0
        for t in range(1, 12):
            acc += np.abs(disp[t] - disp[t - 1]).mean()
        assert got == pytest.approx(acc / 11 * 1e5, rel=1e-12)
        # the displacement is squared, so the rendered neutral gives the template's bits
        disp = np.linalg.norm(verts - neutral, axis=-1)
        assert got == float(np.mean(np.abs(np.diff(disp, axis=0))) * 1e5)
    # zero parameters render a -0.0 template coordinate as +0.0
    neutral = forward_batch(minus_zero, np.zeros((1, 58)))[0, idx]
    assert np.any(np.signbit(neutral) != np.signbit(minus_zero.template[idx]))


def test_ufd_invariant_under_global_pose(seed0_model, seed0_motion):
    m = MotionSequence(seed0_motion.params[:10].copy(), fps=25.0)
    base = metrics.full_report(seed0_model, m, m).ufd
    m.params[:, 53:56] = [0.2, 0.1, -0.4]
    assert metrics.full_report(seed0_model, m, m).ufd == base


# ---------------------------------------------------------------------------
# correlations


def test_temporal_corr_identity_and_inversion(rng):
    x = rng.standard_normal(40)
    assert metrics.pearson(x, x) == pytest.approx(1.0, abs=1e-12)
    assert metrics.pearson(-x + 7.0, x) == pytest.approx(-1.0, abs=1e-12)


def test_temporal_corr_zero_variance_is_undefined():
    assert metrics.pearson(np.full(10, 3.0), np.arange(10.0)) is None


def test_temporal_corr_matches_two_pass_oracle(rng):
    x = rng.standard_normal(30)
    y = 0.5 * x + rng.standard_normal(30)
    assert metrics.pearson(x, y) == pytest.approx(oracles.two_pass_pcc(x, y), rel=1e-12)


def test_velocity_corr_identity_and_linear(rng):
    x = np.cumsum(rng.standard_normal(30))
    assert metrics.velocity_corr(x, x) == pytest.approx(1.0, abs=1e-12)
    assert metrics.velocity_corr(np.arange(30.0), x) is None  # constant velocity


def test_velocity_corr_time_reversal_matches_oracle(rng):
    x = np.cumsum(rng.standard_normal(25))
    y = x[::-1]
    expected = oracles.two_pass_pcc(np.diff(y), np.diff(x))
    assert metrics.velocity_corr(y, x) == pytest.approx(expected, rel=1e-12)


def test_velocity_corr_needs_three_samples():
    with pytest.raises(ValueError):
        metrics.velocity_corr(np.array([1.0, 2.0]), np.array([1.0, 2.0]))


def test_lip_width_corr(rng):
    w = rng.standard_normal(20)
    assert metrics.pearson(w, w) == pytest.approx(1.0, abs=1e-12)
    assert metrics.pearson(-2.0 * w + 1.0, w) == pytest.approx(-1.0, abs=1e-12)
    other = rng.standard_normal(20)
    assert metrics.pearson(other, w) == pytest.approx(oracles.two_pass_pcc(other, w), rel=1e-12)


def test_correlations_stay_in_unit_interval(rng):
    for _ in range(20):
        x, y = rng.standard_normal((2, 15))
        v = metrics.pearson(x, y)
        assert -1.0 <= v <= 1.0


# ---------------------------------------------------------------------------
# liveliness


def test_liveliness_scaling_anchor(rng):
    gt = np.cumsum(rng.standard_normal(100))  # sigma(v_gt) ~ 1 >> epsilon
    pred = 2.0 * gt
    assert metrics.liveliness(pred, gt) == pytest.approx(2.0, abs=1e-6)


def test_liveliness_identity_bounds(rng):
    x = np.cumsum(rng.standard_normal(50)) * 0.01
    v = metrics.liveliness(x, x)
    assert 1.0 - 1e-3 <= v <= 1.0


def test_liveliness_constant_reference_is_large_but_finite(rng):
    gt = np.full(20, 0.5)
    pred = np.cumsum(rng.standard_normal(20))
    v = metrics.liveliness(pred, gt, epsilon=1e-8)
    assert np.isfinite(v)
    assert v == pytest.approx(oracles.population_std(np.diff(pred)) / 1e-8, rel=1e-9)


# ---------------------------------------------------------------------------
# peak alignment


def test_peak_align_anchor_100ms():
    cfg = metrics.MetricsConfig()
    gt = bump_signal(64, [10, 50])
    pred = bump_signal(64, [13, 52])
    assert metrics.peak_align(pred, gt, cfg, 25.0) == 100.0


def test_peak_align_identical_is_zero(seed0_model, seed0_motion):
    cfg = metrics.MetricsConfig()
    o = landmark_series(seed0_model, seed0_motion)
    assert metrics.peak_align(o, o, cfg, seed0_motion.fps) == 0.0


def test_peak_align_no_peaks_is_undefined():
    cfg = metrics.MetricsConfig()
    assert metrics.peak_align(np.zeros(30), bump_signal(30, [10]), cfg, 25.0) is None


def test_peak_align_two_tone_matches_scan_oracle():
    cfg = metrics.MetricsConfig()
    t = np.arange(200) / 25.0
    gt = np.sin(2 * np.pi * 2.0 * t)
    pred = np.sin(2 * np.pi * 2.0 * (t - 0.06))
    got = metrics.peak_align(pred, gt, cfg, 25.0)
    p_gt = oracles.local_maxima(gt)
    p_pred = oracles.local_maxima(pred)
    diffs = [min(abs(g - p) for p in p_pred) for g in p_gt]
    assert got == pytest.approx(oracles.median(diffs) * 40.0, rel=1e-12)


def test_peak_align_symmetric_for_one_to_one_matching():
    cfg = metrics.MetricsConfig()
    a = bump_signal(64, [10, 30])
    b = bump_signal(64, [12, 33])
    assert metrics.peak_align(a, b, cfg, 25.0) == metrics.peak_align(b, a, cfg, 25.0)


def test_detect_peaks_prominence_filtering():
    x = np.zeros(50)
    x[10] = 1.0
    x[30] = 0.02  # below 5% of range
    x[9] = x[11] = 0.5
    x[29] = x[31] = 0.01
    peaks = metrics.detect_peaks(x, 0.05, 3)
    assert peaks.tolist() == [10]


def test_detect_peaks_distance_filtering():
    x = np.zeros(50)
    x[10] = 1.0
    x[12] = 0.9  # within 3 frames of a taller peak
    x[20] = 0.8
    peaks = metrics.detect_peaks(x, 0.05, 3)
    assert peaks.tolist() == [10, 20]


# ---------------------------------------------------------------------------
# full report


def test_full_report_identity_profile(seed0_model, seed0_motion):
    report = metrics.full_report(seed0_model, seed0_motion, seed0_motion)
    assert report.mod_mm == 0.0
    assert report.temporal_corr == pytest.approx(1.0, abs=1e-9)
    assert report.velocity_corr == pytest.approx(1.0, abs=1e-9)
    assert report.lip_width_corr == pytest.approx(1.0, abs=1e-9)
    assert 1.0 - 1e-3 <= report.liveliness_ratio <= 1.0
    assert report.peak_align_ms == 0.0
    assert report.undefined == {}
    assert report.ufd == metrics.compare(seed0_model, seed0_motion, [])[0]


def test_full_report_flags_static_prediction(seed0_model):
    static = MotionSequence(np.zeros((30, 58)))
    report = metrics.full_report(seed0_model, static, static)
    assert report.temporal_corr is None
    assert "temporal_corr" in report.undefined
    assert "peak_align_ms" in report.undefined


def test_full_report_composes_per_metric_values(seed0_model, seed0_motion, rng):
    # Published dynamics scores of the full trained system (temporal
    # correlation 0.464, liveliness 1.087, peak alignment 114.3 ms) are
    # context anchors only; reproducing them needs the trained models,
    # so they are documented here and not asserted.
    gt = MotionSequence(seed0_motion.params[:100], fps=25.0)
    pred = MotionSequence(gt.params + rng.standard_normal(gt.params.shape) * 0.005, fps=25.0)
    cfg = metrics.MetricsConfig()
    report = metrics.full_report(seed0_model, pred, gt, cfg)
    o_pred = landmark_series(seed0_model, pred)
    o_gt = landmark_series(seed0_model, gt)
    w_pred = landmark_series(seed0_model, pred, "left_corner", "right_corner")
    w_gt = landmark_series(seed0_model, gt, "left_corner", "right_corner")
    assert report.mod_mm == float(np.mean(np.abs(o_pred - o_gt)) * 1000.0)
    assert report.ufd == metrics.compare(seed0_model, pred, [])[0]
    assert report.temporal_corr == metrics.pearson(o_pred, o_gt)
    assert report.velocity_corr == metrics.velocity_corr(o_pred, o_gt)
    assert report.lip_width_corr == metrics.pearson(w_pred, w_gt)
    assert report.liveliness_ratio == metrics.liveliness(o_pred, o_gt, cfg.epsilon)
    assert report.peak_align_ms == metrics.peak_align(o_pred, o_gt, cfg, gt.fps)


def test_full_report_times_peaks_at_the_clip_fps(seed0_model):
    # a 3-frame lag at 30 fps is 100 ms; the config holds no frame rate of its own
    gt = synth.make_motion(synth.SynthConfig(seed=0, duration_frames=300, fps=30.0))
    pred = MotionSequence(np.roll(gt.params, 3, axis=0), fps=30.0)
    assert metrics.full_report(seed0_model, pred, gt, metrics.MetricsConfig()).peak_align_ms == 100.0


def test_compare_matches_full_report(seed0_model, seed0_motion, rng):
    reference = MotionSequence(seed0_motion.params[:60], fps=25.0)
    candidates = [
        reference,
        MotionSequence(reference.params + rng.standard_normal(reference.params.shape) * 0.005, fps=25.0),
        MotionSequence(np.zeros((60, 58)), fps=25.0),  # undefined flags
    ]
    cfg = metrics.MetricsConfig(peak_min_distance=4)
    ref_ufd, reports = metrics.compare(seed0_model, reference, iter(candidates), cfg)
    assert ref_ufd == metrics.full_report(seed0_model, reference, reference).ufd
    assert reports == [metrics.full_report(seed0_model, c, reference, cfg) for c in candidates]
    assert reports[2].undefined


def test_compare_renders_the_reference_once(seed0_model, seed0_motion, monkeypatch):
    reference = MotionSequence(seed0_motion.params[:30], fps=25.0)
    events = []
    render = metrics.forward_batch

    def counted(model, params, **kwargs):
        events.append(("render", len(params), len(kwargs["vertices"])))
        return render(model, params, **kwargs)

    def candidates():
        for i in range(3):
            events.append(("load", i))
            yield MotionSequence(seed0_motion.params[10 * i : 10 * i + 30], fps=25.0)

    monkeypatch.setattr(metrics, "forward_batch", counted)
    scored = 4 + seed0_model.region("upper_face").size
    metrics.compare(seed0_model, reference, candidates())
    # one render of the reference, then one per candidate, each taken when its turn comes
    assert events == [("render", 30, scored)] + [e for i in range(3) for e in (("load", i), ("render", 30, scored))]
    events.clear()
    metrics.full_report(seed0_model, reference, reference)
    assert events == [("render", 30, scored), ("render", 30, 4)]  # the reference's landmarks only


def test_compare_refuses_a_reference_too_short_to_score(seed0_model):
    with pytest.raises(ValueError, match="at least 3 frames"):
        metrics.compare(seed0_model, MotionSequence(np.zeros((2, 58))), [])


def test_metrics_config_validation():
    with pytest.raises(ValueError):
        metrics.MetricsConfig(peak_min_prominence=1.5)
    with pytest.raises(ValueError):
        metrics.MetricsConfig(peak_min_distance=0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"epsilon": float("inf")}, "epsilon"),  # made liveliness_ratio 0.0
        ({"peak_min_distance": 2.5}, "peak_min_distance"),  # a TypeError in detect_peaks
        ({"peak_min_distance": True}, "peak_min_distance"),
    ],
    # fixed ids keep each case's name from before the fps case (kwargs0) was dropped with the field
    ids=["kwargs1-epsilon", "kwargs2-peak_min_distance", "kwargs3-peak_min_distance"],
)
def test_metrics_config_rejects_values_that_used_to_pass(kwargs, name):
    with pytest.raises(ValueError, match=name):
        metrics.MetricsConfig(**kwargs)
