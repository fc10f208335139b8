import numpy as np
import pytest

import oracles
from facemotion import motion_core as mc
from facemotion.errors import IncompatibleShapeError, ModelConfigError


def tiny_model(template):
    """Minimal model: zero bases, first four vertices are the landmarks."""
    template = np.asarray(template, dtype=np.float64)
    n = template.shape[0]
    return mc.BlendshapeModel(
        template=template,
        expr_basis=np.zeros((n, 3, 50)),
        eyelid_basis=np.zeros((n, 3, 2)),
        jaw_joint=np.zeros(3),
        jaw_region=np.array([1], dtype=np.intp),
        regions={"lips": np.arange(4), "face": np.arange(n), "upper_face": np.array([4])},
        landmarks={"upper_lip": 0, "lower_lip": 1, "left_corner": 2, "right_corner": 3},
    )


def random_frame(rng, scale=0.3):
    return mc.FlameFrame.from_vector(rng.uniform(-scale, scale, size=58))


# ---------------------------------------------------------------------------
# frames and sequences


def test_frame_vector_round_trip(rng):
    vec = rng.standard_normal(58)
    frame = mc.FlameFrame.from_vector(vec)
    np.testing.assert_array_equal(frame.to_vector(), vec)
    assert frame.expression.shape == (50,)
    assert frame.jaw_pose.shape == (3,)
    assert frame.global_pose.shape == (3,)
    assert frame.eyelid.shape == (2,)


def test_frame_dimensionality_is_58():
    assert mc.FRAME_DIM == 58
    assert len(mc.CHANNEL_NAMES) == 58
    with pytest.raises(IncompatibleShapeError):
        mc.FlameFrame.from_vector(np.zeros(57))


def test_frame_rejects_non_finite():
    vec = np.zeros(58)
    vec[10] = np.nan
    with pytest.raises(ValueError):
        mc.FlameFrame.from_vector(vec)


def test_sequence_validation(rng):
    m = mc.MotionSequence(rng.standard_normal((7, 58)), fps=25.0)
    assert len(m) == 7
    assert m.duration_s == pytest.approx(0.28)
    with pytest.raises(ValueError):
        mc.MotionSequence(np.zeros((3, 58)), fps=0.0)
    with pytest.raises(IncompatibleShapeError):
        mc.MotionSequence(np.zeros((3, 57)))


def test_sequence_from_frames_round_trip(rng):
    frames = [random_frame(rng) for _ in range(4)]
    m = mc.MotionSequence.from_frames(frames, fps=30.0)
    for i, f in enumerate(frames):
        np.testing.assert_array_equal(m.frame(i).to_vector(), f.to_vector())


# ---------------------------------------------------------------------------
# forward_vertices


def test_forward_zero_frame_is_template(seed0_model):
    v = mc.forward_vertices(seed0_model, mc.FlameFrame.zero())
    np.testing.assert_array_equal(v.vertices, seed0_model.template)


def test_forward_unit_expression_adds_basis_column(seed0_model):
    k = 7
    frame = mc.FlameFrame.zero()
    expr = frame.expression.copy()
    expr[k] = 1.0
    frame = mc.FlameFrame(expr, frame.jaw_pose, frame.global_pose, frame.eyelid)
    v = mc.forward_vertices(seed0_model, frame)
    np.testing.assert_allclose(
        v.vertices, seed0_model.template + seed0_model.expr_basis[:, :, k], rtol=0, atol=1e-15
    )


def test_forward_jaw_rotation_matches_rodrigues_oracle(seed0_model):
    frame = mc.FlameFrame(np.zeros(50), np.array([0.1, 0.0, 0.0]), np.zeros(3), np.zeros(2))
    got = mc.forward_vertices(seed0_model, frame).vertices
    expected = seed0_model.template.copy()
    idx = seed0_model.jaw_region
    expected[idx] = oracles.rotate_points(
        expected[idx], np.array([0.1, 0.0, 0.0]), seed0_model.jaw_joint
    )
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)
    # vertices outside the jaw region do not move
    outside = np.setdiff1d(np.arange(seed0_model.num_vertices), idx)
    np.testing.assert_array_equal(got[outside], seed0_model.template[outside])


def test_forward_global_rotation_matches_oracle(seed0_model, rng):
    pose = np.array([0.2, -0.1, 0.3])
    frame = mc.FlameFrame(np.zeros(50), np.zeros(3), pose, np.zeros(2))
    got = mc.forward_vertices(seed0_model, frame).vertices
    expected = oracles.rotate_points(seed0_model.template, pose, np.zeros(3))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_forward_linearity_in_expression_and_eyelid(seed0_model, rng):
    alpha = 0.3
    f1, f2 = random_frame(rng), random_frame(rng)
    blends = []
    for f in (f1, f2):
        blends.append(
            mc.FlameFrame(f.expression, np.zeros(3), np.zeros(3), f.eyelid)
        )
    mixed = mc.FlameFrame(
        alpha * f1.expression + (1 - alpha) * f2.expression,
        np.zeros(3),
        np.zeros(3),
        alpha * f1.eyelid + (1 - alpha) * f2.eyelid,
    )
    va = mc.forward_vertices(seed0_model, blends[0]).vertices
    vb = mc.forward_vertices(seed0_model, blends[1]).vertices
    vm = mc.forward_vertices(seed0_model, mixed).vertices
    np.testing.assert_allclose(vm, alpha * va + (1 - alpha) * vb, rtol=1e-12, atol=1e-15)


def test_jaw_rotation_preserves_pairwise_distances(seed0_model, rng):
    frame = mc.FlameFrame(np.zeros(50), np.array([0.2, 0.05, -0.1]), np.zeros(3), np.zeros(2))
    before = seed0_model.template
    after = mc.forward_vertices(seed0_model, frame).vertices
    idx = seed0_model.jaw_region
    pairs = rng.choice(idx, size=(40, 2))
    for i, j in pairs:
        d0 = np.linalg.norm(before[i] - before[j])
        d1 = np.linalg.norm(after[i] - after[j])
        assert d1 == pytest.approx(d0, rel=1e-9)


# ---------------------------------------------------------------------------
# zero_pose


def test_zero_pose_strips_global_only():
    frame = mc.FlameFrame(np.full(50, 0.1), np.array([0.2, 0, 0]), np.array([0.3, 0, 0]), np.array([0.5, 0.5]))
    z = mc.zero_pose(frame)
    np.testing.assert_array_equal(z.global_pose, np.zeros(3))
    np.testing.assert_array_equal(z.expression, frame.expression)
    np.testing.assert_array_equal(z.jaw_pose, frame.jaw_pose)
    np.testing.assert_array_equal(z.eyelid, frame.eyelid)


def test_zero_pose_idempotent(rng):
    frame = random_frame(rng)
    once = mc.zero_pose(frame)
    twice = mc.zero_pose(once)
    np.testing.assert_array_equal(once.to_vector(), twice.to_vector())
    already = mc.FlameFrame(frame.expression, frame.jaw_pose, np.zeros(3), frame.eyelid)
    np.testing.assert_array_equal(mc.zero_pose(already).to_vector(), already.to_vector())


# ---------------------------------------------------------------------------
# mouth landmarks


def test_mouth_opening_simple_cases():
    model = tiny_model([[0, 1, 0], [0, -1, 0], [0, 0, 0], [1, 0, 0], [0, 2, 0]])
    v = mc.VertexFrame(model.template)
    assert mc.mouth_opening(model, v) == 2.0
    coincident = tiny_model([[0, 1, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 2, 0]])
    assert mc.mouth_opening(coincident, mc.VertexFrame(coincident.template)) == 0.0


def test_mouth_width_simple_cases():
    model = tiny_model([[0, 1, 0], [0, -1, 0], [-0.02, 0, 0], [0.03, 0, 0], [0, 2, 0]])
    v = mc.VertexFrame(model.template)
    assert mc.mouth_width(model, v) == pytest.approx(0.05, abs=1e-15)
    coincident = tiny_model([[0, 1, 0], [0, -1, 0], [0.1, 0, 0], [0.1, 0, 0], [0, 2, 0]])
    assert mc.mouth_width(coincident, mc.VertexFrame(coincident.template)) == 0.0


def test_mouth_metrics_match_landmark_oracle(seed0_model, rng):
    v = mc.forward_vertices(seed0_model, mc.FlameFrame.zero())
    assert mc.mouth_opening(seed0_model, v) == pytest.approx(
        oracles.landmark_distance(v.vertices, seed0_model.landmark("upper_lip"), seed0_model.landmark("lower_lip")),
        abs=1e-15,
    )
    smile = np.zeros(58)
    smile[:50] = rng.uniform(-0.2, 0.2, 50)
    v2 = mc.forward_vertices(seed0_model, mc.FlameFrame.from_vector(smile))
    assert mc.mouth_width(seed0_model, v2) == pytest.approx(
        oracles.landmark_distance(v2.vertices, seed0_model.landmark("left_corner"), seed0_model.landmark("right_corner")),
        abs=1e-15,
    )


def test_missing_landmark_raises():
    model = tiny_model([[0, 1, 0], [0, -1, 0], [0, 0, 0], [1, 0, 0], [0, 2, 0]])
    model.landmarks.pop("upper_lip")
    with pytest.raises(ModelConfigError):
        mc.mouth_opening(model, mc.VertexFrame(model.template))


def test_mouth_metrics_invariant_under_global_pose_when_zero_posed(seed0_model, rng):
    frame = random_frame(rng)
    posed = mc.MotionSequence.from_frames([frame])
    o_posed = mc.mouth_opening(seed0_model, mc.sequence_vertices(seed0_model, posed, zero_posed=True)[0])
    neutral = mc.FlameFrame(frame.expression, frame.jaw_pose, np.zeros(3), frame.eyelid)
    o_neutral = mc.mouth_opening(seed0_model, mc.forward_vertices(seed0_model, neutral))
    assert o_posed == o_neutral


# ---------------------------------------------------------------------------
# sequence_vertices


def test_sequence_vertices_zero_motion_is_template(seed0_model):
    m = mc.MotionSequence(np.zeros((3, 58)))
    frames = mc.sequence_vertices(seed0_model, m)
    assert len(frames) == 3
    for vf in frames:
        np.testing.assert_array_equal(vf.vertices, seed0_model.template)


def test_sequence_vertices_flag_matches_composition(seed0_model, rng):
    frame = random_frame(rng)
    m = mc.MotionSequence.from_frames([frame])
    flagged = mc.sequence_vertices(seed0_model, m, zero_posed=True)[0]
    composed = mc.forward_vertices(seed0_model, mc.zero_pose(frame))
    np.testing.assert_array_equal(flagged.vertices, composed.vertices)


def test_sequence_vertices_matches_frame_by_frame_oracle(seed0_model, seed0_motion):
    sub = mc.MotionSequence(seed0_motion.params[:10], fps=seed0_motion.fps)
    got = mc.sequence_vertices(seed0_model, sub)
    for i in range(10):
        expected = mc.forward_vertices(seed0_model, sub.frame(i))
        np.testing.assert_array_equal(got[i].vertices, expected.vertices)


# ---------------------------------------------------------------------------
# forward_batch


def test_forward_batch_matches_loop_oracle(seed0_model, rng):
    params = rng.uniform(-0.3, 0.3, size=(6, 58))
    params[1, 50:53] = 0.0
    params[2, 53:56] = 0.0
    params[3, 50:56] = 0.0
    m = seed0_model
    for zero_posed in (False, True):
        got = mc.forward_batch(m, params, zero_posed=zero_posed)
        for i, frame in enumerate(params):
            if zero_posed:
                frame = np.concatenate([frame[:53], np.zeros(3), frame[56:]])
            expected = oracles.forward_loop(m.template, m.expr_basis, m.eyelid_basis, m.jaw_joint, m.jaw_region, frame)
            np.testing.assert_allclose(got[i], expected, rtol=0, atol=1e-15)


def test_forward_batch_input_validation(seed0_model):
    assert mc.forward_batch(seed0_model, np.zeros((0, 58))).shape == (0, seed0_model.num_vertices, 3)
    with pytest.raises(IncompatibleShapeError):
        mc.forward_batch(seed0_model, np.zeros(58))
    with pytest.raises(ValueError):
        mc.forward_batch(seed0_model, np.full((2, 58), np.nan))
    with pytest.raises(ModelConfigError):
        mc.forward_batch(seed0_model, np.zeros((2, 58)), vertices=[seed0_model.num_vertices])
    with pytest.raises(ModelConfigError):
        mc.forward_batch(seed0_model, np.zeros((2, 58)), vertices=[-1])


# ---------------------------------------------------------------------------
# model validation


def test_model_region_invariants_enforced():
    template = np.zeros((6, 3))
    base = dict(
        template=template,
        expr_basis=np.zeros((6, 3, 50)),
        eyelid_basis=np.zeros((6, 3, 2)),
        jaw_joint=np.zeros(3),
        jaw_region=np.array([0]),
        landmarks={"upper_lip": 0, "lower_lip": 1, "left_corner": 2, "right_corner": 3},
    )
    with pytest.raises(ModelConfigError):
        mc.BlendshapeModel(regions={"lips": np.array([0, 1]), "face": np.array([1])}, **base)
    with pytest.raises(ModelConfigError):
        mc.BlendshapeModel(
            regions={"lips": np.array([0]), "face": np.array([0]), "upper_face": np.array([0])}, **base
        )
    with pytest.raises(ModelConfigError):
        mc.BlendshapeModel(regions={"lips": np.array([7])}, **base)


def test_model_basis_shape_mismatch_raises():
    with pytest.raises(IncompatibleShapeError):
        mc.BlendshapeModel(
            template=np.zeros((6, 3)),
            expr_basis=np.zeros((5, 3, 50)),
            eyelid_basis=np.zeros((6, 3, 2)),
            jaw_joint=np.zeros(3),
            jaw_region=np.array([0]),
        )
