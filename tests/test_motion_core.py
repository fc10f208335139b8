import dataclasses

import numpy as np
import pytest

import oracles
from facemotion import motion_core as mc
from facemotion import synth
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


def random_params(rng, t=1, scale=0.3):
    return rng.uniform(-scale, scale, size=(t, 58))


def one_frame(expression=0.0, jaw=0.0, global_pose=0.0, eyelid=0.0):
    """A (1, 58) params array with the given slices, zero elsewhere."""
    params = np.zeros((1, 58))
    params[0, mc.EXPRESSION_SLICE] = expression
    params[0, mc.JAW_SLICE] = jaw
    params[0, mc.GLOBAL_SLICE] = global_pose
    params[0, mc.EYELID_SLICE] = eyelid
    return params


def zero_global(params):
    params = params.copy()
    params[:, mc.GLOBAL_SLICE] = 0.0
    return params


# ---------------------------------------------------------------------------
# frames and sequences


def test_frame_vector_round_trip():
    slices = [mc.EXPRESSION_SLICE, mc.JAW_SLICE, mc.GLOBAL_SLICE, mc.EYELID_SLICE]
    covered = [i for s in slices for i in range(58)[s]]
    assert covered == list(range(58))
    assert [s.stop - s.start for s in slices] == [mc.EXPRESSION_DIM, mc.JAW_DIM, mc.GLOBAL_DIM, mc.EYELID_DIM]
    names = np.array(mc.CHANNEL_NAMES)
    assert all(n.startswith("exp_") for n in names[mc.EXPRESSION_SLICE])
    assert list(names[mc.JAW_SLICE]) == ["jaw_rx", "jaw_ry", "jaw_rz"]
    assert list(names[mc.GLOBAL_SLICE]) == ["global_rx", "global_ry", "global_rz"]
    assert list(names[mc.EYELID_SLICE]) == ["eyelid_l", "eyelid_r"]


def test_frame_dimensionality_is_58(seed0_model):
    assert mc.FRAME_DIM == 58
    assert len(mc.CHANNEL_NAMES) == 58
    with pytest.raises(IncompatibleShapeError):
        mc.MotionSequence(np.zeros((1, 57)))
    with pytest.raises(IncompatibleShapeError):
        mc.forward_batch(seed0_model, np.zeros((1, 57)))


def test_frame_rejects_non_finite(seed0_model):
    params = np.zeros((1, 58))
    params[0, 10] = np.nan
    with pytest.raises(ValueError):
        mc.MotionSequence(params)
    with pytest.raises(ValueError):
        mc.forward_batch(seed0_model, params)


def test_sequence_validation(rng):
    m = mc.MotionSequence(rng.standard_normal((7, 58)), fps=25.0)
    assert len(m) == 7
    assert m.fps == 25.0
    with pytest.raises(ValueError):
        mc.MotionSequence(np.zeros((3, 58)), fps=0.0)
    with pytest.raises(IncompatibleShapeError):
        mc.MotionSequence(np.zeros((3, 57)))


def test_sequence_from_frames_round_trip(rng):
    rows = [random_params(rng)[0] for _ in range(4)]
    m = mc.MotionSequence(np.stack(rows), fps=30.0)
    assert m.fps == 30.0
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(m.params[i], row)


# ---------------------------------------------------------------------------
# one frame: 1-row forward_batch


def test_forward_zero_frame_is_template(seed0_model):
    v = mc.forward_batch(seed0_model, np.zeros((1, 58)))[0]
    np.testing.assert_array_equal(v, seed0_model.template)


def test_forward_unit_expression_adds_basis_column(seed0_model):
    k = 7
    params = np.zeros((1, 58))
    params[0, k] = 1.0
    v = mc.forward_batch(seed0_model, params)[0]
    np.testing.assert_allclose(
        v, seed0_model.template + seed0_model.expr_basis[:, :, k], rtol=0, atol=1e-15
    )


def test_forward_jaw_rotation_matches_rodrigues_oracle(seed0_model):
    got = mc.forward_batch(seed0_model, one_frame(jaw=[0.1, 0.0, 0.0]))[0]
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
    got = mc.forward_batch(seed0_model, one_frame(global_pose=pose))[0]
    expected = oracles.rotate_points(seed0_model.template, pose, np.zeros(3))
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def test_forward_linearity_in_expression_and_eyelid(seed0_model, rng):
    alpha = 0.3
    blends = random_params(rng, 2)
    blends[:, mc.JAW_SLICE] = 0.0
    blends[:, mc.GLOBAL_SLICE] = 0.0
    mixed = alpha * blends[0] + (1 - alpha) * blends[1]
    va, vb, vm = (mc.forward_batch(seed0_model, row[None])[0] for row in (blends[0], blends[1], mixed))
    np.testing.assert_allclose(vm, alpha * va + (1 - alpha) * vb, rtol=1e-12, atol=1e-15)


def test_jaw_rotation_preserves_pairwise_distances(seed0_model, rng):
    before = seed0_model.template
    after = mc.forward_batch(seed0_model, one_frame(jaw=[0.2, 0.05, -0.1]))[0]
    idx = seed0_model.jaw_region
    pairs = rng.choice(idx, size=(40, 2))
    for i, j in pairs:
        d0 = np.linalg.norm(before[i] - before[j])
        d1 = np.linalg.norm(after[i] - after[j])
        assert d1 == pytest.approx(d0, rel=1e-9)


# ---------------------------------------------------------------------------
# zero-pose space: zero_posed=True is the global slice zeroed, bit for bit


def test_zero_pose_strips_global_only(seed0_model):
    params = one_frame(expression=0.1, jaw=[0.2, 0, 0], global_pose=[0.3, 0, 0], eyelid=0.5)
    zeroed = mc.forward_batch(seed0_model, params, zero_posed=True)
    np.testing.assert_array_equal(zeroed, mc.forward_batch(seed0_model, zero_global(params)))
    # the jaw is facial deformation and is kept
    no_jaw = zero_global(params)
    no_jaw[:, mc.JAW_SLICE] = 0.0
    assert not np.array_equal(zeroed, mc.forward_batch(seed0_model, no_jaw))


def test_zero_pose_idempotent(seed0_model, rng):
    params = random_params(rng)
    once = mc.forward_batch(seed0_model, params, zero_posed=True)
    already = zero_global(params)
    np.testing.assert_array_equal(mc.forward_batch(seed0_model, already, zero_posed=True), once)
    np.testing.assert_array_equal(mc.forward_batch(seed0_model, already), once)


# ---------------------------------------------------------------------------
# mouth landmarks


def static(t=1):
    return mc.MotionSequence(np.zeros((t, 58)))


def mouth(model, t=1):
    """Zero-posed landmarks of t zero frames, (t, 4, 3) in LANDMARK_NAMES order."""
    return mc.forward_batch(model, static(t).params, zero_posed=True,
                            vertices=[model.landmarks[name] for name in mc.LANDMARK_NAMES])


def test_mouth_opening_simple_cases():
    model = tiny_model([[0, 1, 0], [0, -1, 0], [0, 0, 0], [1, 0, 0], [0, 2, 0]])
    assert mc.landmark_distance(model.template, 0, 1) == 2.0
    assert mc.landmark_distance(mouth(model, 2), 0, 1).tolist() == [2.0, 2.0]
    coincident = tiny_model([[0, 1, 0], [0, 1, 0], [0, 0, 0], [1, 0, 0], [0, 2, 0]])
    assert mc.landmark_distance(mouth(coincident), 0, 1).tolist() == [0.0]


def test_mouth_width_simple_cases():
    model = tiny_model([[0, 1, 0], [0, -1, 0], [-0.02, 0, 0], [0.03, 0, 0], [0, 2, 0]])
    assert mc.landmark_distance(mouth(model), 2, 3)[0] == pytest.approx(0.05, abs=1e-15)
    coincident = tiny_model([[0, 1, 0], [0, -1, 0], [0.1, 0, 0], [0.1, 0, 0], [0, 2, 0]])
    assert mc.landmark_distance(mouth(coincident), 2, 3).tolist() == [0.0]


def test_mouth_metrics_match_landmark_oracle(seed0_model, rng):
    lm = seed0_model.landmarks
    v = mc.forward_batch(seed0_model, np.zeros((1, 58)))[0]
    assert mc.landmark_distance(v, lm["upper_lip"], lm["lower_lip"]) == pytest.approx(
        oracles.landmark_distance(v, lm["upper_lip"], lm["lower_lip"]), abs=1e-15
    )
    smile = np.zeros((1, 58))
    smile[0, :50] = rng.uniform(-0.2, 0.2, 50)
    v2 = mc.forward_batch(seed0_model, smile)[0]
    assert mc.landmark_distance(v2, lm["left_corner"], lm["right_corner"]) == pytest.approx(
        oracles.landmark_distance(v2, lm["left_corner"], lm["right_corner"]), abs=1e-15
    )


def test_missing_landmark_raises():
    model = tiny_model([[0, 1, 0], [0, -1, 0], [0, 0, 0], [1, 0, 0], [0, 2, 0]])
    landmarks = {k: v for k, v in model.landmarks.items() if k != "upper_lip"}
    with pytest.raises(ModelConfigError, match="no landmark 'upper_lip'"):
        dataclasses.replace(model, landmarks=landmarks)


def test_mouth_metrics_invariant_under_global_pose_when_zero_posed(seed0_model, rng):
    params = random_params(rng)
    lm = seed0_model.landmarks
    lips = [lm["upper_lip"], lm["lower_lip"]]
    o_posed = mc.landmark_distance(mc.forward_batch(seed0_model, params, zero_posed=True, vertices=lips), 0, 1)[0]
    neutral = mc.forward_batch(seed0_model, zero_global(params))[0]
    assert o_posed == mc.landmark_distance(neutral, lm["upper_lip"], lm["lower_lip"])


# ---------------------------------------------------------------------------
# T-row calls: row i equals a 1-row call


def test_sequence_vertices_zero_motion_is_template(seed0_model):
    verts = mc.sequence_vertex_array(seed0_model, static(3))
    assert verts.shape == (3, seed0_model.num_vertices, 3)
    for v in verts:
        np.testing.assert_array_equal(v, seed0_model.template)


def test_sequence_vertices_matches_frame_by_frame_oracle(seed0_model, seed0_motion):
    sub = mc.MotionSequence(seed0_motion.params[:10], fps=seed0_motion.fps)
    got = mc.sequence_vertex_array(seed0_model, sub)
    for i in range(10):
        expected = mc.forward_batch(seed0_model, sub.params[i : i + 1])[0]
        np.testing.assert_array_equal(got[i], expected)


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
    with pytest.raises(ModelConfigError, match="subset"):
        mc.BlendshapeModel(
            regions={"lips": np.array([0, 1]), "face": np.array([1]), "upper_face": np.array([2])}, **base
        )
    with pytest.raises(ModelConfigError, match="disjoint"):
        mc.BlendshapeModel(
            regions={"lips": np.array([0]), "face": np.array([0]), "upper_face": np.array([0])}, **base
        )
    with pytest.raises(ModelConfigError, match="out of range"):
        mc.BlendshapeModel(regions={"lips": np.array([7])}, **base)


def test_model_basis_shape_mismatch_raises():
    with pytest.raises(IncompatibleShapeError):
        mc.BlendshapeModel(
            template=np.zeros((6, 3)),
            expr_basis=np.zeros((5, 3, 50)),
            eyelid_basis=np.zeros((6, 3, 2)),
            jaw_joint=np.zeros(3),
            jaw_region=np.array([0]),
            regions={"lips": np.array([0]), "face": np.array([0]), "upper_face": np.array([1])},
            landmarks={"upper_lip": 0, "lower_lip": 1, "left_corner": 2, "right_corner": 3},
        )


def test_replaced_jaw_fields_render_as_a_model_built_with_them(seed0_model, seed0_motion):
    # the model lays out its jaw region once, when built; a model made by
    # dataclasses.replace must lay out its own region and hinge, not keep the old ones
    region = np.concatenate([seed0_model.jaw_region[::-2], seed0_model.regions["lips"][:3]])
    joint = seed0_model.jaw_joint + np.array([0.01, -0.02, 0.005])
    replaced = dataclasses.replace(seed0_model, jaw_region=region, jaw_joint=joint)
    fields = {f.name: getattr(seed0_model, f.name) for f in dataclasses.fields(seed0_model) if f.init}
    built = mc.BlendshapeModel(**{**fields, "jaw_region": region, "jaw_joint": joint})
    params = seed0_motion.params[:40]
    assert (params[:, mc.JAW_SLICE] != 0).any(axis=1).all()
    for zero_posed in (False, True):
        got = mc.forward_batch(replaced, params, zero_posed=zero_posed)
        assert got.tobytes() == mc.forward_batch(built, params, zero_posed=zero_posed).tobytes()
        assert got.tobytes() != mc.forward_batch(seed0_model, params, zero_posed=zero_posed).tobytes()


def test_a_built_model_owns_read_only_copies_of_its_arrays():
    # an in-place edit would leave the derived layout (frame_basis, jaw_cols,
    # jaw_hinge) rendering the old values, so every array refuses one; and no
    # model shares an array with its caller, nor with another model
    model = synth.make_model(synth.SynthConfig(seed=0, num_vertices=40))
    arrays = [getattr(model, f.name) for f in dataclasses.fields(model) if f.name not in ("regions", "landmarks")]
    for arr in arrays + list(model.regions.values()):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] += 1
    template = model.template.copy()
    built = dataclasses.replace(model, template=template)
    template[0] = 1.0
    assert built.template.tobytes() == model.template.tobytes()
    other = synth.make_model(synth.SynthConfig(seed=1, num_vertices=40))
    assert not np.shares_memory(model.jaw_joint, other.jaw_joint)
    assert not np.shares_memory(model.jaw_joint, synth._JAW_JOINT)
