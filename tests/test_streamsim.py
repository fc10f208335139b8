import math

import numpy as np
import pytest

import oracles
from facemotion import rvq, streamsim
from facemotion.errors import IncompatibleShapeError, StreamProtocolError
from facemotion.motion_core import FRAME_DIM


def codec(rng, n_levels=2, k=8, d_z=8, g=5):
    cfg = rvq.QuantizerConfig(group_size=g, num_levels=n_levels, codebook_size=k, latent_dim=d_z, seed=0)
    proj = rvq.WindowProjection(
        rng.standard_normal((d_z, cfg.window_dim)) * 0.1,
        rng.standard_normal(d_z) * 0.1,
        rng.standard_normal((cfg.window_dim, d_z)) * 0.1,
        rng.standard_normal(cfg.window_dim) * 0.1,
    )
    cb = rvq.Codebook(rng.standard_normal((n_levels, k, d_z)))
    return cfg, proj, cb


def features(rng, t=50, d=6, fps=25.0):
    return streamsim.AudioFeatureSequence(rng.standard_normal((t, d)), fps=fps)


# ---------------------------------------------------------------------------
# downsample_features


def test_downsample_constant_features():
    h = streamsim.AudioFeatureSequence(np.full((10, 3), 2.5))
    out = streamsim.downsample_features(h, 5)
    assert out.features.shape == (2, 3)
    np.testing.assert_array_equal(out.features, np.full((2, 3), 2.5))
    assert out.fps == 5.0


def test_downsample_length_and_padding(rng):
    h = features(rng, t=12)
    out = streamsim.downsample_features(h, 5)
    assert len(out) == 3
    expected = oracles.group_means(h.features, 5)
    np.testing.assert_allclose(out.features, expected, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# predictors and step


def test_hold_last_at_stream_start_emits_zero_tokens(rng):
    cfg, proj, cb = codec(rng)
    state = streamsim.initial_state(cfg, segment_tokens=3)
    seg = features(rng, t=15)
    tokens, motion, new_state = streamsim.step(state, seg, streamsim.PredictorSpec("hold_last"), cb, proj)
    np.testing.assert_array_equal(tokens.indices, np.zeros((3, 2)))
    expected = rvq.window_decode(rvq.rvq_decode(tokens, cb, fps_latent=5.0), proj, cfg, 15)
    np.testing.assert_array_equal(motion.params, expected.params)
    assert new_state.segment_index == 1
    np.testing.assert_array_equal(new_state.history_tokens, tokens.indices)


def test_hold_last_repeats_previous_segment(rng):
    cfg, proj, cb = codec(rng)
    state = streamsim.initial_state(cfg, segment_tokens=3)
    history = np.array([[1, 2], [3, 4], [5, 6]])
    state = streamsim.SegmentState(history, 1, cfg, 3)
    tokens, _, _ = streamsim.step(state, features(rng, t=15), streamsim.PredictorSpec("hold_last"), cb, proj)
    np.testing.assert_array_equal(tokens.indices, history)


def test_oracle_predictor_requires_tokens():
    with pytest.raises(StreamProtocolError):
        streamsim.PredictorSpec("oracle")


def test_retrieval_requires_corpus():
    with pytest.raises(StreamProtocolError):
        streamsim.PredictorSpec("retrieval", corpus=[])


def test_retrieval_matches_exhaustive_scan(rng):
    cfg, proj, cb = codec(rng)
    corpus = [(rng.standard_normal(6), rng.integers(0, 8, size=(3, 2))) for _ in range(3)]
    spec = streamsim.PredictorSpec("retrieval", corpus=corpus)
    state = streamsim.initial_state(cfg, segment_tokens=3)
    seg = features(rng, t=15)
    tokens, _, _ = streamsim.step(state, seg, spec, cb, proj)
    pooled = streamsim.downsample_features(seg, cfg.group_size)
    expected_idx = oracles.nearest_key_scan([k for k, _ in corpus], pooled.features.mean(axis=0))
    np.testing.assert_array_equal(tokens.indices, corpus[expected_idx][1])


@pytest.mark.parametrize("corpus, error, message", [
    ([(np.zeros(3), [[0]]), (np.array([0.0, np.nan, 0.0]), [[1]])], ValueError,
     "corpus key 1 contains non-finite values"),
    ([(np.zeros((2, 3)), [[0]])], IncompatibleShapeError, "corpus key 0 must have shape (d_h,), got (2, 3)"),
    ([(np.zeros(3), [[0]]), (np.zeros(3), [[1]]), (np.zeros(4), [[2]])], IncompatibleShapeError,
     "corpus key 2 must have shape (3,), got (4,)"),
    ([(np.zeros(3), [[0]]), (np.zeros(3), [1, 2])], IncompatibleShapeError,
     "corpus token segment 1 has shape (2,); it must be 2-D with >= 1 row"),
    ([(np.zeros(3), np.zeros((0, 2), dtype=np.int64))], IncompatibleShapeError,
     "corpus token segment 0 has shape (0, 2); it must be 2-D with >= 1 row"),
], ids=["nan-key", "2d-key", "key-length", "1d-tokens", "empty-tokens"])
def test_retrieval_rejects_bad_corpus_naming_the_entry(corpus, error, message):
    with pytest.raises(error) as exc:
        streamsim.PredictorSpec("retrieval", corpus=corpus)
    assert str(exc.value) == message


def test_retrieval_step_rejects_feature_width_other_than_key_width(rng):
    cfg, proj, cb = codec(rng)
    spec = streamsim.PredictorSpec("retrieval", corpus=[(np.zeros(4), np.zeros((3, 2), dtype=np.int64))])
    with pytest.raises(IncompatibleShapeError, match="feature width 6 does not match corpus key width 4"):
        streamsim.step(streamsim.initial_state(cfg, segment_tokens=3), features(rng, t=15), spec, cb, proj)


def test_uniform_predictor_is_seeded(rng):
    cfg, proj, cb = codec(rng)
    spec = streamsim.PredictorSpec("uniform", seed=7)
    state = streamsim.initial_state(cfg, segment_tokens=3)
    seg = features(rng, t=15)
    t1, _, _ = streamsim.step(state, seg, spec, cb, proj)
    t2, _, _ = streamsim.step(state, seg, spec, cb, proj)
    np.testing.assert_array_equal(t1.indices, t2.indices)
    assert t1.indices.min() >= 0 and t1.indices.max() < 8


@pytest.mark.parametrize("spec", [
    streamsim.PredictorSpec("hold_last"),
    streamsim.PredictorSpec("uniform", seed=7),
    streamsim.PredictorSpec("oracle", gt_tokens=rvq.TokenSequence(np.zeros((3, 2), dtype=np.int64), 5, 2, 8)),
    streamsim.PredictorSpec("retrieval", corpus=[(np.zeros(6), np.zeros((3, 2), dtype=np.int64))]),
], ids=lambda spec: spec.kind)
def test_step_refuses_an_empty_segment(rng, spec):
    cfg, proj, cb = codec(rng)
    with pytest.raises(ValueError, match="cannot window an empty sequence"):
        streamsim.step(streamsim.initial_state(cfg, segment_tokens=3), features(rng, t=0), spec, cb, proj)


def test_step_markov_history_only(rng):
    """Replaying any segment with just the previous segment's tokens
    reproduces the sequential stream output exactly."""
    cfg, proj, cb = codec(rng)
    feats = features(rng, t=75)
    spec = streamsim.PredictorSpec("uniform", seed=3)
    state = streamsim.initial_state(cfg, segment_tokens=3)
    seg_frames = cfg.group_size * 3
    outputs = []
    for s in range(5):
        seg = streamsim.AudioFeatureSequence(feats.features[s * seg_frames : (s + 1) * seg_frames], fps=feats.fps)
        tokens, motion, state = streamsim.step(state, seg, spec, cb, proj)
        outputs.append((tokens, motion))
    # replay segment 3 from a reconstructed state
    replay_state = streamsim.SegmentState(outputs[2][0].indices, 3, cfg, 3)
    seg = streamsim.AudioFeatureSequence(feats.features[3 * seg_frames : 4 * seg_frames], fps=feats.fps)
    tokens, motion, _ = streamsim.step(replay_state, seg, spec, cb, proj)
    np.testing.assert_array_equal(tokens.indices, outputs[3][0].indices)
    np.testing.assert_array_equal(motion.params, outputs[3][1].params)


# ---------------------------------------------------------------------------
# run_stream


def test_run_stream_segment_count_and_token_validity(rng):
    cfg, proj, cb = codec(rng)
    feats = features(rng, t=52)
    tokens, motion, log = streamsim.run_stream(feats, streamsim.PredictorSpec("uniform", seed=1), cb, proj, cfg, segment_tokens=2)
    seg_frames = cfg.group_size * 2
    n_segments = math.ceil(52 / seg_frames)
    assert sum(1 for e in log.events if e.kind == "segment_done") == n_segments
    assert len(tokens) == math.ceil(52 / cfg.group_size)
    assert len(motion) == 52
    assert tokens.indices.min() >= 0 and tokens.indices.max() < cfg.codebook_size


def test_streaming_equals_offline_decode_bit_exact(rng):
    cfg, proj, cb = codec(rng)
    feats = features(rng, t=50)
    for kind, kwargs in (("uniform", {"seed": 5}), ("hold_last", {})):
        tokens, motion, _ = streamsim.run_stream(feats, streamsim.PredictorSpec(kind, **kwargs), cb, proj, cfg, segment_tokens=2)
        offline = rvq.window_decode(
            rvq.rvq_decode(tokens, cb, fps_latent=feats.fps / cfg.group_size), proj, cfg, original_t=50
        )
        np.testing.assert_array_equal(motion.params, offline.params)


def test_oracle_stream_reproduces_gt_decode(rng):
    cfg, proj, cb = codec(rng)
    gt_indices = rng.integers(0, 8, size=(10, 2))
    gt = rvq.TokenSequence(gt_indices, group_size=cfg.group_size, num_levels=2, codebook_size=8)
    feats = features(rng, t=50)
    tokens, motion, _ = streamsim.run_stream(
        feats, streamsim.PredictorSpec("oracle", gt_tokens=gt), cb, proj, cfg, segment_tokens=2
    )
    np.testing.assert_array_equal(tokens.indices, gt_indices)
    offline = rvq.window_decode(rvq.rvq_decode(gt, cb, fps_latent=5.0), proj, cfg, original_t=50)
    np.testing.assert_array_equal(motion.params, offline.params)


def test_oracle_stream_exhaustion_raises(rng):
    cfg, proj, cb = codec(rng)
    gt = rvq.TokenSequence(np.zeros((4, 2), dtype=np.int64), group_size=5, num_levels=2, codebook_size=8)
    feats = features(rng, t=50)  # needs 10 token rows
    with pytest.raises(StreamProtocolError):
        streamsim.run_stream(feats, streamsim.PredictorSpec("oracle", gt_tokens=gt), cb, proj, cfg, segment_tokens=2)


def test_make_retrieval_corpus_round_trip(rng):
    cfg, proj, cb = codec(rng)
    feats = features(rng, t=50)
    tokens = rvq.TokenSequence(rng.integers(0, 8, size=(10, 2)), group_size=5, num_levels=2, codebook_size=8)
    corpus = streamsim.make_retrieval_corpus(feats, tokens, cfg, segment_tokens=2)
    assert len(corpus) == 5
    for s, (key, rows) in enumerate(corpus):
        np.testing.assert_array_equal(rows, tokens.indices[s * 2 : s * 2 + 2])
        assert key.shape == (6,)


def test_segment_tokens_below_one_is_rejected(rng):
    cfg, proj, cb = codec(rng)
    feats = features(rng, t=50)
    tokens = rvq.TokenSequence(rng.integers(0, 8, size=(10, 2)), group_size=5, num_levels=2, codebook_size=8)
    with pytest.raises(ValueError, match="segment_tokens"):
        streamsim.make_retrieval_corpus(feats, tokens, cfg, segment_tokens=0)
    with pytest.raises(ValueError, match="segment_tokens"):
        streamsim.run_stream(feats, streamsim.PredictorSpec("hold_last"), cb, proj, cfg, segment_tokens=0)


# ---------------------------------------------------------------------------
# event logs and latency


def test_event_log_ordering_enforced():
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    log.append(10.0, "first_text_token")
    with pytest.raises(StreamProtocolError):
        log.append(5.0, "first_audio_token")


def test_event_log_requires_input_end_first():
    log = streamsim.StreamEventLog()
    with pytest.raises(StreamProtocolError):
        log.append(0.0, "first_text_token")


def test_latency_ttft_anchor():
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    log.append(50.0, "first_audio_token")
    log.append(80.0, "first_motion_frame")
    log.append(500.0, "stream_done", "content_ms=1000.0")
    report = streamsim.latency_report(log)
    assert report.ttft_ms == 50.0
    assert report.ttfa_ms == 80.0
    assert report.rtf == 0.5


def test_latency_rtf_anchor_0703():
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    log.append(47.0, "first_audio_token")
    log.append(535.0, "first_motion_frame")
    log.append(7030.0, "stream_done", "content_ms=10000.0")
    report = streamsim.latency_report(log)
    assert report.rtf == 0.703
    assert report.generation_time_ms == 7030.0
    assert report.content_duration_ms == 10000.0


def test_latency_seed0_log_matches_subtraction_oracle(rng):
    t0 = float(rng.uniform(0, 100))
    gaps = rng.uniform(1, 50, size=4)
    times = t0 + np.cumsum(gaps)
    log = streamsim.StreamEventLog()
    log.append(t0, "input_end")
    log.append(times[0], "first_text_token")
    log.append(times[1], "first_audio_token")
    log.append(times[2], "first_motion_frame")
    log.append(times[3], "stream_done", "content_ms=2000.0")
    report = streamsim.latency_report(log)
    assert report.ttft_ms == times[1] - t0
    assert report.ttfa_ms == times[2] - t0
    assert report.rtf == (times[3] - t0) / 2000.0
    assert report.ttfa_ms >= report.ttft_ms >= 0.0


def test_event_log_rejects_non_finite_timestamps():
    for ts in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            streamsim.StreamEvent(ts, "input_end")
        log = streamsim.StreamEventLog()
        with pytest.raises(ValueError, match="finite"):
            log.append(ts, "input_end")
        assert log.events == []


@pytest.mark.parametrize("content_ms", ["inf", "nan", "0.0", "-5.0", "abc"])
def test_latency_rejects_content_ms_that_is_not_positive_and_finite(content_ms):
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    log.append(500.0, "stream_done", f"content_ms={content_ms}")
    with pytest.raises(StreamProtocolError, match="content_ms"):
        streamsim.latency_report(log)


def test_latency_missing_events_raise():
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    with pytest.raises(StreamProtocolError):
        streamsim.latency_report(log)


@pytest.mark.parametrize("field", ["text_token_ms", "audio_token_ms", "segment_ms"])
@pytest.mark.parametrize("value", [-5.0, math.nan, math.inf])
def test_timing_model_rejects_delays_that_are_negative_or_not_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0, got {value}"):
        streamsim.TimingModel(**{field: value})
    assert streamsim.TimingModel(0.0, 0.0, 0.0).segment_ms == 0.0


def test_run_stream_log_is_deterministic(rng):
    cfg, proj, cb = codec(rng)
    feats = features(rng, t=25)
    _, _, log = streamsim.run_stream(feats, streamsim.PredictorSpec("hold_last"), cb, proj, cfg, segment_tokens=1)
    kinds = [e.kind for e in log.events]
    assert kinds[0] == "input_end"
    assert "first_text_token" in kinds and "first_audio_token" in kinds
    assert kinds[-1] == "stream_done"
    report = streamsim.latency_report(log)
    timing = streamsim.TimingModel()
    assert report.ttft_ms == timing.text_token_ms + timing.audio_token_ms
    assert report.ttfa_ms == report.ttft_ms + timing.segment_ms
    assert report.content_duration_ms == 1000.0


def test_run_stream_timestamps_are_timing_model_sums(rng):
    """Each timestamp is the running float sum of the delays, bit for bit;
    0.1, 0.2 and 0.3 ms are not binary fractions, so the order of the sums shows."""
    cfg, proj, cb = codec(rng)
    timing = streamsim.TimingModel(text_token_ms=0.1, audio_token_ms=0.2, segment_ms=0.3)
    _, _, log = streamsim.run_stream(
        features(rng, t=52), streamsim.PredictorSpec("hold_last"), cb, proj, cfg, segment_tokens=2, timing=timing
    )
    now = 0.0
    expected = [(now, "input_end")]
    now += 0.1
    expected.append((now, "first_text_token"))
    now += 0.2
    expected.append((now, "first_audio_token"))
    for s in range(6):
        now += 0.3
        if s == 0:
            expected.append((now, "first_motion_frame"))
        expected.append((now, "segment_done"))
    expected.append((now, "stream_done"))
    assert [(e.timestamp_ms, e.kind) for e in log.events] == expected  # equal non-zero floats share their bits
    assert log.events[-1].payload == "content_ms=2080.0"


# ---------------------------------------------------------------------------
# hierarchical cross-entropy


def test_hierarchical_ce_one_hot_correct_is_zero(rng):
    targets = rvq.TokenSequence(rng.integers(0, 4, size=(6, 3)), group_size=5, num_levels=3, codebook_size=4)
    dists = np.zeros((6, 3, 4))
    for i in range(6):
        for j in range(3):
            dists[i, j, targets.indices[i, j]] = 1.0
    assert streamsim.hierarchical_ce(dists, targets) == 0.0


def test_hierarchical_ce_uniform_closed_form():
    targets = rvq.TokenSequence(np.zeros((4, 6), dtype=np.int64), group_size=5, num_levels=6, codebook_size=256)
    dists = np.full((4, 6, 256), 1.0 / 256.0)
    assert streamsim.hierarchical_ce(dists, targets) == pytest.approx(6.0 * math.log(256.0), abs=1e-6)


def test_hierarchical_ce_matches_log_gather_oracle(rng):
    n, n_q, k = 7, 2, 5
    raw = rng.uniform(0.1, 1.0, size=(n, n_q, k))
    dists = raw / raw.sum(axis=2, keepdims=True)
    targets = rvq.TokenSequence(rng.integers(0, k, size=(n, n_q)), group_size=5, num_levels=n_q, codebook_size=k)
    got = streamsim.hierarchical_ce(dists, targets)
    assert got == pytest.approx(oracles.sum_log_gather(dists, targets.indices), rel=1e-12)
    assert got >= 0.0


def test_hierarchical_ce_rejects_unnormalized(rng):
    targets = rvq.TokenSequence(np.zeros((2, 1), dtype=np.int64), group_size=5, num_levels=1, codebook_size=3)
    dists = np.full((2, 1, 3), 0.5)
    with pytest.raises(ValueError):
        streamsim.hierarchical_ce(dists, targets)


@pytest.mark.parametrize("dists, target, message", [
    ([[[math.nan, 0.5]]], 0, "pred_dists contains non-finite values"),  # returned nan
    ([[[-0.5, 1.5]]], 0, "pred_dists must hold finite probabilities >= 0"),  # returned nan with a RuntimeWarning
    ([[[1.5, -0.5]]], 0, "pred_dists must hold finite probabilities >= 0"),  # returned a cross-entropy of -0.405
    ([[[math.inf, -math.inf]]], 0, "pred_dists contains non-finite values"),  # the row sum nan passed the sum check
], ids=["dists0-0", "dists1-0", "dists2-0", "dists3-0"])  # the ids the cases had before they named a message
def test_hierarchical_ce_rejects_values_that_are_not_probabilities(dists, target, message):
    targets = rvq.TokenSequence(np.array([[target]]), group_size=5, num_levels=1, codebook_size=2)
    with pytest.raises(ValueError) as exc:
        streamsim.hierarchical_ce(np.array(dists), targets)
    assert str(exc.value) == message


def test_hierarchical_ce_zero_probability_is_inf():
    targets = rvq.TokenSequence(np.array([[0]]), group_size=5, num_levels=1, codebook_size=2)
    dists = np.array([[[0.0, 1.0]]])
    assert streamsim.hierarchical_ce(dists, targets) == math.inf

