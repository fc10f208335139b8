import functools

import numpy as np
import pytest

import oracles
from facemotion import losses, rvq, synth
from facemotion.errors import IncompatibleShapeError
from facemotion.motion_core import FRAME_DIM, MotionSequence


def small_cfg(**kw):
    defaults = dict(group_size=5, num_levels=2, codebook_size=8, latent_dim=4, seed=0)
    defaults.update(kw)
    return rvq.QuantizerConfig(**defaults)


# each id names the clause of the shared rule that the value breaks
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan-must be >= 0", "inf-must be finite"])
def test_quantizer_config_rejects_non_finite_dead_code_threshold(value):
    # gamma's NaN and infinity are checked through a forged .a2cb in test_fileio
    with pytest.raises(ValueError, match=f"dead_code_threshold must be finite and >= 0, got {value}"):
        small_cfg(dead_code_threshold=value)


def test_quantizer_config_takes_only_a_gamma_the_codebook_file_holds():
    assert small_cfg(gamma=0.0).gamma == 0.0
    assert small_cfg(gamma=0.1).gamma == 0.1  # kept as given; the file holds its f32 rounding
    for gamma in (1e39, 1e-50):  # beyond f32 range; 0 as f32
        with pytest.raises(ValueError, match="gamma must be positive and finite at f32 precision"):
            small_cfg(gamma=gamma)


def random_motion(rng, t=10, fps=25.0):
    return MotionSequence(rng.standard_normal((t, FRAME_DIM)) * 0.1, fps=fps)


def random_projection(rng, d_z, window_dim):
    return rvq.WindowProjection(
        rng.standard_normal((d_z, window_dim)),
        rng.standard_normal(d_z),
        rng.standard_normal((window_dim, d_z)),
        rng.standard_normal(window_dim),
    )


# ---------------------------------------------------------------------------
# window_encode / window_decode


def test_window_encode_identity_projection_yields_flat_windows(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM)
    proj = rvq.WindowProjection.identity(cfg.window_dim)
    m = random_motion(rng, t=10)
    z = rvq.window_encode(m, proj, cfg)
    assert len(z) == 2
    assert z.fps_latent == 5.0
    np.testing.assert_array_equal(z.vectors, m.params.reshape(2, -1))


def test_window_encode_pads_by_repeating_last_frame(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM)
    proj = rvq.WindowProjection.identity(cfg.window_dim)
    m = random_motion(rng, t=8)
    z = rvq.window_encode(m, proj, cfg)
    assert len(z) == 2
    tail = z.vectors[1].reshape(5, FRAME_DIM)
    np.testing.assert_array_equal(tail[:3], m.params[5:8])
    np.testing.assert_array_equal(tail[3], m.params[7])
    np.testing.assert_array_equal(tail[4], m.params[7])


def test_window_encode_matches_dense_matmul_oracle(rng):
    cfg = small_cfg(group_size=2, latent_dim=3)
    proj = random_projection(rng, 3, cfg.window_dim)
    m = random_motion(rng, t=6)
    z = rvq.window_encode(m, proj, cfg)
    expected = oracles.affine_map(m.params.reshape(3, -1), proj.encode_w, proj.encode_b)
    np.testing.assert_allclose(z.vectors, expected, rtol=0, atol=1e-12)


def test_window_encode_dimension_mismatch(rng):
    cfg = small_cfg()
    proj = random_projection(rng, 4, 2 * FRAME_DIM)  # wrong window dim for G=5
    with pytest.raises(IncompatibleShapeError):
        rvq.window_encode(random_motion(rng), proj, cfg)


def test_window_decode_identity_round_trip(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM)
    proj = rvq.WindowProjection.identity(cfg.window_dim)
    m = random_motion(rng, t=10)
    z = rvq.window_encode(m, proj, cfg)
    out = rvq.window_decode(z, proj, cfg, original_t=10)
    np.testing.assert_array_equal(out.params, m.params)
    assert out.fps == m.fps


@pytest.mark.parametrize("fps", [25.0, 30.0, 29.97])
def test_codec_round_trip_keeps_the_clip_fps(seed0_model, seed0_motion, rng, fps):
    # fps / G * G is not fps in f64 for every G (25 / 11 * 11 is 25.000000000000004); f32 rounding restores it
    clip = MotionSequence(seed0_motion.params[:40], fps=fps)
    for g in range(1, 17):
        cfg = small_cfg(group_size=g, latent_dim=3)
        proj = random_projection(rng, 3, cfg.window_dim)
        cb = rvq.Codebook(rng.standard_normal((2, 8, 3)))
        z = rvq.window_encode(clip, proj, cfg)
        tokens, _ = rvq.rvq_encode(z, cb, group_size=g)
        q = rvq.rvq_decode(tokens, cb, fps_latent=z.fps_latent)
        decoded = rvq.window_decode(q, proj, cfg, original_t=len(clip))
        assert decoded.fps == clip.fps, g
        losses.total_losses(seed0_model, clip, decoded, z=z, q=q)


def test_latent_rate_must_be_positive_and_finite():
    assert rvq.LatentSequence(np.zeros((1, 2)), fps_latent=25.0 / 3).fps_latent == 25.0 / 3  # not rounded
    for bad in (0.0, -5.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="fps_latent must be positive and finite"):
            rvq.LatentSequence(np.zeros((1, 2)), fps_latent=bad)


def test_window_decode_discards_padding(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM)
    proj = rvq.WindowProjection.identity(cfg.window_dim)
    m = random_motion(rng, t=8)
    z = rvq.window_encode(m, proj, cfg)
    out = rvq.window_decode(z, proj, cfg, original_t=8)
    assert len(out) == 8
    np.testing.assert_array_equal(out.params, m.params)


def test_window_decode_matches_matmul_oracle(rng):
    cfg = small_cfg(group_size=2, latent_dim=3)
    proj = random_projection(rng, 3, cfg.window_dim)
    z = rvq.LatentSequence(rng.standard_normal((4, 3)), fps_latent=12.5)
    out = rvq.window_decode(z, proj, cfg, original_t=7)
    expected = oracles.affine_map(z.vectors, proj.decode_w, proj.decode_b).reshape(-1, FRAME_DIM)[:7]
    np.testing.assert_allclose(out.params, expected, rtol=0, atol=1e-12)


def test_window_decode_rejects_excess_length(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM)
    proj = rvq.WindowProjection.identity(cfg.window_dim)
    z = rvq.window_encode(random_motion(rng, t=10), proj, cfg)
    for original_t in (11, -1):
        with pytest.raises(ValueError, match=rf"original_t={original_t} must be in \[0, 10\]"):
            rvq.window_decode(z, proj, cfg, original_t=original_t)


# ---------------------------------------------------------------------------
# rvq_encode / rvq_decode


def test_rvq_encode_single_codeword_maps_everything_to_zero(rng):
    cb = rvq.Codebook(rng.standard_normal((1, 1, 4)))
    z = rvq.LatentSequence(rng.standard_normal((6, 4)))
    tokens, _ = rvq.rvq_encode(z, cb)
    np.testing.assert_array_equal(tokens.indices, np.zeros((6, 1)))


def test_rvq_encode_exact_two_level_decomposition():
    # dyadic values keep the residual arithmetic exact
    entries = np.full((2, 8, 4), 100.0)
    entries[0, 3] = [1.0, 0.0, 0.0, 0.0]
    entries[1, 7] = [0.125, 0.0, 0.0, 0.0]
    cb = rvq.Codebook(entries)
    z = rvq.LatentSequence(np.array([[1.125, 0.0, 0.0, 0.0]]))
    tokens, norms = rvq.rvq_encode(z, cb)
    assert tokens.indices.tolist() == [[3, 7]]
    assert norms[-1] == 0.0


def test_rvq_encode_matches_exhaustive_scan_oracle(rng):
    cb_entries = rng.standard_normal((2, 8, 4))
    cb = rvq.Codebook(cb_entries)
    z = rvq.LatentSequence(rng.standard_normal((20, 4)))
    tokens, _ = rvq.rvq_encode(z, cb)
    expected = oracles.nearest_codeword_scan(z.vectors, cb_entries)
    np.testing.assert_array_equal(tokens.indices, expected)


def test_rvq_encode_tie_breaks_to_lowest_index():
    entries = np.zeros((1, 3, 2))
    entries[0, 1] = [1.0, 0.0]
    entries[0, 2] = [-1.0, 0.0]  # same distance from origin as index 1
    cb = rvq.Codebook(entries)
    z = rvq.LatentSequence(np.array([[0.0, 1.0]]))  # equidistant from 1 and 2
    tokens, _ = rvq.rvq_encode(z, cb)
    assert tokens.indices[0, 0] in (0, 1)  # 0 is closest here; guard the rule below
    z2 = rvq.LatentSequence(np.array([[0.0, 5.0]]))
    tokens2, _ = rvq.rvq_encode(z2, cb)
    assert tokens2.indices[0, 0] == 0  # all equidistant -> lowest index


def test_rvq_encode_empty_codebook_level():
    cb = rvq.Codebook(np.zeros((1, 0, 4)))
    with pytest.raises(ValueError):
        rvq.rvq_encode(rvq.LatentSequence(np.zeros((2, 4))), cb)


def test_rvq_decode_single_level_returns_codeword(rng):
    entries = rng.standard_normal((1, 5, 3))
    cb = rvq.Codebook(entries)
    tokens = rvq.TokenSequence(np.array([[2], [4]]), group_size=5, num_levels=1, codebook_size=5)
    z = rvq.rvq_decode(tokens, cb, fps_latent=5.0)
    np.testing.assert_array_equal(z.vectors, entries[0][[2, 4]])


def test_rvq_decode_zero_codebooks_give_zero_latents():
    cb = rvq.Codebook(np.zeros((3, 4, 2)))
    tokens = rvq.TokenSequence(np.array([[1, 2, 3], [0, 0, 0]]), group_size=5, num_levels=3, codebook_size=4)
    np.testing.assert_array_equal(rvq.rvq_decode(tokens, cb, fps_latent=5.0).vectors, np.zeros((2, 2)))


def test_rvq_decode_matches_gather_sum_oracle(rng):
    entries = rng.standard_normal((3, 6, 5))
    cb = rvq.Codebook(entries)
    idx = rng.integers(0, 6, size=(10, 3))
    tokens = rvq.TokenSequence(idx, group_size=5, num_levels=3, codebook_size=6)
    got = rvq.rvq_decode(tokens, cb, fps_latent=5.0).vectors
    np.testing.assert_allclose(got, oracles.gather_sum(idx, entries), rtol=0, atol=1e-15)


def test_rvq_decode_index_out_of_range(rng):
    cb = rvq.Codebook(rng.standard_normal((1, 4, 2)))
    tokens = rvq.TokenSequence(np.array([[5]]), group_size=5, num_levels=1, codebook_size=8)
    with pytest.raises((ValueError, IncompatibleShapeError)):
        rvq.rvq_decode(tokens, cb, fps_latent=5.0)


def test_token_sequence_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        rvq.TokenSequence(np.array([[4]]), group_size=5, num_levels=1, codebook_size=4)


# ---------------------------------------------------------------------------
# residual-structure invariants


def test_residual_norms_monotone_with_zero_codeword(rng):
    entries = rng.standard_normal((4, 8, 6))
    entries[:, 0] = 0.0  # every level can leave the residual unchanged
    cb = rvq.Codebook(entries)
    z = rvq.LatentSequence(rng.standard_normal((30, 6)))
    tokens, norms = rvq.rvq_encode(z, cb)
    # per-vector residuals never grow
    residual = z.vectors.copy()
    prev = np.linalg.norm(residual, axis=1)
    for j in range(4):
        residual -= entries[j][tokens.indices[:, j]]
        cur = np.linalg.norm(residual, axis=1)
        assert np.all(cur <= prev + 1e-12)
        prev = cur
    assert np.all(np.diff(np.concatenate([[float(np.mean(np.linalg.norm(z.vectors, axis=1)))], norms])) <= 1e-12)


def test_greedy_per_level_optimality(rng):
    entries = rng.standard_normal((3, 16, 4))
    cb = rvq.Codebook(entries)
    z = rvq.LatentSequence(rng.standard_normal((25, 4)))
    tokens, _ = rvq.rvq_encode(z, cb)
    residual = z.vectors.copy()
    for j in range(3):
        for n in range(25):
            chosen = np.sum((residual[n] - entries[j][tokens.indices[n, j]]) ** 2)
            for k in range(16):
                assert np.sum((residual[n] - entries[j][k]) ** 2) >= chosen
        residual -= entries[j][tokens.indices[:, j]]


def test_exact_round_trip_through_full_codec(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM, num_levels=2)
    proj = rvq.WindowProjection.identity(cfg.window_dim)
    m = random_motion(rng, t=10)
    z = rvq.window_encode(m, proj, cfg)
    # level 1 holds the exact latents, level 2 the zero vector plus decoys
    entries = np.full((2, max(len(z), 2), cfg.window_dim), 1e6)
    entries[0, : len(z)] = z.vectors
    entries[1, 0] = 0.0
    cb = rvq.Codebook(entries)
    tokens, norms = rvq.rvq_encode(z, cb)
    assert norms[-1] == 0.0
    out = rvq.window_decode(rvq.rvq_decode(tokens, cb, fps_latent=z.fps_latent), proj, cfg, original_t=10)
    np.testing.assert_array_equal(out.params, m.params)


# ---------------------------------------------------------------------------
# fit_projections


def test_fit_projections_identical_windows_mean_captures_everything():
    frame = np.linspace(-0.5, 0.5, FRAME_DIM)
    m = MotionSequence(np.tile(frame, (20, 1)))  # 4 identical windows
    cfg = small_cfg(latent_dim=2)
    proj = rvq.fit_projections([m], cfg)
    z = rvq.window_encode(m, proj, cfg)
    out = rvq.window_decode(z, proj, cfg, original_t=20)
    np.testing.assert_allclose(out.params, m.params, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(out.params.astype(np.float32), m.params.astype(np.float32))


def test_fit_projections_full_rank_is_exact(rng):
    cfg = small_cfg(latent_dim=5 * FRAME_DIM)
    m = random_motion(rng, t=25)
    proj = rvq.fit_projections([m], cfg)
    z = rvq.window_encode(m, proj, cfg)
    out = rvq.window_decode(z, proj, cfg, original_t=25)
    assert np.max(np.abs(out.params - m.params)) <= 1e-6
    np.testing.assert_array_equal(out.params, m.params)  # identity-extended: bit-exact


def test_fit_projections_rank2_matches_eigen_oracle(rng):
    u = rng.standard_normal(5 * FRAME_DIM)
    v = rng.standard_normal(5 * FRAME_DIM)
    u /= np.linalg.norm(u)
    v -= u * (u @ v)
    v /= np.linalg.norm(v)
    coeffs = rng.standard_normal((12, 2))
    windows = 0.3 + coeffs[:, :1] * u + coeffs[:, 1:] * v
    corpus = [MotionSequence(w.reshape(5, FRAME_DIM)) for w in windows]
    cfg = small_cfg(latent_dim=2)
    proj = rvq.fit_projections(corpus, cfg)
    z = np.vstack([rvq.window_encode(m, proj, cfg).vectors for m in corpus])
    recon = z @ proj.decode_w.T + proj.decode_b
    assert np.max(np.abs(recon - windows)) <= 1e-6
    assert oracles.pca_reconstruction_error(windows, 2) <= 1e-6


def test_fit_projections_sign_convention_is_deterministic(rng):
    m = random_motion(rng, t=40)
    cfg = small_cfg(latent_dim=3)
    a = rvq.fit_projections([m], cfg)
    b = rvq.fit_projections([m], cfg)
    np.testing.assert_array_equal(a.encode_w, b.encode_w)
    for row in a.encode_w:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        assert row[nz[0]] > 0


def test_fit_projections_empty_corpus():
    with pytest.raises(ValueError):
        rvq.fit_projections([], small_cfg())


# ---------------------------------------------------------------------------
# train_codebooks


def test_train_single_codeword_is_mean(rng):
    pts = rng.standard_normal((40, 3))
    cfg = small_cfg(num_levels=1, codebook_size=1, latent_dim=3)
    cb, histories = rvq.train_codebooks(pts, cfg, return_history=True)
    np.testing.assert_allclose(cb.entries[0, 0], pts.mean(axis=0), rtol=1e-12, atol=1e-15)
    # one Lloyd step reaches the mean; the next cannot improve on it
    assert len(histories[0]) == 3 and rvq.lloyd_stop(histories[0]) == "converged"
    assert cb.usage.tolist() == [[40.0]]


def test_train_one_codeword_per_point_reaches_zero_distortion(rng):
    pts = rng.standard_normal((6, 3))
    cfg = small_cfg(num_levels=1, codebook_size=6, latent_dim=3)
    cb = rvq.train_codebooks(pts, cfg)
    tokens, norms = rvq.rvq_encode(rvq.LatentSequence(pts), cb)
    assert norms[0] <= 1e-9
    assert len(set(tokens.indices[:, 0].tolist())) == 6


def test_train_quality_vs_multi_restart_lloyd_oracle(rng):
    pts = np.random.Generator(np.random.PCG64(0)).standard_normal((100, 4))
    cfg = small_cfg(num_levels=1, codebook_size=4, latent_dim=4)
    cb = rvq.train_codebooks(pts, cfg)
    _, best = rvq._nearest_indices(pts, cb.entries[0])
    distortion = float(best.mean())
    oracle_best = oracles.lloyd_best_of(pts, 4, restarts=50, seed=123)
    assert distortion <= 1.05 * oracle_best


def _codec_latents(seed=1, frames=1000):
    motion = synth.make_motion(synth.SynthConfig(seed=seed, duration_frames=frames))
    cfg = rvq.QuantizerConfig()
    proj = rvq.fit_projections([motion], cfg)
    return rvq.shifted_windows([motion], cfg) @ proj.encode_w.T + proj.encode_b, cfg


def _level_rng(cfg, level, coarse=False):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, level])))
    return oracles.CoarseGenerator(rng.bit_generator) if coarse else rng


def test_greedy_kmeans_pp_matches_serial_oracle_on_codec_latents():
    # real-valued latents: the library's GEMM and the oracle's GEMVs round
    # independently, and the picks must still agree. Coarse draws of exactly
    # 0 land on the first point with positive weight: a picked point's own
    # distance is exactly 0, so no point is picked twice.
    latents, cfg = _codec_latents()
    k = cfg.codebook_size
    for coarse in (False, True):
        picks = rvq._greedy_kmeans_pp(latents, k, _level_rng(cfg, 0, coarse))
        expected = oracles.greedy_kmeans_pp_serial(latents, k, _level_rng(cfg, 0, coarse))
        assert picks.tolist() == expected.tolist(), f"coarse={coarse}"
        assert len(set(picks.tolist())) == k, f"coarse={coarse}"


def test_train_levels_with_enough_distinct_points_have_distinct_codewords():
    latents, cfg = _codec_latents()
    cb = rvq.train_codebooks(latents, cfg)
    residual = latents.copy()
    for j in range(cfg.num_levels):
        distinct_points = np.unique(residual, axis=0).shape[0]
        distinct_codewords = np.unique(cb.entries[j], axis=0).shape[0]
        assert distinct_codewords == min(cfg.codebook_size, distinct_points), f"level {j}"
        idx, _ = rvq._nearest_indices(residual, cb.entries[j])
        np.testing.assert_array_equal(cb.usage[j], np.bincount(idx, minlength=cfg.codebook_size))
        residual -= cb.entries[j][idx]


def test_train_matches_lloyd_that_rescores_every_step(monkeypatch):
    # all 6 levels of a default fit: Lloyd keeps its scores and rescores only
    # the codewords a step moved, and must give the bytes of a Lloyd that
    # rescores every codeword at every step. The oracle scores through the
    # library's full-rescore search here (its explicit-difference scan would
    # take ~10 s at n = 1000, K = d = 256); the property tests run it with
    # the scan on small inputs.
    latents, cfg = _codec_latents()
    cb, histories = rvq.train_codebooks(latents, cfg, return_history=True)
    full = functools.partial(oracles.lloyd_full_rescore, cap=rvq._LLOYD_CAP, rel_tol=rvq._REL_TOL,
                             nearest=rvq._nearest_indices)
    monkeypatch.setattr(rvq, "_lloyd", full)
    expected, expected_histories = rvq.train_codebooks(latents, cfg, return_history=True)
    assert cb.entries.tobytes() == expected.entries.tobytes()
    assert cb.usage.tobytes() == expected.usage.tobytes()
    assert histories == expected_histories
    assert len(histories) == cfg.num_levels and max(len(h) for h in histories) > 3


@pytest.mark.parametrize("seed", range(5))
def test_train_on_distinct_points_returns_k_distinct_codewords(seed):
    pts = np.random.default_rng(seed).standard_normal((60, 3))
    cb = rvq.train_codebooks(pts, small_cfg(num_levels=1, codebook_size=16, latent_dim=3, seed=seed))
    assert np.unique(cb.entries[0], axis=0).shape[0] == 16


def test_train_rejects_empty_batch():
    with pytest.raises(ValueError):
        rvq.train_codebooks(np.zeros((0, 4)), small_cfg())


def test_train_deterministic_given_seed(rng):
    pts = rng.standard_normal((50, 4))
    cfg = small_cfg(num_levels=2, codebook_size=4, latent_dim=4, seed=9)
    a = rvq.train_codebooks(pts, cfg)
    b = rvq.train_codebooks(pts, cfg)
    np.testing.assert_array_equal(a.entries, b.entries)
    np.testing.assert_array_equal(a.usage, b.usage)


def test_lloyd_steps_never_increase_distortion(rng):
    pts = rng.standard_normal((60, 3))
    cfg = small_cfg(num_levels=1, codebook_size=5, latent_dim=3, dead_code_threshold=0.0)
    _, histories = rvq.train_codebooks(pts, cfg, return_history=True)
    h = histories[0]
    for prev, cur in zip(h, h[1:]):
        assert cur <= prev + 1e-9 * h[0]


def test_lloyd_stops_at_the_cap(monkeypatch, rng):
    pts = rng.standard_normal((200, 3))
    monkeypatch.setattr(rvq, "_LLOYD_CAP", 1)
    _, histories = rvq.train_codebooks(pts, small_cfg(num_levels=1, codebook_size=8, latent_dim=3),
                                       return_history=True)
    assert len(histories[0]) == 2 and rvq.lloyd_stop(histories[0]) == "cap"


def test_dead_codes_are_reseeded(rng):
    # more codewords than points: the codes left over stay finite, the
    # points are covered exactly, and a second run repeats the first
    pts = rng.standard_normal((3, 2))
    cfg = small_cfg(num_levels=1, codebook_size=6, latent_dim=2)
    cb = rvq.train_codebooks(pts, cfg)
    assert np.all(np.isfinite(cb.entries))
    _, best = rvq._nearest_indices(pts, cb.entries[0])
    assert float(best.mean()) == 0.0
    assert np.unique(cb.entries[0], axis=0).shape[0] == 3
    again = rvq.train_codebooks(pts, cfg)
    assert again.entries.tobytes() == cb.entries.tobytes() and again.usage.tobytes() == cb.usage.tobytes()


def test_reseeding_moves_empty_codes_to_distinct_points(monkeypatch):
    # three coinciding centers leave codes 1 and 2 empty; the two farthest
    # points are copies of one point, so the second re-seed takes the next
    # distinct point, and the run ends with every point on its own codeword
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 0.0], [5.0, 0.0], [1.0, 0.0]])
    centers, idx, history = rvq._lloyd(pts, pts[[0, 0, 0]], 1.0)
    assert min(history) == 0.0
    np.testing.assert_array_equal(centers[idx], pts)
    monkeypatch.setattr(rvq, "_LLOYD_CAP", 1)
    centers, _, _ = rvq._lloyd(pts, pts[[0, 0, 0]], 1.0)
    np.testing.assert_array_equal(centers, [[2.2, 0.0], [5.0, 0.0], [1.0, 0.0]])


# ---------------------------------------------------------------------------
# commitment loss


def test_commitment_zero_when_equal(rng):
    z = rvq.LatentSequence(rng.standard_normal((5, 3)))
    q = rvq.LatentSequence(z.vectors.copy())
    assert rvq.commitment_loss(z, q, 0.25) == (0.0, 0.0, 0.0)


def test_commitment_unit_vector_anchor():
    z = rvq.LatentSequence(np.array([[1.0, 0.0]]))
    q = rvq.LatentSequence(np.array([[0.0, 0.0]]))
    codebook_term, commit_term, total = rvq.commitment_loss(z, q, 0.25)
    assert codebook_term == 1.0
    assert commit_term == 0.25
    assert total == 1.25


def test_commitment_matches_summation_oracle(rng):
    zv = rng.standard_normal((10, 4))
    qv = rng.standard_normal((10, 4))
    codebook_term, commit_term, total = rvq.commitment_loss(zv, qv, 0.25)
    expected = oracles.mean_squared(zv - qv) * 4  # mean over elements * d = mean over vectors
    assert codebook_term == pytest.approx(expected, rel=1e-12)
    assert commit_term == pytest.approx(0.25 * expected, rel=1e-12)
    assert total == pytest.approx(1.25 * expected, rel=1e-12)


def test_commitment_shape_mismatch():
    with pytest.raises(IncompatibleShapeError):
        rvq.commitment_loss(np.zeros((2, 3)), np.zeros((3, 3)), 0.25)


# ---------------------------------------------------------------------------
# codec training end to end


def test_fit_codec_deterministic(seed0_motion):
    cfg = small_cfg(num_levels=2, codebook_size=16, latent_dim=8, seed=4)
    p1, c1 = rvq.fit_codec([seed0_motion], cfg)
    p2, c2 = rvq.fit_codec([seed0_motion], cfg)
    np.testing.assert_array_equal(p1.encode_w, p2.encode_w)
    np.testing.assert_array_equal(c1.entries, c2.entries)
    z = rvq.window_encode(seed0_motion, p1, cfg)
    t1, _ = rvq.rvq_encode(z, c1, group_size=cfg.group_size)
    t2, _ = rvq.rvq_encode(z, c2, group_size=cfg.group_size)
    np.testing.assert_array_equal(t1.indices, t2.indices)
    assert t1.indices.shape == (int(np.ceil(len(seed0_motion) / cfg.group_size)), 2)
    assert t1.indices.min() >= 0 and t1.indices.max() < 16
