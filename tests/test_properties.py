"""Property tests (hypothesis) for the batched forward model and UFD against
their oracles, the Rodrigues matrices against theirs and any split of their
batch, the streamed loss terms, peak picking, its prominence floors and peak
alignment against scans, the nearest-codeword search, k-means++ seeding,
Lloyd refinement against a Lloyd that rescores every step, the stream's
retrieval predictor, the binary and text loaders, and the exit codes of
``cli.main``."""

import contextlib
import dataclasses
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import oracles  # noqa: E402
from facemotion import cli, fileio, losses, metrics, rvq, streamsim, synth  # noqa: E402
from facemotion import motion_core as mc  # noqa: E402
from facemotion.errors import FormatError  # noqa: E402
from test_fileio import LOADERS, _valid_blob, _valid_csv_lines, _valid_model_doc  # noqa: E402


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


BLOCK = mc._BLOCK_FRAMES


@settings(max_examples=25, deadline=None)
@given(
    t=st.sampled_from([1, 2, 25, 300, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    seed=st.integers(0, 2**32 - 1),
    p_jaw=st.sampled_from([0.0, 0.5, 1.0]),
    p_global=st.sampled_from([0.0, 0.5, 1.0]),
    zero_posed=st.booleans(),
)
@example(t=2 * BLOCK + 1, seed=0, p_jaw=0.5, p_global=0.5, zero_posed=False)
def test_forward_batch_rows_and_subsets_are_bit_exact(seed0_model, t, seed, p_jaw, p_global, zero_posed):
    # lengths on either side of the frame block size check that blocking
    # changes no bit, with posed and unposed frames in the same block
    rng = np.random.default_rng(seed)
    params = rng.uniform(-0.3, 0.3, size=(t, 58))
    params[rng.random(t) >= p_jaw, 50:53] = 0.0
    params[rng.random(t) >= p_global, 53:56] = 0.0
    full = mc.forward_batch(seed0_model, params, zero_posed=zero_posed)
    assert full.shape == (t, seed0_model.num_vertices, 3)
    assert full.flags.c_contiguous
    for i in range(t):
        one = mc.forward_batch(seed0_model, params[i : i + 1], zero_posed=zero_posed)
        assert _bits(one[0]) == _bits(full[i])
    subset = rng.choice(seed0_model.num_vertices, size=rng.integers(1, 12))
    subset = rng.permutation(np.append(subset, subset[0]))  # at least one repeat
    sub = mc.forward_batch(seed0_model, params, zero_posed=zero_posed, vertices=subset)
    assert sub.flags.c_contiguous
    assert _bits(sub) == _bits(full[:, subset])


@functools.lru_cache(maxsize=None)
def _oracle_model(n, jaw):
    # 3N = 51 and 111 leave rows that are not a multiple of 4 values long
    model = synth.make_model(synth.SynthConfig(seed=n, num_vertices=n))
    jaw_region = {
        "model": model.jaw_region,
        "empty": np.empty(0, np.intp),
        "one": model.jaw_region[-1:],
        "repeats": np.concatenate([model.jaw_region[::-2], model.jaw_region[:3]]),  # unsorted, with repeats
    }[jaw]
    return dataclasses.replace(model, jaw_region=jaw_region)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    n=st.sampled_from([17, 37, 200]),
    jaw=st.sampled_from(["model", "empty", "one", "repeats"]),
    t=st.sampled_from([1, 2, 25, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]),
    p_jaw=st.sampled_from([0.0, 0.5, 1.0]),
    p_global=st.sampled_from([0.0, 0.5, 1.0]),
    zero_posed=st.booleans(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=17, jaw="empty", t=BLOCK + 1, p_jaw=1.0, p_global=0.5, zero_posed=False, dtype=np.float64, seed=0)
@example(n=37, jaw="repeats", t=2 * BLOCK + 1, p_jaw=0.5, p_global=1.0, zero_posed=False, dtype=np.float32, seed=1)
def test_forward_batch_and_ufd_match_the_gather_scatter_oracle_bit_for_bit(n, jaw, t, p_jaw, p_global, zero_posed,
                                                                           dtype, seed):
    # the oracle is the forward model before its blocks moved data through
    # contiguous column copies, and the norm form of UFD before its sums
    # were spelled out: the same arithmetic, so every byte must agree. Its
    # blendshape product takes each frame alone, at row 0 of a zero tile, so
    # equal bytes also show that a frame's bits do not depend on its tile row
    model = _oracle_model(n, jaw)
    rng = np.random.default_rng(seed)
    params = rng.uniform(-0.3, 0.3, size=(t, 58))
    params[rng.random(t) >= p_jaw, 50:53] = 0.0
    params[rng.random(t) >= p_global, 53:56] = 0.0
    params = params.astype(dtype)
    subset = rng.choice(n, size=rng.integers(1, 12))
    subset = rng.permutation(np.append(subset, subset[0]))  # at least one repeat
    for vertices in (None, subset):
        got = mc.forward_batch(model, params, zero_posed=zero_posed, vertices=vertices)
        want = oracles.forward_batch_gather_scatter(model, params, zero_posed=zero_posed, vertices=vertices)
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)
    if t >= 2:
        idx = metrics._scored_vertices(model)
        v = mc.forward_batch(model, params, zero_posed=True, vertices=idx)
        assert _bits(metrics._ufd(model, v, idx)) == _bits(oracles.upper_face_dynamics_norm(model, v, idx))


# axis-angle components: signed zeros, a subnormal, values whose squares
# underflow or are subnormal, small and large angles
_AXIS_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-160, 1e-8, np.pi, -2 * np.pi]),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(_AXIS_COMPONENT, _AXIS_COMPONENT, _AXIS_COMPONENT), max_size=12),
    n_random=st.integers(0, 2 * BLOCK),
    scale=st.sampled_from([1e-8, 0.3, 4.0, 1e6]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@example(rows=[(0.0, -0.0, 0.0), (-0.0, -0.0, -0.0), (1e-170, 0.0, -0.0), (5e-324, -0.0, 0.0), (0.0, 0.0, 1e-8),
               (1e150, -1e150, 3.0), (-0.0, np.pi, -0.0)], n_random=9, scale=0.3, seed=0, data=None)
def test_axis_angle_matrix_matches_the_oracle_and_any_split_of_its_batch(rows, n_random, scale, seed, data):
    # forward_batch rotates a block's jaw rows and global rows (up to two
    # blocks of rows) in one call and slices the result, so each row's bits,
    # sign bits included, must not depend on the rows that share its call
    # nor on where in memory the row sits: each part is a fresh array
    rng = np.random.default_rng(seed)
    r = np.concatenate((np.array(rows).reshape(-1, 3), rng.uniform(-scale, scale, (n_random, 3))))
    r = r[rng.permutation(len(r))]
    got = mc.axis_angle_matrix(r)
    assert got.shape == (len(r), 3, 3)
    assert _bits(got) == _bits(oracles._axis_angle_matrix(r))
    cuts = range(len(r) + 1) if data is None else [data.draw(st.integers(0, len(r)), label="cut")]
    for cut in cuts:
        split = np.concatenate((mc.axis_angle_matrix(r[:cut].copy()), mc.axis_angle_matrix(r[cut:].copy())))
        assert _bits(split) == _bits(got), f"cut {cut}"


def _terms(report):
    return np.array([report.l_param, report.l_lips, report.l_face, report.l_vel, report.l_acc])


def _oracle_terms(model, params, params_hat):
    """The five terms by the oracle formulas, on whole-clip zero-posed renders."""
    v = mc.forward_batch(model, params, zero_posed=True)
    v_hat = mc.forward_batch(model, params_hat, zero_posed=True)
    return np.array([
        oracles.frame_sums_mean(params, params_hat),
        *(oracles.region_mse_formula(v, v_hat, model.regions[name]) for name in ("lips", "face")),
        *oracles.dyn_terms_formula(v, v_hat),
    ])


@settings(max_examples=40, deadline=None)
@given(
    t=st.sampled_from([3, 4, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 2 * BLOCK + 2]),
    region=st.sampled_from(["one", "unsorted", "lips", "face", "upper_face"]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-3, 1.0]),
)
@example(t=2 * BLOCK + 1, region="unsorted", seed=0, scale=1.0)
def test_streamed_loss_terms_equal_plain_formulas_bit_for_bit(seed0_model, t, region, seed, scale):
    # random values make most summation orders give different last bits, so
    # equal bits mean each frame's values are summed in one row and the rows
    # by fsum; lengths on either side of the block size cover the blocks' overlap
    rng = np.random.default_rng(seed)
    n = seed0_model.num_vertices
    if region == "one":
        lips = rng.integers(0, n, size=1)
    elif region == "unsorted":
        lips = rng.choice(n, size=rng.integers(2, n), replace=bool(rng.integers(2)))
    else:
        lips = seed0_model.regions[region]
    # face: an unsorted superset of lips with repeats; upper_face: the rest
    face = rng.permutation(np.concatenate([lips, seed0_model.regions["face"]]))
    regions = {"lips": lips, "face": face, "upper_face": np.setdiff1d(np.arange(n), lips)}
    model = dataclasses.replace(seed0_model, regions=regions)
    params = rng.uniform(-0.3, 0.3, size=(t, 58))
    params[rng.random(t) >= 0.5, 50:53] = 0.0
    params[rng.random(t) >= 0.5, 53:56] = 0.0
    params_hat = params + rng.standard_normal((t, 58)) * 0.1 * scale
    report = losses.total_losses(model, mc.MotionSequence(params), mc.MotionSequence(params_hat))
    assert _bits(_terms(report)) == _bits(_oracle_terms(model, params, params_hat))


@pytest.mark.parametrize("block", [1, 25, 128, 333])
def test_loss_terms_are_bit_identical_for_any_frame_block_size(seed0_model, monkeypatch, block):
    # 2*128 + 1 frames: 1, 25 and 128 leave a short last block, 1 and 25 split the
    # forward model's blocks, and 333 takes the whole clip as one block
    rng = np.random.default_rng(11)
    params = rng.uniform(-0.3, 0.3, size=(2 * BLOCK + 1, 58))
    params[rng.random(len(params)) >= 0.5, 50:56] = 0.0
    params_hat = params + rng.standard_normal(params.shape) * 0.1
    monkeypatch.setattr(losses, "_BLOCK_FRAMES", block)
    report = losses.total_losses(seed0_model, mc.MotionSequence(params), mc.MotionSequence(params_hat))
    assert _bits(_terms(report)) == _bits(_oracle_terms(seed0_model, params, params_hat))


@settings(max_examples=500, deadline=None)
@given(
    body=st.lists(st.integers(0, 3), max_size=30),
    lead=st.integers(0, 4),
    trail=st.integers(0, 4),
    frac=st.sampled_from([0.0, 0.05, 0.3, 0.9]),
    min_distance=st.integers(1, 6),
)
@example(body=[0, 3, 1, 3, 0], lead=0, trail=0, frac=0.9, min_distance=1)
def test_detect_peaks_matches_outward_scan_oracle(body, lead, trail, frac, min_distance):
    # small integer alphabets give ties and interior plateaus; repeating the
    # first and last samples adds plateaus at the edges
    x = [body[0]] * lead + body + [body[-1]] * trail if body else []
    got = metrics.detect_peaks(np.array(x, dtype=np.float64), frac, min_distance)
    expected = oracles.peaks_outward_scan(x, frac, min_distance)
    assert got.dtype == expected.dtype == np.int64
    assert got.tolist() == expected.tolist()


def _series(kind, n, rng):
    return {"random": lambda: rng.standard_normal(n), "plateaus": lambda: rng.integers(0, 4, n).astype(np.float64),
            "walk": lambda: np.cumsum(rng.standard_normal(n))}[kind]()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["random", "plateaus", "walk"]),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    frac=st.sampled_from([0.0, 0.05, 0.3]),
    min_distance=st.integers(1, 6),
)
@example(kind="plateaus", n=256, seed=0, frac=0.05, min_distance=3)
@example(kind="walk", n=257, seed=1, frac=0.05, min_distance=3)
def test_prominence_floors_and_peak_align_match_scans(kind, n, seed, frac, min_distance):
    # the floors at every sample equal those of a sample-by-sample stack scan
    # from each side; lengths at and past a power of two end the sparse
    # tables' runs at the last sample
    rng = np.random.default_rng(seed)
    x, y = _series(kind, n, rng), _series(kind, n, rng)
    want = np.maximum(oracles.prominence_floor(x), oracles.prominence_floor(x[::-1])[::-1])
    assert _bits(metrics._prominence_floors(x, np.arange(n))) == _bits(want)
    cfg = metrics.MetricsConfig(peak_min_prominence=frac, peak_min_distance=min_distance)
    p_x, p_y = (oracles.peaks_outward_scan(s, frac, min_distance).tolist() for s in (x, y))
    assert metrics.detect_peaks(x, frac, min_distance).tolist() == p_x
    want = None if not (p_x and p_y) else oracles.median([min(abs(p - g) for p in p_x) for g in p_y]) * 1000.0 / 25.0
    assert metrics.peak_align(x, y, cfg, 25.0) == want


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 12),
    k=st.integers(1, 10),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(0, 6),
    scale=st.sampled_from([1.0, 0.75, 2.0**-530]),
    offset=st.sampled_from([0.0, 2.0**27, 2.0**40]),
)
def test_nearest_codeword_matches_scan_on_exact_ties(n, k, d, seed, copies, scale, offset):
    # small-integer grids make distances exact and ties frequent; duplicate
    # codewords and points equal to codewords add exact ties; a large common
    # offset leaves the expanded form |c|^2 - 2 r.c without the precision to
    # tell them apart, and a tiny scale pushes it into underflow
    rng = np.random.default_rng(seed)
    codewords = rng.integers(-3, 4, size=(k, d)).astype(np.float64)
    codewords = np.vstack([codewords, codewords[rng.integers(0, k, size=copies)]])[rng.permutation(k + copies)]
    points = rng.integers(-4, 5, size=(n, d)).astype(np.float64)
    on_codeword = rng.random(n) < 0.3
    points[on_codeword] = codewords[rng.integers(0, k + copies, size=int(on_codeword.sum()))]
    codewords, points = codewords * scale + offset, points * scale + offset
    idx, dist = rvq._nearest_indices(points, codewords)
    assert idx.dtype == np.int64
    assert idx.tolist() == oracles.nearest_codeword_scan(points, codewords[None])[:, 0].tolist()
    for i in range(n):
        diff = points[i] - codewords[idx[i]]
        assert _bits(dist[i]) == _bits(np.einsum("d,d->", diff, diff))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 40),
    d=st.sampled_from([1, 3, 8, 64, 256]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([1e-12, 1e-6, 1.0]),
)
def test_nearest_codeword_equals_explicit_difference_scan(n, k, d, seed, spread):
    # codewords a few ulp to a few spreads apart around one centre, points
    # among them: near-ties that the GEMM scores cannot order
    rng = np.random.default_rng(seed)
    centre = rng.standard_normal(d)
    codewords = centre + spread * rng.standard_normal((k, d)) * (rng.random((k, 1)) < 0.5)
    codewords[1::3] = np.nextafter(codewords[::3][: len(codewords[1::3])], np.inf)
    points = centre + spread * rng.standard_normal((n, d))
    diff = points[:, None, :] - codewords[None, :, :]
    d2 = np.einsum("nkd,nkd->nk", diff, diff)
    idx, dist = rvq._nearest_indices(points, codewords)
    assert idx.tolist() == np.argmin(d2, axis=1).tolist()
    assert _bits(dist) == _bits(d2[np.arange(n), idx])


@settings(max_examples=200, deadline=None)
@given(
    s=st.integers(1, 12),
    d=st.sampled_from([1, 7, 8, 9, 16, 17, 128, 129, 300]),
    seed=st.integers(0, 2**32 - 1),
    copies=st.integers(0, 4),
    grid=st.booleans(),
    on_key=st.booleans(),
)
def test_retrieval_stacked_distances_match_per_key_scan(s, d, seed, copies, grid, on_key):
    # widths straddle numpy's pairwise-sum blocking (8-way unrolled, 128-element
    # blocks); integer grids and duplicated keys make exact ties, which go to
    # the lowest corpus index
    rng = np.random.default_rng(seed)
    keys = rng.integers(-2, 3, size=(s, d)).astype(np.float64) if grid else rng.standard_normal((s, d))
    keys = np.vstack([keys, keys[rng.integers(0, s, size=copies)]])[rng.permutation(s + copies)]
    query = keys[rng.integers(0, s + copies)].copy() if on_key else rng.integers(-2, 3, size=d) * 0.5
    corpus = [(k.copy(), np.full((1, 1), i)) for i, k in enumerate(keys)]
    spec = streamsim.PredictorSpec("retrieval", corpus=corpus)
    dists = spec._key_distances(query)
    assert _bits(dists) == _bits(np.array([float(np.sum((k - query) ** 2)) for k, _ in corpus]))
    state = streamsim.initial_state(rvq.QuantizerConfig(num_levels=1))
    pooled = streamsim.AudioFeatureSequence(query[None, :])
    picked = streamsim._predict_segment(state, pooled, spec, n_tokens=1)
    assert picked.tolist() == [[oracles.nearest_key_scan([k for k, _ in corpus], query)]]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 12),
    k=st.integers(1, 16),
    d=st.integers(1, 4),
    spread=st.integers(0, 3),
    copies=st.integers(0, 8),
    key=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 5)),
    coarse=st.booleans(),
)
@example(n=1, k=4, d=2, spread=2, copies=0, key=(0, 0), coarse=False)
@example(n=5, k=1, d=2, spread=2, copies=0, key=(0, 0), coarse=True)
@example(n=3, k=8, d=2, spread=1, copies=2, key=(1, 2), coarse=True)
@example(n=4, k=6, d=3, spread=0, copies=0, key=(7, 1), coarse=False)
@example(n=12, k=16, d=1, spread=3, copies=8, key=(3, 4), coarse=True)
def test_greedy_kmeans_pp_matches_serial_oracle(n, k, d, spread, copies, key, coarse):
    # small-integer grids make every distance exact; spread 0 and duplicate
    # points leave all remaining distances zero (total <= 0), n + copies < k
    # runs out of distinct points; coarse draws hit cdf boundaries, 0 included
    rng = np.random.default_rng(key)
    points = rng.integers(-spread, spread + 1, size=(n, d)).astype(np.float64)
    points = np.vstack([points, points[rng.integers(0, n, size=copies)]])[rng.permutation(n + copies)]
    lib, serial = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(key)))) for _ in range(2))
    if coarse:
        lib, serial = oracles.CoarseGenerator(lib.bit_generator), oracles.CoarseGenerator(serial.bit_generator)
    picks = rvq._greedy_kmeans_pp(points, k, lib)
    assert picks.dtype == np.int64 and picks.shape == (k,)
    assert picks.tolist() == oracles.greedy_kmeans_pp_serial(points, k, serial).tolist()
    assert lib.bit_generator.state == serial.bit_generator.state
    # no point (nor a copy of one) is picked twice while another lies off
    # every center; after that the picks repeat the first
    distinct = min(k, np.unique(points, axis=0).shape[0])
    assert np.unique(points[picks[:distinct]], axis=0).shape[0] == distinct
    assert set(picks[distinct:].tolist()) <= {int(picks[0])}


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 40),
    k=st.integers(1, 12),
    d=st.integers(1, 3),
    copies=st.integers(0, 10),
    grid=st.booleans(),
    threshold=st.sampled_from([0.0, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, k=6, d=2, copies=0, grid=False, threshold=1.0, seed=0)
def test_lloyd_history_falls_until_it_stops_and_the_best_iterate_is_kept(n, k, d, copies, grid, threshold, seed):
    # a code with fewer points than the threshold is re-seeded even when it
    # has some, which can raise the distortion: the run then stops there and
    # returns the best iterate, whose distortion is the history's minimum
    rng = np.random.default_rng(seed)
    points = rng.integers(-2, 3, size=(n, d)).astype(np.float64) if grid else rng.standard_normal((n, d))
    points = np.vstack([points, points[rng.integers(0, n, size=copies)]])
    cfg = rvq.QuantizerConfig(num_levels=1, codebook_size=k, latent_dim=d, dead_code_threshold=threshold, seed=seed)
    cb, histories = rvq.train_codebooks(points, cfg, return_history=True)
    h = histories[0]
    assert 1 <= len(h) <= rvq._LLOYD_CAP + 1
    assert all(cur < prev for prev, cur in zip(h[:-2], h[1:-1]))
    if len(h) <= rvq._LLOYD_CAP:  # ended before the cap
        assert rvq.lloyd_stop(h) == "converged"
    idx, dist = rvq._nearest_indices(points, cb.entries[0])
    assert float(dist.mean()) == min(h)
    assert cb.usage[0].tolist() == np.bincount(idx, minlength=k).tolist()


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 30),
    k=st.integers(1, 40),
    d=st.integers(1, 3),
    copies=st.integers(0, 10),
    grid=st.booleans(),
    threshold=st.sampled_from([0.0, 1.0, 2.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=3, k=6, d=2, copies=0, grid=False, threshold=1.0, seed=0)
@example(n=12, k=4, d=1, copies=6, grid=True, threshold=2.5, seed=3)
def test_lloyd_equals_a_lloyd_that_rescores_every_step(n, k, d, copies, grid, threshold, seed):
    # Lloyd rescores only the codewords a step moved. Integer grids give exact
    # ties, duplicated points and centers leave codes empty (re-seeded at
    # thresholds 1 and 2.5), and K > n runs out of distinct points to re-seed.
    rng = np.random.default_rng(seed)
    points = rng.integers(-2, 3, size=(n, d)).astype(np.float64) if grid else rng.standard_normal((n, d))
    points = np.vstack([points, points[rng.integers(0, n, size=copies)]])[rng.permutation(n + copies)]
    centers = points[rng.integers(0, n + copies, size=k)]
    got = rvq._lloyd(points, centers.copy(), threshold)
    expected = oracles.lloyd_full_rescore(points, centers.copy(), threshold, rvq._LLOYD_CAP, rvq._REL_TOL)
    assert _bits(got[0]) == _bits(expected[0])
    assert got[1].tolist() == expected[1].tolist()
    assert _bits(np.array(got[2])) == _bits(np.array(expected[2]))


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(LOADERS)),
    writes=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
    cut=st.integers(0, 10**6),
    tail=st.binary(max_size=6),
)
def test_corrupted_binary_files_load_or_raise_format_error(tmp_path_factory, kind, writes, cut, tail):
    base = tmp_path_factory.getbasetemp()
    blob = bytearray(_valid_blob(base, kind))
    for offset, value in writes:
        blob[offset % len(blob)] = value
    path = base / f"corrupt.{kind}"
    path.write_bytes(bytes(blob[: len(blob) - cut % 9]) + tail)
    # with the header intact, any change of length leaves missing or trailing bytes
    must_fail = not writes and len(tail) != cut % 9
    try:
        LOADERS[kind](path)
    except FormatError:
        return
    assert not must_fail


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _replace_in_model(doc, path, value):
    # each step picks a key or an index modulo the container's size
    parent, key = doc, sorted(doc)[path[0] % len(doc)]
    for step in path[1:]:
        node = parent[key]
        if not node or not isinstance(node, (list, dict)):
            break
        parent, key = node, (step % len(node) if isinstance(node, list) else sorted(node)[step % len(node)])
    parent[key] = value


def _replace_cell(lines, path, value):
    row = path[0] % len(lines)
    cells = lines[row].split(",")
    cells[path[-1] % len(cells)] = value if isinstance(value, str) else json.dumps(value)
    lines[row] = ",".join(cells)


@pytest.fixture(scope="session")
def valid_text(tmp_path_factory):
    base = tmp_path_factory.mktemp("valid_text")
    return {"model": json.dumps(_valid_model_doc(base)), "csv": _valid_csv_lines(base)}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["model", "csv"]),
    edits=st.lists(st.tuples(st.lists(st.integers(0, 10**6), min_size=1, max_size=4), JSON_VALUES), max_size=2),
    writes=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
    cut=st.integers(0, 10**6),
)
def test_corrupted_text_files_load_or_raise_format_error(tmp_path_factory, valid_text, kind, edits, writes, cut):
    if kind == "model":
        doc = json.loads(valid_text["model"])
        for path, value in edits:
            _replace_in_model(doc, path, value)
        text, load = json.dumps(doc, indent=1), fileio.load_model
    else:
        lines = list(valid_text[kind])
        for path, value in edits:
            _replace_cell(lines, path, value)
        text = "\n".join(lines) + "\n"
        load = fileio.load_motion_csv
    blob = bytearray(text.encode("utf-8"))
    for offset, value in writes:
        blob[offset % len(blob)] = value
    path = tmp_path_factory.getbasetemp() / f"corrupt.{kind}"
    path.write_bytes(bytes(blob[: len(blob) - cut % 9]))
    try:
        load(path)
    except FormatError:
        pass


# Each case: its argv before --out, naming input files by their name in CLI_INPUTS, and the
# count flags it sets, each with the range of values it takes, which reaches below the flag's minimum.
CLI_CASES = {
    "gen-data": (["gen-data"], {"--frames": (-1, 3), "--vertices": (15, 18)}),
    "fit-codec": (["fit-codec", "--motion", "motion.a2mo"],
                  {"--levels": (-1, 2), "--codebook-size": (-1, 5), "--group-size": (-1, 6), "--latent-dim": (-1, 9)}),
    "encode": (["encode", "--codebook", "codebook.a2cb", "--motion", "motion.a2mo"], {}),
    "decode": (["decode", "--codebook", "codebook.a2cb", "--tokens", "tokens.a2tk"], {"--frames": (-1, 3)}),
    "eval-recon": (["eval-recon", "--model", "model.json", "--gt", "motion.a2mo", "--pred", "motion.a2mo",
                    "--codebook", "codebook.a2cb"], {}),
    "eval-metrics": (["eval-metrics", "--model", "model.json", "--gt", "motion.a2mo", "--pred", "motion.a2mo"],
                     {"--peak-distance": (-1, 2)}),
    "compare": (["compare", "--model", "model.json", "--reference", "motion.a2mo", "--candidate", "motion.a2mo"],
                {"--peak-distance": (-1, 2)}),
    "oracle": (["simulate-stream", "--predictor", "oracle", "--features", "features.a2fe",
                "--codebook", "codebook.a2cb", "--gt-tokens", "tokens.a2tk"], {"--segment-tokens": (-1, 2)}),
    "retrieval": (["simulate-stream", "--predictor", "retrieval", "--features", "features.a2fe",
                   "--codebook", "codebook.a2cb", "--corpus-features", "features.a2fe",
                   "--corpus-tokens", "tokens.a2tk"], {"--segment-tokens": (-1, 2)}),
}


CLI_INPUTS = ("model.json", "motion.a2mo", "codebook.a2cb", "tokens.a2tk", "features.a2fe")


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The directory that holds a valid file of each name in CLI_INPUTS."""
    base = tmp_path_factory.mktemp("valid_inputs")
    motion, codebook = str(base / "motion.a2mo"), str(base / "codebook.a2cb")
    for argv in (["gen-data", "--frames", "20", "--vertices", "24"],
                 ["fit-codec", "--motion", motion, "--levels", "2", "--codebook-size", "4", "--latent-dim", "8"],
                 ["encode", "--codebook", codebook, "--motion", motion]):
        assert cli.main(argv + ["--out", str(base), "--quiet"]) == 0
    rng = np.random.Generator(np.random.PCG64(7))
    fileio.save_features(base / "features.a2fe", streamsim.AudioFeatureSequence(rng.standard_normal((20, 4))))
    return base


@pytest.mark.parametrize("case", CLI_CASES)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(counts=st.lists(st.integers(0, 10**6), min_size=4, max_size=4), target=st.none() | st.integers(0, 5),
       writes=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=3),
       keep=st.none() | st.integers(-12, 40) | st.integers(0, 10**6))
def test_cli_run_exits_0_2_3_or_4_and_a_failed_run_writes_nothing(cli_inputs, case, counts, target, writes, keep):
    argv, flags = CLI_CASES[case]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = sorted({a for a in argv if a in CLI_INPUTS})
        for name in inputs:
            (tmp / name).write_bytes((cli_inputs / name).read_bytes())
        if inputs and target is not None:  # mutate one input file: overwrite bytes, then keep a prefix
            name = inputs[target % len(inputs)]
            blob = bytearray((cli_inputs / name).read_bytes())
            for offset, value in writes:
                blob[offset % len(blob)] = value
            (tmp / name).write_bytes(bytes(blob[:keep]))
        out = tmp / "out"
        full = [str(tmp / a) if a in CLI_INPUTS else a for a in argv] + ["--out", str(out), "--quiet"]
        for (flag, (low, high)), count in zip(flags.items(), counts):
            full += [flag, str(low + count % (high - low + 1))]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(full)
            except SystemExit as exc:  # the parser's usage errors
                code = exc.code
        event(f"exit {code}")
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert (out / f"{argv[0]}.manifest.json").exists()
        else:
            assert not out.exists() or not any(out.iterdir())


# 10**15 makes each command's first array sized by the flag at least 7 PiB, beyond the
# 128 TiB user address space, so the allocation is refused at once under every overcommit mode.
HUGE = 10**15


@pytest.mark.parametrize("case, flag", [("gen-data", "--frames"), ("gen-data", "--vertices"),
                                        ("fit-codec", "--levels"), ("fit-codec", "--codebook-size"),
                                        ("fit-codec", "--group-size"), ("fit-codec", "--latent-dim")])
def test_cli_run_with_a_count_too_large_to_allocate_exits_4_and_writes_nothing(cli_inputs, tmp_path, case, flag):
    argv, flags = CLI_CASES[case]
    assert flag in flags
    out = tmp_path / "out"
    full = [str(cli_inputs / a) if a in CLI_INPUTS else a for a in argv] + [flag, str(HUGE), "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(full)
    assert code == 4, err.getvalue()
    assert err.getvalue().startswith(f"facemotion {argv[0]}: ")
    assert not out.exists() or not any(out.iterdir())
