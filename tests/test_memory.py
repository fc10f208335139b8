"""Transient memory, counted with tracemalloc (numpy reports its buffers to
it). Each bound is the measured peak plus about a tenth of its unit.

The vertex pipelines run on a long clip and count in units of one (T, N, 3)
float64 vertex array; the frame-blocked forward model and the streamed loss
buffers are what keep their peaks this low, and the code before them used
about 3, 7 and 2.4 arrays. The loss terms keep only each frame's sums (five
arrays of T values), so their peak, 0.31 arrays, is the block-sized renders
and differences: about 4.8 arrays of 130 frames, since a block's velocities
replace its renders and its accelerations the velocities.
Codebook training counts in units of one (n, K) float64 score array, n being
the number of training windows, and a whole codec fit in units of one
(n, d_z) latent array."""

import tracemalloc

import pytest

from facemotion import losses, metrics, rvq, synth
from facemotion import motion_core as mc

FRAMES, VERTICES = 2000, 200


@pytest.fixture(scope="module")
def long_pair():
    cfg = synth.SynthConfig(seed=0, num_vertices=VERTICES, duration_frames=FRAMES)
    other = synth.SynthConfig(seed=1, num_vertices=VERTICES, duration_frames=FRAMES)
    return synth.make_model(cfg), synth.make_motion(cfg), synth.make_motion(other)


def _peak_bytes(fn):
    fn()  # untraced: a first call imports lazily (np.median imports numpy.ma)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - base


@pytest.mark.parametrize(
    "name, bound",
    [("total_losses", 0.5), ("full_report", 1.5), ("forward_batch", 1.3)],
)
def test_transient_peak_in_vertex_arrays(long_pair, name, bound):
    model, m, m_hat = long_pair
    assert (m.params[:, mc.JAW_SLICE] != 0).any(axis=1).all()
    assert (m.params[:, mc.GLOBAL_SLICE] != 0).any(axis=1).all()  # every frame posed
    call = {
        "total_losses": lambda: losses.total_losses(model, m, m_hat),
        "full_report": lambda: metrics.full_report(model, m, m_hat),
        "forward_batch": lambda: mc.forward_batch(model, m.params),
    }[name]
    assert _peak_bytes(call) / (FRAMES * VERTICES * 3 * 8) <= bound


@pytest.mark.parametrize("frames, bound", [(1000, 5.3), (2000, 3.5)])
def test_train_codebooks_peak_in_score_arrays(frames, bound):
    # default-config fits on every shift of one clip: n = frames windows.
    # Lloyd holds its (K, n) score matrix across steps; rescoring the moved
    # codewords and the cluster sums work in blocks, which keeps the peak at
    # or below the one measured when every step allocated its scores
    # afresh: 5.21 and 3.45 arrays (10.67 and 14.13 MB).
    motion = synth.make_motion(synth.SynthConfig(seed=1, duration_frames=frames))
    cfg = rvq.QuantizerConfig()
    proj = rvq.fit_projections([motion], cfg)
    latents = rvq.shifted_windows([motion], cfg) @ proj.encode_w.T + proj.encode_b
    assert latents.shape[0] == frames
    peak = _peak_bytes(lambda: rvq.train_codebooks(latents, cfg))
    assert peak / (frames * cfg.codebook_size * 8) <= bound


def test_fit_codec_peak_in_latent_arrays():
    # a default fit on every shift of a 2000-frame clip: fit_codec trains on
    # the latents it makes and overwrites them with the residuals, where
    # train_codebooks trains on a copy of its input. Measured 3.54 arrays
    # (14.50 MB); 4.54 with the bias added out of place and the latents copied
    motion = synth.make_motion(synth.SynthConfig(seed=1, duration_frames=FRAMES))
    cfg = rvq.QuantizerConfig()
    assert rvq.shifted_windows([motion], cfg).shape[0] == FRAMES
    peak = _peak_bytes(lambda: rvq.fit_codec([motion], cfg))
    assert peak / (FRAMES * cfg.latent_dim * 8) <= 3.65
