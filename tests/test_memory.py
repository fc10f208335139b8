"""Transient memory of the vertex pipelines on a long clip, in units of one
(T, N, 3) float64 vertex array, counted with tracemalloc (numpy reports its
buffers to it). Each bound is the measured peak plus some headroom; the
frame-blocked forward model and the streamed loss buffers are what keep the
peaks this low, and the code before them used about 3, 7 and 2.4 arrays."""

import tracemalloc

import pytest

from facemotion import losses, metrics, synth
from facemotion import motion_core as mc

FRAMES, VERTICES = 2000, 200


@pytest.fixture(scope="module")
def long_pair():
    cfg = synth.SynthConfig(seed=0, num_vertices=VERTICES, duration_frames=FRAMES)
    other = synth.SynthConfig(seed=1, num_vertices=VERTICES, duration_frames=FRAMES)
    return synth.make_model(cfg), synth.make_motion(cfg), synth.make_motion(other)


def _peak_in_vertex_arrays(fn):
    fn()  # untraced: a first call imports lazily (np.median imports numpy.ma)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (FRAMES * VERTICES * 3 * 8)


@pytest.mark.parametrize(
    "name, bound",
    [("total_losses", 3.5), ("full_report", 1.5), ("forward_batch", 1.3)],
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
    assert _peak_in_vertex_arrays(call) <= bound
