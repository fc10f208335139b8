"""Deterministic synthetic blendshape models and talking-style motion.

All randomness comes from numpy's PCG64 generator seeded explicitly, so the
same seed reproduces identical bytes on any platform. Models place a handful
of anchor vertices (lip landmarks, chin, forehead, eyes) at fixed positions
and scatter the rest over a face-like ellipsoid; motion combines a rectified
sinusoid on the jaw (one opening burst per syllable), band-limited random
walks on the expression channels with geometrically decaying per-channel
amplitude, periodic eyelid blinks, and optional white noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .motion_core import (
    DEFAULT_FPS,
    EXPRESSION_DIM,
    EYELID_DIM,
    EYELID_SLICE,
    FRAME_DIM,
    JAW_SLICE,
    BlendshapeModel,
    MotionSequence,
    count_at_least,
    nonnegative_finite,
    positive_f32,
)

# Geometry constants (meters). The head is centered at the origin with
# x right, y up, z toward the viewer.
_FACE_RADII = np.array([0.075, 0.105, 0.085])
_MOUTH_CENTER = np.array([0.0, -0.035, 0.080])
_JAW_JOINT = np.array([0.0, 0.0, 0.010])
_JAW_Y_CUT = -0.040
_UPPER_FACE_Y_CUT = 0.030
_LIP_RADIUS = 0.030
_EYE_CENTERS = np.array([[-0.030, 0.045, 0.070], [0.030, 0.045, 0.070]])

_JAW_AMPLITUDE_RAD = 0.15
_EXPRESSION_DECAY = 0.85
_EXPRESSION_RANK = 3
_BLINK_PERIOD_S = 2.8
_BLINK_WIDTH_S = 0.06
_BLINK_AMPLITUDE = 0.9
_EYELID_VERTEX_DISP = 0.005


# The expression basis is the Q of a (3N, EXPRESSION_DIM) QR, so 3N >= EXPRESSION_DIM.
MIN_VERTICES = -(-EXPRESSION_DIM // 3)


@dataclass
class SynthConfig:
    """Knobs for the synthetic model and motion generators."""

    seed: int = 0
    num_vertices: int = 200
    duration_frames: int = 250
    fps: float = DEFAULT_FPS  # frames are timed with it as given; the motion holds it rounded
    speech_rate_hz: float = 4.0
    expression_amplitude: float = 0.08
    noise_std: float = 0.002

    def __post_init__(self):
        count_at_least(self.num_vertices, "num_vertices", MIN_VERTICES)
        count_at_least(self.duration_frames, "duration_frames")
        positive_f32(self.fps)
        if not 0 < self.speech_rate_hz < np.inf:
            raise ValueError(f"speech_rate_hz must be positive and finite, got {self.speech_rate_hz}")
        if not np.isfinite(self.expression_amplitude):
            raise ValueError(f"expression_amplitude must be finite, got {self.expression_amplitude}")
        nonnegative_finite(self.noise_std, "noise_std")

    def rng(self, stream: int) -> np.random.Generator:
        """Independent PCG64 stream for one generator stage."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, stream])))


def _anchor_vertices() -> np.ndarray:
    mc = _MOUTH_CENTER
    return np.array(
        [
            mc + [0.0, 0.010, 0.004],    # upper_lip
            mc + [0.0, -0.010, 0.004],   # lower_lip
            mc + [-0.024, 0.0, -0.002],  # left_corner
            mc + [0.024, 0.0, -0.002],   # right_corner
            [0.0, 0.070, 0.055],         # forehead
            [0.0, -0.090, 0.040],        # chin
            _EYE_CENTERS[0],
            _EYE_CENTERS[1],
        ]
    )


def make_model(cfg: SynthConfig) -> BlendshapeModel:
    """Build a seeded mini blendshape model with regions and landmarks."""
    n = cfg.num_vertices
    rng = cfg.rng(0)

    anchors = _anchor_vertices()
    directions = rng.standard_normal((n - len(anchors), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    directions[:, 2] = np.abs(directions[:, 2])  # frontal hemisphere
    scattered = directions * _FACE_RADII + rng.standard_normal((n - len(anchors), 3)) * 0.002
    template = np.vstack([anchors, scattered])

    # Orthonormal expression basis: unit-Frobenius displacement fields.
    raw = rng.standard_normal((3 * n, EXPRESSION_DIM))
    q, _ = np.linalg.qr(raw)
    expr_basis = np.moveaxis(q.T.reshape(EXPRESSION_DIM, n, 3), 0, 2)

    y = template[:, 1]
    dist_mouth = np.linalg.norm(template - _MOUTH_CENTER, axis=1)
    lips = np.flatnonzero(dist_mouth < _LIP_RADIUS)
    upper_face = np.flatnonzero(y > _UPPER_FACE_Y_CUT)
    face = np.flatnonzero(y <= _UPPER_FACE_Y_CUT)
    jaw_region = np.flatnonzero(y < _JAW_Y_CUT)

    # Eyelid basis moves the vertices nearest each eye center downward.
    eyelid_basis = np.zeros((n, 3, EYELID_DIM))
    for side, center in enumerate(_EYE_CENTERS):
        d_eye = np.linalg.norm(template[upper_face] - center, axis=1)
        cluster = upper_face[np.argsort(d_eye, kind="stable")[: min(5, upper_face.size)]]
        eyelid_basis[cluster, 1, side] = -_EYELID_VERTEX_DISP

    return BlendshapeModel(
        template=template,
        expr_basis=expr_basis,
        eyelid_basis=eyelid_basis,
        jaw_joint=_JAW_JOINT,
        jaw_region=jaw_region,
        regions={"lips": lips, "face": face, "upper_face": upper_face},
        landmarks={"upper_lip": 0, "lower_lip": 1, "left_corner": 2, "right_corner": 3},
    )


def _expression_mixing() -> np.ndarray:
    """Fixed factor-to-channel mixing shared by every seed.

    The expression channels play the role of coefficients on a fixed basis,
    so their correlation structure is a property of the generator, not of
    one sequence; only the factor trajectories vary with the seed.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(0x5EED)))
    mixing = rng.standard_normal((_EXPRESSION_RANK, EXPRESSION_DIM))
    mixing /= np.linalg.norm(mixing, axis=0, keepdims=True)
    return mixing


def _smooth(x: np.ndarray, window: int) -> np.ndarray:
    if window <= 1 or x.shape[0] < 3:
        return x
    kernel = np.hanning(window + 2)[1:-1]
    kernel /= kernel.sum()
    pad = window // 2
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        padded = np.concatenate([np.full(pad, x[0, c]), x[:, c], np.full(pad, x[-1, c])])
        out[:, c] = np.convolve(padded, kernel, mode="valid")
    return out


def make_motion(cfg: SynthConfig) -> MotionSequence:
    """Generate a talking-style motion sequence.

    Jaw channel: |sin(pi * rate * t)|, one opening burst per 1/rate seconds.
    Expression channel k: a smooth random walk scaled by
    expression_amplitude * 0.85**k. Channels share a small set of latent
    factor walks through a fixed seeded mixing, mirroring the decaying,
    correlated energy of sorted blendshape coefficients. Eyelids: Gaussian
    blink pulses. White noise of noise_std is added to every channel last.
    """
    t_len = cfg.duration_frames
    t = np.arange(t_len) / cfg.fps
    params = np.zeros((t_len, FRAME_DIM))

    params[:, JAW_SLICE.start] = _JAW_AMPLITUDE_RAD * np.abs(np.sin(np.pi * cfg.speech_rate_hz * t))

    mixing = _expression_mixing()
    factors = np.cumsum(cfg.rng(1).standard_normal((t_len, _EXPRESSION_RANK)), axis=0)
    factors = _smooth(factors, max(3, int(round(cfg.fps * 0.6)) | 1))
    walk = factors @ mixing
    std = walk.std(axis=0)
    std[std == 0] = 1.0
    walk = (walk - walk.mean(axis=0)) / std
    scales = cfg.expression_amplitude * _EXPRESSION_DECAY ** np.arange(EXPRESSION_DIM)
    params[:, :EXPRESSION_DIM] = walk * scales

    blink_rng = cfg.rng(2)
    blink_times = np.arange(1.1, t[-1] + 1.0 / cfg.fps, _BLINK_PERIOD_S)
    blink_times = blink_times + blink_rng.uniform(-0.1, 0.1, size=blink_times.shape)
    lid = np.zeros(t_len)
    for bt in blink_times:
        lid += _BLINK_AMPLITUDE * np.exp(-0.5 * ((t - bt) / _BLINK_WIDTH_S) ** 2)
    params[:, EYELID_SLICE] = lid[:, None]

    if cfg.noise_std > 0:
        params += cfg.rng(3).standard_normal((t_len, FRAME_DIM)) * cfg.noise_std

    return MotionSequence(params, fps=cfg.fps)
