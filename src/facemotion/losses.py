"""Composite reconstruction objective for the motion codec.

The total reconstruction loss weights parameter-space regression, lip/face
vertex terms in zero-pose space, and velocity/acceleration terms on the full
vertex sequence:

    l_rec = w_param * l_param + w_geo * (l_lips + l_face) + w_dyn * (l_vel + l_acc)

Every component is reduced as the mean over all contributing elements
(frames, vertices/channels, coordinates), so values are comparable across
sequence lengths and mesh sizes. The quantizer diagnostic adds the codebook
and commitment terms, each scaled by lambda_vq, on top of l_rec:

    l_vqvae = l_rec + lambda_vq * codebook_term + lambda_vq * commit_term

Reduction order. Each vertex term is bit-identical to its plain formula,
``np.mean((v[:, idx] - v_hat[:, idx]) ** 2)`` for a region and
``np.mean((np.diff(v, n, axis=0) - np.diff(v_hat, n, axis=0)) ** 2)`` for
n = 1, 2. The squared differences are written, ``_BLOCK_FRAMES`` frames at a
time (the forward model's block size), into one buffer holding the same
values in the same memory order as the plain formula's array, and one
``np.mean`` sums that buffer:

- a region buffer is C-contiguous (len(idx), T, 3), the layout numpy gives
  ``v[:, idx]`` (the indexed axis outermost);
- the dynamics buffer is C-contiguous (T-1, N, 3) and holds the velocity
  terms; its (T-2, N, 3) prefix is then overwritten with the acceleration
  terms.

The velocity and acceleration arrays themselves are never built, so a call
holds the two renders and one buffer of squared differences.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .motion_core import _BLOCK_FRAMES, BlendshapeModel, MotionSequence, check_pair, forward_batch, nonnegative_finite
from .rvq import LatentSequence, QuantizerConfig, commitment_loss

REDUCTION = "mean_over_frames_and_dims"


@dataclass
class LossWeights:
    w_param: float = 1.0
    w_geo: float = 1e5
    w_dyn: float = 1e2
    lambda_vq: float = 1.0

    def __post_init__(self):
        for name in ("w_param", "w_geo", "w_dyn", "lambda_vq"):
            nonnegative_finite(getattr(self, name), name)


@dataclass
class LossReport:
    l_param: float
    l_lips: float
    l_face: float
    l_vel: float
    l_acc: float
    l_rec: float
    codebook_term: float
    commit_term: float
    l_vqvae: float
    weights: LossWeights = field(default_factory=LossWeights)

    def to_dict(self) -> Dict[str, object]:
        values = asdict(self)
        weights = values.pop("weights")
        return {"values": values, "weights": weights, "reduction": REDUCTION}


def _region_mse(v: np.ndarray, v_hat: np.ndarray, idx: np.ndarray) -> float:
    """``np.mean((v[:, idx] - v_hat[:, idx]) ** 2)``, bit for bit (see the
    module docstring), without the gathered arrays."""
    t = v.shape[0]
    sq = np.empty((idx.size, t, 3))
    for start in range(0, t, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, t)
        d = sq[:, start:stop].transpose(1, 0, 2)
        np.subtract(v[start:stop, idx], v_hat[start:stop, idx], out=d)
        np.square(d, out=d)
    return float(np.mean(sq))


def _fill_squared_diff(sq: np.ndarray, v: np.ndarray, v_hat: np.ndarray, n: int) -> None:
    """sq[i] = (np.diff(v, n, axis=0)[i] - np.diff(v_hat, n, axis=0)[i]) ** 2
    for every row i of ``sq``, chunk by chunk."""
    for start in range(0, sq.shape[0], _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, sq.shape[0])
        d = np.diff(v[start : stop + n], n, axis=0)
        d -= np.diff(v_hat[start : stop + n], n, axis=0)
        np.square(d, out=sq[start:stop])


def _dyn_terms(v: np.ndarray, v_hat: np.ndarray) -> Tuple[float, float]:
    sq = np.empty((v.shape[0] - 1,) + v.shape[1:])
    _fill_squared_diff(sq, v, v_hat, 1)
    l_vel = float(np.mean(sq))
    acc = sq[:-1]
    _fill_squared_diff(acc, v, v_hat, 2)
    return l_vel, float(np.mean(acc))


def total_losses(
    model: BlendshapeModel,
    m: MotionSequence,
    m_hat: MotionSequence,
    z: Optional[LatentSequence] = None,
    q: Optional[LatentSequence] = None,
    weights: Optional[LossWeights] = None,
    gamma: float = QuantizerConfig.gamma,
) -> LossReport:
    """Itemized loss report; z/q omitted means the quantizer terms are zero.

    Each sequence is rendered once, in zero-pose space; the geo and dyn terms
    share the arrays. The dyn terms are forward differences (lengths T-1 and
    T-2, no padding), so the pair needs at least 3 frames. The quantizer
    terms enter l_vqvae scaled by ``lambda_vq``; ``gamma`` is the codec's
    commitment weight (``QuantizerConfig.gamma``).
    """
    w = weights or LossWeights()
    check_pair(m, m_hat)
    l_param = float(np.mean((m.params - m_hat.params) ** 2))
    v = forward_batch(model, m.params, zero_posed=True)
    v_hat = forward_batch(model, m_hat.params, zero_posed=True)
    l_lips = _region_mse(v, v_hat, model.region("lips"))
    l_face = _region_mse(v, v_hat, model.region("face"))
    l_vel, l_acc = _dyn_terms(v, v_hat)
    l_rec = combine_rec(l_param, l_lips, l_face, l_vel, l_acc, w)
    if z is None or q is None:
        codebook_term, commit_term = 0.0, 0.0
    else:
        codebook_term, commit_term, _ = commitment_loss(z, q, gamma)
    return LossReport(
        l_param=l_param,
        l_lips=l_lips,
        l_face=l_face,
        l_vel=l_vel,
        l_acc=l_acc,
        l_rec=l_rec,
        codebook_term=codebook_term,
        commit_term=commit_term,
        l_vqvae=l_rec + w.lambda_vq * codebook_term + w.lambda_vq * commit_term,
        weights=w,
    )


def combine_rec(
    l_param: float, l_lips: float, l_face: float, l_vel: float, l_acc: float, w: LossWeights
) -> float:
    return w.w_param * l_param + w.w_geo * (l_lips + l_face) + w.w_dyn * (l_vel + l_acc)
