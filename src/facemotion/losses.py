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
n = 1, 2, on whole-clip zero-posed renders. ``total_losses`` walks the clip
once in the forward model's blocks of ``_BLOCK_FRAMES`` frames. For the
block [start, stop) it renders frames [max(start - 2, 0), stop) of both
clips (batch invariance makes each row the whole-clip render's row) and
writes the squared differences into four C-contiguous buffers, each holding
the plain formula's values in its memory order; one ``np.mean`` sums each:

- a region's is (len(idx), T, 3), the layout of ``v[:, idx]`` (the indexed
  axis outermost);
- velocity's is (T-1, N, 3) and acceleration's (T-2, N, 3). The two frames
  rendered again finish the differences that end in the block, and the
  rows they rewrite get the same values.

No whole render, velocity or acceleration array is built: a call holds its
four buffers and a few block-sized arrays.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

import numpy as np

from .motion_core import _BLOCK_FRAMES, BlendshapeModel, MotionSequence, check_pair, finite_array
from .motion_core import forward_batch, nonnegative_finite
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

    def __post_init__(self):
        for f in fields(self)[:-1]:  # every term is finite
            finite_array(getattr(self, f.name), f.name, ())

    def to_dict(self) -> Dict[str, object]:
        values = asdict(self)
        weights = values.pop("weights")
        return {"values": values, "weights": weights, "reduction": REDUCTION}


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

    Each sequence is rendered block by block, in zero-pose space; the geo and
    dyn terms share each block's render. The dyn terms are forward
    differences (lengths T-1 and T-2, no padding), so the pair needs at
    least 3 frames. The quantizer terms enter l_vqvae scaled by
    ``lambda_vq``; ``gamma`` is the codec's commitment weight
    (``QuantizerConfig.gamma``).
    """
    w = weights or LossWeights()
    check_pair(m, m_hat)
    l_param = float(np.mean((m.params - m_hat.params) ** 2))
    t, n = len(m), model.num_vertices
    regions = (model.regions["lips"], model.regions["face"])
    region_sq = [np.empty((idx.size, t, 3)) for idx in regions]
    dyn_sq = (np.empty((t - 1, n, 3)), np.empty((t - 2, n, 3)))
    for start in range(0, t, _BLOCK_FRAMES):
        stop = min(start + _BLOCK_FRAMES, t)
        lo = max(start - 2, 0)  # two frames back, for the differences that end in this block
        v = forward_batch(model, m.params[lo:stop], zero_posed=True)
        v_hat = forward_batch(model, m_hat.params[lo:stop], zero_posed=True)
        for idx, sq in zip(regions, region_sq):
            d = sq[:, start:stop].transpose(1, 0, 2)
            np.subtract(np.take(v[start - lo :], idx, axis=1), np.take(v_hat[start - lo :], idx, axis=1), out=d)
            np.square(d, out=d)
        for order, sq in enumerate(dyn_sq, 1):
            # rows lo .. stop-order-1; any below start-order rewrite the last block's values
            d = np.diff(v, order, axis=0)
            d -= np.diff(v_hat, order, axis=0)
            np.square(d, out=sq[lo : stop - order])
    l_lips, l_face, l_vel, l_acc = (float(np.mean(sq)) for sq in (*region_sq, *dyn_sq))
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
