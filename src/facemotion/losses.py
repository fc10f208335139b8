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

Reduction order. Each term is the correctly rounded sum (``math.fsum``) of
its per-frame sums, divided by its element count. A frame's sum is
``np.sum`` over that frame's C-contiguous squared differences: its 58
parameters for ``l_param``, ``(v[i, idx] - v_hat[i, idx]) ** 2`` (vertex-major,
coordinates innermost) for a region, and the same over all N vertices of the
n-th forward differences for velocity (n = 1) and acceleration (n = 2), on
zero-posed renders. The accelerations are the forward differences of the
velocities, which is how ``np.diff(v, 2)`` forms them, so they have its
bits. A frame's sum does not depend on the frames around it, and ``fsum``
does not depend on the order it adds in, so any split of the clip into
blocks gives the same bits. Finite frame sums whose exact total exceeds the
float range give an infinite term, which ``LossReport`` refuses by name.

``total_losses`` walks the clip once in spans of ``_BLOCK_FRAMES - 2`` new
frames. For the span [start, stop) it renders frames [max(start - 2, 0),
stop) of both clips: at most ``_BLOCK_FRAMES`` frames, so each render is one
forward-model block (batch invariance makes each row the whole-clip
render's row). It writes each frame's sums into four per-frame arrays of
length T, T, T-1 and T-2. The block's velocities replace its renders once
the region sums are taken, and its accelerations replace the velocities.
The two frames rendered again finish the differences that end in the span,
and the sums they rewrite get the same values. No
whole-clip render, difference or squared-difference array is built: a call
holds the per-frame sums and a few block-sized arrays.
"""

from __future__ import annotations

import math
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
    t, n = len(m), model.num_vertices
    param_sums = np.empty(t)
    _frame_sums(m.params - m_hat.params, param_sums)
    regions = (model.regions["lips"], model.regions["face"])
    region_sums = (np.empty(t), np.empty(t))
    dyn_sums = (np.empty(t - 1), np.empty(t - 2))
    # new frames per render: with the two before them, one forward-model block
    # (and at least one, so any block size walks the clip)
    span = max(_BLOCK_FRAMES - 2, 1)
    for start in range(0, t, span):
        stop = min(start + span, t)
        lo = max(start - 2, 0)  # two frames back, for the differences that end in this span
        v = forward_batch(model, m.params[lo:stop], zero_posed=True)
        v_hat = forward_batch(model, m_hat.params[lo:stop], zero_posed=True)
        for idx, sums in zip(regions, region_sums):
            d = np.take(v[start - lo :], idx, axis=1)
            d -= np.take(v_hat[start - lo :], idx, axis=1)
            _frame_sums(d, sums[start:stop])
        for sums in dyn_sums:
            # velocities, then accelerations from them, each replacing the arrays
            # it is taken from; their sums start at frame lo, and those the last
            # span wrote are rewritten with the same values
            v, v_hat = np.diff(v, axis=0), np.diff(v_hat, axis=0)
            _frame_sums(v - v_hat, sums[lo : lo + len(v)])
    l_param = _mean(param_sums, m.params.shape[1])
    l_lips, l_face = (_mean(sums, idx.size * 3) for idx, sums in zip(regions, region_sums))
    l_vel, l_acc = (_mean(sums, n * 3) for sums in dyn_sums)
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


def _frame_sums(d: np.ndarray, out: np.ndarray) -> None:
    """Square the C-contiguous differences ``d`` (frames first) in place and
    write each frame's sum to ``out``; ``d`` may hold no frames, for blocks
    shorter than the differences' order."""
    np.square(d, out=d)
    np.sum(d.reshape(len(d), math.prod(d.shape[1:])), axis=1, out=out)


def _mean(frame_sums: np.ndarray, per_frame: int) -> float:
    """The mean of ``len(frame_sums) * per_frame`` values from their per-frame sums;
    infinite when their exact total exceeds the float range."""
    try:
        total = math.fsum(frame_sums.tolist())
    except OverflowError:  # the sums are squares, so the total is +inf
        total = math.inf
    return total / (frame_sums.size * per_frame)


def combine_rec(
    l_param: float, l_lips: float, l_face: float, l_vel: float, l_acc: float, w: LossWeights
) -> float:
    return w.w_param * l_param + w.w_geo * (l_lips + l_face) + w.w_dyn * (l_vel + l_acc)
