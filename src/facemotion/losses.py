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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import IncompatibleShapeError
from .motion_core import BlendshapeModel, MotionSequence, sequence_vertex_array
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
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")

    def to_dict(self) -> Dict[str, float]:
        return asdict(self)


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
        return {
            "values": {
                "l_param": self.l_param,
                "l_lips": self.l_lips,
                "l_face": self.l_face,
                "l_vel": self.l_vel,
                "l_acc": self.l_acc,
                "l_rec": self.l_rec,
                "codebook_term": self.codebook_term,
                "commit_term": self.commit_term,
                "l_vqvae": self.l_vqvae,
            },
            "weights": self.weights.to_dict(),
            "reduction": REDUCTION,
        }


def _check_pair(m: MotionSequence, m_hat: MotionSequence, min_len: int = 1) -> None:
    if len(m) != len(m_hat):
        raise IncompatibleShapeError(f"sequence lengths differ: {len(m)} vs {len(m_hat)}")
    if m.fps != m_hat.fps:
        raise IncompatibleShapeError(f"sequence fps differ: {m.fps} vs {m_hat.fps}")
    if len(m) < min_len:
        raise ValueError(f"sequences too short: need at least {min_len} frames, got {len(m)}")


def param_loss(m: MotionSequence, m_hat: MotionSequence) -> float:
    """Mean squared difference over frames and the 58 channels."""
    _check_pair(m, m_hat)
    return float(np.mean((m.params - m_hat.params) ** 2))


def _zero_posed_pair(
    model: BlendshapeModel, m: MotionSequence, m_hat: MotionSequence
) -> Tuple[np.ndarray, np.ndarray]:
    return (
        sequence_vertex_array(model, m, zero_posed=True),
        sequence_vertex_array(model, m_hat, zero_posed=True),
    )


def _geo_terms(model: BlendshapeModel, v: np.ndarray, v_hat: np.ndarray) -> Tuple[float, float]:
    out = []
    for name in ("lips", "face"):
        idx = model.region(name)
        out.append(float(np.mean((v[:, idx] - v_hat[:, idx]) ** 2)))
    return out[0], out[1]


def _dyn_terms(v: np.ndarray, v_hat: np.ndarray) -> Tuple[float, float]:
    vel, vel_hat = np.diff(v, axis=0), np.diff(v_hat, axis=0)
    acc, acc_hat = np.diff(vel, axis=0), np.diff(vel_hat, axis=0)
    l_vel = float(np.mean((vel - vel_hat) ** 2))
    l_acc = float(np.mean((acc - acc_hat) ** 2))
    return l_vel, l_acc


def geo_loss(
    model: BlendshapeModel, m: MotionSequence, m_hat: MotionSequence
) -> Tuple[float, float]:
    """(l_lips, l_face): mean squared vertex error per region, zero-pose space."""
    _check_pair(m, m_hat)
    return _geo_terms(model, *_zero_posed_pair(model, m, m_hat))


def dyn_loss(
    model: BlendshapeModel, m: MotionSequence, m_hat: MotionSequence
) -> Tuple[float, float]:
    """(l_vel, l_acc): mean squared error of first/second vertex differences.

    Differences are forward differences on the full zero-posed vertex
    sequence (lengths T-1 and T-2), no padding.
    """
    _check_pair(m, m_hat, min_len=3)
    return _dyn_terms(*_zero_posed_pair(model, m, m_hat))


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

    Each sequence is rendered once; the geo and dyn terms share the arrays.
    The quantizer terms enter l_vqvae scaled by ``lambda_vq``; ``gamma``
    is the codec's commitment weight (``QuantizerConfig.gamma``).
    """
    w = weights or LossWeights()
    _check_pair(m, m_hat, min_len=3)
    l_param = param_loss(m, m_hat)
    v, v_hat = _zero_posed_pair(model, m, m_hat)
    l_lips, l_face = _geo_terms(model, v, v_hat)
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
