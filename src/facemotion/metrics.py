"""Evaluation metrics for generated facial motion.

All metrics operate in zero-pose space (global rotation stripped) so they
respond to facial deformation only. Correlation metrics return None instead
of a number when an input series has zero variance; the aggregate report
records such cases as undefined flags rather than poisoning averages with
NaN or fake zeros.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .errors import IncompatibleShapeError, ModelConfigError
from .motion_core import (
    LANDMARK_NAMES,
    BlendshapeModel,
    MotionSequence,
    check_pair,
    forward_batch,
    landmark_distance,
)


@dataclass
class MetricsConfig:
    epsilon: float = 1e-8
    peak_min_prominence: float = 0.05  # fraction of signal range
    peak_min_distance: int = 3  # frames

    def __post_init__(self):
        if not 0 < self.epsilon < np.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.peak_min_prominence < 1.0:
            raise ValueError(f"peak_min_prominence must be in [0, 1), got {self.peak_min_prominence}")
        distance = self.peak_min_distance
        if isinstance(distance, bool) or not isinstance(distance, (int, np.integer)):
            raise ValueError(f"peak_min_distance must be an integer, got {distance!r}")
        if distance < 1:
            raise ValueError(f"peak_min_distance must be >= 1, got {distance}")

    def to_dict(self) -> Dict[str, float]:
        return {**asdict(self), "std_convention": "population"}


@dataclass
class MetricsReport:
    mod_mm: float
    ufd: float
    temporal_corr: Optional[float]
    velocity_corr: Optional[float]
    lip_width_corr: Optional[float]
    liveliness_ratio: float
    peak_align_ms: Optional[float]
    undefined: Dict[str, str] = field(default_factory=dict)
    config: MetricsConfig = field(default_factory=MetricsConfig)

    def to_dict(self) -> Dict[str, object]:
        values = asdict(self)
        del values["config"]
        undefined = values.pop("undefined")
        return {"values": values, "undefined": undefined, "config": self.config.to_dict()}


def _scored_vertices(model: BlendshapeModel) -> np.ndarray:
    """The mouth landmarks in LANDMARK_NAMES order, then the upper_face region."""
    landmarks = [model.landmark(name) for name in LANDMARK_NAMES]
    upper = model.region("upper_face")
    if upper.size == 0:
        raise ModelConfigError("upper_face region is empty")
    return np.concatenate([landmarks, upper])


def _ufd(model: BlendshapeModel, v: np.ndarray, idx: np.ndarray) -> float:
    """Upper-face dynamics: mean frame-to-frame change of the per-vertex
    displacement norm from the neutral face, scaled by 1e5, from a zero-posed
    render ``v`` of ``idx = _scored_vertices(model)``."""
    n = len(LANDMARK_NAMES)
    # the difference is a fresh C-contiguous array, so the reductions below
    # run in the same order whatever ``v``'s layout; zero parameters render
    # to the template up to the sign of a zero, which the norm squares away
    disp = np.linalg.norm(v[:, n:] - model.template[idx[n:]], axis=-1)
    return float(np.mean(np.abs(np.diff(disp, axis=0))) * 1e5)


def pearson(x: np.ndarray, y: np.ndarray) -> Optional[float]:
    """Pearson correlation; None when either series has zero variance."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise IncompatibleShapeError("series must be equal-length 1-D arrays")
    if x.size < 2:
        raise ValueError("correlation needs at least 2 samples")
    # a constant series has zero variance even when mean roundoff leaves
    # residuals of ~1e-18; the exact range test catches that
    if x.max() == x.min() or y.max() == y.min():
        return None
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt(np.mean(xc**2)))
    sy = float(np.sqrt(np.mean(yc**2)))
    if sx == 0.0 or sy == 0.0:
        return None
    value = float(np.mean(xc * yc) / (sx * sy))
    if abs(value) > 1.0 + 1e-8:
        raise AssertionError(f"correlation {value} outside [-1, 1]")
    return min(1.0, max(-1.0, value))


def velocity_corr(o_pred: np.ndarray, o_gt: np.ndarray) -> Optional[float]:
    """Pearson correlation of first differences of the opening series."""
    o_pred = np.asarray(o_pred, dtype=np.float64)
    o_gt = np.asarray(o_gt, dtype=np.float64)
    if o_pred.size < 3 or o_gt.size < 3:
        raise ValueError("velocity correlation needs at least 3 samples")
    return pearson(np.diff(o_pred), np.diff(o_gt))


def liveliness(o_pred: np.ndarray, o_gt: np.ndarray, epsilon: float = MetricsConfig.epsilon) -> float:
    """Velocity-energy ratio sigma(v_pred) / (sigma(v_gt) + epsilon).

    Standard deviations are population (ddof=0) so length-2 series are
    deterministic.
    """
    o_pred = np.asarray(o_pred, dtype=np.float64)
    o_gt = np.asarray(o_gt, dtype=np.float64)
    if o_pred.size < 2 or o_gt.size < 2:
        raise ValueError("liveliness needs at least 2 samples")
    s_pred = float(np.std(np.diff(o_pred)))
    s_gt = float(np.std(np.diff(o_gt)))
    return s_pred / (s_gt + epsilon)


def _prominence_floor(x: np.ndarray) -> np.ndarray:
    """For each sample, the minimum of x from just after the nearest strictly
    higher sample to its left (or the signal start) up to and including
    itself. One pass with a stack of (index, minimum of the span it covers)."""
    floor = np.empty(x.size)
    stack: List[Tuple[float, float]] = []
    for i, xi in enumerate(x.tolist()):
        low = xi
        while stack and stack[-1][0] <= xi:
            low = min(low, stack.pop()[1])
        floor[i] = low
        stack.append((xi, low))
    return floor


def detect_peaks(x: np.ndarray, min_prominence_frac: float, min_distance: int) -> np.ndarray:
    """Indices of local maxima filtered by prominence and spacing.

    Candidates are strict local maxima. Prominence is the peak height minus
    the higher of the two valley floors found scanning outward until a
    higher sample (or the signal edge); peaks below min_prominence_frac of
    the signal range are dropped. Remaining peaks are kept tallest-first
    (ties to the lower index), discarding any within min_distance frames of
    an already kept peak. Runs in time linear in the signal length.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 3:
        return np.empty(0, dtype=np.int64)
    rng_span = float(x.max() - x.min())
    if rng_span == 0.0:
        return np.empty(0, dtype=np.int64)
    cand = np.flatnonzero((x[1:-1] > x[:-2]) & (x[1:-1] > x[2:])) + 1
    threshold = min_prominence_frac * rng_span
    floor = np.maximum(_prominence_floor(x), _prominence_floor(x[::-1])[::-1])
    kept = cand[x[cand] - floor[cand] >= threshold]

    blocked = np.zeros(n, dtype=bool)
    accepted = np.zeros(n, dtype=bool)
    for i in kept[np.argsort(-x[kept], kind="stable")].tolist():
        if not blocked[i]:
            accepted[i] = True
            blocked[max(0, i - min_distance + 1) : i + min_distance] = True
    return np.flatnonzero(accepted).astype(np.int64)


def peak_align(o_pred: np.ndarray, o_gt: np.ndarray, cfg: MetricsConfig, fps: float) -> Optional[float]:
    """Median absolute time offset (ms) between each reference peak and its
    nearest predicted peak, for series sampled at ``fps``; None when either
    series has no detected peak."""
    p_pred = detect_peaks(o_pred, cfg.peak_min_prominence, cfg.peak_min_distance)
    p_gt = detect_peaks(o_gt, cfg.peak_min_prominence, cfg.peak_min_distance)
    if p_pred.size == 0 or p_gt.size == 0:
        return None
    diffs = np.array([np.min(np.abs(p_pred - g)) for g in p_gt], dtype=np.float64)
    return float(np.median(diffs) * 1000.0 / fps)


def _report(
    model: BlendshapeModel, idx: np.ndarray, v_pred: np.ndarray, v_gt: np.ndarray, fps: float, cfg: MetricsConfig
) -> MetricsReport:
    """The seven metrics from zero-posed renders of ``idx`` (see ``_scored_vertices``):
    all of it for the prediction, at least the landmarks for the reference."""
    o_pred, w_pred = landmark_distance(v_pred, 0, 1), landmark_distance(v_pred, 2, 3)
    o_gt, w_gt = landmark_distance(v_gt, 0, 1), landmark_distance(v_gt, 2, 3)

    t_corr, v_corr, w_corr = pearson(o_pred, o_gt), velocity_corr(o_pred, o_gt), pearson(w_pred, w_gt)
    align = peak_align(o_pred, o_gt, cfg, fps)
    flags = (("temporal_corr", t_corr, "zero variance"), ("velocity_corr", v_corr, "zero variance"),
             ("lip_width_corr", w_corr, "zero variance"), ("peak_align_ms", align, "no peaks detected"))
    undefined = {name: reason for name, value, reason in flags if value is None}

    return MetricsReport(
        mod_mm=float(np.mean(np.abs(o_pred - o_gt)) * 1000.0),
        ufd=_ufd(model, v_pred, idx),
        temporal_corr=t_corr,
        velocity_corr=v_corr,
        lip_width_corr=w_corr,
        liveliness_ratio=liveliness(o_pred, o_gt, cfg.epsilon),
        peak_align_ms=align,
        undefined=undefined,
        config=cfg,
    )


def full_report(
    model: BlendshapeModel,
    pred: MotionSequence,
    gt: MotionSequence,
    cfg: Optional[MetricsConfig] = None,
) -> MetricsReport:
    """All seven metrics on an aligned prediction/reference pair (see ``check_pair``),
    timed at the pair's fps."""
    cfg = cfg or MetricsConfig()
    check_pair(pred, gt, min_len=3)
    # one zero-posed render per sequence: the mouth landmarks, plus the
    # upper_face region for pred
    idx = _scored_vertices(model)
    v_pred = forward_batch(model, pred.params, zero_posed=True, vertices=idx)
    v_gt = forward_batch(model, gt.params, zero_posed=True, vertices=idx[: len(LANDMARK_NAMES)])
    return _report(model, idx, v_pred, v_gt, gt.fps, cfg)


def compare(
    model: BlendshapeModel,
    reference: MotionSequence,
    candidates: Iterable[MotionSequence],
    cfg: Optional[MetricsConfig] = None,
) -> Tuple[float, List[MetricsReport]]:
    """The reference's UFD, and ``full_report(model, c, reference, cfg)`` for
    each candidate c, in order. The reference is rendered once; the
    candidates are consumed one at a time."""
    cfg = cfg or MetricsConfig()
    check_pair(reference, reference, min_len=3)  # refuse a reference no pair can score before rendering it
    idx = _scored_vertices(model)
    v_ref = forward_batch(model, reference.params, zero_posed=True, vertices=idx)
    reports = []
    for pred in candidates:
        check_pair(pred, reference, min_len=3)
        v_pred = forward_batch(model, pred.params, zero_posed=True, vertices=idx)
        reports.append(_report(model, idx, v_pred, v_ref, reference.fps, cfg))
    return _ufd(model, v_ref, idx), reports
