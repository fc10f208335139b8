"""Segment-wise autoregressive decode protocol and latency accounting.

A stream consumes audio-rate features segment by segment. For every segment
a predictor sees only the downsampled features of that segment and the
tokens of the immediately preceding segment (Markov history of exactly one
segment), emits one segment of hierarchical tokens, and the codec decodes
them to motion. Latency metrics are derived from a timestamped event log,
never from wall clocks, so they are deterministic under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import IncompatibleShapeError, StreamProtocolError
from .motion_core import DEFAULT_FPS, MotionSequence, count_at_least, finite_array, nonnegative_finite, positive_f32
from .rvq import Codebook, QuantizerConfig, TokenSequence, WindowProjection, pad_to_group, rvq_decode, window_decode

EVENT_KINDS = (
    "input_end",
    "first_text_token",
    "first_audio_token",
    "first_motion_frame",
    "segment_done",
    "stream_done",
)

PREDICTOR_KINDS = ("hold_last", "retrieval", "oracle", "uniform")

# Tokens per decode segment: 5 tokens at G=5 and 25 fps is one second.
SEGMENT_TOKENS = 5


@dataclass
class AudioFeatureSequence:
    """Audio-aligned feature rows at the motion frame rate."""

    features: np.ndarray  # (T, d_h)
    fps: float = DEFAULT_FPS

    def __post_init__(self):
        self.features = finite_array(self.features, "features", ("T", "d_h"))
        if self.features.shape[1] < 1:
            raise IncompatibleShapeError(f"features must be 2-D with >= 1 column, got shape {self.features.shape}")
        self.fps = positive_f32(self.fps)

    def __len__(self) -> int:
        return self.features.shape[0]


def downsample_features(h: AudioFeatureSequence, group_size: int) -> AudioFeatureSequence:
    """Mean-pool feature rows in groups of group_size; the final group is
    padded by repeating the last row."""
    padded = pad_to_group(h.features, group_size)
    pooled = padded.reshape(-1, group_size, padded.shape[1]).mean(axis=1)
    return AudioFeatureSequence(pooled, fps=h.fps / group_size)


@dataclass
class PredictorSpec:
    """Pluggable segment predictor.

    kind 'oracle' replays gt_tokens, 'retrieval' returns the token segment
    of the corpus entry whose key is nearest (L2) to the pooled feature mean,
    'hold_last' repeats the previous segment (zero indices at stream start),
    and 'uniform' samples indices uniformly from a seeded generator.

    A retrieval corpus is checked and its keys stacked into one (S, d_h)
    matrix at construction: every key is 1-D, finite and of one length, and
    every token segment is 2-D with at least one row. Ties between equally
    near keys go to the lowest corpus index.
    """

    kind: str
    corpus: Optional[Sequence[Tuple[np.ndarray, np.ndarray]]] = None
    gt_tokens: Optional[TokenSequence] = None
    seed: int = 0
    _keys: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind '{self.kind}'")
        if self.kind == "oracle" and self.gt_tokens is None:
            raise StreamProtocolError("oracle predictor requires gt_tokens")
        if self.kind == "retrieval":
            if not self.corpus:
                raise StreamProtocolError("retrieval predictor requires a nonempty corpus")
            keys = []
            for i, (key, rows) in enumerate(self.corpus):
                keys.append(finite_array(key, f"corpus key {i}", keys[0].shape if keys else ("d_h",)))
                if np.ndim(rows) != 2 or len(rows) == 0:
                    raise IncompatibleShapeError(
                        f"corpus token segment {i} has shape {np.shape(rows)}; it must be 2-D with >= 1 row")
            self._keys = np.stack(keys)

    def _key_distances(self, key: np.ndarray) -> np.ndarray:
        """Squared L2 distance to every key, each bit-identical to the per-key ``np.sum((k - key) ** 2)``."""
        if key.shape != self._keys.shape[1:]:
            raise IncompatibleShapeError(
                f"feature width {key.shape[0]} does not match corpus key width {self._keys.shape[1]}")
        return ((self._keys - key) ** 2).sum(axis=1)


@dataclass
class SegmentState:
    """Decode-loop state: exactly one segment of token history."""

    # (n, N_q) or None at stream start. Not checked here: only hold_last reads
    # it, and step checks what it reads as a TokenSequence.
    history_tokens: Optional[np.ndarray]
    segment_index: int
    cfg: QuantizerConfig  # the codec's
    segment_tokens: int


def initial_state(cfg: QuantizerConfig, segment_tokens: int = SEGMENT_TOKENS) -> SegmentState:
    return SegmentState(history_tokens=None, segment_index=0, cfg=cfg, segment_tokens=segment_tokens)


def _tile_rows(rows: np.ndarray, n: int) -> np.ndarray:
    return rows[np.arange(n) % rows.shape[0]]


def _predict_segment(
    state: SegmentState, pooled: AudioFeatureSequence, predictor: PredictorSpec, n_tokens: int
) -> np.ndarray:
    n_q = state.cfg.num_levels
    if predictor.kind == "hold_last":
        if state.history_tokens is None or state.history_tokens.shape[0] == 0:
            return np.zeros((n_tokens, n_q), dtype=np.int64)
        return _tile_rows(state.history_tokens, n_tokens)
    if predictor.kind == "oracle":
        start = state.segment_index * state.segment_tokens
        rows = predictor.gt_tokens.indices[start : start + n_tokens]
        if rows.shape[0] < n_tokens:
            raise StreamProtocolError(
                f"gt token stream exhausted at segment {state.segment_index}"
            )
        return rows
    if predictor.kind == "retrieval":
        best = int(np.argmin(predictor._key_distances(pooled.features.mean(axis=0))))  # ties: lowest index
        return _tile_rows(np.asarray(predictor.corpus[best][1], dtype=np.int64), n_tokens)
    # uniform
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([predictor.seed, state.segment_index])))
    return rng.integers(0, state.cfg.codebook_size, size=(n_tokens, n_q), dtype=np.int64)


def step(
    state: SegmentState,
    segment_features: AudioFeatureSequence,
    predictor: PredictorSpec,
    cb: Codebook,
    proj: WindowProjection,
) -> Tuple[TokenSequence, MotionSequence, SegmentState]:
    """Run one segment: predict tokens from (features, history), decode motion."""
    cfg = state.cfg
    g = cfg.group_size
    n_tokens = math.ceil(len(segment_features) / g)
    pooled = downsample_features(segment_features, g)
    indices = _predict_segment(state, pooled, predictor, n_tokens)
    tokens = TokenSequence(indices, group_size=g, num_levels=cfg.num_levels, codebook_size=cfg.codebook_size)
    latents = rvq_decode(tokens, cb, fps_latent=segment_features.fps / g)
    motion = window_decode(latents, proj, cfg, original_t=n_tokens * g)
    new_state = SegmentState(indices, state.segment_index + 1, cfg, state.segment_tokens)
    return tokens, motion, new_state


@dataclass
class StreamEvent:
    timestamp_ms: float
    kind: str
    payload: str = ""

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind '{self.kind}'")
        self.timestamp_ms = float(self.timestamp_ms)
        if not math.isfinite(self.timestamp_ms):
            raise ValueError(f"event timestamp must be finite, got {self.timestamp_ms}")


@dataclass
class StreamEventLog:
    events: List[StreamEvent] = field(default_factory=list)

    def append(self, timestamp_ms: float, kind: str, payload: str = "") -> None:
        event = StreamEvent(timestamp_ms, kind, payload)
        if self.events and event.timestamp_ms < self.events[-1].timestamp_ms:
            raise StreamProtocolError("event timestamps must be nondecreasing")
        if not self.events and kind != "input_end":
            raise StreamProtocolError("input_end must precede all generation events")
        self.events.append(event)

    def first(self, kind: str) -> Optional[StreamEvent]:
        for e in self.events:
            if e.kind == kind:
                return e
        return None


@dataclass
class LatencyReport:
    ttft_ms: Optional[float]
    ttfa_ms: Optional[float]
    rtf: float
    content_duration_ms: float
    generation_time_ms: float


def latency_report(log: StreamEventLog) -> LatencyReport:
    """TTFT, TTFA and real-time factor from a stream event log.

    The content duration is read from the stream_done payload
    (``content_ms=<value>``), keeping the report a pure function of the log.
    """
    start = log.first("input_end")
    done = log.first("stream_done")
    if start is None or done is None:
        raise StreamProtocolError("log must contain input_end and stream_done events")
    audio = log.first("first_audio_token")
    motion = log.first("first_motion_frame")
    ttft = audio.timestamp_ms - start.timestamp_ms if audio else None
    ttfa = motion.timestamp_ms - start.timestamp_ms if motion else None
    content_ms = None
    for item in done.payload.split():
        if item.startswith("content_ms="):
            try:
                content_ms = float(item.split("=", 1)[1])
            except ValueError:
                raise StreamProtocolError(f"content_ms is not a number: {item!r}") from None
    if content_ms is None or not 0 < content_ms < math.inf:
        raise StreamProtocolError("stream_done payload must carry content_ms=<positive finite value>")
    generation_ms = done.timestamp_ms - start.timestamp_ms
    if ttft is not None and ttfa is not None and ttfa < ttft:
        raise StreamProtocolError("first motion precedes first audio in the log")
    return LatencyReport(
        ttft_ms=ttft,
        ttfa_ms=ttfa,
        rtf=generation_ms / content_ms,
        content_duration_ms=content_ms,
        generation_time_ms=generation_ms,
    )


@dataclass
class TimingModel:
    """Deterministic per-event delays for simulated streams (milliseconds)."""

    text_token_ms: float = 10.0
    audio_token_ms: float = 40.0
    segment_ms: float = 100.0

    def __post_init__(self):
        for name, value in self.__dict__.items():
            nonnegative_finite(value, name)


def _segment_chunks(
    features: AudioFeatureSequence, cfg: QuantizerConfig, segment_tokens: int
) -> List[AudioFeatureSequence]:
    """The feature rows of each segment: G * segment_tokens frames, the last maybe fewer."""
    count_at_least(segment_tokens, "segment_tokens")
    seg_frames = cfg.group_size * segment_tokens
    return [
        AudioFeatureSequence(features.features[i : i + seg_frames], fps=features.fps)
        for i in range(0, len(features), seg_frames)
    ]


def run_stream(
    features: AudioFeatureSequence,
    predictor: PredictorSpec,
    cb: Codebook,
    proj: WindowProjection,
    cfg: QuantizerConfig,
    segment_tokens: int = SEGMENT_TOKENS,
    timing: Optional[TimingModel] = None,
) -> Tuple[TokenSequence, MotionSequence, StreamEventLog]:
    """Drive the full segment loop over a feature sequence.

    Emits input_end, first_text_token, first_audio_token, per-segment
    first_motion_frame/segment_done events and a final stream_done whose
    payload records the synthesized content duration. Timestamps are the
    running sums of the timing model's delays from 0 ms.
    """
    if len(features) == 0:
        raise ValueError("features have no frames")
    chunks = _segment_chunks(features, cfg, segment_tokens)
    timing = timing or TimingModel()
    log = StreamEventLog()
    now_ms = 0.0
    log.append(now_ms, "input_end")
    now_ms += timing.text_token_ms
    log.append(now_ms, "first_text_token")
    now_ms += timing.audio_token_ms
    log.append(now_ms, "first_audio_token")

    state = initial_state(cfg, segment_tokens)
    token_chunks: List[np.ndarray] = []
    motion_chunks: List[np.ndarray] = []
    for s, chunk in enumerate(chunks):
        tokens, motion, state = step(state, chunk, predictor, cb, proj)
        now_ms += timing.segment_ms
        if s == 0:
            log.append(now_ms, "first_motion_frame")
        log.append(now_ms, "segment_done", f"segment={s}")
        token_chunks.append(tokens.indices)
        motion_chunks.append(motion.params)

    all_indices = np.vstack(token_chunks)
    all_params = np.vstack(motion_chunks)[: len(features)]
    content_ms = len(features) / features.fps * 1000.0
    log.append(now_ms, "stream_done", f"content_ms={content_ms!r}")
    all_tokens = TokenSequence(
        all_indices, group_size=cfg.group_size, num_levels=cfg.num_levels, codebook_size=cfg.codebook_size
    )
    return all_tokens, MotionSequence(all_params, fps=features.fps), log


def make_retrieval_corpus(
    features: AudioFeatureSequence,
    tokens: TokenSequence,
    cfg: QuantizerConfig,
    segment_tokens: int = SEGMENT_TOKENS,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Build (pooled feature key, token segment) pairs from an aligned stream."""
    out: List[Tuple[np.ndarray, np.ndarray]] = []
    for s, chunk in enumerate(_segment_chunks(features, cfg, segment_tokens)):
        pooled = downsample_features(chunk, cfg.group_size)
        rows = tokens.indices[s * segment_tokens : s * segment_tokens + len(pooled)]
        if rows.shape[0] == 0:
            break
        out.append((pooled.features.mean(axis=0), rows))
    return out


def hierarchical_ce(pred_dists: np.ndarray, targets: TokenSequence) -> float:
    """Sum over levels of the mean cross-entropy -log p(target), natural log.

    pred_dists has shape (L, N_q, K) with each (position, level) row a
    probability distribution: finite entries >= 0 that sum to 1 within 1e-6.
    A zero probability at any target makes the result +inf.
    """
    dists = finite_array(pred_dists, "pred_dists", ("L", "N_q", "K"))
    n, n_q, k = dists.shape
    if targets.indices.shape != (n, n_q) or k != targets.codebook_size:
        raise IncompatibleShapeError("pred_dists shape does not match target token grid")
    if n == 0:
        raise ValueError("cannot score an empty token grid")
    if np.any(dists < 0.0):
        raise ValueError("pred_dists must hold finite probabilities >= 0")
    sums = dists.sum(axis=2)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("pred_dists rows must each sum to 1 within 1e-6")
    p = dists[np.arange(n)[:, None], np.arange(n_q)[None, :], targets.indices]
    if np.any(p == 0.0):
        return float("inf")
    return float(np.sum(np.mean(-np.log(p), axis=0)))
