"""Temporal window codec with hierarchical residual vector quantization.

Motion frames are grouped G at a time, each window flattened frame-major and
mapped through an affine encode map into a latent space, where N_q stacked
codebooks quantize successive residuals. Each level is seeded by greedy
k-means++ and refined by full-batch Lloyd with a fixed step cap, re-seeding
codes left below the dead-code count to distinct points and keeping the
best iterate; the encode/decode maps are fit by PCA over the flattened
windows. Encoding and training pick codewords with one routine,
``_nearest_indices``: exact squared distances from explicit differences,
lowest index on ties. Lloyd keeps its score matrix across steps and
rescores only the codewords a step moved, and scans again only candidate
pairs that are new or whose codeword moved: the score filter's tolerance
holds for a dot product summed in any order, kept or fresh, and the scan
decides by explicit differences, so the picks equal a full rescore's. The
quantizer commitment objective is computed as a diagnostic only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import IncompatibleShapeError
from .motion_core import DEFAULT_FPS, FRAME_DIM, MotionSequence, nonnegative_finite, positive_f32


@dataclass
class QuantizerConfig:
    group_size: int = 5
    num_levels: int = 6
    codebook_size: int = 256
    latent_dim: int = 256
    gamma: float = 0.25
    dead_code_threshold: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("group_size", "num_levels", "codebook_size", "latent_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("gamma", "dead_code_threshold"):
            nonnegative_finite(getattr(self, name), name)
        if self.gamma:  # the codebook file holds it as f32
            positive_f32(self.gamma, "gamma")

    @property
    def window_dim(self) -> int:
        return self.group_size * FRAME_DIM


@dataclass
class WindowProjection:
    """Affine encode/decode maps between flattened windows and latents."""

    encode_w: np.ndarray  # (d_z, G*58)
    encode_b: np.ndarray  # (d_z,)
    decode_w: np.ndarray  # (G*58, d_z)
    decode_b: np.ndarray  # (G*58,)

    def __post_init__(self):
        self.encode_w = np.asarray(self.encode_w, dtype=np.float64)
        self.encode_b = np.asarray(self.encode_b, dtype=np.float64)
        self.decode_w = np.asarray(self.decode_w, dtype=np.float64)
        self.decode_b = np.asarray(self.decode_b, dtype=np.float64)
        d_z, wd = self.encode_w.shape
        if self.encode_b.shape != (d_z,) or self.decode_w.shape != (wd, d_z) or self.decode_b.shape != (wd,):
            raise IncompatibleShapeError("projection map shapes are inconsistent")
        for arr in (self.encode_w, self.encode_b, self.decode_w, self.decode_b):
            if not np.all(np.isfinite(arr)):
                raise ValueError("projection contains non-finite values")

    @property
    def latent_dim(self) -> int:
        return self.encode_w.shape[0]

    @property
    def window_dim(self) -> int:
        return self.encode_w.shape[1]

    @classmethod
    def identity(cls, window_dim: int) -> "WindowProjection":
        eye = np.eye(window_dim)
        zero = np.zeros(window_dim)
        return cls(eye, zero, eye, zero)


@dataclass
class LatentSequence:
    vectors: np.ndarray  # (L, d_z)
    fps_latent: float = DEFAULT_FPS / QuantizerConfig.group_size  # no file stores it, so it is not rounded

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise IncompatibleShapeError(f"latents must be 2-D, got shape {self.vectors.shape}")
        if not np.all(np.isfinite(self.vectors)):
            raise ValueError("latents contain non-finite values")
        self.fps_latent = float(self.fps_latent)
        positive_f32(self.fps_latent, "fps_latent")

    def __len__(self) -> int:
        return self.vectors.shape[0]


@dataclass
class TokenSequence:
    """(L, N_q) grid of codebook indices plus the (G, N_q, K) config echo."""

    indices: np.ndarray
    group_size: int
    num_levels: int
    codebook_size: int

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        if self.group_size < 1 or self.num_levels < 1 or self.codebook_size < 1:
            raise ValueError("token config echo values must be positive")
        if self.indices.ndim != 2 or self.indices.shape[1] != self.num_levels:
            raise IncompatibleShapeError(
                f"token grid must have shape (L, {self.num_levels}), got {self.indices.shape}"
            )
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.codebook_size):
            raise ValueError(f"token indices must lie in [0, {self.codebook_size})")

    def __len__(self) -> int:
        return self.indices.shape[0]


@dataclass
class Codebook:
    """Stacked per-level codebooks with per-code training point counts."""

    entries: np.ndarray  # (N_q, K, d_z)
    usage: np.ndarray = None

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.float64)
        if self.entries.ndim != 3:
            raise IncompatibleShapeError(f"entries must have shape (N_q, K, d_z), got {self.entries.shape}")
        if not np.all(np.isfinite(self.entries)):
            raise ValueError("codebook entries contain non-finite values")
        if self.usage is None:
            self.usage = np.zeros(self.entries.shape[:2])
        self.usage = np.asarray(self.usage, dtype=np.float64)
        if self.usage.shape != self.entries.shape[:2]:
            raise IncompatibleShapeError("usage shape must match (N_q, K)")

    @property
    def num_levels(self) -> int:
        return self.entries.shape[0]

    @property
    def codebook_size(self) -> int:
        return self.entries.shape[1]

    @property
    def latent_dim(self) -> int:
        return self.entries.shape[2]


def pad_to_group(params: np.ndarray, group_size: int) -> np.ndarray:
    """Pad frames to a multiple of group_size by repeating the final frame."""
    t = params.shape[0]
    if t == 0:
        raise ValueError("cannot window an empty sequence")
    n_windows = math.ceil(t / group_size)
    pad = n_windows * group_size - t
    if pad == 0:
        return params
    return np.concatenate([params, np.repeat(params[-1:], pad, axis=0)])


def flatten_windows(params: np.ndarray, group_size: int) -> np.ndarray:
    """(T, 58) frames -> (ceil(T/G), G*58) frame-major window matrix."""
    padded = pad_to_group(params, group_size)
    return padded.reshape(-1, group_size * params.shape[1])


def window_encode(m: MotionSequence, proj: WindowProjection, cfg: QuantizerConfig) -> LatentSequence:
    """Flatten G-frame windows and apply the affine encode map."""
    if proj.window_dim != cfg.window_dim:
        raise IncompatibleShapeError(
            f"projection expects window dim {proj.window_dim}, config gives {cfg.window_dim}"
        )
    windows = flatten_windows(m.params, cfg.group_size)
    latents = windows @ proj.encode_w.T + proj.encode_b
    return LatentSequence(latents, fps_latent=m.fps / cfg.group_size)


def window_decode(
    z: LatentSequence, proj: WindowProjection, cfg: QuantizerConfig, original_t: int
) -> MotionSequence:
    """Apply the decode map per latent, unflatten, truncate to original_t frames."""
    if proj.latent_dim != z.vectors.shape[1]:
        raise IncompatibleShapeError(
            f"projection expects latent dim {proj.latent_dim}, got {z.vectors.shape[1]}"
        )
    if proj.window_dim != cfg.window_dim:
        raise IncompatibleShapeError(
            f"projection window dim {proj.window_dim} does not match config {cfg.window_dim}"
        )
    capacity = len(z) * cfg.group_size
    if not 0 <= original_t <= capacity:
        raise ValueError(f"original_t={original_t} must be in [0, {capacity}], the decoded capacity")
    out = np.empty((len(z), proj.window_dim))
    # Row-wise products keep segment-wise and whole-sequence decoding
    # bit-identical regardless of BLAS batching.
    for i in range(len(z)):
        out[i] = proj.decode_w @ z.vectors[i] + proj.decode_b
    frames = out.reshape(-1, FRAME_DIM)[:original_t]
    return MotionSequence(frames, fps=z.fps_latent * cfg.group_size)


# Values per transient block of the nearest-codeword search and the cluster sums.
_BLOCK_VALUES = 1 << 15


def _score_rows(
    points: np.ndarray, codewords: np.ndarray, c2: np.ndarray, scores: np.ndarray, moved: np.ndarray = None
) -> None:
    """Write s_k = c2_k - 2 r.c_k into every row of the (K, n) scores, or
    only into the rows moved lists, a block of points at a time."""
    if moved is None:
        np.matmul(codewords, points.T, out=scores)
        scores *= -2.0
        scores += c2[:, None]
        return
    if not moved.size:
        return
    n = points.shape[0]
    cw, cm = codewords[moved], c2[moved, None]
    step = max(1, _BLOCK_VALUES // moved.size)
    buf = np.empty((moved.size, min(step, n)))
    for lo in range(0, n, step):
        part = buf[:, : min(step, n - lo)]
        np.matmul(cw, points[lo : lo + step].T, out=part)
        part *= -2.0
        part += cm
        scores[moved, lo : lo + step] = part


class _HeldScores:
    """What _nearest_indices keeps between calls on the same points: the
    (K, n) scores, one row per codeword; each point's |r|^2; and the last
    call's candidate pairs, as ascending flat indices k n + i into the
    scores, with their explicit squared distances."""

    def __init__(self, k: int, points: np.ndarray):
        self.scores = np.empty((k, points.shape[0]))
        self.r2 = np.einsum("nd,nd->n", points, points)
        self.pairs = np.empty(0, dtype=np.int64)
        self.dist = np.empty(0)


def _stale_pairs(held: _HeldScores, pairs: np.ndarray, moved: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Indices of the candidate pairs whose distance must be scanned (None
    for all of them); the others, candidates in held's last call whose
    codeword did not move, take their distance from held into dist. Its
    own function so that its pair-sized temporaries are freed before the
    scan."""
    if moved is None or not held.pairs.size:
        return None
    k, n = held.scores.shape
    at = np.minimum(np.searchsorted(held.pairs, pairs), held.pairs.size - 1)
    moved_code = np.zeros(k, dtype=bool)
    moved_code[moved] = True
    stale = (held.pairs[at] != pairs) | moved_code[pairs // n]
    kept = ~stale
    dist[kept] = held.dist[at[kept]]
    return np.flatnonzero(stale)


def _nearest_indices(
    points: np.ndarray, codewords: np.ndarray, held: _HeldScores = None, moved: np.ndarray = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per point and its squared distance; ties go to the lowest index.

    Equal, bit for bit, to a scan of explicit differences einsum(r - c, r - c).
    A GEMM scores each codeword as s_k = |c_k|^2 - 2 r.c_k. With unit
    roundoff u, g_m = mu/(1 - mu) and M = max |c_k|^2, a computed score is
    within E1 = 2 g_{d+1} (|r|^2 + M) of s_k and a scanned distance within
    E2 = 2 g_{d+3} (|r|^2 + M) of the true one, so the scan's winner scores
    within 2 (E1 + E2) of the point's lowest score. tol = (4d + 16)(u (|r|^2 + M) + eta)
    exceeds E1 + E2 with room for its own rounding; eta, the smallest
    subnormal, covers underflow. Only codewords within 2 tol of the lowest
    score are scanned, in blocks of _BLOCK_VALUES values: one per point as a
    rule, more where distances (nearly) tie.

    held, if given, is the caller's _HeldScores for these points. Its
    scores are rewritten in place, or, given moved (the codewords whose
    values changed since the last call with it), only in those rows; the
    other rows hold scores of codewords of the same value. E1 bounds a dot
    product summed in any order, so a score from a narrower GEMM, or one
    kept from an earlier call, is within it too, and whatever extra
    candidates pass the filter, the scan returns the exact-difference
    winner. A pair that was a candidate in the last call and whose codeword
    did not move keeps its distance: the same explicit difference of the
    same values.
    """
    n, d = points.shape
    k = codewords.shape[0]
    u = np.finfo(np.float64).eps / 2
    eta = np.finfo(np.float64).smallest_subnormal
    c2 = np.einsum("kd,kd->k", codewords, codewords)
    if held is None:
        held = _HeldScores(k, points)
    _score_rows(points, codewords, c2, held.scores, moved)
    margin = 2.0 * (4 * d + 16) * (u * (held.r2 + c2.max()) + eta)
    pairs = np.flatnonzero(held.scores <= held.scores.min(axis=0) + margin)
    dist = np.empty(pairs.size)
    todo = _stale_pairs(held, pairs, moved, dist)
    held.pairs, held.dist = pairs, dist
    step = max(1, _BLOCK_VALUES // max(1, d))
    for lo in range(0, pairs.size if todo is None else todo.size, step):
        sel = slice(lo, lo + step) if todo is None else todo[lo : lo + step]
        code, point = np.divmod(pairs[sel], n)
        diff = codewords[code]
        np.subtract(points[point], diff, out=diff)
        dist[sel] = np.einsum("pd,pd->p", diff, diff)
    # pairs ascend by codeword and every point has one, so a stable sort by
    # point, then distance, starts each point's run with its lowest
    # distance, lowest index on ties
    point = pairs % n
    order = np.lexsort((dist, point))
    first = order[np.searchsorted(point[order], np.arange(n))]
    return pairs[first] // n, dist[first]


def rvq_encode(
    z: LatentSequence, cb: Codebook, group_size: int = QuantizerConfig.group_size
) -> Tuple[TokenSequence, np.ndarray]:
    """Greedy residual quantization; returns tokens and mean residual norm per level.

    Each level takes the nearest codeword, lowest index on ties. group_size
    is recorded in the token grid's config echo only; it does not affect
    quantization.
    """
    if cb.latent_dim != z.vectors.shape[1]:
        raise IncompatibleShapeError(
            f"codebook latent dim {cb.latent_dim} does not match latents {z.vectors.shape[1]}"
        )
    if cb.codebook_size == 0:
        raise ValueError("codebook level is empty")
    residual = z.vectors.copy()
    indices = np.empty((len(z), cb.num_levels), dtype=np.int64)
    level_norms = np.empty(cb.num_levels)
    for j in range(cb.num_levels):
        idx, _ = _nearest_indices(residual, cb.entries[j])
        indices[:, j] = idx
        residual -= cb.entries[j][idx]
        level_norms[j] = float(np.mean(np.linalg.norm(residual, axis=1))) if len(z) else 0.0
    tokens = TokenSequence(
        indices, group_size=group_size, num_levels=cb.num_levels, codebook_size=cb.codebook_size
    )
    return tokens, level_norms


def rvq_decode(t: TokenSequence, cb: Codebook, fps_latent: float) -> LatentSequence:
    """Sum the selected codewords per level."""
    if t.num_levels != cb.num_levels or t.codebook_size != cb.codebook_size:
        raise IncompatibleShapeError("token grid does not match codebook configuration")
    if t.indices.size and t.indices.max() >= cb.codebook_size:
        raise ValueError("token index out of codebook range")
    vectors = np.zeros((len(t), cb.latent_dim))
    for j in range(cb.num_levels):
        vectors += cb.entries[j][t.indices[:, j]]
    return LatentSequence(vectors, fps_latent=fps_latent)


def fit_projections(corpus: Sequence[MotionSequence], cfg: QuantizerConfig) -> WindowProjection:
    """Fit PCA encode/decode maps over the corpus' flattened windows.

    With latent_dim >= G*58 the maps are the identity extended with zero
    rows/columns and reconstruction is exact. Otherwise encode is the
    centered projection onto the top principal directions (sign fixed so the
    first non-negligible component of each direction is positive) and decode
    is its transpose with the mean re-added.
    """
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    windows = np.vstack([flatten_windows(m.params, cfg.group_size) for m in corpus])
    wd = cfg.window_dim
    if windows.shape[1] != wd:
        raise IncompatibleShapeError("corpus window dim does not match config")
    d_z = cfg.latent_dim

    if d_z >= wd:
        enc = np.zeros((d_z, wd))
        enc[:wd, :wd] = np.eye(wd)
        return WindowProjection(enc, np.zeros(d_z), enc.T, np.zeros(wd))

    mean = windows.mean(axis=0)
    centered = windows - mean
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    available = min(d_z, vt.shape[0])
    basis = np.zeros((d_z, wd))
    basis[:available] = vt[:available]
    for row in basis:
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0:
            row *= -1.0
    return WindowProjection(basis, -(basis @ mean), basis.T, mean)


def shifted_windows(corpus: Sequence[MotionSequence], cfg: QuantizerConfig) -> np.ndarray:
    """Flattened windows of every temporal shift 0..G-1 of every sequence.

    Codebook training uses these for G-fold data augmentation; the codec
    itself always windows from frame 0.
    """
    chunks = []
    for m in corpus:
        for shift in range(cfg.group_size):
            if m.params.shape[0] > shift:
                chunks.append(flatten_windows(m.params[shift:], cfg.group_size))
    if not chunks:
        raise ValueError("corpus is empty")
    return np.vstack(chunks)


def fit_codec(corpus: Sequence[MotionSequence], cfg: QuantizerConfig, return_history: bool = False):
    """Fit projections, then train codebooks on the encoded windows of every shift.

    The codebooks see every temporal shift of the training windows, which
    keeps deeper quantizer levels informative when the corpus is small
    relative to the codebook size. Returns (proj, cb), or with
    return_history (proj, cb, per-level Lloyd distortions).
    """
    proj = fit_projections(corpus, cfg)
    latents = shifted_windows(corpus, cfg) @ proj.encode_w.T + proj.encode_b
    if return_history:
        return (proj, *train_codebooks(latents, cfg, return_history=True))
    return proj, train_codebooks(latents, cfg)


# Trial points per greedy k-means++ step (Arthur & Vassilvitskii, 2007,
# suggest 2 + ln k) and the Lloyd step cap, both chosen from held-out scores
# and fit times over several corpora (BENCH_12.json).
_SEED_TRIALS = 2
_LLOYD_CAP = 12
_REL_TOL = 1e-6


def _greedy_kmeans_pp(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding; returns the k chosen point indices.

    The first pick is uniform. Each later step draws _SEED_TRIALS points
    the way Generator.choice(n, size, p=closest/total) draws them (each
    uniform variate searched in the normalized cumulative sum) and scores
    them with one (trials, d) x (d, n) GEMM. The trial whose pick leaves the
    lowest potential sum(min(closest, d2)) is kept, ties to the lowest point
    index. A trial's distance to itself is set to 0, so a picked point is
    never drawn again while any point lies off every center; once all do,
    the remaining codes repeat the first pick.
    """
    n = points.shape[0]
    picks = np.empty(k, dtype=np.int64)
    p2 = np.einsum("nd,nd->n", points, points)
    points_t = np.ascontiguousarray(points.T)  # 1-thread OpenBLAS ran this few-row GEMM 3x slower on points.T

    def dist_to(idx: np.ndarray) -> np.ndarray:
        d2 = np.maximum(p2 - 2.0 * (points[idx] @ points_t) + p2[idx, None], 0.0)
        d2[np.arange(idx.size), idx] = 0.0
        return d2

    picks[0] = rng.integers(n)
    closest = dist_to(picks[:1])[0]
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            picks[j:] = picks[0]
            break
        cdf = np.cumsum(closest / total)
        cdf /= cdf[-1]
        cand = cdf.searchsorted(rng.random(_SEED_TRIALS), side="right")
        d2 = dist_to(cand)
        np.minimum(d2, closest, out=d2)
        best = np.lexsort((cand, d2.sum(axis=1)))[0]
        picks[j] = cand[best]
        closest = d2[best]
    return picks


def _cluster_sums(points: np.ndarray, idx: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cluster sums and counts; each sum adds its points one by one in point order.

    The sums are binned a block of latent dimensions at a time, so the bin
    array holds about _BLOCK_VALUES values whatever the batch size.
    """
    n, d = points.shape
    sums = np.empty((k, d))
    w = min(d, max(1, _BLOCK_VALUES // max(1, n)))
    bins = ((idx * w)[:, None] + np.arange(w)).ravel()
    for lo in range(0, d, w):
        block = points[:, lo : lo + w]
        if block.shape[1] < w:
            w = block.shape[1]
            bins = ((idx * w)[:, None] + np.arange(w)).ravel()
        sums[:, lo : lo + w] = np.bincount(bins, weights=block.ravel(), minlength=k * w).reshape(k, w)
    return sums, np.bincount(idx, minlength=k).astype(np.float64)


def _improved(prev: float, cur: float) -> bool:
    return prev - cur >= _REL_TOL * max(prev, 1e-30)


def lloyd_stop(history: Sequence[float]) -> str:
    """Why a level's Lloyd run ended, read from its distortion history.

    "converged" when its last step did not improve by the relative
    tolerance, else "cap" (the step cap was reached).
    """
    return "converged" if len(history) > 1 and not _improved(history[-2], history[-1]) else "cap"


def _farthest_distinct(points: np.ndarray, dist: np.ndarray, count: int) -> np.ndarray:
    """Up to count points farthest from their nearest center, farthest first
    (lowest index on ties), skipping points a center covers exactly and
    copies of a point already taken."""
    taken, src = set(), []
    for i in np.argsort(-dist, kind="stable"):
        if len(src) == count or dist[i] <= 0.0:
            break
        key = tuple(points[i].tolist())  # equal values are one point: 0.0 and -0.0 too
        if key not in taken:
            taken.add(key)
            src.append(i)
    return np.array(src, dtype=np.int64)


def _updated_centers(
    points: np.ndarray, centers: np.ndarray, idx: np.ndarray, dist: np.ndarray, dead_code_threshold: float
) -> np.ndarray:
    """One Lloyd update of a copy of centers (see _lloyd); a function of its
    own so that the step's sums are freed before the caller rescores."""
    sums, counts = _cluster_sums(points, idx, centers.shape[0])
    new = centers.copy()
    np.divide(sums, counts[:, None], out=new, where=counts[:, None] > 0)
    dead = np.flatnonzero(counts < dead_code_threshold)
    if dead.size:
        src = _farthest_distinct(points, dist, dead.size)
        new[dead[: src.size]] = points[src]
    return new


def _lloyd(
    points: np.ndarray, centers: np.ndarray, dead_code_threshold: float
) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Full-batch Lloyd from the seeded centers.

    Each step moves every code to the mean of its points. Codes whose count
    in this pass is below dead_code_threshold are re-seeded instead, in code
    order, to the points farthest from their nearest center, skipping points
    a center covers exactly and copies of a point already taken. The run
    stops at the first step that does not improve the distortion by
    _REL_TOL, or after _LLOYD_CAP steps. Every step before the last improved,
    so the best iterate is the last or the one before it (the earlier on a
    tie). Returns its centers and assignment and the distortion of every
    iterate.

    The (K, n) score matrix is kept across steps in a _HeldScores, and
    after each update only the codewords whose values changed (moved means
    and re-seeded codes) are rescored; after the first steps few do. Only
    candidate pairs that are new or whose codeword moved are scanned again.
    The selection reads kept and fresh scores alike through
    _nearest_indices' tolerance and decides by explicit differences, so
    every assignment is the one a full rescore gives.
    """
    held = _HeldScores(centers.shape[0], points)
    idx, dist = _nearest_indices(points, centers, held)
    history = [float(dist.mean())]
    best = (centers, idx)
    for _ in range(_LLOYD_CAP):
        new = _updated_centers(points, centers, idx, dist, dead_code_threshold)
        moved = np.flatnonzero(np.any(new != centers, axis=1))
        centers = new
        idx, dist = _nearest_indices(points, centers, held, moved)
        history.append(float(dist.mean()))
        if history[-1] < history[-2]:
            best = (centers, idx)
        if not _improved(history[-2], history[-1]):
            break
    return best[0], best[1], history


def train_codebooks(
    latents: Union[LatentSequence, np.ndarray],
    cfg: QuantizerConfig,
    return_history: bool = False,
):
    """Train N_q residual codebooks with encoding's exact metric; deterministic for a given cfg.seed.

    Level j is seeded by greedy k-means++ from its own generator,
    SeedSequence([cfg.seed, j]), then refined by full-batch Lloyd on the
    residuals the levels before it leave. usage holds each code's point
    count under the returned codebook. With return_history, also returns
    each level's list of Lloyd distortions (see lloyd_stop).
    """
    vectors = latents.vectors if isinstance(latents, LatentSequence) else np.asarray(latents, dtype=np.float64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError("training batch must be a nonempty (M, d_z) array")
    k = cfg.codebook_size
    residual = vectors.copy()
    entries = np.empty((cfg.num_levels, k, vectors.shape[1]))
    usage = np.empty((cfg.num_levels, k))
    histories: List[List[float]] = []
    for j in range(cfg.num_levels):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([cfg.seed, j])))
        picks = _greedy_kmeans_pp(residual, k, rng)
        centers, idx, history = _lloyd(residual, residual[picks], cfg.dead_code_threshold)
        entries[j] = centers
        usage[j] = np.bincount(idx, minlength=k)
        histories.append(history)
        residual -= centers[idx]
    cb = Codebook(entries, usage)
    if return_history:
        return cb, histories
    return cb


def commitment_loss(
    z: Union[LatentSequence, np.ndarray],
    q: Union[LatentSequence, np.ndarray],
    gamma: float,
) -> Tuple[float, float, float]:
    """Quantizer objective diagnostic: (codebook term, gamma-scaled commit term, sum).

    Both terms share the value mean-over-vectors of ||z - q||^2; the
    stop-gradient operators in the definition only affect differentiation,
    which this artifact does not perform.
    """
    zv = z.vectors if isinstance(z, LatentSequence) else np.asarray(z, dtype=np.float64)
    qv = q.vectors if isinstance(q, LatentSequence) else np.asarray(q, dtype=np.float64)
    if zv.shape != qv.shape:
        raise IncompatibleShapeError(f"z shape {zv.shape} does not match q shape {qv.shape}")
    mse = float(np.mean(np.einsum("nd,nd->n", zv - qv, zv - qv))) if zv.size else 0.0
    return mse, gamma * mse, mse + gamma * mse
