"""Independent reference routines used as test oracles.

Each function re-derives a quantity from first principles along a different
code path than the library (explicit loops, vector-form rotation, two-pass
statistics, exhaustive scans). Tests compare library output against these;
the routines here must never import computation helpers from facemotion.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np


def rotate_points(points: np.ndarray, axis_angle: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Axis-angle rotation about an origin via the vector Rodrigues form:
    v' = v cos(t) + (k x v) sin(t) + k (k . v)(1 - cos(t))."""
    points = np.asarray(points, dtype=np.float64)
    axis_angle = np.asarray(axis_angle, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)
    theta = math.sqrt(float(np.dot(axis_angle, axis_angle)))
    if theta == 0.0:
        return points.copy()
    k = axis_angle / theta
    out = np.empty_like(points)
    c, s = math.cos(theta), math.sin(theta)
    for i, p in enumerate(points):
        v = p - origin
        out[i] = v * c + np.cross(k, v) * s + k * np.dot(k, v) * (1.0 - c) + origin
    return out


def landmark_distance(vertices: np.ndarray, i: int, j: int) -> float:
    """Direct vertex-table lookup and coordinate-wise distance."""
    a, b = vertices[i], vertices[j]
    return math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)


def affine_map(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense matrix product with explicit loops (rows of x against rows of w)."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.empty((x.shape[0], w.shape[0]))
    for n in range(x.shape[0]):
        for r in range(w.shape[0]):
            acc = 0.0
            for c in range(x.shape[1]):
                acc += x[n, c] * w[r, c]
            out[n, r] = acc + b[r]
    return out


def nearest_codeword_scan(residuals: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Exhaustive per-level nearest-neighbor scan (lowest index on ties)."""
    residual = np.asarray(residuals, dtype=np.float64).copy()
    n_levels = codebooks.shape[0]
    indices = np.empty((residual.shape[0], n_levels), dtype=np.int64)
    for j in range(n_levels):
        for n in range(residual.shape[0]):
            best_k, best_d = 0, np.sum((residual[n] - codebooks[j][0]) ** 2)
            for k in range(1, codebooks.shape[1]):
                d = np.sum((residual[n] - codebooks[j][k]) ** 2)
                if d < best_d:
                    best_k, best_d = k, d
            indices[n, j] = best_k
            residual[n] = residual[n] - codebooks[j][best_k]
    return indices


def gather_sum(indices: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Per-vector sum of selected codewords, one level at a time."""
    n, n_levels = indices.shape
    out = np.zeros((n, codebooks.shape[2]))
    for i in range(n):
        for j in range(n_levels):
            out[i] = out[i] + codebooks[j][indices[i, j]]
    return out


def greedy_kmeans_pp_serial(points: np.ndarray, k: int, rng: np.random.Generator, trials: int = 2) -> np.ndarray:
    """Greedy k-means++ seeding, one trial at a time: a Generator.choice draw
    of `trials` points per step, one GEMV per trial, and a scan that keeps
    the trial leaving the lowest potential (lowest point index on ties). A
    point's distance to itself is 0; once every point lies on a center, the
    remaining picks repeat the first. Returns the k chosen point indices."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    picks = np.empty(k, dtype=np.int64)
    p2 = np.einsum("nd,nd->n", points, points)

    def dist_to(i):
        d = np.maximum(p2 - 2.0 * (points @ points[i]) + p2[i], 0.0)
        d[i] = 0.0
        return d

    picks[0] = rng.integers(n)
    closest = dist_to(picks[0])
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            picks[j:] = picks[0]
            break
        best = None
        for c in rng.choice(n, size=trials, p=closest / total):
            lowered = np.minimum(closest, dist_to(c))
            potential = float(lowered.sum())
            if best is None or potential < best[0] or (potential == best[0] and c < best[1]):
                best = (potential, c, lowered)
        _, picks[j], closest = best
    return picks


class CoarseGenerator(np.random.Generator):
    """Rounds each uniform draw down to a multiple of 1/8, one draw consumed
    per call as before, so that draws land on cumulative-probability
    boundaries (0 among them) where searching from the left or the right
    gives different picks. Generator.choice draws through this method too."""

    def random(self, size=None, dtype=np.float64, out=None):
        return np.floor(super().random(size) * 8.0) / 8.0


def lloyd_best_of(points: np.ndarray, k: int, restarts: int, seed: int, iters: int = 300) -> float:
    """Best final distortion over plain-Lloyd restarts with random init."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.Generator(np.random.PCG64(seed))
    best = math.inf
    for _ in range(restarts):
        centers = points[rng.choice(points.shape[0], size=k, replace=False)].copy()
        for _ in range(iters):
            d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assign = np.argmin(d2, axis=1)
            new_centers = centers.copy()
            for c in range(k):
                members = points[assign == c]
                if members.shape[0]:
                    new_centers[c] = members.mean(axis=0)
            if np.array_equal(new_centers, centers):
                break
            centers = new_centers
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        best = min(best, float(d2.min(axis=1).mean()))
    return best


def nearest_difference_scan(points: np.ndarray, codewords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest codeword per point by explicit differences over every codeword,
    a few points at a time (lowest index on ties); returns indices and
    squared distances."""
    n = points.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    for lo in range(0, n, 16):
        diff = points[lo : lo + 16, None, :] - codewords[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        idx[lo : lo + 16] = np.argmin(d2, axis=1)
        dist[lo : lo + 16] = d2[np.arange(d2.shape[0]), idx[lo : lo + 16]]
    return idx, dist


def lloyd_full_rescore(
    points: np.ndarray,
    centers: np.ndarray,
    dead_code_threshold: float,
    cap: int = 12,
    rel_tol: float = 1e-6,
    nearest=nearest_difference_scan,
) -> Tuple[np.ndarray, np.ndarray, List[float]]:
    """Full-batch Lloyd that scores every point against every codeword at
    every step, through `nearest` (points, codewords) -> (indices, squared
    distances). Each step moves a code to the mean of its points, summed one
    point at a time in point order; codes with fewer points than
    dead_code_threshold are re-seeded, in code order, to the distinct points
    farthest from their nearest center (found with np.unique), skipping
    points a center covers exactly. Stops at the first step that does not
    improve the mean distortion by rel_tol, or after cap steps. Returns the
    best iterate's centers and assignment (the earlier on a tie) and the
    distortion of every iterate."""
    points = np.asarray(points, dtype=np.float64)
    idx, dist = nearest(points, centers)
    history = [float(dist.mean())]
    best = (centers, idx)
    for _ in range(cap):
        k = centers.shape[0]
        sums = np.zeros((k, points.shape[1]))
        counts = np.zeros(k)
        for i, c in enumerate(idx):
            sums[c] += points[i]
            counts[c] += 1.0
        centers = centers.copy()
        for c in range(k):
            if counts[c] > 0:
                centers[c] = sums[c] / counts[c]
        dead = np.flatnonzero(counts < dead_code_threshold)
        if dead.size:
            order = np.argsort(-dist, kind="stable")
            order = order[dist[order] > 0.0]
            _, first = np.unique(points[order], axis=0, return_index=True)
            src = order[np.sort(first)[: dead.size]]
            centers[dead[: src.size]] = points[src]
        idx, dist = nearest(points, centers)
        history.append(float(dist.mean()))
        if history[-1] < history[-2]:
            best = (centers, idx)
        if history[-2] - history[-1] < rel_tol * max(history[-2], 1e-30):
            break
    return best[0], best[1], history


def pca_directions(data: np.ndarray, n_components: int) -> Tuple[np.ndarray, np.ndarray]:
    """Top principal directions via eigendecomposition of the covariance."""
    data = np.asarray(data, dtype=np.float64)
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / data.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    return eigvecs[:, order].T, mean


def pca_reconstruction_error(data: np.ndarray, n_components: int) -> float:
    """Max abs reconstruction error projecting onto the top directions."""
    basis, mean = pca_directions(data, n_components)
    centered = data - mean
    recon = centered @ basis.T @ basis + mean
    return float(np.max(np.abs(recon - data)))


def two_pass_pcc(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation with explicit mean and moment passes."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sxx = syy = 0.0
    for a, b in zip(x, y):
        cov += (a - mx) * (b - my)
        sxx += (a - mx) ** 2
        syy += (b - my) ** 2
    return cov / math.sqrt(sxx * syy)


def population_std(x: Sequence[float]) -> float:
    n = len(x)
    m = sum(x) / n
    return math.sqrt(sum((a - m) ** 2 for a in x) / n)


def local_maxima(x: Sequence[float]) -> List[int]:
    """All strict local maxima, no prominence or spacing filtering."""
    return [i for i in range(1, len(x) - 1) if x[i] > x[i - 1] and x[i] > x[i + 1]]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def group_means(rows: np.ndarray, group: int) -> np.ndarray:
    """Mean-pool rows in groups, repeating the final row to fill the tail."""
    rows = np.asarray(rows, dtype=np.float64)
    t = rows.shape[0]
    n_groups = math.ceil(t / group)
    out = np.zeros((n_groups, rows.shape[1]))
    for g in range(n_groups):
        acc = np.zeros(rows.shape[1])
        for i in range(group):
            src = min(g * group + i, t - 1)
            acc += rows[src]
        out[g] = acc / group
    return out


def mean_squared(diff: np.ndarray) -> float:
    """Mean of elementwise squares via a flat accumulation loop."""
    flat = np.asarray(diff, dtype=np.float64).ravel()
    acc = 0.0
    for v in flat:
        acc += float(v) * float(v)
    return acc / flat.size


def sum_log_gather(dists: np.ndarray, targets: np.ndarray) -> float:
    """Level-summed mean negative log-likelihood by direct iteration."""
    n, n_q = targets.shape
    total = 0.0
    for j in range(n_q):
        acc = 0.0
        for i in range(n):
            acc += -math.log(dists[i, j, targets[i, j]])
        total += acc / n
    return total


def nearest_key_scan(keys: Sequence[np.ndarray], query: np.ndarray) -> int:
    """Exhaustive L2 scan over corpus keys, lowest index on ties."""
    best_i, best_d = 0, float(np.sum((np.asarray(keys[0]) - query) ** 2))
    for i in range(1, len(keys)):
        d = float(np.sum((np.asarray(keys[i]) - query) ** 2))
        if d < best_d:
            best_i, best_d = i, d
    return best_i


def forward_loop(template, expr_basis, eyelid_basis, jaw_joint, jaw_region, frame) -> np.ndarray:
    """Blendshape forward model for one 58-dim frame with explicit loops over
    vertices, coordinates and blendshapes, then vector-form rotations: the
    jaw region about the hinge, then the whole mesh about the origin."""
    frame = np.asarray(frame, dtype=np.float64)
    n = template.shape[0]
    v = np.array(template, dtype=np.float64)
    for i in range(n):
        for c in range(3):
            acc = 0.0
            for k in range(50):
                acc += expr_basis[i, c, k] * frame[k]
            for k in range(2):
                acc += eyelid_basis[i, c, k] * frame[56 + k]
            v[i, c] += acc
    idx = np.asarray(jaw_region)
    v[idx] = rotate_points(v[idx], frame[50:53], jaw_joint)
    return rotate_points(v, frame[53:56], np.zeros(3))


def peaks_outward_scan(x: Sequence[float], min_prominence_frac: float, min_distance: int) -> np.ndarray:
    """Prominence- and spacing-filtered strict local maxima, found by scanning
    outward from every candidate until a strictly higher sample, then
    accepting tallest-first (lower index on ties) against every kept peak."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n < 3 or x.max() == x.min():
        return np.empty(0, dtype=np.int64)
    threshold = min_prominence_frac * float(x.max() - x.min())
    kept = []
    for i in local_maxima(x):
        floors = []
        for step in (-1, 1):
            low, j = x[i], i + step
            while 0 <= j < n and x[j] <= x[i]:
                low = min(low, x[j])
                j += step
            floors.append(low)
        if x[i] - max(floors) >= threshold:
            kept.append(i)
    accepted: List[int] = []
    for i in sorted(kept, key=lambda k: (-x[k], k)):
        if all(abs(i - a) >= min_distance for a in accepted):
            accepted.append(i)
    return np.array(sorted(accepted), dtype=np.int64)


def prominence_floor(x: np.ndarray) -> np.ndarray:
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


def frame_sums_mean(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference of two frames-first arrays: math.fsum of each
    frame's np.sum over its squared differences in C order, one frame at a
    time, over the element count."""
    sums = [float(np.sum(np.ascontiguousarray(a[i] - b[i]) ** 2)) for i in range(len(a))]
    return math.fsum(sums) / a.size


def region_mse_formula(v: np.ndarray, v_hat: np.ndarray, idx: np.ndarray) -> float:
    """A region's vertex loss over the gathered whole-clip arrays."""
    return frame_sums_mean(v[:, idx], v_hat[:, idx])


def dyn_terms_formula(v: np.ndarray, v_hat: np.ndarray) -> Tuple[float, float]:
    """(l_vel, l_acc) from whole velocity and acceleration arrays."""
    vel, vel_hat = np.diff(v, axis=0), np.diff(v_hat, axis=0)
    acc, acc_hat = np.diff(vel, axis=0), np.diff(vel_hat, axis=0)
    return frame_sums_mean(vel, vel_hat), frame_sums_mean(acc, acc_hat)


def smooth_same_mode(x: np.ndarray, window: int) -> np.ndarray:
    """Hann smoothing of each column of an edge-padded (T, C) array as a
    "same"-mode convolution of the whole padded column, cropped to the clip."""
    if window <= 1 or x.shape[0] < 3:
        return x
    kernel = np.hanning(window + 2)[1:-1]
    kernel /= kernel.sum()
    pad = window // 2
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        padded = np.concatenate([np.full(pad, x[0, c]), x[:, c], np.full(pad, x[-1, c])])
        out[:, c] = np.convolve(padded, kernel, mode="same")[pad:-pad]
    return out


def _axis_angle_matrix(rvec: np.ndarray) -> np.ndarray:
    """The library's Rodrigues matrices for (..., 3) axis-angle vectors, copied
    as they were when the frame-blocked forward model was written, with the
    angle taken as sqrt((x² + y²) + z²) in elementwise steps."""
    rvec = np.asarray(rvec, dtype=np.float64)
    r = rvec.reshape(-1, 3)
    theta = np.sqrt((r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1]) + r[:, 2] * r[:, 2])
    zero = theta == 0.0
    axis = r / np.where(zero, 1.0, theta)[:, None]
    k_cross = np.zeros((r.shape[0], 3, 3))
    k_cross[:, 0, 1], k_cross[:, 0, 2] = -axis[:, 2], axis[:, 1]
    k_cross[:, 1, 0], k_cross[:, 1, 2] = axis[:, 2], -axis[:, 0]
    k_cross[:, 2, 0], k_cross[:, 2, 1] = -axis[:, 1], axis[:, 0]
    rot = (
        np.eye(3)
        + np.sin(theta)[:, None, None] * k_cross
        + (1.0 - np.cos(theta))[:, None, None] * np.matmul(k_cross, k_cross)
    )
    rot[zero] = np.eye(3)
    return rot.reshape(rvec.shape[:-1] + (3, 3))


def forward_batch_gather_scatter(model, params, zero_posed: bool = False, vertices=None) -> np.ndarray:
    """The frame-blocked forward model as first written, with 2-D fancy-index
    gathers and scatters: the jaw region through ``(frames[:, None], region)``
    and posed frames through ``v[frames]``, every block built in its output
    (or, for a subset, in a whole-mesh buffer). Each frame's blendshape
    displacement is row 0 of a (32, 58) @ (58, 3N) product whose other rows
    are zero, so a frame's bits are those it gets alone. It pins the
    library's bits, since its BLAS calls have the same shapes and its
    elementwise arithmetic the same operands. Inputs are taken as valid."""
    p = np.asarray(params, dtype=np.float64)
    t, n = p.shape[0], model.template.shape[0]
    out_idx = None if vertices is None else np.asarray(vertices, dtype=np.intp)
    block_frames = 128

    out = np.empty((t, n if out_idx is None else out_idx.size, 3))
    block = min(t, block_frames)
    basis = np.zeros((58, 3 * n))  # expression rows, zero jaw and global rows, eyelid rows
    basis[0:50] = model.expr_basis.reshape(3 * n, 50).T
    basis[56:58] = model.eyelid_basis.reshape(3 * n, 2).T
    tile = np.zeros((32, 58))
    mesh = None if out_idx is None else np.empty((block, n, 3))
    for start in range(0, t, block_frames):
        pb = p[start : start + block_frames]
        k = pb.shape[0]
        v = out[start : start + k] if mesh is None else mesh[:k]
        for i in range(k):
            tile[0] = pb[i]
            v[i] = np.matmul(tile, basis)[0].reshape(n, 3)
        v += model.template
        jaw_on = np.flatnonzero(np.any(pb[:, 50:53], axis=1))
        if jaw_on.size:
            sel = (jaw_on[:, None], model.jaw_region)
            rot_t = _axis_angle_matrix(pb[jaw_on, 50:53]).transpose(0, 2, 1)
            v[sel] = np.matmul(v[sel] - model.jaw_joint, rot_t) + model.jaw_joint
        glob_on = np.empty(0, np.intp) if zero_posed else np.flatnonzero(np.any(pb[:, 53:56], axis=1))
        if glob_on.size:
            v[glob_on] = np.matmul(v[glob_on], _axis_angle_matrix(pb[glob_on, 53:56]).transpose(0, 2, 1))
        if mesh is not None:
            np.take(v, out_idx, axis=1, out=out[start : start + k])
    return out


def upper_face_dynamics_norm(model, v: np.ndarray, idx: np.ndarray) -> float:
    """UFD with each displacement's length from ``np.linalg.norm``, the form
    the metric had before it summed the squared coordinates itself."""
    n = 4  # the mouth landmarks lead ``idx``
    disp = np.linalg.norm(v[:, n:] - model.template[idx[n:]], axis=-1)
    return float(np.mean(np.abs(np.diff(disp, axis=0))) * 1e5)
