"""Parameter space and blendshape forward model for 3D facial motion.

A motion frame is a 58-dimensional state vector laid out as

    [0:50]   expression coefficients (unitless)
    [50:53]  jaw pose, axis-angle about the jaw hinge (radians)
    [53:56]  global pose, axis-angle about the origin (radians)
    [56:58]  eyelid values (unitless, nominally in [0, 1])

The forward model adds linear expression and eyelid blendshapes to a fixed
template mesh, rigidly rotates a designated jaw region about the jaw hinge,
and finally rotates the whole mesh by the global pose. All rotations use the
exact exponential map (Rodrigues formula). Coordinates are meters.

There is one implementation of it, batched over frames:

    forward_batch(model, params, zero_posed=False, vertices=None)
        params (T, 58) -> C-contiguous vertices (T, N', 3)

``zero_posed=True`` skips the global rotation (zero-pose space, where losses
and metrics are computed). ``vertices`` is an optional 1-D index array
selecting N' output vertices in the given order. Frames are rendered in
blocks of ``_BLOCK_FRAMES``, one block at a time, so a call holds only its
(T, N', 3) output and a few block-sized buffers. One pose mask per block
picks its jaw-posed and its globally posed frames, and one Rodrigues call
(``axis_angle_matrix``) gives all their rotations, jaw rows first. Then a
block goes through four steps:

1. the blendshape products write the block's whole mesh, as a (k, 3N)
   array, into the output (a full-mesh block with no posed frame) or into a
   reused block buffer (a posed or subset block), and the template is
   added. Each product is one (32, 58) @ (58, 3N) GEMM of a tile of
   ``_TILE_FRAMES`` params rows by the model's ``frame_basis``: a full tile
   reads its rows in place, and the call's short last tile is copied into a
   zero tile, whose product keeps only its rows;
2. the jaw region's coordinates are gathered as 3J contiguous columns of
   that array, moved to the hinge, rotated per frame by the call's jaw rows
   and written back through the same columns; the columns and the tiled
   hinge are laid out once per model (``BlendshapeModel.jaw_cols`` and
   ``jaw_hinge``);
3. the call's global rows rotate the block: the global product of a
   full-mesh block whose every frame is posed is written straight into the
   output; otherwise the block's posed frames are rotated in place;
4. a subset is gathered from the finished block.

The result is batch-invariant and subset-invariant bit for bit: row i
equals a 1-frame call on ``params[i]``, and a subset call equals the same
columns of the full call. That invariance is what makes the blocking exact.
It holds on OpenBLAS's SkylakeX, Haswell and Prescott kernels, at one and
at two threads. Motion is only ever a (T, 58) array and vertices a
(T, N', 3) array; one frame is a 1-row call.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from .errors import IncompatibleShapeError, ModelConfigError

EXPRESSION_DIM = 50
JAW_DIM = 3
GLOBAL_DIM = 3
EYELID_DIM = 2
FRAME_DIM = EXPRESSION_DIM + JAW_DIM + GLOBAL_DIM + EYELID_DIM  # 58

EXPRESSION_SLICE = slice(0, 50)
JAW_SLICE = slice(50, 53)
GLOBAL_SLICE = slice(53, 56)
EYELID_SLICE = slice(56, 58)

CHANNEL_NAMES: List[str] = (
    [f"exp_{i:02d}" for i in range(EXPRESSION_DIM)]
    + ["jaw_rx", "jaw_ry", "jaw_rz"]
    + ["global_rx", "global_ry", "global_rz"]
    + ["eyelid_l", "eyelid_r"]
)

LANDMARK_NAMES = ("upper_lip", "lower_lip", "left_corner", "right_corner")
REGION_NAMES = ("lips", "face", "upper_face")

# Frames per forward_batch block, and per step of the losses' squared
# differences: large enough that the per-block numpy calls cost little, small
# enough that a block of the whole mesh is a small share of a long clip's
# output.
_BLOCK_FRAMES = 128
# Frames per blendshape product: every product is a (32, 58) @ (58, 3N) GEMM,
# so a frame's bits never depend on how many frames share its call. 32 divides
# _BLOCK_FRAMES and holds a 25-frame stream segment in one tile.
_TILE_FRAMES = 32

# The frame rate a sequence or a synthetic clip gets when none is given.
DEFAULT_FPS = 25.0

_F32 = struct.Struct("<f")


def positive_f32(value, name: str = "fps") -> float:
    """The frame-rate rule: ``value`` rounded to f32, the precision every file stores, which must be
    positive and finite; ValueError naming ``name`` otherwise. A rate that passed it equals its file's."""
    value = float(value)
    try:
        rounded = _F32.unpack(_F32.pack(value))[0]
    except OverflowError:  # beyond the f32 range
        rounded = np.inf
    if not 0 < rounded < np.inf:
        raise ValueError(f"{name} must be positive and finite at f32 precision, got {value!r}")
    return rounded


def nonnegative_finite(value, name: str) -> None:
    """The rule for weights, thresholds, delays and noise levels: ``value`` must be finite and >= 0;
    ValueError naming ``name`` otherwise."""
    if not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def count_at_least(value, name: str, minimum: int = 1) -> None:
    """The rule for sizes and counts: ``value`` must be an integer, not a bool, and >= ``minimum``;
    ValueError naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")


def finite_array(value, name: str, shape) -> np.ndarray:
    """The array rule: ``value`` as a float64 array of ``shape``, every entry finite. A length in
    ``shape`` fixes that axis; a str, such as "T", names an axis of any length.
    IncompatibleShapeError or ValueError naming ``name`` otherwise."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != len(shape) or any(got != want for got, want in zip(arr.shape, shape) if not isinstance(want, str)):
        text = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise IncompatibleShapeError(f"{name} must have shape ({text}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only C-contiguous copy of ``arr``, shared with no caller."""
    arr = np.array(arr, order="C")
    arr.flags.writeable = False
    return arr


def _vertex_indices(value, name: str, n: int) -> np.ndarray:
    """The vertex-index rule: ``value`` as a 1-D intp array whose every entry is in [0, n).
    IncompatibleShapeError or ModelConfigError naming ``name`` otherwise."""
    idx = np.asarray(value, dtype=np.intp)
    if idx.ndim != 1:
        raise IncompatibleShapeError(f"{name} must be a 1-D array of vertex indices, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ModelConfigError(f"{name} indices out of range for {n} vertices")
    return idx


# The identity, and the skew matrix K of a unit axis a as one index table:
# flat entry _CROSS[0] of K is a[_CROSS[1]] times _CROSS[2], so that
# K = [[0, -a2, a1], [a2, 0, -a0], [-a1, a0, 0]] (a product by -1 is exact negation).
_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False
_CROSS = np.array([[1, 2, 3, 5, 6, 7], [2, 1, 2, 0, 1, 0], [-1, 1, 1, -1, -1, 1]])


def _norm3(d: np.ndarray) -> np.ndarray:
    """The length of each 3-vector of a (..., 3) array, as sqrt((x² + y²) + z²) in elementwise
    steps, so that each length depends on its own vector's values alone, not on where it sits in
    memory or which vectors share the call."""
    sq = np.square(d)
    return np.sqrt((sq[..., 0] + sq[..., 1]) + sq[..., 2])


def axis_angle_matrix(rvec: np.ndarray) -> np.ndarray:
    """Rotation matrices for axis-angle vectors of shape (..., 3) via the
    Rodrigues formula; the result has shape (..., 3, 3).

    The rotation angle is the vector norm, ``_norm3``; a zero vector maps to
    the identity. Each row's matrix is computed from that row alone, so any
    split of a batch into calls gives the same bits.
    """
    rvec = np.asarray(rvec, dtype=np.float64)
    r = rvec.reshape(-1, 3)
    theta = _norm3(r)
    zero = theta == 0.0
    axis = r / np.where(zero, 1.0, theta)[:, None]
    k_cross = np.zeros((r.shape[0], 9))
    k_cross[:, _CROSS[0]] = axis[:, _CROSS[1]] * _CROSS[2]
    k_cross = k_cross.reshape(-1, 3, 3)
    rot = (
        _IDENTITY
        + np.sin(theta)[:, None, None] * k_cross
        + (1.0 - np.cos(theta))[:, None, None] * np.matmul(k_cross, k_cross)
    )
    if zero.any():
        rot[zero] = _IDENTITY
    return rot.reshape(rvec.shape[:-1] + (3, 3))


@dataclass
class MotionSequence:
    """A timed sequence of motion frames, stored as a (T, 58) array; fps is rounded to f32 by ``positive_f32``."""

    params: np.ndarray
    fps: float = DEFAULT_FPS

    def __post_init__(self):
        self.params = finite_array(self.params, "params", ("T", FRAME_DIM))
        self.fps = positive_f32(self.fps)

    def __len__(self) -> int:
        return self.params.shape[0]


def check_pair(m: MotionSequence, m_hat: MotionSequence) -> None:
    """Reject a pair of sequences whose lengths or fps differ, or that is shorter than 3 frames."""
    if len(m) != len(m_hat):
        raise IncompatibleShapeError(f"sequence lengths differ: {len(m)} vs {len(m_hat)}")
    if m.fps != m_hat.fps:
        raise IncompatibleShapeError(f"sequence fps differ: {m.fps} vs {m_hat.fps}")
    if len(m) < 3:
        raise ValueError(f"sequences too short: need at least 3 frames, got {len(m)}")


@dataclass
class BlendshapeModel:
    """Template mesh, blendshape bases, jaw hinge and named vertex sets.

    ``regions`` maps names to vertex index arrays and must hold non-empty
    ``lips``, ``face`` and ``upper_face`` sets, with lips a subset of face and
    upper_face disjoint from lips. ``landmarks`` maps names to vertex indices
    and must hold every name in ``LANDMARK_NAMES``. Further sets are allowed.
    Every index passes ``_vertex_indices`` when the model is built, which
    also lays out the model for ``forward_batch``: ``frame_basis``, the
    (58, 3N) matrix that maps a frame to its blendshape displacement (the
    expression rows, zero jaw and global rows, the eyelid rows);
    ``jaw_cols``, the jaw region's 3J coordinate columns in a (3N,) mesh row;
    and ``jaw_hinge``, the joint tiled J times. They are derived fields,
    rebuilt by every construction (``dataclasses.replace`` included), and are
    not compared or printed. A built model holds read-only copies of its
    arrays, shared with no caller, so no derived field can go stale: to
    change a field, build a new model (``dataclasses.replace``).
    """

    template: np.ndarray
    expr_basis: np.ndarray
    eyelid_basis: np.ndarray
    jaw_joint: np.ndarray
    jaw_region: np.ndarray
    regions: Dict[str, np.ndarray]
    landmarks: Dict[str, int]
    frame_basis: np.ndarray = field(init=False, repr=False, compare=False)
    jaw_cols: np.ndarray = field(init=False, repr=False, compare=False)
    jaw_hinge: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.template = _frozen(finite_array(self.template, "template", ("N", 3)))
        n = self.template.shape[0]
        self.expr_basis = _frozen(finite_array(self.expr_basis, "expr_basis", (n, 3, EXPRESSION_DIM)))
        self.eyelid_basis = _frozen(finite_array(self.eyelid_basis, "eyelid_basis", (n, 3, EYELID_DIM)))
        self.jaw_joint = _frozen(finite_array(self.jaw_joint, "jaw_joint", (3,)))
        self.jaw_region = _frozen(_vertex_indices(self.jaw_region, "jaw_region", n))
        basis = np.zeros((FRAME_DIM, 3 * n))
        basis[EXPRESSION_SLICE] = self.expr_basis.reshape(3 * n, EXPRESSION_DIM).T
        basis[EYELID_SLICE] = self.eyelid_basis.reshape(3 * n, EYELID_DIM).T
        self.frame_basis = _frozen(basis)
        self.jaw_cols = _frozen((3 * self.jaw_region[:, None] + np.arange(3)).ravel())
        self.jaw_hinge = _frozen(np.tile(self.jaw_joint, self.jaw_region.size))
        self.regions = {k: _frozen(_vertex_indices(v, f"region '{k}'", n)) for k, v in self.regions.items()}
        self.landmarks = {k: int(_vertex_indices([v], f"landmark '{k}'", n)[0]) for k, v in self.landmarks.items()}
        for kind, names, sets in (("region", REGION_NAMES, self.regions), ("landmark", LANDMARK_NAMES, self.landmarks)):
            for name in names:
                if name not in sets:
                    raise ModelConfigError(f"model has no {kind} '{name}'")
        for name in REGION_NAMES:
            if self.regions[name].size == 0:
                raise ModelConfigError(f"region '{name}' is empty")
        lips = self.regions["lips"]
        if not np.all(np.isin(lips, self.regions["face"])):
            raise ModelConfigError("lips region must be a subset of face region")
        if np.any(np.isin(self.regions["upper_face"], lips)):
            raise ModelConfigError("upper_face region must be disjoint from lips")

    @property
    def num_vertices(self) -> int:
        return self.template.shape[0]


def forward_batch(
    model: BlendshapeModel, params, zero_posed: bool = False, vertices=None
) -> np.ndarray:
    """Map (T, 58) frame parameters to a C-contiguous (T, N', 3) vertex array.

    This is the package's only forward model. Expression and eyelid
    blendshapes are added to the template, the jaw region is rotated rigidly
    about the jaw hinge, then the global pose rotates the whole mesh about
    the origin. ``zero_posed`` skips the global rotation, exactly as if the
    global slice were zero. ``vertices`` (1-D indices, any order, repeats
    allowed) selects the N' returned vertices; by default all N are returned.

    Row i of the result is bit-identical to a 1-frame call on ``params[i]``,
    and a subset call is bit-identical to the same columns of the full call.
    Every matrix product is therefore evaluated with a shape no call
    changes. The blendshape product is one ``(32, 58) @ (58, 3N)`` GEMM per
    tile of ``_TILE_FRAMES`` frames over the model's ``frame_basis``, which
    gives a frame the same bits at any row of any tile; a call's short last
    tile is padded with zero rows, whose products are dropped, so that no
    product is a 1-row matmul (numpy takes those to gemv). The jaw product
    is one per frame over the whole jaw region, the global product one per
    frame over the whole mesh. A rotation is applied only to frames whose
    pose is non-zero, since rotating by the identity is not exact.

    The frames are processed in blocks of ``_BLOCK_FRAMES``, each built as
    a whole-mesh ``(k, N, 3)`` array: the output itself for a full-mesh
    block with no posed frame, a reused block buffer otherwise. One pose
    mask per block selects the jaw-posed and the globally posed frames, and
    one ``axis_angle_matrix`` call on the jaw rows followed by the global
    rows gives every rotation of the block; each product takes its slice of
    the transposed result, with the shape and strides of a separate call,
    and the rows of that call do not depend on which rows share it. A
    zero-posed render passes the jaw rows only. The jaw region's 3J
    coordinates are taken (``np.take``) through the model's ``jaw_cols`` as
    columns of the block's ``(k, 3N)`` view; the hinge is subtracted and
    added back as the model's ``jaw_hinge`` (the joint tiled J times), so
    each is one pass over contiguous rows; the rotated coordinates go back
    through the same columns. A region that is empty or repeats vertices
    renders as any other. A block whose every frame is posed takes its
    global product straight into the output, with no gather or scatter;
    any other block rotates its posed frames in place. A subset is gathered
    from the finished block.
    """
    # C order, so that every tile reaches the GEMM with the same layout
    p = np.ascontiguousarray(finite_array(params, "params", ("T", FRAME_DIM)))
    t, n = p.shape[0], model.num_vertices
    out_idx = None if vertices is None else _vertex_indices(vertices, "vertices", n)

    out = np.empty((t, n if out_idx is None else out_idx.size, 3))
    block = min(t, _BLOCK_FRAMES)
    mesh = None if out_idx is None and zero_posed else np.empty((block, n, 3))
    for start in range(0, t, _BLOCK_FRAMES):
        pb = p[start : start + _BLOCK_FRAMES]
        k = pb.shape[0]
        dest = out[start : start + k]
        posed = pb[:, JAW_SLICE.start : GLOBAL_SLICE.stop].reshape(k, 2, 3).any(axis=2)  # (k, [jaw, global])
        jaw_on = posed[:, 0].nonzero()[0]
        glob_on = np.empty(0, np.intp) if zero_posed else posed[:, 1].nonzero()[0]
        if jaw_on.size or glob_on.size:  # one Rodrigues call: jaw rows, then global rows
            rvecs = np.concatenate((pb[jaw_on, JAW_SLICE], pb[glob_on, GLOBAL_SLICE]))
            rot_t = axis_angle_matrix(rvecs).transpose(0, 2, 1)
            jaw_rot_t, glob_rot_t = rot_t[: jaw_on.size], rot_t[jaw_on.size :]
        into_out = out_idx is None and glob_on.size == k  # the global product goes straight to the output
        v = dest if out_idx is None and not into_out else mesh[:k]
        flat = v.reshape(k, 3 * n)
        whole = k - k % _TILE_FRAMES
        for s in range(0, whole, _TILE_FRAMES):
            np.matmul(pb[s : s + _TILE_FRAMES], model.frame_basis, out=flat[s : s + _TILE_FRAMES])
        if whole < k:  # a short tile: its rows atop a zero tile, whose other rows' products are dropped
            tile = np.zeros((_TILE_FRAMES, FRAME_DIM))
            tile[: k - whole] = pb[whole:]
            flat[whole:] = np.matmul(tile, model.frame_basis)[: k - whole]
        v += model.template
        if jaw_on.size:
            jaw = np.take(flat, model.jaw_cols, axis=1)
            moved = jaw[jaw_on] if jaw_on.size < k else jaw
            moved -= model.jaw_hinge
            moved = np.matmul(moved.reshape(jaw_on.size, model.jaw_region.size, 3), jaw_rot_t).reshape(moved.shape)
            moved += model.jaw_hinge
            if jaw_on.size < k:  # the other frames keep their gathered values
                jaw[jaw_on] = moved
                moved = jaw
            flat[:, model.jaw_cols] = moved
        if glob_on.size:
            if into_out:
                np.matmul(v, glob_rot_t, out=dest)
            else:
                v[glob_on] = np.matmul(v[glob_on], glob_rot_t)
        if out_idx is not None:
            np.take(v, out_idx, axis=1, out=dest)
        if not np.all(np.isfinite(dest)):
            raise ValueError("vertices contain non-finite values")
    return out


def landmark_distance(vertices: np.ndarray, i: int, j: int) -> np.ndarray:
    """Euclidean distance between vertices i and j of a (..., N, 3) array,
    by ``_norm3``: a distance depends on the two vertices alone, not on the
    array they sit in."""
    return _norm3(vertices[..., i, :] - vertices[..., j, :])


def sequence_vertex_array(model: BlendshapeModel, m: MotionSequence) -> np.ndarray:
    """Stacked (T, N, 3) posed vertex array."""
    return forward_batch(model, m.params)
