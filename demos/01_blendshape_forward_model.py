"""Walkthrough: the 58-dim motion space and the blendshape forward model.

Builds a synthetic mini face model, drives it with expression / jaw /
global-pose parameters, and shows how zero-posing isolates facial
deformation from head motion. Every frame is one row of a (T, 58) array,
and one forward_batch call renders them all.
"""

import numpy as np

from facemotion import SynthConfig, forward_batch, make_model
from facemotion.motion_core import GLOBAL_SLICE, JAW_SLICE, landmark_distance

model = make_model(SynthConfig(seed=0, num_vertices=200))
print(f"model: {model.num_vertices} vertices, "
      f"{model.expr_basis.shape[2]} expression shapes, "
      f"regions: { {k: len(v) for k, v in model.regions.items()} }")

# A frame is 50 expression + 3 jaw + 3 global + 2 eyelid values.
NEUTRAL, JAW_OPEN, SMILE, TURNED, ZEROED = range(5)
params = np.zeros((5, 58))
params[JAW_OPEN, JAW_SLICE] = [0.15, 0, 0]
params[SMILE, 0] = 0.3
params[TURNED, JAW_SLICE] = [0.15, 0, 0]
params[TURNED, GLOBAL_SLICE] = [0.0, 0.6, 0.0]
# Zero-posing strips exactly the global pose; the jaw is facial deformation.
params[ZEROED] = params[TURNED]
params[ZEROED, GLOBAL_SLICE] = 0.0
verts = forward_batch(model, params)  # (5, 200, 3)

lm = model.landmarks
opening = landmark_distance(verts, lm["upper_lip"], lm["lower_lip"]) * 1000
width = landmark_distance(verts, lm["left_corner"], lm["right_corner"]) * 1000

print(f"\nneutral mouth opening: {opening[NEUTRAL]:.2f} mm, width: {width[NEUTRAL]:.2f} mm")

# Opening the jaw rotates the lower-face region about the jaw hinge.
print(f"jaw 0.15 rad     -> opening: {opening[JAW_OPEN]:.2f} mm "
      f"(moves only the {len(model.jaw_region)} jaw-region vertices)")

# Expression coefficients add linear blendshape displacements.
print(f"expression +0.3  -> width:   {width[SMILE]:.2f} mm")

# Global pose rotates the whole head.
print(f"\nhead turned 0.6 rad: opening measured raw       = {opening[TURNED]:.4f} mm")
print(f"head turned 0.6 rad: opening after zero-posing  = {opening[ZEROED]:.4f} mm")
print("(equal because landmark distances are rotation-invariant; metrics always zero-pose first)")
