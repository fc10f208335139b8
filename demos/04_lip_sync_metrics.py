"""Walkthrough: the lip-sync and expressiveness metric suite.

Compares candidate motions against a reference over the same timeline:
an identical copy, a time-lagged copy, an over-smoothed copy and a static
face, showing how each metric separates the failure modes.
"""

import numpy as np

from facemotion import MetricsConfig, SynthConfig, full_report, make_model, make_motion
from facemotion.motion_core import MotionSequence

cfg = SynthConfig(seed=0, duration_frames=250)
model = make_model(cfg)
reference = make_motion(cfg)
mcfg = MetricsConfig()

lagged = MotionSequence(np.roll(reference.params, 3, axis=0), fps=25.0)  # 120 ms late
kernel = np.ones(11) / 11.0
smooth = reference.params.copy()
for c in range(58):
    smooth[:, c] = np.convolve(np.pad(reference.params[:, c], 5, mode="edge"), kernel, mode="valid")
smoothed = MotionSequence(smooth, fps=25.0)
static = MotionSequence(np.zeros_like(reference.params), fps=25.0)

candidates = {
    "identical copy": reference,
    "120 ms lag": lagged,
    "over-smoothed": smoothed,
    "static face": static,
}

header = f"{'candidate':<16}{'MOD(mm)':>9}{'UFD':>8}{'t-corr':>8}{'v-corr':>8}{'w-corr':>8}{'livelin':>9}{'peak(ms)':>10}"
print(header)
print("-" * len(header))
fmt = lambda v, w: f"{'--':>{w}}" if v is None else f"{v:>{w}.3f}"
for name, candidate in candidates.items():
    r = full_report(model, candidate, reference, mcfg)
    print(f"{name:<16}{r.mod_mm:>9.3f}{r.ufd:>8.2f}"
          + fmt(r.temporal_corr, 8) + fmt(r.velocity_corr, 8) + fmt(r.lip_width_corr, 8)
          + f"{r.liveliness_ratio:>9.3f}" + fmt(r.peak_align_ms, 10))
    if r.undefined:
        print(f"{'':<16}undefined: {r.undefined}")

print("\nreading the table:")
print("  - the lag leaves spatial stats intact but shows up in peak alignment")
print("  - smoothing drops liveliness below 1 (muted motion energy) and UFD")
print("  - the static face has zero-variance signals: correlations are flagged, not faked")
