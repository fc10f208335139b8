"""The forward model's bits do not depend on how a clip is split into calls,
nor on which vertices a call returns, under each OpenBLAS kernel that this CPU
can run, at one and at two BLAS threads; and ``metrics.compare`` gives the
same report bytes as ``metrics.full_report``.

Each (kernel, threads) case runs in a fresh interpreter whose environment
forces the kernel (``OPENBLAS_CORETYPE``) and the thread count before numpy
loads: the variables act on that process only. A kernel whose instructions
the CPU lacks is skipped, and so is every case when numpy's BLAS is not
OpenBLAS."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import facemotion

# The forced kernels and the /proc/cpuinfo flags each needs ("pni" is SSE3).
KERNELS = {"native": (), "Haswell": ("avx2", "fma"), "Prescott": ("pni",)}
# The names OpenBLAS reports for a forced kernel: its x86-64 builds run the
# Katmai core on the Prescott kernel and report it by the first name.
REPORTED = {"Haswell": {"Haswell"}, "Prescott": {"Prescott", "Katmai"}}

CHECK = """
import ctypes, glob, json, os
import numpy as np
from facemotion import metrics, synth
from facemotion.motion_core import MotionSequence, forward_batch

libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename is not None:
    corename.restype = ctypes.c_char_p
print(corename().decode() if corename is not None else "unknown", flush=True)

model = synth.make_model(synth.SynthConfig(seed=0))
rng = np.random.default_rng(0)
params = synth.make_motion(synth.SynthConfig(seed=1, duration_frames=300)).params.copy()
params[rng.random(300) < 0.5, 50:53] = 0.0
params[rng.random(300) < 0.5, 53:56] = 0.0
subset = np.concatenate([model.regions["upper_face"], model.regions["lips"][::-1], [0, 0]])
for zero_posed in (False, True):
    full = forward_batch(model, params, zero_posed=zero_posed)
    frames = [forward_batch(model, params[i : i + 1].copy(), zero_posed=zero_posed) for i in range(300)]
    assert np.concatenate(frames).tobytes() == full.tobytes(), ("1-frame calls", zero_posed)
    for cuts in ([25 * i for i in range(1, 12)], [1, 33, 160, 161, 299], sorted(rng.choice(299, 2, replace=False) + 1)):
        parts = [forward_batch(model, part.copy(), zero_posed=zero_posed) for part in np.split(params, cuts)]
        assert np.concatenate(parts).tobytes() == full.tobytes(), ("split", cuts, zero_posed)
    sub = forward_batch(model, params, zero_posed=zero_posed, vertices=subset)
    assert sub.tobytes() == np.ascontiguousarray(full[:, subset]).tobytes(), ("subset", zero_posed)

reference = MotionSequence(params)
candidates = [MotionSequence(params[::-1]), MotionSequence(params * 0.5), reference]
_, reports = metrics.compare(model, reference, candidates)
for cand, report in zip(candidates, reports):
    want = metrics.full_report(model, cand, reference).to_dict()
    assert json.dumps(report.to_dict()) == json.dumps(want), "compare differs from full_report"
"""


def _blas_name():
    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.25
    return str(config.get("Build Dependencies", {}).get("blas", {}).get("name", "")).lower()


def _cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return {flag for line in text.splitlines() if line.startswith("flags") for flag in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_forward_batch_is_split_and_subset_invariant_and_compare_equals_full_report(kernel, threads):
    if "openblas" not in _blas_name():
        pytest.skip("numpy's BLAS is not OpenBLAS")
    if kernel != "native":
        flags = _cpu_flags()
        if flags is None or not flags.issuperset(KERNELS[kernel]):
            pytest.skip(f"this CPU cannot run OpenBLAS's {kernel} kernel")
    src = str(Path(facemotion.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    run = subprocess.run([sys.executable, "-W", "error", "-c", CHECK], env=env, capture_output=True, text=True)
    reported = run.stdout.strip()
    assert run.returncode == 0, f"kernel {kernel} ({reported}), {threads} threads:\n{run.stderr}"
    assert kernel == "native" or reported in REPORTED[kernel] | {"unknown"}, f"forced {kernel}, ran {reported}"
