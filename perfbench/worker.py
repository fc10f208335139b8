"""Runs one benchmark workload in this process and prints its result.

run.py starts this file in a child process whose environment pins BLAS to
one thread. The last line of standard output is the result object; the lines
before it name every metric with its unit, the environment and the checks.
Result and span files go to .perfbench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

# Spans behind the per-layer time metrics. OP_LAYERS give self time per op of
# the workload (per clip, per segment, per train op), SETUP_LAYERS per set-up,
# and CLI_COMMANDS per command call; the ones a workload never calls read 0.
OP_LAYERS = [
    "metrics.full_report", "losses.total_losses", "rvq.rvq_encode", "motion_core.render",
    "rvq.window_encode", "rvq.rvq_decode", "rvq.window_decode", "fileio.save", "fileio.load",
    "streamsim.step", "rvq.train_codebooks", "rvq.fit_projections", "rvq.shifted_windows",
]
SETUP_LAYERS = ["synth.make_model", "synth.make_motion", "rvq.fit_codec"]
CLI_COMMANDS = ["encode", "decode", "eval-recon", "eval-metrics", "compare",
                "simulate-stream", "gen-data", "fit-codec"]


def import_program():
    """Import facemotion from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import facemotion

    if not Path(facemotion.__file__).resolve().is_relative_to(src):
        raise ImportError(f"facemotion imported from {facemotion.__file__}, not from {src}")
    return facemotion


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, fn):
                threads = int(getattr(dll, fn)())
                break
    with open("/proc/self/status", encoding="ascii") as fh:
        os_threads = next((int(line.split()[1]) for line in fh if line.startswith("Threads:")), None)
    return {
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')}-{blas.get('version')}",
        "blas_threads": threads if threads is not None else f"env:{os.environ.get('OPENBLAS_NUM_THREADS')}",
        "python": platform.python_version(),
        "os_threads": os_threads,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run, workload):
    """The end-to-end metrics of BENCHMARK.json, and the printed-only ones.

    The latency percentiles and failed_ops_frac are printed but not gated;
    perfbench/README.md says why.
    """
    import numpy as np

    samples = run.samples_ms
    total_s = sum(samples) / 1000.0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    e2e = {
        "setup_s": (_median(run.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "frames_per_s": (run.frames / total_s if total_s else 0.0, "frames/s"),
        "mse_ratio": (_median(run.ratios), "ratio"),
    }
    named = {
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
        "failed_ops_frac": (run.failed / run.attempted, "frac"),
        "frames_per_s": e2e["frames_per_s"],
        "op_ms_p50": (_median(samples), "ms"),
    }
    if workload.name == "offline":
        named["offline_frames_per_s"] = e2e["frames_per_s"]
    elif workload.name == "stream":
        named["stream_segment_ms_p50"] = named["op_ms_p50"]
        named["stream_segment_ms_p99"] = (float(np.percentile(samples, 99)) if samples else 0.0, "ms")
        named["stream_rtf"] = (total_s / (run.frames / 25.0) if run.frames else 0.0, "ratio")
    else:
        named["train_fit_s_p50"] = (_median(run.fit_ms) / 1000.0, "s")
        named["train_mse_ratio"] = e2e["mse_ratio"]
    return e2e, named


def per_layer(run, workload, tracer):
    self_times = tracer.self_times()

    def self_ms(root, name, per):
        return self_times[(root, name)][0] * 1000.0 / per if per else 0.0

    units = self_times[(workload.root, workload.root)][1]
    out = {f"{name}_ms": (self_ms(workload.root, name, units), "ms") for name in OP_LAYERS}
    for name in SETUP_LAYERS:
        out[f"{name}_ms"] = (self_ms("setup", name, len(run.setup_s)), "ms")
    for cmd in CLI_COMMANDS:
        name = f"cli.{cmd}"
        out[f"{name}_ms"] = (self_ms(name, name, self_times[(name, name)][1]), "ms")
    c = run.counts
    out["offline.frames"] = (c["offline.frames"], "frames")
    out["fileio.bytes"] = (c["fileio.bytes"] / c["offline.ops"] if c["offline.ops"] else 0.0, "bytes")
    out["streamsim.segments"] = (c["streamsim.segments"], "segments")
    out["streamsim.retrieval_keys"] = (
        c["streamsim.retrieval_keys"] / c["streamsim.segments"] if c["streamsim.segments"] else 0.0, "keys")
    fits = c["rvq.fits"]
    out["rvq.kmeans_iters"] = (c["rvq.kmeans_iters"] / fits if fits else 0.0, "iters")
    out["rvq.live_code_frac"] = (c["rvq.live_codes"] / c["rvq.codes"] if fits else 0.0, "frac")
    overhead = (statistics.fmean(run.traced_ms) - statistics.fmean(run.untraced_ms)
                if run.traced_ms and run.untraced_ms else 0.0)
    out["trace.overhead_ms"] = (overhead, "ms")
    out["trace.unattributed_ms"] = (self_ms(workload.root, workload.root, units), "ms")
    return out


def check_attribution(run, layers):
    """The layer spans must account for the op time, up to the tracing overhead.

    What the spans miss is the op's own self time; allow the larger of the
    measured overhead and 1% of the traced op time.
    """
    missed = layers["trace.unattributed_ms"][0]
    allowed = max(abs(layers["trace.overhead_ms"][0]), 0.01 * statistics.fmean(run.traced_ms))
    run.check("layers_account_for_op_time", missed <= allowed,
              f"{missed:.3f} ms per op outside layer spans, allowed {allowed:.3f} ms")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=["offline", "stream", "train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    run = workloads.Run(sizes=workloads.SMOKE if args.smoke else workloads.FULL, seed=args.seed, workdir=workdir)
    try:
        tracer = workloads.measure(workload, run, args.seconds, traced=bool(args.trace))
        layers = per_layer(run, workload, tracer) if args.trace else None
        if args.trace and run.traced_ms:
            run.attempt(check_attribution, run, layers)
    finally:
        shutil.rmtree(workdir)

    e2e, named = end_to_end(run, workload)
    metrics = layers if args.trace else e2e
    env = environment()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write_jsonl(OUT_DIR / f"{tag}.spans.jsonl")
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
           "env": env, "attempted": run.attempted, "failed": run.failed, "checks": dict(run.checks),
           "samples": len(run.samples_ms),
           "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"ops attempted={run.attempted} failed={run.failed} samples={len(run.samples_ms)}")
    for name, count in sorted(run.checks.items()):
        print(f"check {name} {count}")
    for name, (value, unit) in named.items():
        print(f"named {name} {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
