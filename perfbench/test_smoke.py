"""Smoke test of the benchmark at tiny sizes.

    python -m pytest perfbench/test_smoke.py

Runs every workload through run.py in both trace modes and checks the result
against BENCHMARK.json, then injects one fault per output check in-process
and checks that the benchmark counts a failed op for it.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(HERE))
import worker  # noqa: E402

worker.import_program()
import workloads  # noqa: E402

CHECKS = {
    "offline": {"encode_matches_scan", "tokens_round_trip", "motion_round_trip", "l_rec_is_weighted_sum",
                "report_values_finite", "recurring_clip_same_report_bytes"},
    "stream": {"stream_matches_one_shot_decode", "render_finite"},
    "train": {"heldout_beats_constant_mean", "same_seed_same_codebook_bytes"},
}
PROBES = {
    "offline": {"encode", "decode", "eval-recon", "eval-metrics", "compare"},
    "stream": {"simulate-stream"},
    "train": {"gen-data", "fit-codec"},
}
NAMED = {
    "offline": {"offline_frames_per_s"},
    "stream": {"stream_segment_ms_p50", "stream_segment_ms_p99", "stream_rtf"},
    "train": {"train_fit_s_p50", "train_mse_ratio"},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]

    checks = {line.split()[1]: int(line.split()[2]) for line in lines if line.startswith("check ")}
    wanted = set(CHECKS[workload])
    if trace:
        wanted |= {"layers_account_for_op_time"} | {f"cli_{cmd}_exit_0" for cmd in PROBES[workload]}
    assert wanted <= set(checks), wanted - set(checks)
    assert all(checks[name] >= 1 for name in wanted)

    named = {line.split()[1]: line.split()[3] for line in lines if line.startswith("named ")}
    assert NAMED[workload] | {"setup_s", "peak_rss_mb", "failed_ops_frac", "frames_per_s", "op_ms_p50"} <= set(named)
    assert any(line.startswith("env ") and "blas_threads=1" in line for line in lines)


def _corrupt_first_token(fn):
    def bad(*args, **kwargs):
        tokens, norms = fn(*args, **kwargs)
        tokens.indices[0, 0] = (tokens.indices[0, 0] + 1) % tokens.codebook_size
        return tokens, norms
    return bad


def _nudge_step_motion(fn):
    def bad(*args, **kwargs):
        tokens, motion, state = fn(*args, **kwargs)
        motion.params[0, 0] += 1e-9
        return tokens, motion, state
    return bad


def _misweight_l_rec(fn):
    def bad(*args, **kwargs):
        report = fn(*args, **kwargs)
        report.l_rec *= 1.0 + 1e-9
        return report
    return bad


def _drifting_metrics(fn):
    calls = []

    def bad(*args, **kwargs):
        report = fn(*args, **kwargs)
        calls.append(1)
        report.mod_mm += 1e-9 * len(calls)
        return report
    return bad


def _unseeded_codebooks(fn):
    calls = []

    def bad(*args, **kwargs):
        cb, history = fn(*args, **kwargs)
        calls.append(1)
        cb.entries += 1e-12 * len(calls)
        return cb, history
    return bad


@pytest.mark.parametrize("workload, module, attr, fault, check", [
    ("offline", "rvq", "rvq_encode", _corrupt_first_token, "encode_matches_scan"),
    ("offline", "losses", "total_losses", _misweight_l_rec, "l_rec_is_weighted_sum"),
    ("offline", "metrics", "full_report", _drifting_metrics, "recurring_clip_same_report_bytes"),
    ("stream", "streamsim", "step", _nudge_step_motion, "stream_matches_one_shot_decode"),
    ("train", "rvq", "train_codebooks", _unseeded_codebooks, "same_seed_same_codebook_bytes"),
])
def test_checks_count_injected_faults(workload, module, attr, fault, check, monkeypatch, tmp_path, capsys):
    mod = getattr(workloads, module)
    monkeypatch.setattr(mod, attr, fault(getattr(mod, attr)))
    run = workloads.Run(sizes=workloads.SMOKE, seed=5, workdir=tmp_path)
    workloads.measure(workloads.WORKLOADS[workload], run, 0.05, traced=False)
    assert run.failed >= 1
    assert f"CheckFailed: {check}" in capsys.readouterr().err


def test_brute_force_scan_breaks_ties_to_lowest_index():
    entries = np.array([[[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]])
    assert workloads.brute_force_scan(np.zeros((1, 2)), entries).tolist() == [[0]]
