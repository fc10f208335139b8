"""The benchmark's calls into facemotion still work.

perfbench/workloads.py calls the package with the signatures and keywords
it had when the benchmark was written, and that file changes only with the
benchmark. Each workload here runs its set-up, one op and its CLI probes at
SMOKE sizes, untraced, in this process: a removed keyword or a changed
signature shows as a failed op, and every output check must have run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

CHECKS = {
    "offline": {"encode_matches_scan", "tokens_round_trip", "motion_round_trip", "l_rec_is_weighted_sum",
                "report_values_finite", "recurring_clip_same_report_bytes"},
    "stream": {"stream_matches_one_shot_decode", "render_finite"},
    "train": {"heldout_beats_constant_mean", "same_seed_same_codebook_bytes"},
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_set_up_op_and_probes_run_without_a_failed_op(name, tmp_path):
    workload, null = workloads.WORKLOADS[name], workloads.NullTracer()
    run = workloads.Run(sizes=workloads.SMOKE, seed=5, workdir=tmp_path)
    state = workload.setup(run, null)
    run.attempt(workload.op, run, state, 0, null)
    probe_dir = tmp_path / "probe"
    probe_dir.mkdir()
    probes = workload.probes(run, state, probe_dir)
    for argv in probes:
        run.attempt(workloads._probe, run, null, argv)
    assert (run.attempted, run.failed) == (1 + len(probes), 0)
    assert set(run.checks) == CHECKS[name] | {f"cli_{argv[0]}_exit_0" for argv in probes}
