"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion builds a JSON-serializable report from its computation; the
final determinism criterion rebuilds all of them from scratch and compares
the serialized bytes file by file.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from facemotion import losses, metrics, rvq, streamsim, synth
from facemotion.motion_core import FRAME_DIM, MotionSequence


def check(tag, ok, detail):
    print(f"[ACCEPTANCE] {tag} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def serialize(report):
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# criterion builders (pure functions of fixed seeds; reports are deterministic)


def c01_codec_round_trip():
    m = synth.make_motion(synth.SynthConfig(seed=0, duration_frames=250))
    t0 = time.perf_counter()
    cfg = rvq.QuantizerConfig(group_size=5, num_levels=1, codebook_size=50, latent_dim=5 * FRAME_DIM)
    proj = rvq.fit_projections([m], cfg)
    z = rvq.window_encode(m, proj, cfg)
    cb = rvq.Codebook(z.vectors[None, :, :])  # exact residual decomposition
    tokens, norms = rvq.rvq_encode(z, cb, group_size=cfg.group_size)
    out = rvq.window_decode(rvq.rvq_decode(tokens, cb, fps_latent=z.fps_latent), proj, cfg, original_t=250)
    elapsed = time.perf_counter() - t0
    bit_exact = out.params.astype(np.float32).tobytes() == m.params.astype(np.float32).tobytes()
    report = {
        "criterion": 1,
        "bit_exact_f32": bool(bit_exact),
        "frames": len(out),
        "final_residual_norm": float(norms[-1]),
        "token_shape": list(tokens.indices.shape),
    }
    return report, elapsed


def c02_greedy_optimality():
    rng = np.random.Generator(np.random.PCG64(0))
    latents = rng.standard_normal((1000, 8))
    entries = rng.standard_normal((3, 32, 8))
    t0 = time.perf_counter()
    tokens, _ = rvq.rvq_encode(rvq.LatentSequence(latents), rvq.Codebook(entries))
    expected = oracles.nearest_codeword_scan(latents, entries)
    elapsed = time.perf_counter() - t0
    agreement = float(np.mean(tokens.indices == expected))
    return {"criterion": 2, "agreement": agreement, "decisions": int(expected.size)}, elapsed


def c03_training_quality():
    pts = np.random.Generator(np.random.PCG64(0)).standard_normal((100, 4))
    t0 = time.perf_counter()
    cfg = rvq.QuantizerConfig(group_size=5, num_levels=1, codebook_size=4, latent_dim=4, seed=0)
    cb = rvq.train_codebooks(pts, cfg)
    _, best = rvq._nearest_indices(pts, cb.entries[0])
    distortion = float(best.mean())
    oracle_best = oracles.lloyd_best_of(pts, 4, restarts=50, seed=123)
    elapsed = time.perf_counter() - t0
    return {
        "criterion": 3,
        "distortion": distortion,
        "oracle_best_of_50": oracle_best,
        "ratio": distortion / oracle_best,
    }, elapsed


def c04_loss_weight_arithmetic():
    t0 = time.perf_counter()
    l_rec = losses.combine_rec(1.0, 2.0, 3.0, 4.0, 5.0, losses.LossWeights())
    return {"criterion": 4, "l_rec": l_rec}, time.perf_counter() - t0


def c05_commitment_anchor():
    t0 = time.perf_counter()
    z = rvq.LatentSequence(np.array([[1.0, 0.0, 0.0]]))
    q = rvq.LatentSequence(np.zeros((1, 3)))
    codebook_term, commit_term, total = rvq.commitment_loss(z, q, 0.25)
    report = {"criterion": 5, "codebook_term": codebook_term, "commit_term": commit_term, "total": total}
    return report, time.perf_counter() - t0


def c06_metric_identity_suite():
    t0 = time.perf_counter()
    rows = []
    for seed in range(20):
        cfg = synth.SynthConfig(seed=seed, duration_frames=250)
        model = synth.make_model(cfg)
        m = synth.make_motion(cfg)
        rep = metrics.full_report(model, m, m)
        rows.append(
            {
                "seed": seed,
                "mod_mm": rep.mod_mm,
                "temporal_corr": rep.temporal_corr,
                "velocity_corr": rep.velocity_corr,
                "lip_width_corr": rep.lip_width_corr,
                "liveliness_ratio": rep.liveliness_ratio,
                "peak_align_ms": rep.peak_align_ms,
                "undefined": sorted(rep.undefined),
            }
        )
    return {"criterion": 6, "reports": rows}, time.perf_counter() - t0


def c07_peak_alignment_anchor():
    t0 = time.perf_counter()
    gt = np.zeros(80)
    pred = np.zeros(80)
    for p in (10, 50):
        gt[p] = 1.0
    for p in (13, 52):
        pred[p] = 1.0
    value = metrics.peak_align(pred, gt, metrics.MetricsConfig(), 25.0)
    return {"criterion": 7, "peak_align_ms": value}, time.perf_counter() - t0


def c08_hierarchical_ce_anchor():
    t0 = time.perf_counter()
    targets = rvq.TokenSequence(np.zeros((5, 6), dtype=np.int64), group_size=5, num_levels=6, codebook_size=256)
    value = streamsim.hierarchical_ce(np.full((5, 6, 256), 1.0 / 256.0), targets)
    return {
        "criterion": 8,
        "cross_entropy": value,
        "closed_form": 6.0 * math.log(256.0),
        "abs_error": abs(value - 6.0 * math.log(256.0)),
    }, time.perf_counter() - t0


def c09_streaming_offline_equivalence():
    rng = np.random.Generator(np.random.PCG64(0))
    cfg = rvq.QuantizerConfig(group_size=5, num_levels=3, codebook_size=16, latent_dim=12, seed=0)
    proj = rvq.WindowProjection(
        rng.standard_normal((12, cfg.window_dim)) * 0.1,
        rng.standard_normal(12) * 0.1,
        rng.standard_normal((cfg.window_dim, 12)) * 0.1,
        rng.standard_normal(cfg.window_dim) * 0.1,
    )
    cb = rvq.Codebook(rng.standard_normal((3, 16, 12)))
    gt = rvq.TokenSequence(rng.integers(0, 16, size=(50, 3)), group_size=5, num_levels=3, codebook_size=16)
    features = streamsim.AudioFeatureSequence(rng.standard_normal((250, 4)), fps=25.0)
    t0 = time.perf_counter()
    tokens, motion, _ = streamsim.run_stream(
        features, streamsim.PredictorSpec("oracle", gt_tokens=gt), cb, proj, cfg, segment_tokens=5
    )
    offline = rvq.window_decode(rvq.rvq_decode(gt, cb, fps_latent=5.0), proj, cfg, original_t=250)
    elapsed = time.perf_counter() - t0
    return {
        "criterion": 9,
        "segments": 10,
        "tokens_match": bool(np.array_equal(tokens.indices, gt.indices)),
        "bit_identical": motion.params.tobytes() == offline.params.tobytes(),
    }, elapsed


def c10_rtf_anchor():
    t0 = time.perf_counter()
    log = streamsim.StreamEventLog()
    log.append(0.0, "input_end")
    log.append(50.71, "first_audio_token")
    log.append(535.53, "first_motion_frame")
    log.append(7030.0, "stream_done", "content_ms=10000.0")
    report = streamsim.latency_report(log)
    return {
        "criterion": 10,
        "rtf": report.rtf,
        "ttft_ms": report.ttft_ms,
        "ttfa_ms": report.ttfa_ms,
    }, time.perf_counter() - t0


def c11_trained_codec_compression():
    corpus = [synth.make_motion(synth.SynthConfig(seed=0, duration_frames=2000))]
    held = synth.make_motion(synth.SynthConfig(seed=1, duration_frames=500))
    t0 = time.perf_counter()
    cfg = rvq.QuantizerConfig()  # G=5, N_q=6, K=256, d_z=256, gamma=0.25
    proj, cb = rvq.fit_codec(corpus, cfg)
    z = rvq.window_encode(held, proj, cfg)
    tokens, _ = rvq.rvq_encode(z, cb, group_size=cfg.group_size)
    recon = rvq.window_decode(rvq.rvq_decode(tokens, cb, fps_latent=z.fps_latent), proj, cfg, original_t=len(held))
    elapsed = time.perf_counter() - t0
    mse = float(np.mean((recon.params - held.params) ** 2))
    baseline = float(np.mean((held.params - held.params.mean(axis=0)) ** 2))
    return {
        "criterion": 11,
        "codec_mse": mse,
        "constant_mean_mse": baseline,
        "ratio": mse / baseline,
    }, elapsed


BUILDERS = {
    1: c01_codec_round_trip,
    2: c02_greedy_optimality,
    3: c03_training_quality,
    4: c04_loss_weight_arithmetic,
    5: c05_commitment_anchor,
    6: c06_metric_identity_suite,
    7: c07_peak_alignment_anchor,
    8: c08_hierarchical_ce_anchor,
    9: c09_streaming_offline_equivalence,
    10: c10_rtf_anchor,
    11: c11_trained_codec_compression,
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def first_run(run_dir):
    """First full pass over criteria 1-11; reports written to disk."""
    out = {}
    for n, builder in BUILDERS.items():
        report, elapsed = builder()
        path = run_dir / f"run1_c{n:02d}.json"
        path.write_bytes(serialize(report))
        out[n] = (report, elapsed, path)
    return out


def test_c01_codec_round_trip_exactness(first_run):
    report, elapsed, _ = first_run[1]
    check(
        "C01 codec round-trip exactness",
        report["bit_exact_f32"] and elapsed < 1.0,
        f"bit_exact={report['bit_exact_f32']} frames={report['frames']} elapsed={elapsed:.3f}s (<1s)",
    )


def test_c02_greedy_optimality_oracle(first_run):
    report, elapsed, _ = first_run[2]
    check(
        "C02 greedy-optimality oracle",
        report["agreement"] == 1.0 and elapsed < 5.0,
        f"agreement={report['agreement']:.6f} over {report['decisions']} decisions elapsed={elapsed:.3f}s (<5s)",
    )


def test_c03_codebook_training_quality(first_run):
    report, elapsed, _ = first_run[3]
    check(
        "C03 codebook training quality",
        report["distortion"] <= 1.05 * report["oracle_best_of_50"] and elapsed < 10.0,
        f"distortion={report['distortion']:.6f} <= 1.05*{report['oracle_best_of_50']:.6f} "
        f"(ratio {report['ratio']:.4f}) elapsed={elapsed:.3f}s (<10s)",
    )


def test_c04_loss_weight_arithmetic(first_run):
    report, _, _ = first_run[4]
    check("C04 loss weight arithmetic", report["l_rec"] == 500901.0, f"l_rec={report['l_rec']!r} == 500901")


def test_c05_commitment_loss_anchor(first_run):
    report, _, _ = first_run[5]
    ok = report["codebook_term"] == 1.0 and report["commit_term"] == 0.25 and report["total"] == 1.25
    check("C05 commitment loss anchor", ok, f"(codebook, commit, total)="
          f"({report['codebook_term']}, {report['commit_term']}, {report['total']}) == (1.0, 0.25, 1.25)")


def test_c06_metric_identity_suite(first_run):
    report, elapsed, _ = first_run[6]
    problems = []
    for row in report["reports"]:
        if row["mod_mm"] != 0.0:
            problems.append(f"seed {row['seed']}: MOD {row['mod_mm']}")
        for key in ("temporal_corr", "velocity_corr", "lip_width_corr"):
            if row[key] is None or abs(row[key] - 1.0) > 1e-9:
                problems.append(f"seed {row['seed']}: {key}={row[key]}")
        if not (1.0 - 1e-3 <= row["liveliness_ratio"] <= 1.0):
            problems.append(f"seed {row['seed']}: liveliness {row['liveliness_ratio']}")
        if row["peak_align_ms"] != 0.0:
            problems.append(f"seed {row['seed']}: peak_align {row['peak_align_ms']}")
    check(
        "C06 metric identity suite",
        not problems,
        f"20 seeds, MOD=0, corr=1+-1e-9, liveliness in [1-1e-3,1], peak_align=0 "
        f"elapsed={elapsed:.2f}s" + ("; " + "; ".join(problems) if problems else ""),
    )


def test_c07_peak_alignment_anchor(first_run):
    report, _, _ = first_run[7]
    check("C07 peak-alignment anchor", report["peak_align_ms"] == 100.0,
          f"median offset {report['peak_align_ms']!r} ms == 100.0 ms")


def test_c08_hierarchical_ce_anchor(first_run):
    report, _, _ = first_run[8]
    check("C08 hierarchical CE anchor", report["abs_error"] <= 1e-6,
          f"CE={report['cross_entropy']:.9f} vs 6*ln(256)={report['closed_form']:.9f} "
          f"(|err|={report['abs_error']:.2e} <= 1e-6)")


def test_c09_streaming_offline_equivalence(first_run):
    report, elapsed, _ = first_run[9]
    ok = report["bit_identical"] and report["tokens_match"] and elapsed < 1.0
    check("C09 streaming/offline equivalence", ok,
          f"10-segment oracle stream bit-identical={report['bit_identical']} elapsed={elapsed:.3f}s (<1s)")


def test_c10_rtf_arithmetic_anchor(first_run):
    report, _, _ = first_run[10]
    check("C10 RTF arithmetic anchor", report["rtf"] == 0.703,
          f"RTF={report['rtf']!r} == 0.703 for 7.03s generation of 10.0s content")


def test_c11_trained_codec_compression(first_run):
    report, elapsed, _ = first_run[11]
    ok = report["ratio"] <= 0.10 and elapsed < 60.0
    check("C11 trained-codec compression quality", ok,
          f"codec MSE {report['codec_mse']:.3e} / constant-mean MSE {report['constant_mean_mse']:.3e} "
          f"= {report['ratio']:.4f} <= 0.10 elapsed={elapsed:.1f}s (<60s)")


def test_c12_determinism_byte_identical_reports(first_run, run_dir):
    mismatches = []
    for n, builder in BUILDERS.items():
        report, _ = builder()
        path = run_dir / f"run2_c{n:02d}.json"
        path.write_bytes(serialize(report))
        if path.read_bytes() != first_run[n][2].read_bytes():
            mismatches.append(f"C{n:02d}")
    check("C12 determinism", not mismatches,
          "criteria 1-11 re-run produced byte-identical report files"
          + (f"; mismatches: {mismatches}" if mismatches else ""))
