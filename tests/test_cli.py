import json
import math

import numpy as np
import pytest

import facemotion
from facemotion import cli, fileio, rvq, streamsim
from facemotion.motion_core import MotionSequence


def run(*argv):
    return cli.main([str(a) for a in argv] + ["--quiet"])


def gen(tmp_path, name="data", frames=20, seed=0, vertices=24):
    out = tmp_path / name
    assert run("gen-data", "--out", out, "--seed", seed, "--frames", frames, "--vertices", vertices) == 0
    return out


def fit(tmp_path, motion, name="codec", **flags):
    out = tmp_path / name
    argv = ["fit-codec", "--out", out, "--motion", motion]
    defaults = {"levels": 1, "codebook_size": 16, "latent_dim": 290, "seed": 0}
    defaults.update(flags)
    for key, value in defaults.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert run(*argv) == 0
    return out / "codebook.a2cb"


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_model_motion_manifest(tmp_path):
    out = gen(tmp_path)
    assert (out / "model.json").exists()
    assert (out / "motion.a2mo").exists()
    manifest = json.loads((out / "gen-data.manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["config"]["synth"]["duration_frames"] == 20
    assert manifest["seed"] == 0


def test_gen_data_rerun_is_byte_identical(tmp_path):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    for name in ("model.json", "motion.a2mo"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_data_zero_frames_is_refused_by_the_count_rule(tmp_path, capsys):
    out = tmp_path / "bad"
    assert run("gen-data", "--out", out, "--frames", 0) == 4
    assert "duration_frames must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_vertex_minimum(tmp_path, capsys):
    assert run("gen-data", "--out", tmp_path / "16", "--frames", 5, "--vertices", 16) == 4
    assert "num_vertices must be >= 17, got 16" in capsys.readouterr().err
    assert not (tmp_path / "16").exists()
    out = tmp_path / "17"
    assert run("gen-data", "--out", out, "--frames", 5, "--vertices", 17) == 0
    assert fileio.load_model(out / "model.json").num_vertices == 17


@pytest.mark.parametrize("fps", ["1e39", "1e-320"])  # beyond f32 range; 0 as f32
def test_gen_data_rejects_fps_that_is_not_positive_and_finite_as_f32(tmp_path, capsys, fps):
    out = tmp_path / "data"
    assert run("gen-data", "--out", out, "--frames", 5, "--vertices", 17, "--fps", fps) == 4
    assert "fps must be positive and finite at f32 precision" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# fit-codec


@pytest.mark.parametrize("gamma", ["1e39", "1e-50"])  # beyond f32 range; 0 as f32
def test_fit_codec_rejects_gamma_the_codebook_file_cannot_hold(tmp_path, capsys, gamma):
    data = gen(tmp_path)
    out = tmp_path / "codec"
    assert run("fit-codec", "--out", out, "--motion", data / "motion.a2mo", "--gamma", gamma) == 4
    assert "gamma must be positive and finite at f32 precision" in capsys.readouterr().err
    assert not out.exists()


def test_fit_codec_echoes_a_gamma_the_codebook_file_holds(tmp_path):
    cb_path = fit(tmp_path, gen(tmp_path) / "motion.a2mo", gamma=0.1)
    manifest = json.loads((cb_path.parent / "fit-codec.manifest.json").read_text())
    assert manifest["config"]["quantizer"]["gamma"] == 0.1
    assert fileio.load_codebook(cb_path)[2].gamma == np.float32(0.1)


def test_fit_codec_constant_sequence_reports_zero_error(tmp_path):
    out = gen(tmp_path)
    m = fileio.load_motion(out / "motion.a2mo")
    m.params[:] = m.params[0]
    fileio.save_motion(out / "constant.a2mo", m)
    cb_path = fit(tmp_path, out / "constant.a2mo", codebook_size=1, latent_dim=4)
    manifest = json.loads((tmp_path / "codec" / "fit-codec.manifest.json").read_text())
    assert manifest["results"]["residual_norms"][-1] <= 1e-9
    assert cb_path.exists()


def test_fit_codec_defaults_echo_paper_configuration(tmp_path):
    out = gen(tmp_path, frames=10)
    res = tmp_path / "defcodec"
    assert run("fit-codec", "--out", res, "--motion", out / "motion.a2mo", "--levels", 2, "--codebook-size", 8) == 0
    manifest = json.loads((res / "fit-codec.manifest.json").read_text())
    q = manifest["config"]["quantizer"]
    assert q["group_size"] == 5
    assert q["gamma"] == 0.25
    assert q["latent_dim"] == 256
    assert manifest["results"]["lambda_vq"] == 1.0
    # unflagged values fall back to the built-in defaults (N_q=6, K=256)
    default_manifest_cfg = rvq.QuantizerConfig()
    assert default_manifest_cfg.num_levels == 6
    assert default_manifest_cfg.codebook_size == 256


def test_fit_codec_rerun_is_byte_identical(tmp_path):
    out = gen(tmp_path)
    a = fit(tmp_path, out / "motion.a2mo", "c1")
    b = fit(tmp_path, out / "motion.a2mo", "c2")
    assert a.read_bytes() == b.read_bytes()
    results = [json.loads((p.parent / "fit-codec.manifest.json").read_text())["results"] for p in (a, b)]
    assert json.dumps(results[0]) == json.dumps(results[1])


def test_fit_codec_residual_norms_equal_encode_of_the_saved_file(tmp_path):
    out = gen(tmp_path, frames=60)
    cb_path = fit(tmp_path, out / "motion.a2mo", levels=3, codebook_size=8, latent_dim=16)
    enc = tmp_path / "enc"
    assert run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo") == 0
    fitted = json.loads((cb_path.parent / "fit-codec.manifest.json").read_text())["results"]
    encoded = json.loads((enc / "encode.manifest.json").read_text())["results"]
    assert fitted["residual_norms"] == encoded["residual_norms"]  # floats survive JSON bit for bit


def test_fit_codec_manifest_reports_each_levels_fit(tmp_path):
    out = gen(tmp_path, frames=60)
    cb_path = fit(tmp_path, out / "motion.a2mo", levels=3, codebook_size=8, latent_dim=16)
    levels = json.loads((cb_path.parent / "fit-codec.manifest.json").read_text())["results"]["levels"]
    cfg = rvq.QuantizerConfig(num_levels=3, codebook_size=8, latent_dim=16, seed=0)
    _, cb, history = rvq.fit_codec([fileio.load_motion(out / "motion.a2mo")], cfg, return_history=True)
    saved, _, _ = fileio.load_codebook(cb_path)
    assert levels == [
        {"lloyd_iterations": len(h) - 1, "stop": rvq.lloyd_stop(h),
         "distinct_codewords": len(np.unique(entries, axis=0))}
        for h, entries in zip(history, saved.entries)
    ]
    assert all(level["stop"] in ("converged", "cap") and level["distinct_codewords"] <= 8 for level in levels)


def test_ema_decay_is_gone(tmp_path, capsys):
    out = gen(tmp_path, frames=10)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit-codec", "--motion", str(out / "motion.a2mo"), "--ema-decay", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ema-decay 0.5" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quantizer": {"ema_decay": 0.5}}))
    assert run("fit-codec", "--out", tmp_path / "codec", "--motion", out / "motion.a2mo", "--config", cfg) == 3
    assert "unknown key 'ema_decay' in config section 'quantizer'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_decode_round_trip_reproduces_input(tmp_path):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo")
    enc = tmp_path / "enc"
    assert run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo") == 0
    tokens = fileio.load_tokens(enc / "tokens.a2tk", group_size=5)
    assert len(tokens) == 2
    dec = tmp_path / "dec"
    assert run("decode", "--out", dec, "--codebook", cb_path, "--tokens", enc / "tokens.a2tk",
               "--frames", 10, "--fps", 25.0) == 0
    assert (dec / "decoded.a2mo").read_bytes() == (out / "motion.a2mo").read_bytes()


def test_encode_matches_library_oracle(tmp_path):
    out = gen(tmp_path, frames=15)
    cb_path = fit(tmp_path, out / "motion.a2mo", codebook_size=8)
    enc = tmp_path / "enc"
    assert run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo") == 0
    cb, proj, qcfg = fileio.load_codebook(cb_path)
    m = fileio.load_motion(out / "motion.a2mo")
    z = rvq.window_encode(m, proj, qcfg)
    expected, _ = rvq.rvq_encode(z, cb, group_size=qcfg.group_size)
    got = fileio.load_tokens(enc / "tokens.a2tk", group_size=qcfg.group_size)
    np.testing.assert_array_equal(got.indices, expected.indices)


def test_encode_corrupt_magic_exits_3(tmp_path):
    out = gen(tmp_path, frames=10)
    bad = tmp_path / "bad.a2cb"
    bad.write_bytes(b"JUNKJUNKJUNK")
    assert run("encode", "--out", tmp_path, "--codebook", bad, "--motion", out / "motion.a2mo") == 3


@pytest.mark.parametrize("fps", ["1e39", "1e-320"])  # beyond f32 range; 0 as f32
def test_decode_rejects_fps_that_is_not_positive_and_finite_as_f32(tmp_path, capsys, files, fps):
    out = tmp_path / "dec"
    assert run("decode", "--out", out, "--codebook", files["codebook"], "--tokens", files["tokens"], "--fps", fps) == 4
    assert "fps must be positive and finite at f32 precision" in capsys.readouterr().err
    assert not (out / "decoded.a2mo").exists()


def test_missing_input_file_exits_5(tmp_path, capsys, files):
    missing = tmp_path / "missing.a2cb"
    assert run("encode", "--out", tmp_path / "enc", "--codebook", missing, "--motion", files["motion"]) == 5
    assert f"facemotion encode: I/O error: [Errno 2] No such file or directory: '{missing}'" in capsys.readouterr().err


def test_out_naming_an_existing_file_exits_5(tmp_path, capsys, files):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert run("encode", "--out", taken, "--codebook", files["codebook"], "--motion", files["motion"]) == 5
    assert "facemotion encode: I/O error: [Errno 17] File exists" in capsys.readouterr().err
    assert taken.read_text() == "not a directory"


def test_decode_excess_frames_exits_4(tmp_path):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo")
    enc = tmp_path / "enc"
    run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo")
    assert run("decode", "--out", tmp_path / "d", "--codebook", cb_path,
               "--tokens", enc / "tokens.a2tk", "--frames", 999) == 4


@pytest.mark.parametrize("frames", [0, -1])
def test_decode_frames_below_one_is_usage_error(tmp_path, capsys, frames):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo")
    enc = tmp_path / "enc"
    run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo")
    res = tmp_path / "d"
    assert run("decode", "--out", res, "--codebook", cb_path, "--tokens", enc / "tokens.a2tk", "--frames", frames) == 2
    assert f"--frames must be >= 1, got {frames}" in capsys.readouterr().err
    assert not res.exists()


# ---------------------------------------------------------------------------
# eval-recon


def test_eval_recon_identical_inputs_all_zero(tmp_path):
    out = gen(tmp_path)
    res = tmp_path / "recon"
    assert run("eval-recon", "--out", res, "--model", out / "model.json",
               "--gt", out / "motion.a2mo", "--pred", out / "motion.a2mo") == 0
    doc = fileio.read_json(res / "loss_report.json")
    assert doc["values"]["l_rec"] == 0.0
    assert doc["values"]["l_vqvae"] == 0.0
    assert doc["weights"]["w_geo"] == 1e5


def test_eval_recon_includes_quantizer_diagnostics(tmp_path):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo", codebook_size=2, latent_dim=8)
    res = tmp_path / "recon"
    assert run("eval-recon", "--out", res, "--model", out / "model.json",
               "--gt", out / "motion.a2mo", "--pred", out / "motion.a2mo",
               "--codebook", cb_path) == 0
    doc = fileio.read_json(res / "loss_report.json")
    assert doc["values"]["codebook_term"] > 0.0
    assert doc["values"]["commit_term"] == pytest.approx(0.25 * doc["values"]["codebook_term"], rel=1e-12)
    assert doc["values"]["l_vqvae"] == pytest.approx(
        doc["values"]["l_rec"] + doc["values"]["codebook_term"] + doc["values"]["commit_term"], rel=1e-12
    )


def test_fit_codec_and_eval_recon_use_the_codebook_gamma(tmp_path):
    out = gen(tmp_path, frames=10)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quantizer": {"gamma": 0.5}}))
    cb_path = fit(tmp_path, out / "motion.a2mo", codebook_size=2, latent_dim=8, config=cfg)
    fitted = json.loads((cb_path.parent / "fit-codec.manifest.json").read_text())["results"]
    res = tmp_path / "recon"
    assert run("eval-recon", "--out", res, "--config", cfg, "--model", out / "model.json",
               "--gt", out / "motion.a2mo", "--pred", out / "motion.a2mo", "--codebook", cb_path) == 0
    doc = fileio.read_json(res / "loss_report.json")
    for values in (fitted, doc["values"]):
        assert values["codebook_term"] > 0.0
        assert values["commit_term"] == 0.5 * values["codebook_term"]
    assert "gamma" not in doc["weights"]


def test_eval_recon_has_no_gamma_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval-recon", "--model", "m", "--gt", "g", "--pred", "p", "--gamma", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gamma 0.5" in capsys.readouterr().err


def test_eval_recon_length_mismatch_exits_4(tmp_path):
    out = gen(tmp_path, frames=20)
    short = gen(tmp_path, "short", frames=10)
    assert run("eval-recon", "--out", tmp_path / "r", "--model", out / "model.json",
               "--gt", out / "motion.a2mo", "--pred", short / "motion.a2mo") == 4


# ---------------------------------------------------------------------------
# eval-metrics / compare


def test_eval_metrics_identity(tmp_path):
    out = gen(tmp_path, frames=50)
    res = tmp_path / "metrics"
    assert run("eval-metrics", "--out", res, "--model", out / "model.json",
               "--gt", out / "motion.a2mo", "--pred", out / "motion.a2mo") == 0
    doc = fileio.read_json(res / "metrics_report.json")
    assert doc["values"]["mod_mm"] == 0.0
    assert doc["values"]["temporal_corr"] == pytest.approx(1.0, abs=1e-9)
    assert doc["values"]["peak_align_ms"] == 0.0


@pytest.mark.parametrize("command, pair", [
    ("eval-recon", ("--gt", "--pred")),
    ("eval-metrics", ("--gt", "--pred")),
    ("compare", ("--reference", "--candidate")),
], ids=["eval-recon", "eval-metrics", "compare"])
def test_pair_with_different_fps_exits_4(tmp_path, capsys, command, pair):
    out = gen(tmp_path, frames=20)
    m = fileio.load_motion(out / "motion.a2mo")
    fast = tmp_path / "fast.a2mo"
    fileio.save_motion(fast, MotionSequence(m.params, fps=30.0))
    res = tmp_path / "res"
    assert run(command, "--out", res, "--model", out / "model.json",
               pair[0], out / "motion.a2mo", pair[1], fast) == 4
    assert "sequence fps differ" in capsys.readouterr().err
    assert not (res / f"{command}.manifest.json").exists()


def test_compare_reference_copy_ranks_first(tmp_path):
    out = gen(tmp_path, frames=50)
    other = gen(tmp_path, "other", frames=50, seed=1)
    res = tmp_path / "cmp"
    assert run("compare", "--out", res, "--model", out / "model.json",
               "--reference", out / "motion.a2mo",
               "--candidate", out / "motion.a2mo",
               "--candidate", other / "motion.a2mo") == 0
    doc = json.loads((res / "comparison.json").read_text())
    self_name = "motion"
    for metric_name, ranking in doc["rankings"].items():
        if ranking:
            assert ranking[0] == self_name, f"{metric_name}: {ranking}"
    assert set(doc["candidates"]) == {"motion", "motion_1"}


def test_compare_three_way_matches_library_reports(tmp_path):
    from facemotion import metrics

    ref_dir = gen(tmp_path, frames=60, seed=0)
    cand1 = gen(tmp_path, "cand1", frames=60, seed=1)
    cand2 = gen(tmp_path, "cand2", frames=60, seed=2)
    res = tmp_path / "cmp3"
    assert run("compare", "--out", res, "--model", ref_dir / "model.json",
               "--reference", ref_dir / "motion.a2mo",
               "--candidate", ref_dir / "motion.a2mo",
               "--candidate", cand1 / "motion.a2mo",
               "--candidate", cand2 / "motion.a2mo") == 0
    doc = json.loads((res / "comparison.json").read_text())
    assert len(doc["candidates"]) == 3
    # every tabulated value composes from the library metric ops
    model = fileio.load_model(ref_dir / "model.json")
    reference = fileio.load_motion(ref_dir / "motion.a2mo")
    assert doc["reference_ufd"] == metrics.full_report(model, reference, reference).ufd
    for name, path in (("motion", ref_dir), ("motion_1", cand1), ("motion_2", cand2)):
        expected = metrics.full_report(model, fileio.load_motion(path / "motion.a2mo"), reference)
        got = doc["candidates"][name]
        for key, value in expected.to_dict()["values"].items():
            assert got[key] == value, (name, key)
    for ranking in doc["rankings"].values():
        if ranking:
            assert ranking[0] == "motion"  # the reference copy wins every metric


def test_compare_surfaces_undefined_flags_without_failing(tmp_path):
    out = gen(tmp_path, frames=50)
    static_dir = tmp_path / "static"
    m = fileio.load_motion(out / "motion.a2mo")
    m.params[:] = 0.0
    static_dir.mkdir()
    fileio.save_motion(static_dir / "static.a2mo", m)
    res = tmp_path / "cmp"
    assert run("compare", "--out", res, "--model", out / "model.json",
               "--reference", out / "motion.a2mo",
               "--candidate", static_dir / "static.a2mo") == 0
    doc = json.loads((res / "comparison.json").read_text())
    assert doc["undefined"]["static"]["temporal_corr"] == "zero variance"


def test_compare_makes_colliding_candidate_names_unique(tmp_path):
    out = gen(tmp_path, frames=50)
    argv = []
    for folder, stem in (("c1", "x_2"), ("c2", "x"), ("c3", "x")):
        (tmp_path / folder).mkdir()
        path = tmp_path / folder / f"{stem}.a2mo"
        path.write_bytes((out / "motion.a2mo").read_bytes())
        argv += ["--candidate", path]
    res = tmp_path / "cmp"
    assert run("compare", "--out", res, "--model", out / "model.json", "--reference", out / "motion.a2mo", *argv) == 0
    doc = json.loads((res / "comparison.json").read_text())
    assert sorted(doc["candidates"]) == ["x", "x_2", "x_2_2"]
    assert sorted(p.name for p in res.glob("metrics_*.json")) == ["metrics_x.json", "metrics_x_2.json",
                                                                 "metrics_x_2_2.json"]
    for ranking in doc["rankings"].values():  # every metric ties, so each ranking keeps the command-line order
        assert ranking == ["x_2", "x", "x_2_2"]


def test_compare_candidate_named_comparison_keeps_both_outputs(tmp_path):
    out = gen(tmp_path, frames=50)
    (tmp_path / "c").mkdir()
    candidate = tmp_path / "c" / "comparison.a2mo"
    candidate.write_bytes((out / "motion.a2mo").read_bytes())
    res = tmp_path / "cmp"
    assert run("compare", "--out", res, "--model", out / "model.json", "--reference", out / "motion.a2mo",
               "--candidate", candidate) == 0
    doc = json.loads((res / "comparison.json").read_text())
    assert list(doc["candidates"]) == ["comparison_0"]
    manifest = json.loads((res / "compare.manifest.json").read_text())
    assert manifest["outputs"] == {"comparison": str(res / "comparison.json"),
                                   "comparison_0": str(res / "metrics_comparison_0.json")}


# ---------------------------------------------------------------------------
# simulate-stream


def make_features(tmp_path, t=50, d=6):
    rng = np.random.Generator(np.random.PCG64(11))
    path = tmp_path / "features.a2fe"
    fileio.save_features(path, streamsim.AudioFeatureSequence(rng.standard_normal((t, d)), fps=25.0))
    return path


def test_simulate_stream_hold_last(tmp_path):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo")
    feats = make_features(tmp_path)
    res = tmp_path / "stream"
    assert run("simulate-stream", "--out", res, "--features", feats, "--codebook", cb_path,
               "--predictor", "hold_last", "--segment-tokens", 2) == 0
    for name in ("stream_tokens.a2tk", "stream_motion.a2mo", "events.log", "latency_report.json"):
        assert (res / name).exists()
    doc = fileio.read_json(res / "latency_report.json")
    assert doc["content_duration_ms"] == 2000.0
    assert doc["ttfa_ms"] >= doc["ttft_ms"] >= 0
    events = [line.split(maxsplit=2) for line in (res / "events.log").read_text().splitlines()]
    times = [float(event[0]) for event in events]
    assert times == sorted(times) and all(math.isfinite(t) for t in times)
    assert all(event[1] in streamsim.EVENT_KINDS for event in events)
    assert events[0][1] == "input_end"
    assert events[-1][1] == "stream_done"


def test_simulate_stream_oracle_matches_offline_decode(tmp_path):
    out = gen(tmp_path, frames=50)
    cb_path = fit(tmp_path, out / "motion.a2mo", codebook_size=8)
    enc = tmp_path / "enc"
    assert run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo") == 0
    feats = make_features(tmp_path, t=50)
    res = tmp_path / "stream"
    assert run("simulate-stream", "--out", res, "--features", feats, "--codebook", cb_path,
               "--predictor", "oracle", "--gt-tokens", enc / "tokens.a2tk", "--segment-tokens", 2) == 0
    dec = tmp_path / "dec"
    assert run("decode", "--out", dec, "--codebook", cb_path, "--tokens", enc / "tokens.a2tk",
               "--frames", 50, "--fps", 25.0) == 0
    assert (res / "stream_motion.a2mo").read_bytes() == (dec / "decoded.a2mo").read_bytes()


def test_simulate_stream_oracle_without_tokens_is_usage_error(tmp_path):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo")
    feats = make_features(tmp_path)
    assert run("simulate-stream", "--out", tmp_path / "s", "--features", feats,
               "--codebook", cb_path, "--predictor", "oracle") == 2


def test_simulate_stream_retrieval_via_files(tmp_path):
    out = gen(tmp_path, frames=50)
    cb_path = fit(tmp_path, out / "motion.a2mo", codebook_size=8)
    enc = tmp_path / "enc"
    run("encode", "--out", enc, "--codebook", cb_path, "--motion", out / "motion.a2mo")
    feats = make_features(tmp_path, t=50)
    res = tmp_path / "stream"
    assert run("simulate-stream", "--out", res, "--features", feats, "--codebook", cb_path,
               "--predictor", "retrieval", "--corpus-features", feats,
               "--corpus-tokens", enc / "tokens.a2tk", "--segment-tokens", 2) == 0
    # retrieval against its own aligned corpus replays the corpus tokens
    got = fileio.load_tokens(res / "stream_tokens.a2tk", group_size=5)
    expected = fileio.load_tokens(enc / "tokens.a2tk", group_size=5)
    np.testing.assert_array_equal(got.indices, expected.indices)


def test_simulate_stream_rerun_is_byte_identical(tmp_path):
    out = gen(tmp_path, frames=10)
    cb_path = fit(tmp_path, out / "motion.a2mo")
    feats = make_features(tmp_path)
    argv = ("simulate-stream", "--out", tmp_path / "s", "--features", feats,
            "--codebook", cb_path, "--predictor", "uniform", "--seed", 3,
            "--segment-tokens", 2)
    names = ("stream_tokens.a2tk", "stream_motion.a2mo", "events.log",
             "latency_report.json", "simulate-stream.manifest.json")
    assert run(*argv) == 0
    first = {name: (tmp_path / "s" / name).read_bytes() for name in names}
    assert run(*argv) == 0
    for name in names:
        assert (tmp_path / "s" / name).read_bytes() == first[name], name


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    data = gen(root, frames=50)
    cb_path = fit(root, data / "motion.a2mo", codebook_size=8)
    assert run("encode", "--out", root / "enc", "--codebook", cb_path, "--motion", data / "motion.a2mo") == 0
    return {"model": data / "model.json", "motion": data / "motion.a2mo", "codebook": cb_path,
            "tokens": root / "enc" / "tokens.a2tk", "features": make_features(root, t=50)}


@pytest.mark.parametrize("predictor, extra, message", [
    ("hold_last", ["--gt-tokens", "tokens"], "--gt-tokens is read only by the oracle predictor"),
    ("uniform", ["--corpus-features", "features"], "--corpus-features is read only by the retrieval predictor"),
    ("hold_last", ["--corpus-features", "features", "--corpus-tokens", "tokens"],
     "--corpus-features is read only by the retrieval predictor"),
    ("retrieval", ["--corpus-features", "features", "--corpus-tokens", "tokens", "--gt-tokens", "tokens"],
     "--gt-tokens is read only by the oracle predictor"),
    ("oracle", ["--gt-tokens", "tokens", "--corpus-tokens", "tokens"],
     "--corpus-tokens is read only by the retrieval predictor"),
    ("oracle", [], "simulate-stream: --gt-tokens is required for the oracle predictor"),
    ("retrieval", ["--corpus-features", "features"],
     "simulate-stream: --corpus-features and --corpus-tokens are required for retrieval"),
], ids=["hold_last-gt", "uniform-corpus", "hold_last-corpus", "retrieval-gt", "oracle-corpus", "oracle-missing",
        "retrieval-missing"])
def test_simulate_stream_takes_exactly_the_inputs_its_predictor_reads(tmp_path, capsys, files, predictor, extra,
                                                                       message):
    out = tmp_path / "s"
    assert run("simulate-stream", "--out", out, "--features", files["features"], "--codebook", files["codebook"],
               "--predictor", predictor, *[files.get(arg, arg) for arg in extra]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("predictor", ["oracle", "retrieval"])
def test_simulate_stream_refuses_tokens_that_do_not_fit_the_codec(tmp_path, capsys, predictor):
    data = gen(tmp_path, frames=50)
    cb_path = fit(tmp_path, data / "motion.a2mo")  # N_q = 1, K = 16
    tokens = tmp_path / "k64.a2tk"
    # every index is below 16, so only the header's K = 64 tells the grid from one of this codec
    fileio.save_tokens(tokens, rvq.TokenSequence(np.arange(10)[:, None], group_size=5, num_levels=1,
                                                 codebook_size=64))
    feats = make_features(tmp_path, t=50)
    flags = (["--gt-tokens", tokens] if predictor == "oracle"
             else ["--corpus-features", feats, "--corpus-tokens", tokens])
    out = tmp_path / "s"
    assert run("simulate-stream", "--out", out, "--features", feats, "--codebook", cb_path,
               "--predictor", predictor, *flags) == 4
    assert "simulate-stream: token grid does not match codebook configuration" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_stream_rejects_features_without_frames(tmp_path, capsys, files):
    empty = tmp_path / "empty.a2fe"
    fileio.save_features(empty, streamsim.AudioFeatureSequence(np.zeros((0, 6))))
    out = tmp_path / "s"
    assert run("simulate-stream", "--out", out, "--features", empty, "--codebook", files["codebook"]) == 4
    assert "simulate-stream: features have no frames" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_stream_manifest_records_the_seed_only_where_it_is_read(tmp_path, files):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"stream": {"seed": 7}}))
    base = ["simulate-stream", "--features", files["features"], "--codebook", files["codebook"], "--config", config]
    for predictor, seed in (("uniform", 7), ("hold_last", None)):
        out = tmp_path / predictor
        assert run(*base, "--predictor", predictor, "--out", out) == 0
        assert json.loads((out / "simulate-stream.manifest.json").read_text())["seed"] == seed


def test_simulate_stream_rejects_negative_delay_naming_it(tmp_path, capsys, files):
    assert run("simulate-stream", "--out", tmp_path / "s", "--features", files["features"],
               "--codebook", files["codebook"], "--segment-ms", -5) == 4
    assert "segment_ms must be finite and >= 0, got -5.0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# manifests


# (argv with file names, manifest inputs as name -> file name)
MANIFEST_INPUTS = [
    (["gen-data", "--frames", 5, "--vertices", 17], {}),
    (["fit-codec", "--motion", "motion", "--motion", "motion", "--levels", 1, "--codebook-size", 4,
      "--latent-dim", 8], {"motion_0": "motion", "motion_1": "motion"}),
    (["encode", "--codebook", "codebook", "--motion", "motion"], {"codebook": "codebook", "motion": "motion"}),
    (["decode", "--codebook", "codebook", "--tokens", "tokens"], {"codebook": "codebook", "tokens": "tokens"}),
    (["eval-recon", "--model", "model", "--gt", "motion", "--pred", "motion"],
     {"model": "model", "gt": "motion", "pred": "motion"}),
    (["eval-recon", "--model", "model", "--gt", "motion", "--pred", "motion", "--codebook", "codebook"],
     {"model": "model", "gt": "motion", "pred": "motion", "codebook": "codebook"}),
    (["eval-metrics", "--model", "model", "--gt", "motion", "--pred", "motion"],
     {"model": "model", "gt": "motion", "pred": "motion"}),
    (["compare", "--model", "model", "--reference", "motion", "--candidate", "motion", "--candidate", "motion"],
     {"model": "model", "reference": "motion", "candidate_0": "motion", "candidate_1": "motion"}),
    (["simulate-stream", "--features", "features", "--codebook", "codebook"],
     {"features": "features", "codebook": "codebook"}),
    (["simulate-stream", "--features", "features", "--codebook", "codebook", "--predictor", "uniform"],
     {"features": "features", "codebook": "codebook"}),
    (["simulate-stream", "--features", "features", "--codebook", "codebook", "--predictor", "oracle",
      "--gt-tokens", "tokens"], {"features": "features", "codebook": "codebook", "gt_tokens": "tokens"}),
    (["simulate-stream", "--features", "features", "--codebook", "codebook", "--predictor", "retrieval",
      "--corpus-features", "features", "--corpus-tokens", "tokens"],
     {"features": "features", "codebook": "codebook", "corpus_features": "features", "corpus_tokens": "tokens"}),
]


@pytest.mark.parametrize("argv, inputs", MANIFEST_INPUTS, ids=[
    "gen-data", "fit-codec", "encode", "decode", "eval-recon", "eval-recon-codebook", "eval-metrics", "compare",
    "stream-hold_last", "stream-uniform", "stream-oracle", "stream-retrieval",
])
def test_manifest_names_the_command_and_the_input_files_given(tmp_path, files, argv, inputs):
    out = tmp_path / "out"
    assert run(*[files.get(arg, arg) for arg in argv], "--out", out) == 0
    manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
    assert manifest["command"] == argv[0]
    assert manifest["inputs"] == {name: str(files[file]) for name, file in inputs.items()}


MANIFEST_KEYS = {"manifest", "tool_version", "command", "seed", "inputs", "outputs", "config"}


@pytest.mark.parametrize("argv, keys", [
    (["gen-data", "--frames", 5, "--vertices", 17], MANIFEST_KEYS),
    (["encode", "--codebook", "codebook", "--motion", "motion"], MANIFEST_KEYS | {"results"}),
], ids=["gen-data", "encode"])
def test_manifest_holds_exactly_the_schema_keys_and_the_tool_version(tmp_path, files, argv, keys):
    out = tmp_path / "out"
    assert run(*[files.get(arg, arg) for arg in argv], "--out", out) == 0
    manifest = json.loads((out / f"{argv[0]}.manifest.json").read_text())
    assert set(manifest) == keys
    assert manifest["manifest"] == 1
    assert manifest["tool_version"] == facemotion.__version__


# ---------------------------------------------------------------------------
# --config files


@pytest.mark.parametrize(
    "doc, named",
    [
        ({"synth": {"duration_frames": None}}, "synth.duration_frames"),
        ({"synth": {"duration_frame": 20}}, "'duration_frame' in config section 'synth'"),
        ({"quantiser": {"num_levels": 2}}, "'quantiser'"),
        ({"synth": 5}, "'synth'"),
        ({"quantizer": {"num_levels": 2.7}}, "quantizer.num_levels"),
        ({"metrics": {"fps": 30}}, "'fps' in config section 'metrics'"),
        ({"weights": {"w_geo": float("nan")}}, "weights.w_geo"),
        ({"weights": {"w_geo": "1e5"}}, "weights.w_geo"),
        ({"stream": {"segment_tokens": True}}, "stream.segment_tokens"),
        ({"stream": {"segment_ms": 10**400}}, "stream.segment_ms"),
        ({"weights": {"gamma": 0.5}}, "'gamma' in config section 'weights'"),
    ],
)
def test_bad_config_file_exits_3_naming_section_and_key(tmp_path, capsys, doc, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "data"
    # gen-data reads only "synth"; every section is checked all the same
    assert run("gen-data", "--out", out, "--config", cfg, "--frames", 20, "--vertices", 24) == 3
    assert named in capsys.readouterr().err
    assert not (out / "motion.a2mo").exists()


@pytest.fixture()
def pipeline(tmp_path):
    data = gen(tmp_path)
    cb_path = fit(tmp_path, data / "motion.a2mo")
    return data, cb_path, make_features(tmp_path, t=20)


# (section, key, file value, flag, flag value, command argv builder)
PRECEDENCE = [
    ("synth", "duration_frames", 12, "--frames", 15, lambda data, cb, feats: ["gen-data", "--vertices", 24]),
    ("quantizer", "num_levels", 2, "--levels", 1,
     lambda data, cb, feats: ["fit-codec", "--motion", data / "motion.a2mo", "--codebook-size", 4,
                              "--latent-dim", 8]),
    ("weights", "w_geo", 3.0, "--w-geo", 5.0,
     lambda data, cb, feats: ["eval-recon", "--model", data / "model.json", "--gt", data / "motion.a2mo",
                              "--pred", data / "motion.a2mo"]),
    ("metrics", "peak_min_distance", 5, "--peak-distance", 7,
     lambda data, cb, feats: ["eval-metrics", "--model", data / "model.json", "--gt", data / "motion.a2mo",
                              "--pred", data / "motion.a2mo"]),
    ("stream", "segment_tokens", 3, "--segment-tokens", 2,
     lambda data, cb, feats: ["simulate-stream", "--features", feats, "--codebook", cb]),
    ("stream", "text_token_ms", 3.0, "--text-ms", 7.0,
     lambda data, cb, feats: ["simulate-stream", "--features", feats, "--codebook", cb]),
]


def _echo(manifest, section, key):
    config = manifest["config"][section]
    return config["timing"][key] if key in config.get("timing", {}) else config[key]


@pytest.mark.parametrize("section, key, file_value, flag, flag_value, argv", PRECEDENCE)
def test_config_value_beats_default_and_flag_beats_config(tmp_path, pipeline, section, key, file_value, flag,
                                                          flag_value, argv):
    base = argv(*pipeline)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: file_value}}))
    assert cli.CONFIG_SECTIONS[section][key][1] not in (file_value, flag_value)
    manifest_name = f"{base[0]}.manifest.json"
    for name, extra, expected in (("from_file", [], file_value), ("from_flag", [flag, flag_value], flag_value)):
        out = tmp_path / name
        assert run(*base, "--out", out, "--config", cfg, *extra) == 0
        manifest = json.loads((out / manifest_name).read_text())
        assert _echo(manifest, section, key) == expected


def test_codebook_commands_do_not_echo_quantizer_settings_the_file_lacks(tmp_path):
    data = gen(tmp_path, frames=20)
    cb_path = fit(tmp_path, data / "motion.a2mo", dead_code_threshold=2.0, seed=7)
    fit_manifest = json.loads((cb_path.parent / "fit-codec.manifest.json").read_text())
    assert fit_manifest["config"]["quantizer"]["dead_code_threshold"] == 2.0
    enc, dec, stream = tmp_path / "enc", tmp_path / "dec", tmp_path / "stream"
    assert run("encode", "--out", enc, "--codebook", cb_path, "--motion", data / "motion.a2mo") == 0
    assert run("decode", "--out", dec, "--codebook", cb_path, "--tokens", enc / "tokens.a2tk") == 0
    assert run("simulate-stream", "--out", stream, "--features", make_features(tmp_path),
               "--codebook", cb_path) == 0
    for manifest_path in (enc / "encode.manifest.json", dec / "decode.manifest.json",
                          stream / "simulate-stream.manifest.json"):
        manifest = json.loads(manifest_path.read_text())
        assert "quantizer" not in manifest["config"]
        assert manifest["inputs"]["codebook"] == str(cb_path)



@pytest.mark.parametrize("command, required", [
    ("encode", ["--codebook", "c", "--motion", "m"]),
    ("decode", ["--codebook", "c", "--tokens", "t"]),
    ("eval-recon", ["--model", "m", "--gt", "g", "--pred", "p"]),
    ("eval-metrics", ["--model", "m", "--gt", "g", "--pred", "p"]),
    ("compare", ["--model", "m", "--reference", "r", "--candidate", "c"]),
    ("simulate-stream", ["--features", "f", "--codebook", "c", "--predictor", "hold_last"]),
    ("simulate-stream", ["--features", "f", "--codebook", "c", "--predictor", "oracle", "--gt-tokens", "t"]),
    ("simulate-stream", ["--features", "f", "--codebook", "c", "--predictor", "retrieval",
                         "--corpus-features", "f", "--corpus-tokens", "t"]),
])
def test_seed_is_rejected_where_nothing_reads_it(tmp_path, capsys, command, required):
    # simulate-stream takes --seed for its uniform predictor only, so it rejects it after parsing
    out = tmp_path / "out"
    try:
        code = cli.main([command, *required, "--seed", "1", "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    message = ("--seed is read only by the uniform predictor" if command == "simulate-stream"
               else "unrecognized arguments: --seed 1")
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["simulate-stream", "--features", "f", "--codebook", "c", "--segment-ms", "nan"], "--segment-ms"),
    (["simulate-stream", "--features", "f", "--codebook", "c", "--text-ms", "inf"], "--text-ms"),
    (["eval-recon", "--model", "m", "--gt", "g", "--pred", "p", "--w-geo", "nan"], "--w-geo"),
    (["fit-codec", "--motion", "m", "--gamma=-inf"], "--gamma"),
    (["gen-data", "--noise-std", "NaN"], "--noise-std"),
    (["eval-metrics", "--model", "m", "--gt", "g", "--pred", "p", "--epsilon", "infinity"], "--epsilon"),
])
def test_float_flags_reject_non_finite_values(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number" in capsys.readouterr().err


def test_gen_data_rejects_negative_noise(tmp_path, capsys):
    out = tmp_path / "data"
    assert run("gen-data", "--out", out, "--frames", 5, "--vertices", 17, "--noise-std", -1) == 4
    assert "noise_std must be finite and >= 0, got -1.0" in capsys.readouterr().err
    assert not (out / "motion.a2mo").exists()


def test_malformed_text_inputs_exit_3(tmp_path, capsys):
    data = gen(tmp_path)
    doc = json.loads((data / "model.json").read_text())
    doc["template"][5][0] = float("nan")  # outside the vertices the metrics render
    nan_model = tmp_path / "nan_model.json"
    nan_model.write_text(json.dumps(doc))
    csv = tmp_path / "bad.csv"
    fileio.save_motion_csv(csv, fileio.load_motion(data / "motion.a2mo"))
    lines = csv.read_text().splitlines()
    lines[2] = "abc" + lines[2][lines[2].index(","):]
    csv.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'{"synth": {"seed": 1}}\xff')
    gt = data / "motion.a2mo"
    for argv, named in (
        (["eval-metrics", "--model", nan_model, "--gt", gt, "--pred", gt], "template contains non-finite"),
        (["eval-metrics", "--model", data / "model.json", "--gt", csv, "--pred", gt], "not a number: 'abc'"),
        (["gen-data", "--config", cfg], "UTF-8"),
    ):
        assert run(*argv, "--out", tmp_path / "out") == 3
        assert named in capsys.readouterr().err
