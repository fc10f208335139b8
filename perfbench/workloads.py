"""The benchmark's three workloads: offline, stream and train.

Each workload is a closed loop with one client: the next op starts when the
previous one has returned. Inputs are made from the workload seed only; the
program receives the generated arrays. Every call into a facemotion layer is
wrapped in a span named ``<module>.<function>`` so that the traced run can
report per-layer self time; the untraced run passes a NullTracer instead.

Which end-to-end metric each per-layer metric should move (the per-workload
names printed next to it in brackets):

offline (ms per clip)
  metrics.full_report_ms, losses.total_losses_ms, rvq.rvq_encode_ms,
  motion_core.render_ms, rvq.window_encode_ms, rvq.rvq_decode_ms,
  rvq.window_decode_ms, fileio.save_ms, fileio.load_ms, cli.encode_ms,
  cli.decode_ms, cli.eval-recon_ms, cli.eval-metrics_ms, cli.compare_ms
      -> frames_per_s (offline_frames_per_s)
stream (ms per segment)
  motion_core.render_ms, streamsim.step_ms, streamsim.retrieval_keys,
  cli.simulate-stream_ms
      -> frames_per_s (stream_segment_ms_p50, stream_segment_ms_p99, stream_rtf)
train (ms per op: one fit plus held-out scoring)
  rvq.train_codebooks_ms, rvq.fit_projections_ms, rvq.shifted_windows_ms,
  rvq.kmeans_iters, cli.gen-data_ms, cli.fit-codec_ms
      -> frames_per_s (train_fit_s_p50); through rvq.fit_codec also setup_s
         of offline and stream
  rvq.live_code_frac -> mse_ratio (train_mse_ratio)
set-up (ms per set-up, all workloads)
  synth.make_model_ms, synth.make_motion_ms, rvq.fit_codec_ms -> setup_s
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from facemotion import cli, fileio, losses, metrics, motion_core, rvq, streamsim, synth

from tracing import NullTracer, Tracer

FPS = 25.0

# Purpose tags mixed into the workload seed, one independent stream each.
_MODEL, _FIT, _CLIP, _CORPUS, _FEATURES, _STREAM, _TRAIN, _HELD, _SAMPLE, _REFERENCE = range(1, 11)

# mse_ratio scores a codec fit on motion that does not depend on the workload
# seed against a held-out clip that does not either: the set-up codec of
# offline and stream, and the fit of train's input 0. One codec scores from
# 0.016 to 0.06 on different clips, and codecs fit on different 1000-frame
# corpora from 0.027 to 0.067, so with seeded motion mse_ratio spread 0.28 to
# 1.1 across runs, far wider than any bound. Fixed, it moves only when the
# code does. Every other input is seeded.
_FIXED_SEED = 0


@dataclass(frozen=True)
class Sizes:
    vertices: int
    quantizer: dict  # QuantizerConfig overrides; empty means the default G=5, N_q=6, K=256, d_z=256
    fit_frames: int  # set-up codec fit clip (offline, stream)
    clip_frames: int  # one offline op
    stream_frames: int  # one stream
    segment_tokens: int
    feature_dim: int
    corpus_frames: int  # stream retrieval corpus clip
    train_frames: int  # one train op's corpus
    heldout_frames: int  # the train workload's held-out clip
    pool: int  # offline clips / train corpora generated in set-up
    scan_windows: int  # windows per offline op checked against a brute-force scan
    min_segments: int  # stream: at least this many timed segments per run


FULL = Sizes(vertices=200, quantizer={}, fit_frames=2000, clip_frames=2000, stream_frames=250,
             segment_tokens=5, feature_dim=16, corpus_frames=2000, train_frames=1000,
             heldout_frames=500, pool=8, scan_windows=8, min_segments=1000)
SMOKE = Sizes(vertices=20, quantizer={"num_levels": 2, "codebook_size": 8, "latent_dim": 16},
              fit_frames=200, clip_frames=100, stream_frames=50, segment_tokens=5, feature_dim=4,
              corpus_frames=200, train_frames=100, heldout_frames=50, pool=2, scan_windows=4,
              min_segments=1)


def derive(seed, *key) -> int:
    """Independent 32-bit seed for one purpose of one workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class CheckFailed(Exception):
    pass


@dataclass
class Run:
    """Everything one benchmark run measures and checks."""

    sizes: Sizes
    seed: int
    workdir: Path
    cfg: rvq.QuantizerConfig = None
    attempted: int = 0
    failed: int = 0
    setup_s: list = field(default_factory=list)
    samples_ms: list = field(default_factory=list)  # one per clip, segment or train op
    traced_ms: list = field(default_factory=list)
    untraced_ms: list = field(default_factory=list)
    frames: int = 0
    ratios: list = field(default_factory=list)
    fit_ms: list = field(default_factory=list)
    checks: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    digests: dict = field(default_factory=dict)

    def __post_init__(self):
        self.cfg = rvq.QuantizerConfig(**self.sizes.quantizer)

    def check(self, name, ok, detail=""):
        self.checks[name] += 1
        if not ok:
            raise CheckFailed(f"{name}: {detail}")

    def same_as_before(self, name, key, digest):
        """Check that a recurring input reproduces the digest it had before."""
        self.check(name, self.digests.setdefault(key, digest) == digest, f"key {key} changed")

    def attempt(self, fn, *args):
        """Op boundary: an exception or failed check counts one failed op."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def _motion(seed, frames, sizes):
    return synth.make_motion(synth.SynthConfig(seed=seed, num_vertices=sizes.vertices, duration_frames=frames))


def _mse_ratio(recon, clip):
    """Codec MSE over the MSE of predicting the clip's per-channel mean (the C11 ratio)."""
    base = float(np.mean((clip.params - clip.params.mean(axis=0)) ** 2))
    return float(np.mean((recon.params - clip.params) ** 2)) / base


def _codec_setup(run, tr, extra_clips):
    """Model and the workload's clips, then the codec fit and its reference score."""
    s, cfg = run.sizes, run.cfg
    with tr.span("synth.make_model"):
        model = synth.make_model(synth.SynthConfig(seed=derive(run.seed, _MODEL), num_vertices=s.vertices))
    with tr.span("synth.make_motion"):
        fit_clip = _motion(derive(_FIXED_SEED, _FIT), s.fit_frames, s)
        reference = _motion(derive(_FIXED_SEED, _REFERENCE), s.clip_frames, s)
        clips = [_motion(seed, frames, s) for seed, frames in extra_clips]
    with tr.span("rvq.fit_codec"):
        proj, cb = rvq.fit_codec([fit_clip], cfg)
    z, tokens = _encode(reference, cb, proj, cfg, tr)
    _, recon = _decode(tokens, cb, proj, cfg, len(reference), z.fps_latent, tr)
    return SimpleNamespace(model=model, proj=proj, cb=cb, clips=clips, mse_ratio=_mse_ratio(recon, reference))


def _decode(tokens, cb, proj, cfg, frames, fps_latent, tr):
    with tr.span("rvq.rvq_decode"):
        q = rvq.rvq_decode(tokens, cb, fps_latent=fps_latent)
    with tr.span("rvq.window_decode"):
        return q, rvq.window_decode(q, proj, cfg, original_t=frames)


def _encode(clip, cb, proj, cfg, tr):
    with tr.span("rvq.window_encode"):
        z = rvq.window_encode(clip, proj, cfg)
    with tr.span("rvq.rvq_encode"):
        tokens, _ = rvq.rvq_encode(z, cb, group_size=cfg.group_size)
    return z, tokens


def brute_force_scan(points, entries):
    """Greedy residual quantization by an exhaustive scan; ties go to the lowest index."""
    out = np.empty((points.shape[0], entries.shape[0]), dtype=np.int64)
    for n, residual in enumerate(points):
        residual = residual.copy()
        for j, codewords in enumerate(entries):
            d2 = np.sum((codewords - residual) ** 2, axis=1)
            out[n, j] = int(np.argmin(d2))  # first minimum = lowest index
            residual -= codewords[out[n, j]]
    return out


def _digest(*blobs):
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _finite_values(doc):
    return all(v is not None and math.isfinite(v) for v in doc["values"].values())


# ---------------------------------------------------------------------------
# offline: encode -> .a2tk -> decode -> .a2mo -> render, losses, metrics


class Offline:
    name = "offline"
    root = "offline.op"
    setup_repeats = 3

    def setup(self, run, tr):
        s = run.sizes
        return _codec_setup(run, tr, [(derive(run.seed, _CLIP, k), s.clip_frames) for k in range(s.pool)])

    def op(self, run, st, key, tr):
        cfg, d = run.cfg, run.workdir
        key %= len(st.clips)
        clip = st.clips[key]
        paths = [d / "tokens.a2tk", d / "decoded.a2mo", d / "loss_report.json", d / "metrics_report.json"]
        t0 = perf_counter()
        with tr.span(self.root):
            z, tokens = _encode(clip, st.cb, st.proj, cfg, tr)
            with tr.span("fileio.save"):
                fileio.save_tokens(paths[0], tokens)
            with tr.span("fileio.load"):
                loaded = fileio.load_tokens(paths[0], group_size=cfg.group_size)
            q, decoded = _decode(loaded, st.cb, st.proj, cfg, len(clip), z.fps_latent, tr)
            with tr.span("fileio.save"):
                fileio.save_motion(paths[1], decoded)
            with tr.span("fileio.load"):
                pred = fileio.load_motion(paths[1])
            with tr.span("motion_core.render"):
                verts = motion_core.sequence_vertex_array(st.model, pred)
            with tr.span("losses.total_losses"):
                loss = losses.total_losses(st.model, clip, pred, z=z, q=q)
            with tr.span("metrics.full_report"):
                report = metrics.full_report(st.model, pred, clip)
            with tr.span("fileio.save"):
                fileio.save_loss_report(paths[2], loss)
                fileio.save_metrics_report(paths[3], report)
        ms = (perf_counter() - t0) * 1000.0
        # All four files are written; the token and motion files are read back.
        run.counts["fileio.bytes"] += sum(p.stat().st_size for p in paths + paths[:2])
        run.counts["offline.frames"] += len(clip)
        run.counts["offline.ops"] += 1

        sample = np.random.default_rng(derive(run.seed, _SAMPLE, key)).choice(
            len(z), size=min(run.sizes.scan_windows, len(z)), replace=False)
        run.check("encode_matches_scan",
                  np.array_equal(tokens.indices[sample], brute_force_scan(z.vectors[sample], st.cb.entries)),
                  f"clip {key}: rvq_encode differs from the exhaustive scan")
        run.check("tokens_round_trip", np.array_equal(loaded.indices, tokens.indices))
        run.check("motion_round_trip", np.array_equal(pred.params, decoded.params.astype(np.float32)))
        w = loss.weights
        rec = w.w_param * loss.l_param + w.w_geo * (loss.l_lips + loss.l_face) + w.w_dyn * (loss.l_vel + loss.l_acc)
        run.check("l_rec_is_weighted_sum",
                  math.isclose(loss.l_rec, rec, rel_tol=1e-12)
                  and math.isclose(loss.l_vqvae, loss.l_rec + loss.codebook_term + loss.commit_term, rel_tol=1e-12),
                  f"l_rec={loss.l_rec!r} vs {rec!r}")
        run.check("report_values_finite",
                  _finite_values(loss.to_dict()) and _finite_values(report.to_dict())
                  and verts.shape == (len(clip), st.model.num_vertices, 3) and bool(np.isfinite(verts).all()))
        run.same_as_before("recurring_clip_same_report_bytes", key,
                           _digest(paths[2].read_bytes(), paths[3].read_bytes()))
        return [ms], len(clip), st.mse_ratio

    def probes(self, run, st, d):
        n = run.sizes.clip_frames
        model, codebook, clip, decoded = d / "model.json", d / "codebook.a2cb", d / "clip.a2mo", d / "decoded.a2mo"
        fileio.save_model(model, st.model)
        fileio.save_codebook(codebook, st.cb, st.proj, run.cfg)
        fileio.save_motion(clip, st.clips[0])
        common = ["--out", str(d), "--quiet"]
        return [
            ["encode", "--codebook", str(codebook), "--motion", str(clip)] + common,
            ["decode", "--codebook", str(codebook), "--tokens", str(d / "tokens.a2tk"), "--frames", str(n)] + common,
            ["eval-recon", "--model", str(model), "--gt", str(clip), "--pred", str(decoded),
             "--codebook", str(codebook)] + common,
            ["eval-metrics", "--model", str(model), "--gt", str(clip), "--pred", str(decoded)] + common,
            ["compare", "--model", str(model), "--reference", str(clip), "--candidate", str(decoded)] + common,
        ]


# ---------------------------------------------------------------------------
# stream: segment-wise retrieval decode, each segment rendered to vertices


class Stream:
    name = "stream"
    root = "stream.segment"
    setup_repeats = 3

    def setup(self, run, tr):
        s, cfg = run.sizes, run.cfg
        st = _codec_setup(run, tr, [(derive(run.seed, _CORPUS), s.corpus_frames)])
        st.features = streamsim.AudioFeatureSequence(
            np.random.default_rng(derive(run.seed, _FEATURES)).standard_normal((s.corpus_frames, s.feature_dim)),
            fps=FPS)
        _, st.tokens = _encode(st.clips[0], st.cb, st.proj, cfg, tr)
        with tr.span("streamsim.make_retrieval_corpus"):
            corpus = streamsim.make_retrieval_corpus(st.features, st.tokens, cfg, s.segment_tokens)
        st.predictor = streamsim.PredictorSpec("retrieval", corpus=corpus)
        st.corpus_size = len(corpus)
        return st

    def _features(self, run, key):
        rng = np.random.default_rng(derive(run.seed, _STREAM, key))
        return rng.standard_normal((run.sizes.stream_frames, run.sizes.feature_dim))

    def op(self, run, st, key, tr):
        cfg, s = run.cfg, run.sizes
        feats = self._features(run, key)
        seg = cfg.group_size * s.segment_tokens
        state = streamsim.initial_state(cfg, s.segment_tokens)
        samples, token_rows, motion_rows = [], [], []
        verts_ok = True
        for lo in range(0, len(feats), seg):
            chunk = streamsim.AudioFeatureSequence(feats[lo:lo + seg], fps=FPS)
            t0 = perf_counter()
            with tr.span(self.root):
                with tr.span("streamsim.step"):
                    tokens, motion, state = streamsim.step(state, chunk, st.predictor, st.cb, st.proj)
                with tr.span("motion_core.render"):
                    verts = motion_core.sequence_vertex_array(st.model, motion)
            samples.append((perf_counter() - t0) * 1000.0)
            verts_ok = verts_ok and verts.shape[0] == len(motion) and bool(np.isfinite(verts).all())
            token_rows.append(tokens.indices)
            motion_rows.append(motion.params)
        run.counts["streamsim.segments"] += len(samples)
        run.counts["streamsim.retrieval_keys"] += len(samples) * st.corpus_size

        grid = rvq.TokenSequence(np.vstack(token_rows), group_size=cfg.group_size,
                                 num_levels=cfg.num_levels, codebook_size=cfg.codebook_size)
        one_shot = rvq.window_decode(rvq.rvq_decode(grid, st.cb, fps_latent=FPS / cfg.group_size),
                                     st.proj, cfg, original_t=len(feats))
        streamed = np.vstack(motion_rows)[:len(feats)]
        run.check("stream_matches_one_shot_decode", streamed.tobytes() == one_shot.params.tobytes(),
                  f"stream {key}: segment-wise motion differs from one-shot decode")
        run.check("render_finite", verts_ok)
        return samples, len(feats), st.mse_ratio

    def probes(self, run, st, d):
        paths = {name: d / name for name in ("features.a2fe", "corpus.a2fe", "corpus.a2tk", "codebook.a2cb")}
        fileio.save_features(paths["features.a2fe"], streamsim.AudioFeatureSequence(self._features(run, 0), fps=FPS))
        fileio.save_features(paths["corpus.a2fe"], st.features)
        fileio.save_tokens(paths["corpus.a2tk"], st.tokens)
        fileio.save_codebook(paths["codebook.a2cb"], st.cb, st.proj, run.cfg)
        return [["simulate-stream", "--features", str(paths["features.a2fe"]),
                 "--codebook", str(paths["codebook.a2cb"]), "--predictor", "retrieval",
                 "--corpus-features", str(paths["corpus.a2fe"]), "--corpus-tokens", str(paths["corpus.a2tk"]),
                 "--segment-tokens", str(run.sizes.segment_tokens), "--out", str(d), "--quiet"]]


# ---------------------------------------------------------------------------
# train: fit a codec (the steps of rvq.fit_codec), then score it on held-out motion


class Train:
    name = "train"
    root = "train.op"
    setup_repeats = 9  # its set-up is short, so more repeats steady the median

    def setup(self, run, tr):
        s = run.sizes
        with tr.span("synth.make_motion"):
            corpora = [_motion(derive(run.seed if k else _FIXED_SEED, _TRAIN, k), s.train_frames, s)
                       for k in range(s.pool)]
            held = _motion(derive(_FIXED_SEED, _HELD), s.heldout_frames, s)
        return SimpleNamespace(corpora=corpora, held=held)

    def op(self, run, st, key, tr):
        cfg, held = run.cfg, st.held
        key %= len(st.corpora)
        corpus = st.corpora[key]
        t0 = perf_counter()
        with tr.span(self.root):
            with tr.span("rvq.fit_projections"):
                proj = rvq.fit_projections([corpus], cfg)
            with tr.span("rvq.shifted_windows"):
                windows = rvq.shifted_windows([corpus], cfg)
            latents = windows @ proj.encode_w.T + proj.encode_b
            with tr.span("rvq.train_codebooks"):
                cb, history = rvq.train_codebooks(latents, cfg, return_history=True)
            t_fit = perf_counter()
            z, tokens = _encode(held, cb, proj, cfg, tr)
            _, recon = _decode(tokens, cb, proj, cfg, len(held), z.fps_latent, tr)
        t1 = perf_counter()
        run.fit_ms.append((t_fit - t0) * 1000.0)
        run.counts["rvq.kmeans_iters"] += sum(len(h) for h in history)
        run.counts["rvq.live_codes"] += int(np.count_nonzero(cb.usage >= cfg.dead_code_threshold))
        run.counts["rvq.codes"] += cb.usage.size
        run.counts["rvq.fits"] += 1

        ratio = _mse_ratio(recon, held)
        run.check("heldout_beats_constant_mean", math.isfinite(ratio) and ratio < 1.0, f"ratio={ratio!r}")
        run.same_as_before("same_seed_same_codebook_bytes", key,
                           _digest(cb.entries.tobytes(), cb.usage.tobytes(), proj.encode_w.tobytes(),
                                   proj.encode_b.tobytes(), proj.decode_w.tobytes(), proj.decode_b.tobytes()))
        return [(t1 - t0) * 1000.0], len(corpus), ratio if key == 0 else None

    def probes(self, run, st, d):
        s, cfg = run.sizes, run.cfg
        common = ["--out", str(d), "--quiet"]
        return [
            ["gen-data", "--frames", str(s.train_frames), "--vertices", str(s.vertices),
             "--seed", str(derive(run.seed, _TRAIN, 0))] + common,
            ["fit-codec", "--motion", str(d / "motion.a2mo"), "--group-size", str(cfg.group_size),
             "--levels", str(cfg.num_levels), "--codebook-size", str(cfg.codebook_size),
             "--latent-dim", str(cfg.latent_dim)] + common,
        ]


WORKLOADS = {w.name: w for w in (Offline(), Stream(), Train())}


# ---------------------------------------------------------------------------
# the measurement loop


def _probe(run, tracer, argv):
    with tracer.span(f"cli.{argv[0]}"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    run.check(f"cli_{argv[0]}_exit_0", code == 0, f"exit code {code}")


def measure(workload, run, seconds, traced):
    """Set up several times, warm up, then run timed ops for `seconds`.

    With `traced`, even-numbered ops record spans and odd-numbered ops do
    not, so the run also measures what tracing costs; the CLI probes follow.
    """
    tracer = Tracer() if traced else NullTracer()
    null = NullTracer()
    for _ in range(workload.setup_repeats):
        t0 = perf_counter()
        with tracer.span("setup"):
            state = workload.setup(run, tracer)
        run.setup_s.append(perf_counter() - t0)

    # The first timed op uses key 0 again, so the recurrence checks run at
    # least once per run. Counts and fit times cover the timed ops only.
    run.attempt(workload.op, run, state, 0, null)
    run.counts.clear()
    run.fit_ms.clear()

    start = perf_counter()
    i = 0
    while True:
        tr = tracer if traced and i % 2 == 0 else null
        tracer.op_id = i
        out = run.attempt(workload.op, run, state, i, tr)
        if out is not None:
            samples, frames, ratio = out
            run.samples_ms += samples
            (run.traced_ms if tr is tracer else run.untraced_ms).extend(samples)
            run.frames += frames
            if ratio is not None:
                run.ratios.append(ratio)
        i += 1
        enough = workload.name != "stream" or run.counts["streamsim.segments"] >= run.sizes.min_segments
        if perf_counter() - start >= seconds and enough:
            break
    tracer.op_id = None

    if traced:
        probe_dir = run.workdir / "probe"
        probe_dir.mkdir()
        for argv in workload.probes(run, state, probe_dir):
            run.attempt(_probe, run, tracer, argv)
    return tracer
