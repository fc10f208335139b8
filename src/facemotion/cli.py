"""Command-line surface for the motion codec pipeline.

Commands: gen-data, fit-codec, encode, decode, eval-recon, eval-metrics,
compare, simulate-stream. A command computes and returns its outputs
without writing them; once it has returned, ``main`` creates --out, writes
every output in the order the command declared them, then writes
<command>.manifest.json naming those same files and echoing the input files
read and the resolved configuration, so identical flags reproduce identical
bytes and a failed command writes nothing. An input-file flag is accepted
only where the command reads it.

Configuration (CONFIG_SECTIONS): --config names a JSON object with optional
sections "synth" (synth.SynthConfig), "quantizer" (rvq.QuantizerConfig),
"weights" (losses.LossWeights), "metrics" (metrics.MetricsConfig) and
"stream" (streamsim.TimingModel plus segment_tokens and seed), keyed by
field name. Every key has a flag whose dest is the key. A flag beats the
file, which beats the dataclass default. Each command checks the whole file
first: an unknown section or key, or a value that is not a finite number (an
integral one for int fields), is a format error.

Exit codes: 0 success, 2 usage error, 3 file-format error (including bad
config files), 4 computation or input error (mismatched lengths, invalid
values, an array too large to allocate), 5 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from . import __version__, fileio, losses, metrics, motion_core, rvq, streamsim, synth
from .errors import FaceMotionError, FormatError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_COMPUTE = 4
EXIT_IO = 5


def _schema(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls)}


# Config-file sections: key -> (type, default), all read from the dataclasses.
CONFIG_SECTIONS = {
    "synth": _schema(synth.SynthConfig),
    "quantizer": _schema(rvq.QuantizerConfig),
    "weights": _schema(losses.LossWeights),
    "metrics": _schema(metrics.MetricsConfig),
    "stream": {
        **_schema(streamsim.TimingModel),
        "segment_tokens": (int, streamsim.SEGMENT_TOKENS),
        "seed": _schema(streamsim.PredictorSpec)["seed"],
    },
}


def _load_config(path) -> dict:
    """Read a --config file, checking every section, key and value type."""
    if path is None:
        return {}
    doc = fileio.read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: config must be a JSON object")
    config = {}
    for section, values in doc.items():
        if section not in CONFIG_SECTIONS:
            raise FormatError(f"{path}: unknown config section {section!r}; known: {', '.join(CONFIG_SECTIONS)}")
        if not isinstance(values, dict):
            raise FormatError(f"{path}: config section {section!r} must be a JSON object")
        schema = CONFIG_SECTIONS[section]
        config[section] = {}
        for key, value in values.items():
            if key not in schema:
                raise FormatError(f"{path}: unknown key {key!r} in config section {section!r}")
            typ = schema[key][0]
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
            if ok and typ is int:
                ok = isinstance(value, int) or value.is_integer()
            elif ok:  # False for NaN, infinities and ints beyond float range
                ok = abs(value) <= sys.float_info.max
            if not ok:
                kind = "an integer" if typ is int else "a finite number"
                raise FormatError(f"{path}: {section}.{key} must be {kind}, got {json.dumps(value)}")
            config[section][key] = typ(value)
    return config


def _settings(args, config, section) -> dict:
    """Every key of a config section: its flag if given, else the file's value, else the default."""
    values = config.get(section, {})
    settings = {}
    for key, (_, default) in CONFIG_SECTIONS[section].items():
        flag = getattr(args, key)
        settings[key] = flag if flag is not None else values.get(key, default)
    return settings


# Flags not named --key-with-dashes, by dest.
_FLAG_NAMES = {
    "duration_frames": "--frames",
    "num_vertices": "--vertices",
    "speech_rate_hz": "--speech-rate",
    "num_levels": "--levels",
    "peak_min_prominence": "--peak-prominence",
    "peak_min_distance": "--peak-distance",
    "text_token_ms": "--text-ms",
    "audio_token_ms": "--audio-ms",
}


def _flag(dest: str) -> str:
    return _FLAG_NAMES.get(dest, "--" + dest.replace("_", "-"))


class UsageError(Exception):
    """A usage error the parser cannot see; main prints it and exits with EXIT_USAGE."""


@dataclasses.dataclass
class Outcome:
    """What a command computed; main writes its outputs and records them in <command>.manifest.json."""

    message: str  # printed with each {name} replaced by that output's path
    outputs: dict  # name -> (file name, writer(path, value), value), written in this order
    config: dict
    seed: typing.Optional[int] = None
    results: typing.Optional[dict] = None


def _inputs(args) -> dict:
    """The input files given: name -> path, with name_<i> for each file of a repeatable flag."""
    inputs = {}
    for dest in args.input_dests:
        value = getattr(args, dest)
        if isinstance(value, list):
            inputs.update({f"{dest}_{i}": str(path) for i, path in enumerate(value)})
        elif value is not None:
            inputs[dest] = str(value)
    return inputs


def _load_motion_any(path) -> motion_core.MotionSequence:
    if str(path).endswith(".csv"):
        return fileio.load_motion_csv(path)
    return fileio.load_motion(path)


def _add_common(parser):
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.set_defaults(input_dests=())


def _add_inputs(parser, *flags, **kwargs):
    """Input-file options; the manifest's inputs echo the files they are given."""
    for flag in flags:
        dest = parser.add_argument(flag, **kwargs).dest
        parser.set_defaults(input_dests=(*parser.get_default("input_dests"), dest))


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _add_settings(parser, section):
    """One option per key of a config section; float options take finite numbers only."""
    for key, (typ, default) in CONFIG_SECTIONS[section].items():
        parser.add_argument(_flag(key), dest=key, type=_finite_float if typ is float else typ,
                            help=f"{section}.{key} (default {default})")


# ---------------------------------------------------------------------------
# gen-data


def cmd_gen_data(args, config) -> Outcome:
    scfg = synth.SynthConfig(**_settings(args, config, "synth"))
    return Outcome(
        "wrote {model} and {motion}",
        outputs={
            "model": ("model.json", fileio.save_model, synth.make_model(scfg)),
            "motion": ("motion.a2mo", fileio.save_motion, synth.make_motion(scfg)),
        },
        config={"synth": dataclasses.asdict(scfg)},
        seed=scfg.seed,
    )


# ---------------------------------------------------------------------------
# fit-codec


def cmd_fit_codec(args, config) -> Outcome:
    qcfg = rvq.QuantizerConfig(**_settings(args, config, "quantizer"))
    corpus = [_load_motion_any(p) for p in args.motion]
    proj, cb, history = rvq.fit_codec(corpus, qcfg, return_history=True)
    # Report on the f32 codec the file will hold, so the norms match encode of the file
    cb, proj, saved = fileio._stored_codec(cb, proj, qcfg)
    latents = np.vstack([rvq.window_encode(m, proj, qcfg).vectors for m in corpus])
    z = rvq.LatentSequence(latents, fps_latent=corpus[0].fps / qcfg.group_size)
    tokens, level_norms = rvq.rvq_encode(z, cb, group_size=qcfg.group_size)
    q = rvq.rvq_decode(tokens, cb, fps_latent=z.fps_latent)
    codebook_term, commit_term, vq_total = rvq.commitment_loss(z, q, saved.gamma)
    levels = [
        {
            "lloyd_iterations": len(h) - 1,
            "stop": rvq.lloyd_stop(h),
            "distinct_codewords": int(np.unique(entries, axis=0).shape[0]),
        }
        for h, entries in zip(history, cb.entries)
    ]
    return Outcome(
        f"wrote {{codebook}} (final residual norm {level_norms[-1]:.6g})",
        outputs={"codebook": ("codebook.a2cb", lambda path, codec: fileio.save_codebook(path, *codec),
                              (cb, proj, saved))},
        config={"quantizer": dataclasses.asdict(qcfg)},
        seed=qcfg.seed,
        results={
            "residual_norms": [float(v) for v in level_norms],
            "codebook_term": codebook_term,
            "commit_term": commit_term,
            "quantizer_objective": vq_total,
            "lambda_vq": 1.0,  # commitment_loss adds its two terms with unit weight
            "levels": levels,
        },
    )


# ---------------------------------------------------------------------------
# encode / decode


def cmd_encode(args, config) -> Outcome:
    cb, proj, qcfg = fileio.load_codebook(args.codebook)
    m = _load_motion_any(args.motion)
    z = rvq.window_encode(m, proj, qcfg)
    tokens, level_norms = rvq.rvq_encode(z, cb, group_size=qcfg.group_size)
    return Outcome(
        f"wrote {{tokens}} ({len(tokens)} token rows)",
        outputs={"tokens": ("tokens.a2tk", fileio.save_tokens, tokens)},
        config={},
        results={
            "frames": len(m),
            "fps": m.fps,
            "residual_norms": [float(v) for v in level_norms],
        },
    )


def cmd_decode(args, config) -> Outcome:
    if args.frames is not None and args.frames < 1:
        raise UsageError(f"{_flag('frames')} must be >= 1, got {args.frames}")
    cb, proj, qcfg = fileio.load_codebook(args.codebook)
    tokens = fileio.load_tokens(args.tokens, group_size=qcfg.group_size)
    frames = args.frames if args.frames is not None else len(tokens) * qcfg.group_size
    z = rvq.rvq_decode(tokens, cb, fps_latent=motion_core.positive_f32(args.fps) / qcfg.group_size)
    m = rvq.window_decode(z, proj, qcfg, original_t=frames)
    return Outcome(
        f"wrote {{motion}} ({frames} frames)",
        outputs={"motion": ("decoded.a2mo", fileio.save_motion, m)},
        config={"frames": frames, "fps": args.fps},
    )


# ---------------------------------------------------------------------------
# eval-recon / eval-metrics / compare


def cmd_eval_recon(args, config) -> Outcome:
    weights = losses.LossWeights(**_settings(args, config, "weights"))
    model = fileio.load_model(args.model)
    gt = _load_motion_any(args.gt)
    pred = _load_motion_any(args.pred)
    quantizer = {}
    if args.codebook is not None:
        cb, proj, qcfg = fileio.load_codebook(args.codebook)
        z = rvq.window_encode(gt, proj, qcfg)
        tokens, _ = rvq.rvq_encode(z, cb, group_size=qcfg.group_size)
        q = rvq.rvq_decode(tokens, cb, fps_latent=z.fps_latent)
        quantizer = {"z": z, "q": q, "gamma": qcfg.gamma}
    report = losses.total_losses(model, gt, pred, weights=weights, **quantizer)
    return Outcome(
        f"wrote {{loss_report}} (l_rec={report.l_rec:.6g})",
        outputs={"loss_report": ("loss_report.json", fileio.save_loss_report, report)},
        config={"weights": dataclasses.asdict(weights)},
    )


def cmd_eval_metrics(args, config) -> Outcome:
    model = fileio.load_model(args.model)
    gt = _load_motion_any(args.gt)
    pred = _load_motion_any(args.pred)
    mcfg = metrics.MetricsConfig(**_settings(args, config, "metrics"))
    report = metrics.full_report(model, pred, gt, mcfg)
    return Outcome(
        f"wrote {{metrics_report}} (MOD={report.mod_mm:.4g} mm)",
        outputs={"metrics_report": ("metrics_report.json", fileio.save_metrics_report, report)},
        config={"metrics": mcfg.to_dict()},
    )


# Ranking targets: each metric is scored by distance to its ideal; the
# reference-free UFD is scored by distance to the reference's own UFD.
_METRIC_TARGETS = {
    "mod_mm": 0.0,
    "temporal_corr": 1.0,
    "velocity_corr": 1.0,
    "lip_width_corr": 1.0,
    "liveliness_ratio": 1.0,
    "peak_align_ms": 0.0,
}


def cmd_compare(args, config) -> Outcome:
    model = fileio.load_model(args.model)
    reference = _load_motion_any(args.reference)
    mcfg = metrics.MetricsConfig(**_settings(args, config, "metrics"))
    names = []
    for i, path in enumerate(args.candidate):
        name = Path(path).stem
        while name in names or name == "comparison":  # "comparison" names the manifest's comparison.json
            name = f"{name}_{i}"
        names.append(name)
    # a generator, so each candidate file is loaded (and refused) at its turn
    candidates = (_load_motion_any(path) for path in args.candidate)
    ref_ufd, reports = metrics.compare(model, reference, candidates, mcfg)

    values = {name: rep.to_dict()["values"] for name, rep in zip(names, reports)}
    targets = dict(_METRIC_TARGETS, ufd=ref_ufd)
    rankings = {}
    for metric_name, target in targets.items():
        # a stable sort: equal distances keep the command-line order
        defined = [name for name in names if values[name][metric_name] is not None]
        rankings[metric_name] = sorted(defined, key=lambda name: abs(values[name][metric_name] - target))
    comparison = {
        "report": "comparison",
        "reference": str(args.reference),
        "reference_ufd": ref_ufd,
        "candidates": values,
        "undefined": {name: rep.undefined for name, rep in zip(names, reports)},
        "targets": targets,
        "rankings": rankings,
    }
    return Outcome(
        f"wrote {{comparison}} ({len(names)} candidates)",
        outputs={
            "comparison": ("comparison.json", fileio.write_json, comparison),
            **{name: (f"metrics_{name}.json", fileio.save_metrics_report, rep) for name, rep in zip(names, reports)},
        },
        config={"metrics": mcfg.to_dict()},
    )


# ---------------------------------------------------------------------------
# simulate-stream


def cmd_simulate_stream(args, config) -> Outcome:
    if args.predictor == "oracle" and args.gt_tokens is None:
        raise UsageError("--gt-tokens is required for the oracle predictor")
    if args.predictor == "retrieval" and (args.corpus_features is None or args.corpus_tokens is None):
        raise UsageError("--corpus-features and --corpus-tokens are required for retrieval")
    # Each predictor's input files, and the seed, are accepted only with the predictor that reads them.
    for dest, kind in (("gt_tokens", "oracle"), ("corpus_features", "retrieval"), ("corpus_tokens", "retrieval"),
                       ("seed", "uniform")):
        if getattr(args, dest) is not None and args.predictor != kind:
            raise UsageError(f"{_flag(dest)} is read only by the {kind} predictor")
    settings = _settings(args, config, "stream")
    segment_tokens = settings.pop("segment_tokens")
    seed = settings.pop("seed")
    cb, proj, qcfg = fileio.load_codebook(args.codebook)
    features = fileio.load_features(args.features)
    gt_tokens = None
    corpus = None
    if args.predictor == "oracle":
        gt_tokens = fileio.load_tokens(args.gt_tokens, group_size=qcfg.group_size)
        rvq.check_fit(gt_tokens, cb)
    if args.predictor == "retrieval":
        corpus_features = fileio.load_features(args.corpus_features)
        corpus_tokens = fileio.load_tokens(args.corpus_tokens, group_size=qcfg.group_size)
        rvq.check_fit(corpus_tokens, cb)
        corpus = streamsim.make_retrieval_corpus(corpus_features, corpus_tokens, qcfg, segment_tokens)
    predictor = streamsim.PredictorSpec(kind=args.predictor, corpus=corpus, gt_tokens=gt_tokens, seed=seed)
    timing = streamsim.TimingModel(**settings)
    tokens, motion, log = streamsim.run_stream(
        features, predictor, cb, proj, qcfg, segment_tokens=segment_tokens, timing=timing
    )
    report = streamsim.latency_report(log)
    return Outcome(
        f"wrote {{latency_report}} (RTF={report.rtf:.4g})",
        outputs={
            "tokens": ("stream_tokens.a2tk", fileio.save_tokens, tokens),
            "motion": ("stream_motion.a2mo", fileio.save_motion, motion),
            "events": ("events.log", fileio.save_event_log, log),
            "latency_report": ("latency_report.json", fileio.save_latency_report, report),
        },
        config={
            "stream": {
                "predictor": args.predictor,
                "segment_tokens": segment_tokens,
                "timing": dataclasses.asdict(timing),
            },
        },
        seed=seed if args.predictor == "uniform" else None,
    )


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="facemotion",
        description="3D facial motion codec, metrics and streaming simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic model and motion sequence")
    _add_common(p)
    _add_settings(p, "synth")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit-codec", help="fit window projections and codebooks on motion files")
    _add_common(p)
    _add_inputs(p, "--motion", action="append", required=True, help="training motion file (repeatable)")
    _add_settings(p, "quantizer")
    p.set_defaults(func=cmd_fit_codec)

    p = sub.add_parser("encode", help="encode a motion file to tokens")
    _add_common(p)
    _add_inputs(p, "--codebook", "--motion", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a token file to motion")
    _add_common(p)
    _add_inputs(p, "--codebook", "--tokens", required=True)
    p.add_argument("--frames", type=int, default=None, help="original frame count (default: all)")
    p.add_argument("--fps", type=_finite_float, default=motion_core.DEFAULT_FPS,
                   help="output frame rate (default %(default)s)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval-recon", help="itemized reconstruction loss report")
    _add_common(p)
    _add_inputs(p, "--model", "--gt", "--pred", required=True)
    _add_inputs(p, "--codebook", default=None, help="include quantizer diagnostics")
    _add_settings(p, "weights")
    p.set_defaults(func=cmd_eval_recon)

    p = sub.add_parser("eval-metrics", help="full metric report for a prediction/reference pair")
    _add_common(p)
    _add_inputs(p, "--model", "--gt", "--pred", required=True)
    _add_settings(p, "metrics")
    p.set_defaults(func=cmd_eval_metrics)

    p = sub.add_parser("compare", help="rank candidate motions against one reference")
    _add_common(p)
    _add_inputs(p, "--model", "--reference", required=True)
    _add_inputs(p, "--candidate", action="append", required=True, help="candidate motion file (repeatable)")
    _add_settings(p, "metrics")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate-stream", help="run the segment-wise decode protocol")
    _add_common(p)
    _add_inputs(p, "--features", "--codebook", required=True)
    p.add_argument("--predictor", choices=streamsim.PREDICTOR_KINDS, default="hold_last")
    _add_inputs(p, "--gt-tokens", default=None, help="token file for the oracle predictor")
    _add_inputs(p, "--corpus-features", default=None, help="feature file for the retrieval corpus")
    _add_inputs(p, "--corpus-tokens", default=None, help="token file for the retrieval corpus")
    _add_settings(p, "stream")
    p.set_defaults(func=cmd_simulate_stream)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # an overflow or 0*inf yields inf or NaN, which the reports refuse as a ValueError
        with np.errstate(over="ignore", invalid="ignore"):
            done = args.func(args, _load_config(args.config))
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            paths = {}
            for name, (file_name, write, value) in done.outputs.items():
                paths[name] = out / file_name
                write(paths[name], value)
        manifest = {
            "manifest": 1,
            "tool_version": __version__,
            "command": args.command,
            "seed": done.seed,
            "inputs": _inputs(args),
            "outputs": {name: str(path) for name, path in paths.items()},
            "config": done.config,
        }
        if done.results is not None:
            manifest["results"] = done.results
        fileio.write_json(out / f"{args.command}.manifest.json", manifest)
        if not args.quiet:
            print(done.message.format(**paths))
        return EXIT_OK
    except UsageError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FormatError as exc:
        print(f"facemotion {args.command}: format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (FaceMotionError, ValueError) as exc:
        print(f"facemotion {args.command}: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:  # a count too large for this machine; numpy's message names the size
        print(f"facemotion {args.command}: out of memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"facemotion {args.command}: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
