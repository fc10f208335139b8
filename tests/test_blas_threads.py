"""Every file a CLI pipeline writes, manifests included, has the same bytes at
one and at two BLAS threads."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import facemotion
from facemotion import fileio, streamsim

FRAMES = 400

# Run in a fresh interpreter with the BLAS thread count already in its environment,
# so the count is fixed before numpy loads. Every path is relative to the working directory.
PIPELINE = f"""
from facemotion.cli import main

def run(*argv):
    assert main([str(a) for a in argv] + ["--quiet"]) == 0, argv

codec = "codec/codebook.a2cb"
for name, seed in (("a", 0), ("b", 1)):
    run("gen-data", "--out", name, "--seed", seed, "--frames", {FRAMES}, "--vertices", 200)
run("fit-codec", "--out", "codec", "--motion", "a/motion.a2mo", "--motion", "b/motion.a2mo", "--levels", 2,
    "--codebook-size", 32, "--seed", 0)
for name in ("a", "b"):
    run("encode", "--out", "enc_" + name, "--codebook", codec, "--motion", name + "/motion.a2mo")
run("decode", "--out", "dec", "--codebook", codec, "--tokens", "enc_a/tokens.a2tk", "--frames", {FRAMES})
pair = ("--model", "a/model.json", "--gt", "a/motion.a2mo", "--pred", "dec/decoded.a2mo")
run("eval-recon", "--out", "recon", *pair, "--codebook", codec)
run("eval-metrics", "--out", "metrics", *pair)
stream = ("--features", "features.a2fe", "--codebook", codec, "--segment-tokens", 4)
run("simulate-stream", "--out", "oracle", *stream, "--predictor", "oracle", "--gt-tokens", "enc_a/tokens.a2tk")
run("simulate-stream", "--out", "retrieval", *stream, "--predictor", "retrieval",
    "--corpus-features", "corpus.a2fe", "--corpus-tokens", "enc_b/tokens.a2tk")
"""


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_outputs_are_byte_identical_at_one_and_two_blas_threads(tmp_path):
    rng = np.random.Generator(np.random.PCG64(5))
    features = {name: streamsim.AudioFeatureSequence(rng.standard_normal((FRAMES, 8)), fps=25.0)
                for name in ("features", "corpus")}
    src = str(Path(facemotion.__file__).parents[1])
    trees = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        for name, h in features.items():
            fileio.save_features(cwd / f"{name}.a2fe", h)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-W", "error", "-c", PIPELINE], cwd=cwd, env=env, check=True)
        trees.append(_tree(cwd))
    assert len(trees[0]) == 30  # the 2 feature files and the 28 the ten commands write
    assert trees[0].keys() == trees[1].keys()
    assert [name for name in trees[0] if trees[0][name] != trees[1][name]] == []
