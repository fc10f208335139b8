"""Every file a CLI pipeline writes, manifests included, has the same bytes at
one and at two BLAS threads, and the same bytes as the commit that pinned them.

The pipeline runs all eight commands and all four stream predictors. The
sha256 of each file it writes at one thread is pinned in
``golden/pipeline_sha256.json``, with the numpy version that wrote them: the
hashes hold for that numpy and its bundled OpenBLAS only, so on another
version the golden test fails with a message naming both versions (it does
not skip). A change that alters output bytes on purpose updates that file in
the same commit and names each changed file; the failure message lists each
differing file with its pinned and its new hash."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import facemotion
from facemotion import fileio, streamsim

FRAMES = 400
GOLDEN = Path(__file__).parent / "golden" / "pipeline_sha256.json"

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
run("compare", "--out", "cmp", "--model", "a/model.json", "--reference", "a/motion.a2mo",
    "--candidate", "dec/decoded.a2mo", "--candidate", "b/motion.a2mo", "--candidate", "dec/decoded.a2mo")
stream = ("--features", "features.a2fe", "--codebook", codec, "--segment-tokens", 4)
run("simulate-stream", "--out", "oracle", *stream, "--predictor", "oracle", "--gt-tokens", "enc_a/tokens.a2tk")
run("simulate-stream", "--out", "retrieval", *stream, "--predictor", "retrieval",
    "--corpus-features", "corpus.a2fe", "--corpus-tokens", "enc_b/tokens.a2tk")
run("simulate-stream", "--out", "hold_last", *stream, "--predictor", "hold_last")
run("simulate-stream", "--out", "uniform", *stream, "--predictor", "uniform", "--seed", 3)
"""


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def trees(tmp_path_factory):
    """The files the pipeline leaves at one and at two BLAS threads: relative path -> bytes."""
    rng = np.random.Generator(np.random.PCG64(5))
    features = {name: streamsim.AudioFeatureSequence(rng.standard_normal((FRAMES, 8)), fps=25.0)
                for name in ("features", "corpus")}
    src = str(Path(facemotion.__file__).parents[1])
    out = {}
    for threads in ("1", "2"):
        cwd = tmp_path_factory.mktemp(f"threads{threads}")
        for name, h in features.items():
            fileio.save_features(cwd / f"{name}.a2fe", h)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-W", "error", "-c", PIPELINE], cwd=cwd, env=env, check=True)
        out[threads] = _tree(cwd)
    return out


def test_pipeline_outputs_are_byte_identical_at_one_and_two_blas_threads(trees):
    one, two = trees["1"], trees["2"]
    assert len(one) == 45  # the 2 feature files and the 43 the fourteen commands write
    assert one.keys() == two.keys()
    assert [name for name in one if one[name] != two[name]] == []


def test_pipeline_outputs_match_the_pinned_hashes(trees):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["numpy"] == np.__version__, (
        f"hashes pinned with numpy {golden['numpy']}, running numpy {np.__version__}: re-pin on this version")
    got = {name: hashlib.sha256(data).hexdigest() for name, data in trees["1"].items()}
    assert sorted(got) == sorted(golden["sha256"])
    changed = [f"{name}: {golden['sha256'][name]} -> {got[name]}"
               for name in sorted(got) if got[name] != golden["sha256"][name]]
    assert not changed, "files whose bytes changed (pinned -> now):\n" + "\n".join(changed)
