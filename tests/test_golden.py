"""Golden SHA-256 digests of the trace and summary CSVs.

The digests were recorded with the engine's hand-written barrier closures,
before the engine was driven from the barrier catalog, so they pin that the
closed loop still produces the same bytes.  The bounds are chosen to reach
what the pinned criterion-4/5 configs do not: b_V = 0.01985 is a bound
where b * b and b ** 2 round differently, and b_e = 2 is a model-II bound
where Theorem 1's gain and monitor kinds do not agree.
"""

import hashlib

import pytest

from fblf_ilc.controller import ControllerConfig, Mode
from fblf_ilc.engine import run, write_summary_csv, write_trace_csv
from fblf_ilc.plant import scalar_model_i, scalar_model_ii

MODELS = {"I": scalar_model_i, "II": scalar_model_ii}

# (model, theorem, bound) -> (trace.csv digest, summary.csv digest);
# Theorem 1 runs in disc mode, Theorem 2 in cont mode with eps = 1e-2
GOLDEN = {
    ("I", 1, 0.5): (
        "31be9a61f88d9f9816561522dd597106826d6d000d7c40d452796a1db175d1f1",
        "08c6437489d0bdfe63eb50cd33b0ca6472755f5707891b044e7bd6f7baacff8c"),
    ("I", 1, 0.01985): (
        "b7ce111f4af29a1f6e763b13fe3ae32d428d1f41959249cbaebd50cb7f7d2ac8",
        "1f8d6690ded37d9cdd80772eec9f9934763b4acfd30651e1cd7878338c84ba3b"),
    ("I", 2, 0.5): (
        "b7ea3aeb58e4b8e9d000c81b8af7d05ce175df952b845cb8fbdce6bb31abba6d",
        "0cfb6de79c1ad74ffdde5a8cb0809e83200582c3d8e0d03600ea974f83157738"),
    ("I", 2, 0.01985): (
        "8efb67cbb97a1e0c6a192fee53d4deeb0980839ddf25e986dc1ddca76f516494",
        "8e04c08e81e0477525521f9c9f3cd8aac4cace570dd7ae6550e836af1fee6d91"),
    ("II", 1, 1.0): (
        "41ba8610da7b5bef481ae92500e20e87dff1893f08c28a8983df34c264996c46",
        "4394cc8ac0994730ce6affcfc25d9dcf9a38d12ac10dd002dc3ea07bd358911b"),
    ("II", 1, 2.0): (
        "ea02211abd7104d87d6d639e24e27b78cd17ac4ea1011af0851cf2227ff755ef",
        "9a08cffcaccfa52f8c0562d2a2f5e80c7bd0f0e96500c34d5555b9f98cff099f"),
    ("II", 2, 1.0): (
        "3dd56258b48dd1890ca075c0eef1706a0a69cd94fa950a9f38541f7500387024",
        "06e252a421f38cb3f0f2e98d2205f9b46c1a49e24bfed31c483bafa0a95284c7"),
    ("II", 2, 2.0): (
        "d5643237b22c57a42b3894ac382f4d61abb8931279cafc44fdc91273b9e25e6b",
        "46433497bfc0dd6435e2ed9a84ee9f4597b25020e3ba6e3bd6dfe08afbfbd63a"),
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("model, theorem, bound", sorted(GOLDEN))
def test_csv_digests(tmp_path, model, theorem, bound):
    mode, eps = (Mode.DISC, None) if theorem == 1 else (Mode.CONT, 1e-2)
    cfg = ControllerConfig(mode=mode, bound=bound, gamma=2.0, theta_bar=1.0,
                           eps=eps)
    result = run(MODELS[model](), cfg, K=3, N=200, theorem=theorem)
    write_trace_csv(result, tmp_path / "trace.csv")
    write_summary_csv(result, tmp_path / "summary.csv")
    assert (digest(tmp_path / "trace.csv"),
            digest(tmp_path / "summary.csv")) == GOLDEN[model, theorem, bound]
