"""Golden SHA-256 digests of the trace and summary CSVs.

The digests were recorded with the engine's hand-written barrier closures,
before the engine was driven from the barrier catalog, so they pin that the
closed loop still produces the same bytes.  The bounds are chosen to reach
what the pinned criterion-4/5 configs do not: b_V = 0.01985 is a bound
where b * b and b ** 2 round differently, and b_e = 2 is a model-II bound
where Theorem 1's gain and monitor kinds do not agree.

The digests in MORE_GOLDEN were recorded the same way, before the closed
loop ran n = m = 1 models on Python floats: Theorem 1 in cont mode,
Theorem 2 in disc mode, and one coarse-grid run per model whose
iterations breach the constraint inside an integrator stage.

CASES lists every digest's (model, theorem, mode, bound, N).  A case
runs K iterations of config(case) on model(case), and exact_scheme(case)
is tests/oracle.py's scheme on the same floats.  tests/test_golden.py,
tests/test_oracle.py and tests/golden_diff.py all read this table, so
re-recording a digest edits this file alone.  These import fblf_ilc
when called, not at import, so that a process that put another
checkout's src first on sys.path runs that checkout's package.
"""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
K = 3

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


# (model, theorem, mode, bound, N) -> digests as above; the N = 10 and
# N = 20 runs breach at a stage in some of their three iterations
MORE_GOLDEN = {
    ("I", 1, "cont", 0.5, 200): (
        "2f8a402376d1abe72a89dea2daa795a32e0ddf7b237f979518c5da1ba2b85a1e",
        "f190218f17abdf7712b88dcff403cf496aeb4dba0d85a88fb91ed5c71723fd4f"),
    ("I", 1, "cont", 0.01985, 200): (
        "7daba19a8a0da709a09eb80d10acdac45f40a9ea53548d00c7f3299ec476bee7",
        "2e9972de11cd4c911637d90b6bf72bef3b89ab6d1b1411a388145915c033911e"),
    ("II", 1, "cont", 1.0, 200): (
        "490124fcab2efe25068cfb810cdf4ae121550279e213a1f398b8bffd96e09c24",
        "a7e8776431550e2ba57e36abdda4a8946ec60db49059603cb7ec30684d1451f6"),
    ("II", 1, "cont", 2.0, 200): (
        "31142a2f266b5c101e595e4070acd37c9bfd82451d2c1f928ba6e56e793e9fbe",
        "04ee40234ca11f979e3c37cdd22cdd74b92d97c6f8d8bd211e7795a52f12f9b9"),
    ("I", 2, "disc", 0.5, 200): (
        "d520df2760ad05f2f5d6c0a78a785eedd7b562b3c754f6f5778317a6cf026c0a",
        "9cf54004fb4297418eebe0674a4942118fd124b331eeb627ffa66e29bc9ce921"),
    ("I", 2, "disc", 0.01985, 200): (
        "8f6ba436f252097cae832e9e08becd08ea6f74e03b627d958b5431700dcb0411",
        "bcd814e5038837ec20c8dd029966e990af8176b77e22304050c0581880606544"),
    ("II", 2, "disc", 1.0, 200): (
        "6a55fb611e917c9a1b4cb79018a1634bd6c921a21a6145076e732eb392f09f56",
        "d2fe767697d610200218893695f943e86b55949ede04688e817ad57806414f1b"),
    ("II", 2, "disc", 2.0, 200): (
        "e0ec6953c39851125e0562fd05db9dd03b93f6a48a8b09a853c25be715abe63d",
        "2dc7dab83eb2a5c7bb524f05be787f0df517b28027b6173cd26305d5daf002b2"),
    ("I", 1, "disc", 0.05, 10): (
        "52aa4b54e158f4501308d93c2b46f619a673d5e6a8ebb79b4015b4bde1eb5504",
        "6d580ab6facdbbf20d60a1add63aa329ef737a5501629e3d27f0513306c5280b"),
    ("II", 2, "cont", 0.2, 20): (
        "66ec460e7b021864364e682c8389dda25e9ea58ae95a50c29f3659a6eb139961",
        "73413c1881b18b4606a02f20a166648865c322a7cdee49e9e74823fc19f7285b"),
}

CASES = sorted(
    [(model, theorem, "disc" if theorem == 1 else "cont", bound, 200)
     for model, theorem, bound in GOLDEN] + list(MORE_GOLDEN))
# Theorem 2 at b_V = 0.01985 amplifies a rounding to O(1) over a run, so
# only the step check judges these (see tests/test_oracle.py)
CHAOTIC = {("I", 2, mode, 0.01985, 200) for mode in ("disc", "cont")}


def model(case):
    """The case's built-in model."""
    from fblf_ilc import scalar_model_i, scalar_model_ii
    return {"I": scalar_model_i, "II": scalar_model_ii}[case[0]]()


def config(case):
    """gamma = 2, theta_bar = 1 and, in cont mode, eps = 1e-2."""
    from fblf_ilc import ControllerConfig
    _, _, mode, bound, _ = case
    return ControllerConfig(mode=mode, bound=bound, gamma=2.0, theta_bar=1.0,
                            eps=1e-2 if mode == "cont" else None)


def exact_scheme(case):
    """tests/oracle.py's scheme for the case, on this checkout's floats."""
    import oracle
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from fblf_ilc import TimeGrid, plant
    m, cfg = model(case), config(case)
    grid = TimeGrid(T=m.T, N=case[4])
    dt = grid.dt
    return oracle.Scheme(*case[:3], plant._desired(m, grid.times), dt,
                         0.5 * dt, dt / 6.0, plant.value_bound(m, cfg.bound),
                         cfg.gamma, cfg.theta_bar, cfg.eps)
