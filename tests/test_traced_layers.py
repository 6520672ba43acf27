"""The benchmark's traced layers and imports must name functions that exist.

``bench/spans.py`` looks each traced function up by module and attribute
name, and the benchmark scripts import names from ``symtest``, so renaming
or deleting one of them would otherwise only fail in a benchmark run.  Work
fused into an untraced caller would be charged to that caller's self time,
so the CP test and the two exact kernel-sum tests are checked to score
their null copies through the traced statistic.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SPANS = BENCH / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


LAYERS = _spans().LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module, attr, _ = LAYERS[layer]
    target = importlib.import_module(f"symtest.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


@pytest.mark.parametrize("script", sorted(p.name for p in BENCH.glob("*.py")))
def test_bench_imports_from_symtest_resolve(script):
    # untraced code such as worker.py's KCI recheck runs only after a timed run
    tree = ast.parse((BENCH / script).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "symtest":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "symtest":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                # a name is an attribute of the module or one of its submodules
                assert (hasattr(module, alias.name)
                        or importlib.util.find_spec(name)), f"{script}: {name}"


def test_cp_null_copies_pass_through_the_traced_statistic(monkeypatch):
    # the traced statistic must score every null copy, so that the copies'
    # time is charged to its layer and not to cp_test's self time
    from symtest import GaussianRBF, condsym, cp_test
    from symtest.groups import so

    original = condsym.multiple_correlation_statistic
    scored = []

    def recording(*args):
        out = original(*args)
        scored.append(np.size(out))
        return out

    monkeypatch.setattr(condsym, "multiple_correlation_statistic", recording)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        rng = np.random.default_rng(5)
        X, Y = rng.normal(size=(24, 2)), rng.normal(size=(24, 2))
        k = GaussianRBF(1.0)
        res = cp_test(X, Y, so(2), k, k, burn_in=2, B=19, rng=rng)
    finally:
        tracer.uninstall()
    values = tracer.end()
    assert res.null_stats.size == 19
    assert sum(scored) == 1 + 19  # the observed statistic and every copy
    assert values["condsym.multiple_correlation_statistic.calls"] == len(scored)
    assert values["condsym.multiple_correlation_statistic.ms"] > 0.0


def _record_samples_scored(monkeypatch):
    """Route invariance_stat_u through a recorder of the samples each call
    scores.

    Patched before the tracer installs, so that the traced layer wraps the
    recorder and counts its calls.
    """
    from symtest import invariance, mmd

    original = mmd.invariance_stat_u
    scored = []

    def recording(X, kernel, stack=False):
        out = original(X, kernel, stack=stack)
        scored.append(np.size(out))
        return out

    for module in (mmd, invariance):
        monkeypatch.setattr(module, "invariance_stat_u", recording)
    return scored


def test_mmd_u_scores_each_copy_once_with_no_gram_and_no_transform_draws(
        monkeypatch):
    # the statistic is the mean kernel value over the pairs i < j: the
    # observed sample and each of the B copies are scored once, whatever m
    # is, all B copies in one traced invariance_stat_u call, with no Gram
    # and no transform draws; the kernel time is charged to
    # invariance_stat_u
    from symtest import GaussianRBF, mc_invariance_test
    from symtest.groups import so

    n, m, B = 12, 2, 9
    scored = _record_samples_scored(monkeypatch)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        X = np.random.default_rng(6).normal(size=(n, 3))
        res = mc_invariance_test(X, so(3), GaussianRBF(1.0), m=m, B=B,
                                 statistic="mmd-u", rng=np.random.default_rng(7))
    finally:
        tracer.uninstall()
    values = tracer.end()
    assert res.null_stats.size == B
    # the observed sample alone, then every copy in one stack
    assert scored == [1, B]
    assert values["mmd.invariance_stat_u.calls"] == len(scored)
    assert values["mmd.invariance_stat_u.ms"] > 0.0
    assert values["kernels.gram.calls"] == 0
    assert values["groups.sample_batch.elements"] == 0


def test_null_draws_hold_no_more_values_than_the_bound(monkeypatch):
    # room for 4 null samples and a bit: B = 9 copies come in stacks of 4,
    # 4 and 1, one draw and one invariance_stat_u call each
    from symtest import GaussianRBF, invariance, mc_invariance_test
    from symtest.groups import so

    X = np.random.default_rng(6).normal(size=(12, 3))
    monkeypatch.setattr(invariance, "_DRAW_ENTRIES", 4 * X.size + 3)
    scored = _record_samples_scored(monkeypatch)
    mc_invariance_test(X, so(3), GaussianRBF(1.0), B=9, rng=np.random.default_rng(7))
    assert scored == [1, 4, 4, 1]


def test_nystrom_makes_two_grams_per_sample_and_no_transform_draws():
    # each of the observed sample and the B copies is scored from its own
    # landmark Gram and landmark-to-sample Gram; no G or H is drawn
    from symtest import GaussianRBF, mc_invariance_test
    from symtest.groups import so

    n, m, B = 12, 2, 9
    tracer = _spans().Tracer()
    tracer.install()
    try:
        X = np.random.default_rng(12).normal(size=(n, 3))
        res = mc_invariance_test(X, so(3), GaussianRBF(1.0), m=m, B=B,
                                 statistic="mmd-nystrom",
                                 rng=np.random.default_rng(13))
    finally:
        tracer.uninstall()
    values = tracer.end()
    assert res.null_stats.size == B
    assert values["kernels.gram.calls"] == 2 * (B + 1)
    assert values["groups.sample_batch.elements"] == 0


def test_kci_test_builds_one_matrix_set_of_three_grams():
    # the statistic and the null draws of one KCI test read one build of
    # the conditioned matrices from three Grams, on Z, on M and on X; the
    # M Gram serves both K_M and the product kernel on (X, M)
    from symtest import GaussianRBF, KciConfig, kci_test_data, transform_responses
    from symtest.groups import so

    rng = np.random.default_rng(14)
    X, Y = rng.normal(size=(20, 2)), rng.normal(size=(20, 2))
    data = transform_responses(X, Y, so(2))
    k = GaussianRBF(1.0)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        kci_test_data(data, KciConfig(k, k, k, null_samples=50), rng=rng)
    finally:
        tracer.uninstall()
    assert tracer.end()["kernels.gram.calls"] == 3


@pytest.mark.parametrize("method", ["kci", "cp"])
def test_conditional_replication_resolves_each_median_bandwidth_once(
        method, monkeypatch):
    # rbf(median) for every kernel field: one median, on the tested sample's
    # points, for each kernel the method reads; kci reads the kernels on X,
    # on Z and on M, and cp only those on Z and on M.  The sample is
    # standardised once, by whichever module, and no training split is
    from symtest import kernels
    from symtest.harness import ExperimentConfig, run_replication

    original = kernels.median_heuristic
    calls = []

    def counting(X):
        calls.append(X)
        return original(X)

    monkeypatch.setattr(kernels, "median_heuristic", counting)
    cfg = ExperimentConfig.from_dict(dict(
        method=method, group="so(3)", generator="cond-abs(d=3)", n=20, B=9,
        burn_in=2, null_samples=50, reps=1, seed=4,
    ))
    tracer = _spans().Tracer()
    tracer.install()
    try:
        run_replication(cfg, 0)
    finally:
        tracer.uninstall()
    assert len(calls) == {"kci": 3, "cp": 2}[method]
    assert tracer.end()["condsym.transform_responses.rows"] == cfg.n


def test_inversion_scores_each_sample_once_with_no_gram_and_no_mmd_u(monkeypatch):
    # the inverting elements and each of the B fresh Haar samples are
    # scored once, the Haar samples in one traced invariance_stat_u call,
    # with no Gram; no reference sample and no two-sample mmd_u
    from symtest import RotationKernelSO3, inversion_mc_test
    from symtest.groups import so

    B = 9
    scored = _record_samples_scored(monkeypatch)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        X = np.random.default_rng(8).normal(size=(15, 3))
        res = inversion_mc_test(X, so(3), RotationKernelSO3(), B=B,
                                rng=np.random.default_rng(9))
    finally:
        tracer.uninstall()
    values = tracer.end()
    assert res.null_stats.size == B
    # the observed sample alone, then every Haar sample in one stack
    assert scored == [1, B]
    assert values["mmd.invariance_stat_u.calls"] == len(scored)
    assert values["kernels.gram.calls"] == 0
    assert values["mmd.mmd_u.calls"] == 0


@pytest.mark.parametrize("B", [1, 19, 199])
def test_two_sample_makes_three_grams_whatever_b(B):
    # the paired statistic and all B sign-flipped copies read one kernel
    # matrix built from Kxx, Kyy and Kxy
    from symtest import GaussianRBF, transformation_two_sample_test
    from symtest.groups import so

    tracer = _spans().Tracer()
    tracer.install()
    try:
        X = np.random.default_rng(10).normal(size=(12, 3))
        res = transformation_two_sample_test(X, so(3), GaussianRBF(1.0), B=B,
                                             rng=np.random.default_rng(11))
    finally:
        tracer.uninstall()
    values = tracer.end()
    assert res.null_stats.size == B
    assert values["kernels.gram.calls"] == 3
    assert values["mmd.mmd_u.calls"] == 0
