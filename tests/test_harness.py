"""Tests for the simulation harness, tuning, data ingestion and reports."""

import json
import os

import numpy as np
import pytest

from symtest import (
    BadMonteCarloBudget,
    ConfigInvalid,
    DataFileMissing,
    EmptyGrid,
    ExperimentConfig,
    ParseError,
    RangeError,
    SampleTooSmall,
    SchemaMismatch,
    TooFewValues,
    emit_report,
    ingest_csv,
    pvalue_uniformity_check,
    run_replication,
    run_simulation,
    tune_bandwidths,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def tiny_config(**overrides):
    base = dict(
        method="mmd", group="so(2)", n=15, reps=4, m=1, B=9,
        kernel="rbf(1.0)", generator="gauss-iso(d=2)", seed=7,
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config()
        assert cfg.method == "mmd" and cfg.n == 15

    def test_requires_method_and_group(self):
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"method": "mmd"})
        with pytest.raises(ConfigInvalid):
            ExperimentConfig.from_dict({"group": "so(2)"})

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(bogus=1)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(method="anova")
        with pytest.raises(ConfigInvalid):
            tiny_config(group="su(2)")
        with pytest.raises(ConfigInvalid):
            tiny_config(n=0)
        with pytest.raises(ConfigInvalid):
            tiny_config(alpha=1.0)
        with pytest.raises(ConfigInvalid):
            tiny_config(kernel="banana")
        with pytest.raises(ConfigInvalid):
            tiny_config(generator="nope(d=2)")
        with pytest.raises(ConfigInvalid):
            tiny_config(y_action="flip")
        with pytest.raises(ConfigInvalid):
            tiny_config(n=True, B=True)
        with pytest.raises(ConfigInvalid):
            tiny_config(reps=False)

    @pytest.mark.parametrize("field,value", [
        ("n_landmarks", 2.5), ("n_landmarks", True), ("n_landmarks", 0),
        ("n_projections", 2.5), ("seed", -1), ("seed", 1.5), ("seed", True),
        ("alpha", "0.05"), ("epsilon", "x"), ("epsilon", True),
        ("group", 3), ("generator", 3), ("kernel", None), ("kernel_m", 1.0),
        ("m_kind", 3), ("m_kind", "banana"),
    ])
    def test_rejects_values_of_the_wrong_type(self, field, value):
        with pytest.raises(ConfigInvalid, match=field):
            tiny_config(**{field: value})

    def test_rejects_non_finite_bandwidth_and_epsilon(self):
        with pytest.raises(ConfigInvalid, match="finite"):
            tiny_config(kernel="rbf(1e400)")
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ConfigInvalid, match="epsilon must be positive and finite"):
                tiny_config(epsilon=bad)

    def test_generator_xor_data(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(generator=None)
        with pytest.raises(ConfigInvalid):
            tiny_config(data="x.csv", schema={"features": ["a"]})
        with pytest.raises(ConfigInvalid):
            tiny_config(generator=None, data="x.csv")  # schema missing


class TestSimulation:
    def test_deterministic(self):
        r1 = run_simulation(tiny_config())
        r2 = run_simulation(tiny_config())
        assert r1.pvalues == r2.pvalues
        assert r1.rejection_rate == r2.rejection_rate

    def test_replication_keyed_by_index(self):
        cfg = tiny_config()
        a = run_replication(cfg, 0).p_value
        b = run_replication(cfg, 1).p_value
        # same replication index reproduces, independent of order
        assert run_replication(cfg, 0).p_value == a
        assert run_replication(cfg, 1).p_value == b

    def test_report_fields(self):
        rep = run_simulation(tiny_config())
        assert rep.reps == 4 and len(rep.pvalues) == 4
        assert 0.0 <= rep.rejection_rate <= 1.0
        assert rep.mean_seconds > 0
        assert rep.config["kernel"] == "rbf(1.0)"

    def test_median_bandwidth_path(self):
        rep = run_simulation(tiny_config(kernel="rbf(median)"))
        assert len(rep.pvalues) == 4

    def test_conditional_method(self):
        cfg = tiny_config(
            method="kci", generator="cond-shift(d=2)", n=20,
            kernel="rbf(1.0)", kernel_y="rbf(1.0)", kernel_m="rbf(1.0)",
            null_samples=100,
        )
        rep = run_simulation(cfg)
        assert len(rep.pvalues) == 4

    def test_cw_with_dimensionless_trivial_group(self):
        cfg = tiny_config(method="cw", group="trivial", n=20)
        assert run_replication(cfg, 0).p_value == 1.0

    def test_file_backed_simulation(self):
        cfg = tiny_config(
            generator=None, data=os.path.join(FIXTURES, "dijet.csv"),
            schema={"features": ["pt1", "phi1", "pt2", "phi2"]},
            group="so(4)", n=10, kernel="rbf(1.0)",
        )
        rep = run_simulation(cfg)
        assert len(rep.pvalues) == 4


class TestUniformityCheck:
    def test_uniform_sample_passes(self):
        p = np.random.default_rng(0).integers(1, 101, size=500) / 100.0
        stat, pv = pvalue_uniformity_check(p, 99)
        assert pv > 0.01 and stat < 0.1

    def test_concentrated_sample_fails(self):
        stat, pv = pvalue_uniformity_check(np.full(100, 0.5), 99)
        assert pv < 1e-6
        assert stat == pytest.approx(0.5)

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            pvalue_uniformity_check([0.1, 0.2, 0.3, 0.4], 9)

    def test_lattice_grid_is_nearly_uniform(self):
        # every atom of the grid once: the sample's law is the null law
        grid = np.arange(1, 101) / 100.0
        assert pvalue_uniformity_check(grid, 99) == (0.0, 1.0)

    def test_bad_null_count(self):
        with pytest.raises(BadMonteCarloBudget):
            pvalue_uniformity_check(np.full(10, 0.5), 0)


class TestTuning:
    def test_picks_best_power_under_cap(self):
        grids = {"kernel": [1.0, 2.0], "kernel_y": [0.5]}
        table = {
            (1.0, 0.5): (0.05, 0.90),
            (2.0, 0.5): (0.08, 0.99),
        }

        def measure(combo):
            return table[(combo["kernel"], combo["kernel_y"])]

        best, records = tune_bandwidths(grids, measure, h0_cap=0.1)
        assert best == {"kernel": 2.0, "kernel_y": 0.5}
        assert len(records) == 2

    def test_falls_back_to_lowest_null_rate(self):
        grids = {"kernel": [1.0, 2.0, 3.0]}
        rates = {1.0: (0.5, 1.0), 2.0: (0.3, 1.0), 3.0: (0.4, 1.0)}
        best, _ = tune_bandwidths(grids, lambda c: rates[c["kernel"]], 0.1)
        assert best == {"kernel": 2.0}

    def test_ties_keep_enumeration_order(self):
        grids = {"kernel": [1.0, 2.0]}
        best, _ = tune_bandwidths(grids, lambda c: (0.05, 0.9), 0.1)
        assert best == {"kernel": 1.0}

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            tune_bandwidths({}, lambda c: (0, 0))
        with pytest.raises(EmptyGrid):
            tune_bandwidths({"kernel": []}, lambda c: (0, 0))


class TestIngest:
    def test_reads_features_and_response(self):
        X, Y, header = ingest_csv(
            os.path.join(FIXTURES, "topquark.csv"),
            {"features": ["e1", "px1", "py1", "pz1"], "response": ["label"]},
        )
        assert X.shape == (64, 4)
        assert Y.shape == (64, 1)
        assert "label" in header

    def test_feature_order_follows_schema(self):
        X1, _, _ = ingest_csv(
            os.path.join(FIXTURES, "dijet.csv"), {"features": ["pt1", "pt2"]}
        )
        X2, _, _ = ingest_csv(
            os.path.join(FIXTURES, "dijet.csv"), {"features": ["pt2", "pt1"]}
        )
        assert np.allclose(X1, X2[:, ::-1])

    def test_missing_file(self):
        with pytest.raises(DataFileMissing):
            ingest_csv("/nonexistent/file.csv", {"features": ["a"]})

    def test_missing_column(self):
        with pytest.raises(SchemaMismatch):
            ingest_csv(
                os.path.join(FIXTURES, "dijet.csv"), {"features": ["momentum"]}
            )

    def test_bad_cell_reports_position(self):
        with pytest.raises(ParseError) as err:
            ingest_csv(
                os.path.join(FIXTURES, "bad_cell.csv"),
                {"features": ["a", "b"]},
            )
        assert err.value.row is not None
        assert err.value.column is not None

    def test_bad_schema(self):
        with pytest.raises(SchemaMismatch):
            ingest_csv(os.path.join(FIXTURES, "dijet.csv"), {"cols": ["pt1"]})

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("a,b\n1.0,inf\n")
        with pytest.raises(RangeError):
            ingest_csv(str(path), {"features": ["a", "b"]})


class TestReports:
    def test_json_report(self, tmp_path):
        rep = run_simulation(tiny_config())
        out = tmp_path / "report.json"
        emit_report(rep, str(out), "json")
        payload = json.loads(out.read_text())
        assert payload["method"] == "mmd"
        assert payload["pvalues"] == rep.pvalues
        assert payload["config"]["group"] == "so(2)"

    def test_csv_report_round_trips(self, tmp_path):
        rep = run_simulation(tiny_config(reps=5))
        out = tmp_path / "report.csv"
        emit_report(rep, str(out), "csv")
        text = out.read_text()
        assert "rejection_rate" in text
        X, _, _ = ingest_csv(str(out), {"features": ["pvalue"]})
        assert np.allclose(X[:, 0], rep.pvalues, atol=1e-15)

    def test_unknown_format(self, tmp_path):
        from symtest import IoError as SymtestIoError

        rep = run_simulation(tiny_config())
        with pytest.raises(SymtestIoError):
            emit_report(rep, str(tmp_path / "x"), "yaml")


# One small replication per CLI method; the p-values were recorded from the
# implementation and change only if a method's random stream or statistic does.
PINNED = [
    (dict(method="mmd", group="so(3)", generator="gauss-iso(d=3)", m=2,
          kernel="rbf(median)"), 96 / 100),
    (dict(method="nmmd", group="so(3)", generator="gauss-iso(d=3)", m=2,
          kernel="rbf(median)", n_landmarks=6), 91 / 100),
    (dict(method="cw", group="so(3)", generator="gauss-iso(d=3)", m=2,
          n_projections=3), 43 / 100),
    (dict(method="2smmd", group="sym(4)", generator="gauss-iso(d=4)",
          kernel="rbf(median)"), 27 / 100),
    (dict(method="inversion-mmd", group="so(3)", generator="gauss-iso(d=3)",
          kernel="so3"), 98 / 100),
    (dict(method="kci", group="so(2)", generator="cond-shift(d=2)",
          null_samples=200), 111 / 201),
    (dict(method="cp", group="so(2)", generator="cond-shift(d=2)",
          burn_in=10), 8 / 100),
]


# the sizes and seed of every PINNED replication
PINNED_SIZES = dict(n=24, reps=1, B=99, seed=11)


@pytest.mark.parametrize("fields,p_value", PINNED,
                         ids=[f["method"] for f, _ in PINNED])
def test_pinned_pvalue(fields, p_value):
    cfg = ExperimentConfig.from_dict(dict(fields, **PINNED_SIZES))
    assert run_replication(cfg, 0).p_value == p_value


# The first three null statistics of each PINNED replication, to 12
# significant digits: a change of a method's random stream can leave its
# p-value in place, but not these.
PINNED_NULL_HEADS = {
    "mmd": (0.646187638267, 0.638482281768, 0.645097992914),
    "nmmd": (0.635894320379, 0.637708799691, 0.643485284579),
    "cw": (0.291666666667, 0.333333333333, 0.25),
    "2smmd": (0.00155731434737, 0.00636450486587, 0.0152061335795),
    "inversion-mmd": (0.998374197649, 1.00098329174, 0.998272500034),
    "kci": (0.0439713609599, 0.0838538806635, 0.0614642153368),
    "cp": (0.61071842666, 0.434752209633, 0.104843871117),
}


@pytest.mark.parametrize("fields", [f for f, _ in PINNED],
                         ids=[f["method"] for f, _ in PINNED])
def test_pinned_null_stats(fields):
    cfg = ExperimentConfig.from_dict(dict(fields, **PINNED_SIZES))
    head = tuple(float(f"{v:.12g}") for v in run_replication(cfg, 0).null_stats[:3])
    assert head == PINNED_NULL_HEADS[fields["method"]]


def test_top_quark_lorentz_invariance():
    # the Lorentz-invariance test as conditional independence of the jet
    # labels from the four-vectors given their Minkowski products
    cfg = ExperimentConfig.from_dict(dict(
        method="kci", group="trivial(8)", generator="top-quark",
        y_action="trivial", m_kind="minkowski-q", kernel_y="delta", n=60,
        reps=5, null_samples=200, seed=1,
    ))
    pvalues = [run_replication(cfg, rep).p_value for rep in range(5)]
    assert pvalues == [55 / 201, 3 / 201, 4 / 201, 3 / 201, 7 / 201]


@pytest.mark.parametrize("method,generator", [
    ("mmd", "gauss-iso(d=3)"), ("nmmd", "gauss-iso(d=3)"), ("cw", "gauss-iso(d=3)"),
    ("2smmd", "gauss-iso(d=3)"), ("inversion-mmd", "gauss-iso(d=3)"),
    ("kci", "cond-shift(d=3)"), ("cp", "cond-shift(d=3)"),
])
def test_every_method_draws_its_sample_once(method, generator, monkeypatch):
    # every kernel field at its default rbf(median): each test takes its
    # bandwidths from the sample it tests, and no training sample is drawn
    from symtest import harness

    calls = []
    original = harness.sample

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(harness, "sample", counting)
    cfg = ExperimentConfig.from_dict(dict(
        method=method, generator=generator, group="so(3)", n=20, B=9, burn_in=2,
        null_samples=50, n_landmarks=4, reps=1,
    ))
    run_replication(cfg, 0)
    assert len(calls) == 1


def test_file_backed_cw_runs_on_n_rows(tmp_path):
    path = tmp_path / "rows.csv"
    np.savetxt(path, np.random.default_rng(6).normal(size=(30, 2)),
               delimiter=",", header="a,b", comments="")
    cfg = ExperimentConfig.from_dict(dict(
        method="cw", group="so(2)", data=str(path), schema={"features": ["a", "b"]},
        n=30, reps=1, B=9,
    ))
    assert len(run_simulation(cfg).pvalues) == 1


def test_file_backed_mmd_with_a_median_kernel_runs_on_n_rows(tmp_path):
    # rbf(median) is resolved on the n tested rows: a file of n rows is
    # enough, and one of n - 1 rows is too small
    path = tmp_path / "rows.csv"
    np.savetxt(path, np.random.default_rng(7).normal(size=(30, 2)),
               delimiter=",", header="a,b", comments="")
    fields = dict(method="mmd", group="so(2)", data=str(path),
                  schema={"features": ["a", "b"]}, reps=2, B=9)
    assert len(run_simulation(ExperimentConfig.from_dict(dict(fields, n=30))).pvalues) == 2
    with pytest.raises(SampleTooSmall):
        run_simulation(ExperimentConfig.from_dict(dict(fields, n=31)))
