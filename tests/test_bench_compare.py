"""``tools/bench_compare.py`` against the committed BENCH files."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location(
        "bench_compare", ROOT / "tools" / "bench_compare.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("name", sorted(p.name for p in ROOT.glob("BENCH_*.json")))
def test_committed_bench_files_pass(name, capsys):
    assert _tool().main([str(ROOT / name)]) == 0
    out = capsys.readouterr().out
    assert "inversion-alt     rep_ms_p50" in out
    assert "problem" not in out


def _baseline():
    return json.loads((ROOT / "BENCH_pr11.json").read_text())


def test_a_change_past_its_bound_fails(tmp_path, capsys):
    # slow every change run of one metric by 30% against its 25% bound and
    # store the recomputed fields, so that only the bound is broken
    bench = _baseline()
    entry = bench["workloads"]["inversion-alt"]["rep_ms_p50"]
    entry["runs"]["change"] = [1.3 * v for v in entry["runs"]["parent"]]
    entry["change"] = statistics.median(entry["runs"]["change"])
    entry["relative_change"] = (entry["change"] - entry["parent"]) / entry["parent"]
    path = tmp_path / "BENCH_slow.json"
    path.write_text(json.dumps(bench))
    assert _tool().main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "problem: inversion-alt rep_ms_p50: stored within_bound=True" in out
    assert "problem: inversion-alt rep_ms_p50: worse by 30.0%" in out
    assert out.count("problem:") == 2


def _problems(bench):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return _tool().compare(bench, benchmark)[1]


def test_a_higher_is_better_metric_is_worse_when_it_falls():
    bench = _baseline()
    entry = bench["workloads"]["mmd-null"]["reps_per_s"]
    entry["runs"]["change"] = [0.7 * v for v in entry["runs"]["parent"]]
    assert "mmd-null reps_per_s: worse by 30.0%, past the bound 25%" in _problems(bench)


def test_a_stored_field_that_disagrees_fails(tmp_path, capsys):
    bench = _baseline()
    bench["workloads"]["equivariance-alt"]["setup_s"]["parent"] *= 1.01
    path = tmp_path / "BENCH_edited.json"
    path.write_text(json.dumps(bench))
    assert _tool().main([str(path)]) == 1
    assert "equivariance-alt setup_s: stored parent=" in capsys.readouterr().out


def test_wall_runs_print_their_medians_and_never_fail(tmp_path, capsys):
    # wall runs 40% slower than the parent's are printed with their change
    # and the verdict "info"; the file still passes
    bench = _baseline()
    parent = bench["workloads"]["mmd-null"]["rep_ms_p50"]["runs"]["parent"]
    bench["workloads"]["mmd-null"]["wall"] = {
        "rep_ms_p50": {"parent": parent, "change": [1.4 * v for v in parent]}}
    path = tmp_path / "BENCH_wall.json"
    path.write_text(json.dumps(bench))
    assert _tool().main([str(path)]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if "wall." in line]
    assert len(rows) == 1
    assert rows[0][:2] == ["mmd-null", "wall.rep_ms_p50"]
    assert rows[0][-4:] == ["+40.0%", "lower", "-", "info"]
    assert float(rows[0][2]) == pytest.approx(statistics.median(parent), abs=1e-4)
    assert "problem" not in out


def test_a_file_without_wall_runs_prints_no_wall_rows(capsys):
    assert _tool().main([str(ROOT / "BENCH_pr11.json")]) == 0
    assert "wall." not in capsys.readouterr().out
