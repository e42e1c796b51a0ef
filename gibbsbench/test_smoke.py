"""Smoke test of the benchmark itself, at tiny sizes."""
import io
import json
import math
import sys

import pytest

from gibbsbench import bench

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace):
    report = bench.run_workload(workload, seed=3, seconds=0, trace=trace, size_name="tiny")
    out = io.StringIO()
    bench.print_report(report, out)
    lines = out.getvalue().splitlines()
    return report, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_metric_printed_with_unit_and_checks_run(workload, trace):
    report, lines, result = _run(workload, trace)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
        assert any(line.split()[:2] == ["metric", name] and line.split()[3] == m["unit"]
                   for line in lines)
    # every op of every pass was checked, and its verdict counted
    assert report["checks"] == (1 + trace) * len(report["first_pass"])
    assert result["attempted"] >= report["checks"]
    assert 0 <= result["failed"] <= result["attempted"]
    assert any(line.startswith("checks=") for line in lines)
    if trace:
        assert any(line.startswith("_enum:") for line in lines)


def test_checks_flag_a_wrong_distance(monkeypatch):
    from gibbslab import measures

    monkeypatch.setattr(measures, "d_bl", lambda mu, nu: 2.0)
    report = bench.run_workload("distances", seed=3, seconds=0, trace=0, size_name="tiny")
    assert not report["correct"]
    assert report["failed"] == report["attempted"]


@pytest.mark.parametrize("change", ["shift", "drop"])
def test_checks_flag_a_chain_off_the_reference_energy(monkeypatch, change):
    from gibbsbench import workloads

    key = f"plane_box2_n{workloads.SIZES['tiny']['mh_coulomb']['n']}"
    if change == "shift":
        mean, se, asymptotic_var = workloads.ENERGY_REFERENCE[key]
        monkeypatch.setitem(workloads.ENERGY_REFERENCE, key, (mean + 10.0, se, asymptotic_var))
    else:
        monkeypatch.delitem(workloads.ENERGY_REFERENCE, key)
    report = bench.run_workload("mh_coulomb", seed=3, seconds=0, trace=0, size_name="tiny")
    assert not report["correct"]
    flagged = {r.name for r in report["first_pass"] if r.problems}
    assert flagged == {"density_chain", "2_chains"}


def test_every_size_has_a_reference_energy():
    from gibbsbench import workloads

    for sizes in workloads.SIZES.values():
        size = sizes["mh_coulomb"]
        n = size["n"]
        assert f"plane_box2_n{n}" in workloads.ENERGY_REFERENCE
        assert f"line_grid{size['atoms']}_n{n}" in workloads.ENERGY_REFERENCE


def test_traced_run_restores_the_package():
    from gibbslab import measures, sampler

    before = (sampler.evaluate_W, sampler.hamiltonian, measures.linprog,
              measures.DiscreteMeasure.__init__)
    bench.run_workload("mh_coulomb", seed=3, seconds=0, trace=1, size_name="tiny")
    assert (sampler.evaluate_W, sampler.hamiltonian, measures.linprog,
            measures.DiscreteMeasure.__init__) == before


def test_refuses_to_run_without_the_source(monkeypatch, tmp_path):
    monkeypatch.setattr(bench, "SRC", tmp_path)
    assert bench.main(["--workload", "distances", "--seconds", "0"]) == 2
