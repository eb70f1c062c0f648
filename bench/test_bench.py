"""Tests of the benchmark's own parts.  None of them runs a workload."""

import json
import time

import numpy as np

import checks
import run
import workloads
from layers import Tracer, per_layer_metrics


def _check_job():
    return workloads.Job("check:x", ["check", "--name", "x"], (0,), [
        ("field", "report.c_es", 4.0, workloads.CONST_TOL),
        ("field", "report.convergence", "exponential", 0),
    ])


def _report(c_es, convergence="exponential"):
    return json.dumps({"report": {"c_es": c_es, "convergence": convergence}})


def test_checker_accepts_constant_within_tolerance():
    assert checks.check_output(_check_job(), 0, _report(4.0 + 1e-9)) == []


def test_checker_rejects_constant_off_by_1e_3():
    assert checks.check_output(_check_job(), 0, _report(4.0 + 1e-3))
    assert checks.check_output(_check_job(), 0, _report(None))


def test_checker_rejects_wrong_verdict_and_exit_code():
    assert checks.check_output(_check_job(), 0, _report(4.0, "asymptotic only"))
    assert checks.check_output(_check_job(), 2, _report(4.0))


def test_checker_accepts_either_budget_exit_without_report():
    job = workloads.Job("synthesize:x", ["synthesize"], (3, 4), [("silent", None, None, 0)])
    assert checks.check_output(job, 4, "") == []
    assert checks.check_output(job, 3, "") == []
    assert checks.check_output(job, 0, "")


def _synthesize_job(directory):
    """A single-channel synthesize job for a rank-1 4x4 projection (block dilation)."""
    v = workloads._projection(np.random.default_rng(0), 4, 1)
    path = workloads.write_inputs([{"name": "p4", "V": v}], directory)["p4"]
    return workloads._synthesize(path, "p4", 1.0, 1)


def test_checker_counts_a_malformed_synthesis_report_as_failed(tmp_path):
    job = _synthesize_job(tmp_path)
    for stdout in ('{"channels": []}', "null", '{"report": {"U": 1}}'):
        problems = checks.check_output(job, 0, stdout)
        assert problems and "malformed report" in problems[0]


def test_checker_counts_a_csv_without_the_checked_column_as_failed():
    job = workloads._simulate("two_level", 1.0, {"V": 0.5})
    stdout = "t,trace\n" + "".join(f"{i},1.0\n" for i in range(201))
    problems = checks.check_output(job, 0, stdout)
    assert problems and "malformed report" in problems[0]


def test_traced_pass_leaves_the_checks_untraced(tmp_path):
    import dissipctl.cli as cli

    tracer = Tracer()
    result = run.inprocess_pass([_synthesize_job(tmp_path)], cli, tracer)
    assert result["jobs"][0]["problems"] == []
    metrics = per_layer_metrics(tracer)
    assert metrics["cli.main_s"][0] > 0
    # the gate's check_condition_es runs a bisection; synthesize itself runs none
    assert metrics["stability.psd_checks"][0] == 0


def test_synthesis_inputs_repeat_for_a_seed():
    first, again, other = (workloads.synthesis_inputs(s) for s in (7, 7, 8))
    assert [i["name"] for i in first] == [i["name"] for i in again]
    assert all(np.array_equal(a["V"], b["V"]) and a["c"] == b["c"]
               for a, b in zip(first, again))
    assert not all(np.array_equal(a["V"], b["V"]) for a, b in zip(first, other))


def test_synthesis_inputs_are_projections_of_the_stated_rank():
    for item in workloads.synthesis_inputs(3):
        v = item["V"]
        rank = int(item["name"].rsplit("-r", 1)[1])
        assert np.allclose(v @ v, v, atol=1e-12)
        assert round(float(np.trace(v).real)) == rank


def test_traced_self_times_fit_in_the_traced_wall(capsys):
    import dissipctl.cli as cli
    import dissipctl.stability as stability

    original = stability.is_psd
    with Tracer() as tracer:
        start = time.perf_counter()
        assert cli.main(["check", "--name", "two_level"]) == 0
        wall = time.perf_counter() - start
    assert stability.is_psd is original
    assert json.loads(capsys.readouterr().out)["report"]["convergence"] == "exponential"
    assert sum(tracer.self_times()) <= wall
    metrics = per_layer_metrics(tracer)
    assert metrics["stability.psd_checks"][0] > 0
    assert metrics["linalg.eig_calls"][0] > 0
    assert metrics["cli.main_s"][0] <= wall
