import copy
import functools
import importlib
import json
import operator
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dissipctl
from dissipctl import linalg, lindblad, scalability, stability, synthesis
from dissipctl.cli import _build_parser, main
from dissipctl.lindblad import evolve
from dissipctl.linalg import PAULI_X, SIGMA_MINUS
from dissipctl.serialize import matrix_to_json, model_to_json, trajectory_to_csv
from dissipctl.models import REGISTRY, build, two_level_example
from dissipctl.scalability import simulate_aggregate
from oracles import DenseModel, dense_candidate

CANDIDATES = [(name, k) for name in sorted(REGISTRY) for k in build(name).candidates]


@pytest.fixture()
def v_file(tmp_path):
    path = tmp_path / "v.json"
    path.write_text(json.dumps({"V": matrix_to_json(np.diag([1.0, 0.0]))}))
    return str(path)


def _dense_model_json(model) -> dict:
    """The model in the dense form: H and each coupling as the matrix of
    the whole space."""
    dense = DenseModel.of(model)
    return {"dims": list(model.structure.dims), "H": matrix_to_json(dense.hamiltonian),
            "L": [matrix_to_json(l) for l in dense.couplings]}


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_three_level_certified(self, capsys):
        code, out, _ = _run(capsys, ["check", "--name", "three_level"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["c_ds"] == pytest.approx(0.5, abs=1e-6)
        assert payload["report"]["c_es"] is None
        assert payload["version"]
        assert payload["seed"] == 0 and payload["tol"] == 1e-9

    def test_non_psd_candidate_not_certified(self, capsys, tmp_path):
        m = two_level_example()
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(m.model)))
        v_path = tmp_path / "v.json"
        v_path.write_text(json.dumps(matrix_to_json(np.diag([1.0, -1.0]))))
        code, out, _ = _run(capsys, ["check", "--model", str(model_path),
                                     "--v", str(v_path)])
        assert code == 2
        payload = json.loads(out)
        assert payload["report"]["diagnostics"]["psd"] == "V >= 0 fails"

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["check", "--model", str(tmp_path / "nope.json"),
                                     "--v", str(tmp_path / "nope2.json")])
        assert code == 1
        assert "not found" in err

    def test_candidate_selection(self, capsys):
        code, out, _ = _run(capsys, ["check", "--name", "two_qubit",
                                     "--candidate", "W1"])
        assert code == 0
        assert json.loads(out)["report"]["c_es"] == pytest.approx(1.0, abs=1e-6)
        code, _, err = _run(capsys, ["check", "--name", "two_qubit",
                                     "--candidate", "nope"])
        assert code == 1
        assert "candidates" in err

    @pytest.mark.parametrize("simulate", [[], ["--simulate"]], ids=["plain", "simulate"])
    def test_tol_reaches_every_test(self, capsys, tmp_path, simulate):
        # a V Hermitian within --tol passed the candidate check and then failed
        # the generator's own, at 1e-9: exit 1, "observable must be Hermitian"
        (tmp_path / "m.json").write_text(json.dumps(model_to_json(two_level_example().model)))
        (tmp_path / "v.json").write_text(
            json.dumps({"V": matrix_to_json(np.array([[1.0, 0.0], [1e-7, 0.0]]))}))
        code, out, err = _run(capsys, ["check", "--model", str(tmp_path / "m.json"), "--v",
                                       str(tmp_path / "v.json"), "--tol", "1e-6", *simulate])
        assert (code, err) == (0, "")
        report = json.loads(out)["report"]
        assert report["convergence"] == "exponential"
        assert report["c_es"] == pytest.approx(1.0, abs=1e-6)
        assert (report["simulation"] is not None) == bool(simulate)


class TestSynthesize:
    def test_projection_full_rotation(self, capsys, v_file):
        code, out, _ = _run(capsys, ["synthesize", "--v", v_file, "--c", "1"])
        assert code == 0
        payload = json.loads(out)
        l = payload["report"]["L"]
        assert l[0][0] == [0.0, 0.0]
        assert l[1][0] == [1.0, 0.0]

    def test_full_rank_is_infeasible(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2))))
        code, _, err = _run(capsys, ["synthesize", "--v", str(path), "--c", "1"])
        assert code == 3
        assert "rank" in err

    def test_seed_determinism(self, capsys, v_file):
        runs = []
        for _ in range(2):
            code, out, _ = _run(capsys, ["synthesize", "--v", v_file, "--c", "0.64",
                                         "--seed", "7"])
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_multi_channel(self, capsys, v_file):
        code, out, _ = _run(capsys, ["synthesize", "--v", v_file, "--c", "1",
                                     "--channels", "2"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["report"]["channels"]) == 2

    @pytest.mark.parametrize("channels", ["0", "-2"])
    def test_nonpositive_channels_is_input_error(self, capsys, v_file, channels):
        code, out, err = _run(capsys, ["synthesize", "--v", v_file, "--c", "1",
                                       "--channels", channels])
        assert code == 1 and out == ""
        assert f"channels must be >= 1, got {channels}" in err

    def test_seed_does_not_change_the_report(self, capsys, v_file):
        outs = []
        for seed in ("0", "7"):
            code, out, _ = _run(capsys, ["synthesize", "--v", v_file, "--c", "0.64",
                                         "--channels", "2", "--seed", seed])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "seed" not in json.loads(outs[0])

    def test_rank_obstructed_projection_is_infeasible(self, capsys, tmp_path):
        # rank 3 of 4 below c = 1: exit 3 at once, not an exhausted solver budget
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"V": matrix_to_json(np.diag([1.0, 1.0, 1.0, 0.0]))}))
        code, out, err = _run(capsys, ["synthesize", "--v", str(path), "--c", "0.5"])
        assert code == 3 and out == ""
        assert "rank(I - A'A) = 3 exceeds the kernel dimension 1" in err

    def test_nonprojection_below_its_target_is_infeasible(self, capsys, tmp_path):
        # V = diag(0.9, 0, 0): the coupling of V U V = sqrt(1-c) sqrt(V) at
        # c = 0.5 reaches only (0.9^3 - 1 + 0.5) / 0.9
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"V": matrix_to_json(np.diag([0.9, 0.0, 0.0]))}))
        reached = (0.9 ** 3 - 0.5) / 0.9
        for argv in (["--c", "0.5"], []):  # without --c, c = 1 and then 1/2 both fail
            code, out, err = _run(capsys, ["synthesize", "--v", str(path), *argv])
            assert code == 3 and out == ""
            assert f"reaches c = {reached:.6g}, below the target c = 0.5" in err

    def test_split_below_its_summed_bound_is_infeasible(self, capsys, v_file, monkeypatch):
        # a channel coupling L = V (U = I) has G_L(V) = 0, so two of them miss
        # K G_L(V) <= -c V: exit 3 with reason es, no report
        def identity_factor(v, c, *, tol):
            return synthesis._result(v, np.eye(2), v, c)

        monkeypatch.setattr(synthesis, "synthesize_closed_form", identity_factor)
        code, out, err = _run(capsys, ["synthesize", "--v", v_file, "--c", "1",
                                       "--channels", "2"])
        assert code == 3 and out == ""
        assert err.startswith("dissipctl: infeasible: es obstruction: the 2 couplings")
        assert "below the target c = 1" in err

    @pytest.mark.parametrize("field, value, message", [
        ("channels", '"two"', "channels: must be an integer, got 'two'"),
        ("channels", "2.5", "channels: must be an integer, got 2.5"),
        ("channels", "true", "channels: must be an integer, got True"),
        ("c", '"half"', "c: must be a finite number, got 'half'"),
        ("c", "NaN", "c: must be a finite number, got nan"),
        ("c", "Infinity", "c: must be a finite number, got inf"),
    ], ids=["channels-word", "channels-fraction", "channels-bool",
            "c-word", "c-nan", "c-inf"])
    def test_malformed_number_in_file(self, capsys, tmp_path, field, value, message):
        path = tmp_path / "v.json"
        path.write_text(f'{{"V": [[1, 0], [0, 0]], "{field}": {value}}}')
        code, out, err = _run(capsys, ["synthesize", "--v", str(path)])
        assert code == 1 and out == ""
        assert f"input error: {message}" in err

    @pytest.mark.parametrize("v, options, message", [
        ([[1, 0.5], [0, 0]], ["--c", "0.5"], "V: candidate must be Hermitian"),
        ([[1, 0], [0, -0.5]], ["--c", "0.5"], "V: candidate must be PSD"),
        ([[2, 0], [0, 0]], ["--c", "0.5", "--channels", "2"],
         "V: multi-channel synthesis assumes a projection"),
        ([[1, 0], [0, 0]], ["--c", "3"], "c: c must lie in (0, 1], got 3.0"),
        ([[1, 0], [0, 0]], ["--channels", "0"], "channels: channels must be >= 1, got 0"),
    ], ids=["non-hermitian", "negative", "non-projection", "c", "channels"])
    def test_candidate_refusal_names_its_fault(self, capsys, tmp_path, v, options, message):
        # a non-Hermitian V was refused as not PSD; none of these named its field
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"V": v}))
        assert _run(capsys, ["synthesize", "--v", str(path), *options]) == (
            1, "", f"dissipctl: input error: {message}\n")

    def test_numbers_in_file(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"V": [[1, 0], [0, 0]], "c": 1, "channels": 2.0}')
        code, out, _ = _run(capsys, ["synthesize", "--v", str(path)])
        assert code == 0
        assert len(json.loads(out)["report"]["channels"]) == 2

    @pytest.mark.parametrize("channels", ["1" + "0" * 400, "2097153"], ids=["400-digit", "cap"])
    def test_channel_count_above_the_report_cap(self, capsys, v_file, channels):
        # K channels report K copies of U and L, 2 K n^2 entries: 2097153 x 8
        # passes 4096^2 by 8; the 400-digit K ended in an OverflowError at c / K
        tracemalloc.start()
        try:
            result = _run(capsys, ["synthesize", "--v", v_file, "--c", "1",
                                   "--channels", channels])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = int(channels)
        assert result == (5, "", f"dissipctl: dimension cap: channels: {k} channels x 2 x 2^2 = "
                                 f"{8 * k} stored entries exceed 4096^2\n")
        assert peak < 1e6


class TestUsageErrors:
    """argparse's usage and type errors exit 1 (input error), not 2 (not
    certified), with argparse's message."""

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--name", "two_level", "--t-final", "1", "--samples", "abc"],
         "argument --samples: invalid int value: 'abc'"),
        (["simulate", "--name", "two_level"],
         "the following arguments are required: --t-final"),
        (["scale", "--name", "two_qubit", "--theorem", "magic"],
         "argument --theorem: invalid choice: 'magic'"),
    ], ids=["bad-type", "missing-required", "bad-choice"])
    def test_exit_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"dissipctl {argv[0]}: error: {message}" in captured.err
        assert captured.err.startswith("usage: dissipctl")

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["synthesize", "--help"]])
    def test_help_and_version_exit_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0
        assert capsys.readouterr().out


class TestSimulate:
    @pytest.mark.parametrize("name", ["two_level", "toric_patch"])
    def test_a_one_argument_rhs_factory_is_enough(self, capsys, monkeypatch, name):
        # a counting wrapper of the state right-hand side that takes the model
        # alone, as bench/layers.py installs one: check --simulate propagates V
        # by the adjoint, which never reaches it, and simulate counts through it
        expected = _run(capsys, ["check", "--name", name, "--simulate"])
        calls, factory = [], lindblad._rhs_factory

        def counting_factory(model):
            rhs = factory(model)
            return lambda rho: calls.append(None) or rhs(rho)

        monkeypatch.setattr(lindblad, "_rhs_factory", counting_factory)
        assert expected[0] == 0
        assert _run(capsys, ["check", "--name", name, "--simulate"]) == expected
        assert calls == []
        assert _run(capsys, ["simulate", "--name", name, "--t-final", "1"])[0] == 0
        assert calls
    def test_two_level_csv(self, capsys):
        code, out, _ = _run(capsys, ["simulate", "--name", "two_level",
                                     "--t-final", "20", "--samples", "101"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,V,trace,purity"
        final = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert float(final["V"]) < 1e-6
        assert float(final["trace"]) == pytest.approx(1.0, abs=1e-8)

    def test_cluster_emits_per_term_columns(self, capsys):
        code, out, _ = _run(capsys, ["simulate", "--name", "cluster_chain(4)",
                                     "--t-final", "5", "--samples", "26"])
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header == ["t", "W", "W2", "W3", "trace", "purity"]
        final = dict(zip(header, out.strip().splitlines()[-1].split(",")))
        assert float(final["W2"]) < 1e-6
        assert float(final["W3"]) < 1e-6

    def test_nonpositive_horizon_is_input_error(self, capsys):
        code, _, err = _run(capsys, ["simulate", "--name", "two_level",
                                     "--t-final", "0"])
        assert code == 1
        assert "t_final" in err or "t-final" in err

    @pytest.mark.parametrize("rho0, message", [
        ([[0.7, 0.0], [0.0, 0.7]], "trace 1.4+0j differs from 1"),
        ([[1.5, 0.0], [0.0, -0.5]], "smallest eigenvalue -5.000e-01 below -tol"),
        ([[1, 0, 0], [0, 0, 0], [0, 0, 0]], "state shape (3, 3) != (2, 2)"),
    ], ids=["trace", "negative", "shape"])
    def test_rho0_refusal_names_the_field(self, capsys, tmp_path, rho0, message):
        path = tmp_path / "rho0.json"
        path.write_text(json.dumps(rho0))
        code, out, err = _run(capsys, ["simulate", "--name", "two_level", "--t-final", "1",
                                       "--rho0", str(path)])
        assert code == 1 and out == ""
        assert err == f"dissipctl: input error: rho0: {message}\n"

    def test_rho0_file_is_the_initial_state(self, capsys, tmp_path):
        rho0 = np.array([[0.25, 0.25j], [-0.25j, 0.75]])
        path = tmp_path / "rho0.json"
        path.write_text(json.dumps(matrix_to_json(rho0)))
        code, out, _ = _run(capsys, ["simulate", "--name", "two_level", "--t-final", "1",
                                     "--rho0", str(path)])
        named = build("two_level")
        traj = evolve(named.model, rho0, 1.0, observables=named.candidates)
        assert code == 0 and out == trajectory_to_csv(traj)

    def test_simulation_cap_is_no_longer_read_from_the_environment(self, capsys, monkeypatch):
        argv = ["simulate", "--name", "cluster_chain(4)", "--t-final", "1"]
        expected = _run(capsys, argv)
        monkeypatch.setenv("DISSIPCTL_SIM_CAP", "8")
        assert _run(capsys, argv) == expected and expected[0] == 0

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "traj.csv"
        code, out, _ = _run(capsys, ["simulate", "--name", "two_level",
                                     "--t-final", "1", "--samples", "11",
                                     "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("t,V,trace,purity")

    def test_spec_file_round_trip(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["models", "export", "cluster_chain(3)"])
        assert code == 0
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(json.loads(out)["spec"]))
        code, out, _ = _run(capsys, ["simulate", "--spec", str(spec_path),
                                     "--t-final", "3", "--samples", "16"])
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:2] == ["t", "W"]
        code, out, _ = _run(capsys, ["scale", "--spec", str(spec_path),
                                     "--theorem", "commuting"])
        assert code == 0

    def test_aggregate_columns_follow_every_channel_of_the_model(self, capsys, tmp_path):
        # two_qubit's model has two channels beyond its spec's own
        named = build("two_qubit")
        ref = evolve(named.model, np.eye(4) / 4, 5.0,
                     observables={"W": named.aggregate.total()}).observables["W"]
        code, by_name, _ = _run(capsys, ["simulate", "--name", "two_qubit", "--t-final", "5"])
        assert code == 0
        w = [float(row.split(",")[1]) for row in by_name.strip().splitlines()[1:]]
        assert np.allclose(w, ref, rtol=0, atol=1e-14)
        assert w[-1] == pytest.approx(0.006737946999085, abs=1e-14)
        code, out, _ = _run(capsys, ["models", "export", "two_qubit"])
        exported = json.loads(out)
        model_path, spec_path = tmp_path / "model.json", tmp_path / "spec.json"
        model_path.write_text(json.dumps(exported["model"]))
        spec_path.write_text(json.dumps(exported["spec"]))
        code, from_files, _ = _run(capsys, ["simulate", "--model", str(model_path),
                                            "--spec", str(spec_path), "--t-final", "5"])
        assert code == 0
        assert from_files == by_name

    def test_model_and_spec_of_different_dimensions(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["models", "export", "two_qubit"])
        model_path, spec_path = tmp_path / "model.json", tmp_path / "spec.json"
        model_path.write_text(json.dumps(model_to_json(two_level_example().model)))
        spec_path.write_text(json.dumps(json.loads(out)["spec"]))
        code, out, err = _run(capsys, ["simulate", "--model", str(model_path),
                                       "--spec", str(spec_path), "--t-final", "1"])
        assert code == 1 and out == ""
        assert err == "dissipctl: input error: spec: dimension 4 != model dimension 2\n"
        # the same dimension split into other factors
        model_path.write_text(json.dumps({**_dense_model_json(build("two_qubit").model),
                                          "dims": [4]}))
        code, out, err = _run(capsys, ["simulate", "--model", str(model_path),
                                       "--spec", str(spec_path), "--t-final", "1"])
        assert code == 1 and out == ""
        assert err == "dissipctl: input error: spec: dims [2, 2] != model dims [4]\n"

    @pytest.mark.parametrize("argv, dim", [
        (["check", "--name", "two_level", "--simulate"], 2),
        (["simulate", "--name", "cluster_chain"], 16),
    ], ids=["check", "simulate"])
    def test_check_with_simulation(self, capsys, monkeypatch, argv, dim):
        # one gate builds the one grid that the propagation reads, under
        # whichever name of the package it is called
        calls, grid = [], lindblad._grid
        for module in (lindblad, scalability, stability):
            if getattr(module, "_grid", None) is grid:
                monkeypatch.setattr(module, "_grid",
                                    lambda *args: calls.append(args) or grid(*args))
        code, out, _ = _run(capsys, [*argv, "--t-final", "12"])
        assert code == 0
        assert calls == [(dim, 12.0, lindblad._N_SAMPLES)]
        if argv[0] == "check":
            assert json.loads(out)["report"]["simulation"]["exponential_envelope_ok"]

    @pytest.mark.parametrize("name, candidate", CANDIDATES,
                             ids=[f"{name}-{k}" for name, k in CANDIDATES])
    def test_simulation_leaves_the_certificate_as_it_is(self, capsys, name, candidate):
        # every built-in model is within the simulation cap, so each candidate
        # is cross-checked, and the run adds its block and changes no other line
        argv = ["check", "--name", name, "--candidate", candidate]
        (code, out, _), (sim_code, sim_out, _) = (_run(capsys, argv + extra)
                                                  for extra in ([], ["--simulate"]))
        assert sim_code == code
        report, simulated = json.loads(out)["report"], json.loads(sim_out)["report"]
        assert report.pop("simulation") is None
        assert simulated.pop("simulation")["n_states"] == 20
        assert simulated == report

    def test_cluster_chain_from_a_pure_state(self, capsys, tmp_path):
        # a random pure state of the four-qubit chain is driven to the ground
        # state term by term
        rng = np.random.default_rng(0)
        psi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi /= np.linalg.norm(psi)
        rho0 = np.outer(psi, psi.conj())
        path = tmp_path / "rho0.json"
        path.write_text(json.dumps(matrix_to_json(rho0)))
        code, out, _ = _run(capsys, ["simulate", "--name", "cluster_chain(4)", "--t-final", "30",
                                     "--samples", "121", "--rho0", str(path)])
        traj = simulate_aggregate(build("cluster_chain(4)").aggregate, 30.0, rho0=rho0,
                                  n_samples=121)
        assert code == 0 and out == trajectory_to_csv(traj)
        header, first, *_, last = (line.split(",") for line in out.splitlines())
        assert header == ["t", "W", "W2", "W3", "trace", "purity"]
        assert float(first[header.index("purity")]) == pytest.approx(1.0, abs=1e-12)
        final = dict(zip(header, map(float, last)))
        assert final["W2"] < 1e-6 and final["W3"] < 1e-6
        assert final["trace"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name, t_final, code, message", [
        ("cluster_chain(2)", "1", 1, "input error: name: cluster chain needs at least 3 qubits"),
        ("cluster_chain(13)", "1", 5, "dimension cap: 2^13 exceeds the construction cap 4096"),
        ("cluster_chain(4)", "nan", 1, "input error: t-final: must be finite and positive, got nan"),
        ("cluster_chain(4)", "inf", 1, "input error: t-final: must be finite and positive, got inf"),
    ], ids=["qubits-2", "qubits-13", "t-final-nan", "t-final-inf"])
    def test_cluster_chain_refusal_writes_no_file(self, capsys, tmp_path, name, t_final,
                                                  code, message):
        target = tmp_path / "traj.csv"
        assert _run(capsys, ["simulate", "--name", name, "--t-final", t_final,
                             "--out", str(target)]) == (code, "", f"dissipctl: {message}\n")
        assert not any(tmp_path.iterdir())


class TestScale:
    def test_two_qubit_d_free(self, capsys):
        code, out, _ = _run(capsys, ["scale", "--name", "two_qubit",
                                     "--theorem", "d-free", "--c", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["holds"]
        assert payload["report"]["margin"] >= -1e-9

    def test_cluster_commuting(self, capsys, tmp_path):
        code, out, _ = _run(capsys, ["scale", "--name", "cluster_chain(5)",
                                     "--theorem", "commuting"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["overall"]
        # a spec cut to one unitary is refused naming its unitaries, under any theorem
        spec = json.loads(_run(capsys, ["models", "export", "cluster_chain(4)"])[1])["spec"]
        spec["unitaries"] = spec["unitaries"][:1]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        for theorem in ("commuting", "es"):
            assert _run(capsys, ["scale", "--spec", str(path), "--theorem", theorem]) == (
                1, "", "dissipctl: input error: spec.unitaries: need 2, one per channel, "
                       "got 1\n")

    def test_commuting_clause_of_the_factor(self, capsys, tmp_path):
        # every clause of U_k held, and the corollary certified this cycle
        # between two excited levels, which es refuses
        e = np.eye(3)
        spec = {"dims": [3], "assignment": [0, 1], "unitaries": [matrix_to_json(e)] * 2,
                "terms": [matrix_to_json(np.diag(e[1])), matrix_to_json(np.diag(e[2]))],
                "couplings": [matrix_to_json(np.outer(e[2], e[1])),
                              matrix_to_json(np.outer(e[1], e[2]))]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = _run(capsys, ["scale", "--spec", str(path), "--theorem", "commuting"])
        assert code == 2
        assert json.loads(out)["report"]["notes"] == [
            "commutation clause fails for (U[1]' L[1], W1) (norm 1.000e+00); "
            "rerun with --theorem es",
            "commutation clause fails for (U[0]' L[0], W2) (norm 1.000e+00); "
            "rerun with --theorem es"]

    @pytest.mark.parametrize("theorem", ["es", "inc-es"])
    def test_dense_views_above_the_cap(self, capsys, monkeypatch, theorem):
        # the 32-dim total of d, and the window of the incremental step, ran
        # past a cap of 16
        monkeypatch.setattr(linalg, "MAX_MODEL_DIM", 16)
        code, out, err = _run(capsys, ["scale", "--name", "cluster_chain(5)", "--theorem", theorem])
        assert (code, out) == (5, "")
        assert re.fullmatch(r"dissipctl: dimension cap: a dense operator of dimension (32|64) "
                            r"exceeds the cap 16\n", err), err

    def test_toric_extended_commuting_guidance(self, capsys):
        code, out, _ = _run(capsys, ["scale", "--name", "toric_patch(extended)",
                                     "--theorem", "commuting"])
        assert code == 2
        payload = json.loads(out)
        notes = " ".join(payload["report"]["notes"])
        assert "commutation clause fails" in notes
        assert "rerun with --theorem es" in notes

    def test_toric_extended_commuting_peak_memory(self, capsys):
        # windows of at most 512 with one sum each, and the dense total for d
        # (38 MB when the model was built densely)
        tracemalloc.start()
        try:
            code, _, _ = _run(capsys, ["scale", "--name", "toric_patch(extended)",
                                       "--theorem", "commuting"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 16e6

    def test_unknown_theorem_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["scale", "--name", "two_qubit", "--theorem", "magic"])
        assert err.value.code == 1  # argparse rejects the choice, as an input error

    def test_incremental_es(self, capsys):
        code, out, _ = _run(capsys, ["scale", "--name", "two_qubit",
                                     "--theorem", "inc-es", "--c", "1", "--n", "1"])
        assert code == 0
        assert json.loads(out)["report"]["holds"]

    @pytest.mark.parametrize("theorem", ["es", "ds"])
    @pytest.mark.parametrize("n_qubits", [1, 4, 8, 12])
    def test_a_weak_pump_is_refused_at_every_size(self, capsys, tmp_path, n_qubits, theorem):
        # the unassigned 1e-4 sigma_+ gives G_others(W) the eigenvalue +1e-8 on
        # the ground state, as check finds; the margin's tolerance grew with
        # sqrt(2^(N-1)) and certified it from N = 8
        def on_site_1(matrix):
            return {"sites": [1], "matrix": matrix}
        decay = on_site_1([[0, 0], [1, 0]])
        spec = {"dims": [2] * n_qubits, "terms": [on_site_1([[1, 0], [0, 0]])],
                "couplings": [decay, decay, on_site_1([[0, 1e-4], [0, 0]])], "assignment": [0]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = _run(capsys, ["scale", "--spec", str(path), "--theorem", theorem])
        term = json.loads(out)["report"]["per_term"][0]
        assert (code, term["scalability"]) == (2, False)
        assert term["scalability_margin"] == pytest.approx(-1e-8, rel=1e-6)

    @pytest.mark.parametrize("theorem", ["inc-es", "inc-ds"])
    def test_the_prior_floor_keeps_a_true_certificate(self, capsys, theorem):
        # at tol 1e-15, rounding alone (2e-14 in the largest eigenvalue of the
        # prior's bound, 1.8e-14 allowed, one BLAS thread) refused the true
        # prior certificate of W_1..W_6; max(tol, 1e-8) re-tests it
        code, out, _ = _run(capsys, ["scale", "--name", "cluster_chain(9)", "--theorem", theorem,
                                     "--tol", "1e-15"])
        assert code == 0 and json.loads(out)["report"]["holds"]


AGGREGATES = [name for name in sorted(REGISTRY) if build(name).aggregate is not None]
THEOREMS = [["es"], ["ds"], ["commuting"], ["d-free"], ["inc-es"], ["inc-ds"],
            ["d-free", "--mode", "ds"]]


@pytest.mark.parametrize("theorem", THEOREMS, ids=" ".join)
@pytest.mark.parametrize("name", AGGREGATES + ["cluster_chain(5)"])
def test_scale_by_name_equals_scale_of_the_exported_spec(capsys, tmp_path, name, theorem):
    # one path: the spec carries its unitaries and new channels, so a
    # registry aggregate and its export give the same bytes and exit code
    code, out, _ = _run(capsys, ["models", "export", name])
    assert code == 0
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(json.loads(out)["spec"]))
    by_name = _run(capsys, ["scale", "--name", name, "--theorem", *theorem])
    assert _run(capsys, ["scale", "--spec", str(path), "--theorem", *theorem]) == by_name


@pytest.mark.parametrize("theorem", ["es", "ds", "commuting"])
def test_hamiltonian_that_drives_the_term_out_is_not_certified(capsys, tmp_path, theorem):
    # G(W) has the positive eigenvalue 4.52494 from -i[W, H]; it was certified with c = 1
    spec = {"dims": [2], "terms": [[[1, 0], [0, 0]]], "couplings": [[[0, 0], [1, 0]]],
            "H": [[0, 5], [5, 0]], "unitaries": [[[0, 1], [1, 0]]]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, ["scale", "--spec", str(path), "--theorem", theorem])
    report = json.loads(out)["report"]
    assert code == 2 and not report["overall"] and report["per_term"][0]["c"] is None


class TestModels:
    def test_list(self, capsys):
        code, out, _ = _run(capsys, ["models", "list"])
        assert code == 0
        names = json.loads(out)["models"]
        assert "three_level" in names and "toric_patch" in names

    def test_export_round_trips_through_check(self, capsys, tmp_path):
        # the model block and each candidate of terms hold every operator on
        # its sites; check reads the file as check --name reads the candidate
        for name in [*sorted(REGISTRY), "toric_patch(extended)"]:
            code, out, _ = _run(capsys, ["models", "export", name])
            assert code == 0
            payload = json.loads(out)
            model_path = tmp_path / "model.json"
            model_path.write_text(json.dumps(payload["model"]))
            v_path = tmp_path / "v.json"
            for k, v in payload["candidates"].items():
                v_path.write_text(json.dumps(v))
                by_file = _run(capsys, ["check", "--model", str(model_path), "--v", str(v_path)])
                assert by_file == _run(capsys, ["check", "--name", name, "--candidate", k]), \
                    (name, k)
            if name == "three_level":
                assert by_file[0] == 0
                assert json.loads(by_file[1])["report"]["c_ds"] == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("name", AGGREGATES + ["toric_patch(extended)", "cluster_chain(6)"])
    def test_export_writes_each_candidate_as_its_terms(self, capsys, name):
        # a candidate of terms is the list of their {"sites", "matrix"} forms,
        # as the spec block writes them; it was the matrix of the whole space
        named = build(name)
        code, out, _ = _run(capsys, ["models", "export", name])
        assert code == 0
        payload = json.loads(out)
        terms = payload["spec"]["terms"]
        for k, v in named.candidates.items():
            index = [next(i for i, t in enumerate(named.aggregate.terms) if t is term)
                     for term in v]
            assert payload["candidates"][k] == [terms[i] for i in index], (name, k)
        if name == "cluster_chain(6)":
            assert all(len(e["matrix"]) < 64 for e in payload["candidates"]["W"])

    def test_export_needs_name(self, capsys):
        code, _, err = _run(capsys, ["models", "export"])
        assert code == 1


class TestInputValidation:
    """Bad input ends in exit 1 with the offending field named."""

    @pytest.fixture()
    def spec(self, capsys):
        code, out, _ = _run(capsys, ["models", "export", "two_qubit"])
        assert code == 0
        return json.loads(out)["spec"]

    def _scale(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return _run(capsys, ["scale", "--spec", str(path), "--theorem", "es"])

    def test_short_names_list(self, capsys, tmp_path, spec):
        assert len(spec["terms"]) == 2
        spec["names"] = ["A"]
        code, out, err = self._scale(capsys, tmp_path, spec)
        assert code == 1 and out == ""
        assert "spec.names" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["terms", "couplings", "new_couplings"])
    def test_local_operator_off_its_sites(self, capsys, tmp_path, spec, key):
        # the export holds each operator on its sites; site 3 is past dims [2, 2]
        spec[key][-1]["sites"] = [3]
        code, out, err = self._scale(capsys, tmp_path, spec)
        assert code == 1 and out == ""
        assert err.startswith(f"dissipctl: input error: spec.{key}[{len(spec[key]) - 1}]: "
                              "sites must be ascending")

    def test_non_integer_assignment(self, capsys, tmp_path, spec):
        spec["assignment"] = ["x", 1]
        code, out, err = self._scale(capsys, tmp_path, spec)
        assert code == 1 and out == ""
        assert "spec.assignment" in err

    @pytest.mark.parametrize("argv", [
        ["scale", "--theorem", "es"], ["scale", "--theorem", "inc-es", "--c", "1"],
        ["simulate", "--t-final", "1", "--samples", "5"],
    ], ids=["es", "inc-es", "simulate"])
    def test_assignment_out_of_range(self, capsys, tmp_path, spec, argv):
        # es named no field, inc-es and simulate ran
        spec["assignment"] = [5, []]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert _run(capsys, [*argv, "--spec", str(path)]) == (
            1, "", "dissipctl: input error: spec.assignment: entry 0 must be a channel index "
                   "below 1 or a list of distinct ones, got 5\n")

    def test_channel_repeated_within_a_term(self, capsys, tmp_path):
        # counted twice, the channel certified c = 2, twice its constant
        spec = {"dims": [2], "terms": [matrix_to_json(np.diag([1.0, 0.0]))],
                "couplings": [matrix_to_json(SIGMA_MINUS)], "assignment": [[0, 0]]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["scale", "--spec", str(path), "--theorem", "es"]
        assert _run(capsys, argv) == (
            1, "", "dissipctl: input error: spec.assignment: entry 0 must be a channel index "
                   "below 1 or a list of distinct ones, got [0, 0]\n")
        spec["assignment"] = [[0]]
        path.write_text(json.dumps(spec))
        code, out, _ = _run(capsys, argv)
        assert code == 0 and json.loads(out)["report"]["per_term"][0]["c"] == 1.0

    def test_spec_that_needs_an_assignment(self, capsys, tmp_path):
        # one term, no channel: the pairing rule named no field
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [2], "terms": [[[1, 0], [0, 0]]]}))
        assert _run(capsys, ["scale", "--spec", str(path), "--theorem", "es"]) == (
            1, "", "dissipctl: input error: spec.assignment: assignment required when terms "
                   "and channels do not pair one-to-one\n")

    def test_candidate_of_the_wrong_dimension(self, capsys, tmp_path):
        # a 3 x 3 V on a qubit model named no field
        model_path, v_path = tmp_path / "model.json", tmp_path / "v.json"
        model_path.write_text(json.dumps(model_to_json(two_level_example().model)))
        v_path.write_text(json.dumps({"V": matrix_to_json(np.eye(3))}))
        assert _run(capsys, ["check", "--model", str(model_path), "--v", str(v_path)]) == (
            1, "", "dissipctl: input error: V: matrix of dim 3 does not fit dims [2] of "
                   "dimension 2\n")

    def test_candidate_term_off_its_sites(self, capsys, tmp_path):
        # an array of operator forms is their sum; each entry names its index
        payload = json.loads(_run(capsys, ["models", "export", "two_qubit"])[1])
        model_path, v_path = tmp_path / "model.json", tmp_path / "v.json"
        model_path.write_text(json.dumps(payload["model"]))
        v = payload["candidates"]["W"]
        v[1]["sites"] = [3]
        v_path.write_text(json.dumps({"V": v}))
        assert _run(capsys, ["check", "--model", str(model_path), "--v", str(v_path)]) == (
            1, "", "dissipctl: input error: V[1]: sites must be ascending and distinct in 1..2, "
                   "got [3]\n")
        v[1] = {"pauli": "Z1 Z2", "coeff": 0.5, "offset": 0.5}  # the term diag(1, 0, 0, 1)
        v_path.write_text(json.dumps({"V": v}))
        assert _run(capsys, ["check", "--model", str(model_path), "--v", str(v_path)]) == \
            _run(capsys, ["check", "--name", "two_qubit"])

    @pytest.mark.parametrize("files, message", [
        ({"v": {"V": [[1, 1], [0, 0]]}}, "V: candidate must be Hermitian"),
        ({"v": {"V": [{"pauli": "Z1"}, {"sites": [1], "matrix": [[1, 1], [0, 0]]}]}},
         "V[1]: candidate must be Hermitian"),
        ({"model": {"dims": [2], "H": [[1, 1], [0, 0]]}}, "model.H: hamiltonian must be Hermitian"),
        ({"spec": {"H": [[1, 1], [0, 0]]}}, "spec.H: hamiltonian must be Hermitian"),
        ({"spec": {"terms": [[[0, 0], [0, -1]]]}}, "spec.terms[0]: term 0 is not PSD"),
        ({"v": {"V": [{"pauli": "Z3"}]}}, "V[0]: site 3 out of range in 'Z3'"),
        ({"spec": {"terms": [{"pauli": "Z3"}]}}, "spec.terms[0]: site 3 out of range in 'Z3'"),
    ], ids=["V", "V-term", "model-H", "spec-H", "spec-term-psd", "V-pauli", "spec-term-pauli"])
    def test_operator_refusal_names_its_field(self, capsys, tmp_path, files, message):
        # each was "dissipctl: error: ..." with no field, and a Pauli
        # shorthand named the field pauli; a qubit model, V = diag(1, 0), and
        # a spec of one term and one channel, unless replaced
        default = {"model": model_to_json(two_level_example().model),
                   "v": {"V": [[1, 0], [0, 0]]},
                   "spec": {"dims": [2], "terms": [[[1, 0], [0, 0]]],
                            "couplings": [matrix_to_json(SIGMA_MINUS)]}}
        paths = {}
        for key, value in default.items():
            paths[key] = tmp_path / f"{key}.json"
            paths[key].write_text(json.dumps({**value, **files.get(key, {})}))
        argv = ["scale", "--spec", str(paths["spec"]), "--theorem", "es"] if "spec" in files \
            else ["check", "--model", str(paths["model"]), "--v", str(paths["v"])]
        assert _run(capsys, argv) == (1, "", f"dissipctl: input error: {message}\n")

    def test_nan_in_hamiltonian(self, capsys, tmp_path, v_file):
        model = _dense_model_json(two_level_example().model)
        model["H"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = _run(capsys, ["check", "--model", str(path), "--v", v_file])
        assert code == 1 and out == ""
        assert "model.H[0][0]" in err and "finite" in err
        assert "Hermitian" not in err

    def test_infinity_in_candidate(self, capsys, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(model_to_json(two_level_example().model)))
        v_path = tmp_path / "v.json"
        v_path.write_text('{"V": [[Infinity, 0], [0, 0]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["check", "--model", str(model_path),
                                           "--v", str(v_path)])
        assert code == 1 and out == ""
        assert "V[0][0]" in err and "finite" in err
        assert "PSD" not in err

    @pytest.mark.parametrize("key, theorem", [
        ("couplings", "es"), ("new_couplings", "inc-es"), ("unitaries", "commuting"),
    ])
    def test_spec_array_that_is_not_an_array(self, capsys, tmp_path, spec, key, theorem):
        spec[key] = 5
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["scale", "--spec", str(path), "--theorem", theorem])
        assert code == 1 and out == ""
        assert f"input error: spec.{key}: must be an array, got 5" in err

    @pytest.mark.parametrize("key", ["unitaries", "new_couplings"])
    @pytest.mark.parametrize("theorem", ["es", "inc-es", "commuting"])
    def test_spec_operator_of_the_wrong_dimension(self, capsys, tmp_path, spec, key, theorem):
        # refused when the spec is read, whichever theorem would use it
        spec[key] = [matrix_to_json(np.eye(2))]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["scale", "--spec", str(path), "--theorem", theorem])
        assert code == 1 and out == ""
        assert err == (f"dissipctl: input error: spec.{key}[0]: matrix of dim 2 does not fit "
                       "dims [2, 2] of dimension 4\n")

    def test_model_entry_whose_square_overflows(self, capsys, tmp_path, v_file):
        # finite, but L'L is not: refused when read, naming the coupling,
        # instead of a "generator": NaN report
        model = _dense_model_json(two_level_example().model)
        model["L"][0][0][0] = [1e200, 0.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["check", "--model", str(path), "--v", v_file])
        assert code == 1 and out == ""
        assert "input error: model.L[0]: the matrix has a squared norm too close" in err

    def _check_model(self, capsys, tmp_path, model, v):
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "v.json").write_text(json.dumps({"V": matrix_to_json(v)}))
        return _run(capsys, ["check", "--model", str(tmp_path / "model.json"),
                             "--v", str(tmp_path / "v.json")])

    @pytest.mark.parametrize("name", ["two_qubit", "cluster_chain(4)"])
    def test_local_model_checks_like_its_dense_form(self, capsys, tmp_path, name):
        named = build(name)
        model = named.model
        v = dense_candidate(next(iter(named.candidates.values())), model.structure)
        obj = model_to_json(model)
        assert all(set(op) == {"sites", "matrix"} for op in [obj["H"], *obj["L"]])
        local = self._check_model(capsys, tmp_path, obj, v)
        assert local[0] == 0
        assert local == self._check_model(capsys, tmp_path, _dense_model_json(model), v)

    def test_model_coupling_off_its_sites(self, capsys, tmp_path):
        model = model_to_json(build("two_qubit").model)
        model["L"][0]["sites"] = [3]
        code, out, err = self._check_model(capsys, tmp_path, model, np.diag([1.0, 0, 0, 0]))
        assert code == 1 and out == ""
        assert err.startswith("dissipctl: input error: model.L[0]: sites must be ascending")

    def test_non_hermitian_local_hamiltonian(self, capsys, tmp_path):
        model = model_to_json(build("two_qubit").model)
        model["H"] = {"sites": [2], "matrix": [[0, 1], [0, 0]]}
        code, out, err = self._check_model(capsys, tmp_path, model, np.diag([1.0, 0, 0, 0]))
        assert code == 1 and out == ""
        assert err == "dissipctl: input error: model.H: hamiltonian must be Hermitian\n"

    def test_pauli_term_whose_square_overflows(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [2], "terms": [{"pauli": "Z1", "coeff": 1e200}]}))
        code, out, err = _run(capsys, ["scale", "--spec", str(path), "--theorem", "es"])
        assert code == 1 and out == ""
        assert "input error: spec.terms[0]: the operator has a squared norm too close" in err

    def test_simulate_a_rate_whose_propagator_needs_many_squarings(self, capsys):
        # a rate of 1e200 over dt = 0.1: the Krylov products once overflowed in
        # their norms; refused by the horizon rule, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["check", "--name", "two_level(0,1e100)", "--simulate"])
        assert (code, out) == (1, "")
        assert err == ("dissipctl: error: t-final 20 too large: the propagator over a "
                       "sample interval is lost to rounding at rtol 1e-09\n")

    def test_simulate_past_the_rounding_of_the_krylov_propagator(self, capsys):
        # exp(Lambda dt) over dt = 5e297 would be rounding only: refused, naming
        # t-final, with no numpy warning (an error under the suite's filter),
        # at dim 64 and at dim 2 alike
        for name in ["toric_patch", "two_level"]:
            code, out, err = _run(capsys, ["simulate", "--name", name, "--t-final", "1e300"])
            assert code == 1 and out == ""
            assert err == ("dissipctl: error: t-final 1e+300 too large: the propagator over a "
                           "sample interval is lost to rounding at rtol 1e-09\n")

    @pytest.mark.parametrize("t_final", ["1e20", "1e100", "1e300"])
    def test_simulate_past_the_rounding_of_the_dense_propagator(self, capsys, tmp_path, t_final):
        # a driven qubit, H = X and L = sigma-, and the 16-dim cluster chain:
        # over these horizons exp(A dt) of a Krylov step is rounding only (a
        # dense propagator once read 2.9e298, NaN or a false convergence here);
        # refused, naming t-final, with no numpy warning
        lost = (f"dissipctl: error: t-final {float(t_final):.6g} too large: the propagator "
                "over a sample interval is lost to rounding at rtol 1e-09\n")
        model = {"dims": [2], "H": matrix_to_json(PAULI_X), "L": [matrix_to_json(SIGMA_MINUS)]}
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "v.json").write_text(json.dumps({"V": matrix_to_json(np.diag([1.0, 0.0]))}))
        argv = ["check", "--model", str(tmp_path / "model.json"), "--v", str(tmp_path / "v.json"),
                "--simulate", "--t-final"]
        code, out, _ = _run(capsys, argv + ["20"])
        assert code == 2
        assert json.loads(out)["report"]["simulation"]["max_final_expectation"] == \
            pytest.approx(0.444, abs=1e-3)
        assert _run(capsys, argv + [t_final]) == (1, "", lost)
        assert _run(capsys, ["simulate", "--name", "cluster_chain", "--t-final", t_final]) == \
            (1, "", lost)

    @pytest.mark.parametrize("name", ["two_level(nan)", "two_level(1,inf)"])
    def test_non_finite_model_argument(self, capsys, name):
        code, out, err = _run(capsys, ["check", "--name", name])
        assert code == 1 and out == ""
        assert "input error: name: argument" in err and "must be finite" in err

    @pytest.mark.parametrize("name, message", [
        ("two_level(0,1e200)", "arguments in {name!r} overflow: model.L[0]: the operator has a "
                               "squared norm too close"),
        ("two_level(1e200)", "arguments in {name!r} overflow: model.L[0]: the operator has a "
                             "squared norm too close to the float range"),
        ("two_level(1" + "0" * 400 + ")", "argument {part!r} in {name!r} must be finite"),
    ], ids=["constructor-overflow", "product-overflow", "integer-literal-overflow"])
    def test_huge_model_argument(self, capsys, name, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["check", "--name", name])
        assert code == 1 and out == ""
        part = name[len("two_level("):-1]
        assert f"input error: name: {message.format(name=name, part=part)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["check", "--name", "cluster_chain(4.5)"], "argument '4.5' in 'cluster_chain(4.5)' "
                                                     "must be an integer"),
        (["models", "export", "toric_patch(3)"], "toric_patch takes 0 numeric argument(s), "
                                                 "'toric_patch(3)' gives more; set extended "
                                                 "by its name"),
    ], ids=["fractional-integer", "positional-flag"])
    def test_untyped_model_argument(self, capsys, argv, message):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert f"input error: name: {message}" in err

    def test_integral_float_model_argument(self, capsys):
        # the number rule of every input file: 4.0 reads as 4
        expected = _run(capsys, ["check", "--name", "cluster_chain(4)"])
        assert expected[0] == 0
        assert _run(capsys, ["check", "--name", "cluster_chain(4.0)"]) == expected

    def test_constructor_refusal_names_name(self, capsys):
        # the constructor's own rule named no field
        assert _run(capsys, ["check", "--name", "two_level(0,0)"]) == (
            1, "", "dissipctl: input error: name: l10 must be nonzero for the stabilizing family\n")

    @pytest.mark.parametrize("argv", [
        ["check", "--name", "two_level", "--model", "model.json"],
        ["check", "--name", "two_level", "--v", "v.json"],
        ["simulate", "--name", "two_level", "--model", "model.json", "--t-final", "1"],
        ["simulate", "--name", "two_level", "--spec", "spec.json", "--t-final", "1"],
        ["scale", "--name", "two_qubit", "--spec", "spec.json", "--theorem", "es"],
    ], ids=["check-model", "check-v", "simulate-model", "simulate-spec", "scale-spec"])
    def test_name_excludes_the_file_options(self, capsys, tmp_path, spec, argv):
        # the files are valid: --name used to win over them silently
        code, out, _ = _run(capsys, ["models", "export", "two_qubit"])
        (tmp_path / "model.json").write_text(json.dumps(json.loads(out)["model"]))
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        (tmp_path / "v.json").write_text(json.dumps({"V": matrix_to_json(np.eye(2))}))
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        flag = next(a for a in argv[3:] if a in ("--model", "--spec", "--v"))
        assert err == f"dissipctl: input error: name: --name excludes {flag}\n"

    def test_candidate_needs_name(self, capsys, tmp_path, v_file):
        # without --name the option was read by nothing: check ran on --v, exit 0
        model = tmp_path / "model.json"
        model.write_text(json.dumps(model_to_json(two_level_example().model)))
        argv = ["check", "--model", str(model), "--v", v_file, "--candidate", "nonsense"]
        assert _run(capsys, argv) == (
            1, "", "dissipctl: input error: candidate: --candidate needs --name\n")

    @pytest.mark.parametrize("samples", ["1", "-3", "0"])
    def test_samples_names_its_field(self, capsys, samples):
        argv = ["simulate", "--name", "two_level", "--t-final", "1", "--samples", samples]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == ("dissipctl: input error: samples: need at least two sample points, "
                       f"got {samples}\n")

    @pytest.mark.parametrize("theorem, option", [
        *((theorem, option) for theorem in ("es", "ds", "commuting")
          for option in (["--c", "1"], ["--n", "1"], ["--mode", "ds"])),
        *((theorem, ["--mode", mode]) for theorem in ("inc-es", "inc-ds")
          for mode in ("es", "ds")),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_scale_option_the_theorem_ignores(self, capsys, theorem, option):
        # each was dropped silently; --mode es was also the default
        argv = ["scale", "--name", "two_qubit", "--theorem", theorem, *option]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        field = option[0].removeprefix("--")
        assert err == f"dissipctl: input error: {field}: --theorem {theorem} takes no --{field}\n"

    def test_d_free_mode_defaults_to_es(self, capsys):
        argv = ["scale", "--name", "two_qubit", "--theorem", "d-free", "--c", "1"]
        assert _run(capsys, argv) == _run(capsys, argv + ["--mode", "es"])

    def _simulate(self, capsys, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return _run(capsys, ["simulate", "--spec", str(path), "--t-final", "1",
                             "--samples", "5"])

    # a comma, a double quote or a line break would split a field of the header
    @pytest.mark.parametrize("names", [["A", "A"], ["W", "X"], ["A", "a,b"], ["A", 'a"b'],
                                       ["A", "c\nd"], ["A", "c\rd"]],
                             ids=["repeated", "reserved", "comma", "quote", "lf", "cr"])
    def test_names_clashing_with_csv_columns(self, capsys, tmp_path, spec, names):
        spec["names"] = names
        code, out, err = self._simulate(capsys, tmp_path, spec)
        assert code == 1 and out == ""
        assert "spec.names" in err and "Traceback" not in err

    def test_distinct_names_simulate(self, capsys, tmp_path, spec):
        spec["names"] = ["A", "B"]
        code, out, _ = self._simulate(capsys, tmp_path, spec)
        assert code == 0
        assert out.splitlines()[0] == "t,W,A,B,trace,purity"


class TestFiles:
    """An input file that cannot be read as text, or an --out that cannot be
    written, ends in one input-error line naming its option, exit 1."""

    @pytest.fixture()
    def unreadable(self, tmp_path):
        (tmp_path / "latin1.json").write_bytes('{"name": "café"}'.encode("latin-1"))
        (tmp_path / "dir").mkdir()
        return tmp_path

    @pytest.mark.parametrize("kind", ["dir", "latin1.json"], ids=["directory", "not-utf8"])
    @pytest.mark.parametrize("field, argv", [
        ("model", ["check", "--model", "{}", "--v", "{}"]),
        ("V", ["check", "--model", "{m}", "--v", "{}"]),
        ("spec", ["scale", "--theorem", "es", "--spec", "{}"]),
        ("rho0", ["simulate", "--name", "two_level", "--t-final", "1", "--rho0", "{}"]),
        ("V", ["synthesize", "--v", "{}"]),
    ], ids=["model", "check-V", "spec", "rho0", "synthesize-V"])
    def test_an_unreadable_input_file(self, capsys, unreadable, kind, field, argv):
        model = unreadable / "model.json"
        model.write_text(json.dumps(_dense_model_json(build("two_level").model)))
        path = str(unreadable / kind)
        argv = [a.format(path, m=model) for a in argv]
        code, out, err = _run(capsys, argv)
        assert (code, out) == (1, "")
        reason = (f"cannot read {path}: Is a directory" if kind == "dir"
                  else f"invalid JSON in {path}: 'utf-8' codec can't decode byte 0xe9")
        assert err.startswith(f"dissipctl: input error: {field}: {reason}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("target", ["missing/out.json", "dir"], ids=["missing-dir", "dir"])
    def test_an_unwritable_out(self, capsys, unreadable, target):
        path = unreadable / target
        code, out, err = _run(capsys, ["models", "export", "two_level", "--out", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith(f"dissipctl: input error: out: cannot write {path}: ")
        assert err.count("\n") == 1
        assert not list(unreadable.rglob(".dissipctl-*"))
        assert not (unreadable / "missing").exists() and not any((unreadable / "dir").iterdir())


class TestNumberSlots:
    """Every number of every input file is read by one rule: a real is an int
    or float, never a bool, with |x| at most the largest float; an integer
    is an integral real, so 2.0 reads as 2.  A JSON true read as 1 in a
    matrix entry, a coefficient or a dimension, and a 400-digit integer
    ended in an OverflowError traceback."""

    DOCS = {
        "model": {"dims": [2], "H": [[0, 0], [0, 0]],
                  "L": [[[0, 0], [[1, 0], 0]], {"sites": [1], "matrix": [[0, 0], [1, 0]]},
                        {"pauli": "X1", "coeff": 0.5, "offset": 0}]},
        "candidate": {"V": [{"sites": [1], "matrix": [[1, 0], [0, 0]]},
                            {"pauli": "Z1", "coeff": 0, "offset": 0}]},
        "dense": {"V": [[1, 0], [0, 0]]},
        "spec": {"dims": [2, 2], "H": {"pauli": "Z1", "coeff": 0.5, "offset": 0},
                 "terms": [{"sites": [1], "matrix": [[1, 0], [0, 0]]},
                           {"sites": [2], "matrix": [[1, 0], [0, 0]]}],
                 "couplings": [{"sites": [1], "matrix": [[0, 0], [1, 0]]},
                               {"sites": [2], "matrix": [[0, 0], [1, 0]]}],
                 "assignment": [[0], [1]], "new_couplings": [{"pauli": "X1 X2", "coeff": 0.5}]},
        "rho0": [[1, 0], [0, 0]],
        "projection": {"V": [[1, 0], [0, 0]], "c": 1, "channels": 2},
    }
    # the documents each command reads, by name
    COMMANDS = {
        "model": ["check", "--model", "model", "--v", "candidate"],
        "candidate": ["check", "--model", "model", "--v", "candidate"],
        "dense": ["check", "--model", "model", "--v", "dense"],
        "spec": ["scale", "--spec", "spec", "--theorem", "es"],
        "rho0": ["simulate", "--model", "model", "--rho0", "rho0", "--t-final", "1",
                 "--samples", "3"],
        "projection": ["synthesize", "--v", "projection"],
    }
    SLOTS = [  # (document, path, the field a refusal names)
        ("model", ["dims", 0], "model.dims"),
        ("model", ["H", 1, 1], "model.H[1][1]"),
        ("model", ["L", 0, 1, 0, 1], "model.L[0][1][0]"),
        ("model", ["L", 1, "sites", 0], "model.L[1]"),
        ("model", ["L", 1, "matrix", 1, 0], "model.L[1].matrix[1][0]"),
        ("model", ["L", 2, "coeff"], "model.L[2].coeff"),
        ("model", ["L", 2, "offset"], "model.L[2].offset"),
        ("candidate", ["V", 0, "sites", 0], "V[0]"),
        ("candidate", ["V", 0, "matrix", 0, 0], "V[0].matrix[0][0]"),
        ("candidate", ["V", 1, "coeff"], "V[1].coeff"),
        ("candidate", ["V", 1, "offset"], "V[1].offset"),
        ("dense", ["V", 1, 1], "V[1][1]"),
        ("spec", ["dims", 1], "spec.dims"),
        ("spec", ["H", "coeff"], "spec.H.coeff"),
        ("spec", ["H", "offset"], "spec.H.offset"),
        ("spec", ["terms", 1, "sites", 0], "spec.terms[1]"),
        ("spec", ["terms", 0, "matrix", 0, 0], "spec.terms[0].matrix[0][0]"),
        ("spec", ["couplings", 1, "matrix", 1, 0], "spec.couplings[1].matrix[1][0]"),
        ("spec", ["assignment", 1, 0], "spec.assignment"),
        ("spec", ["new_couplings", 0, "coeff"], "spec.new_couplings[0].coeff"),
        ("rho0", [1, 1], "rho0[1][1]"),
        ("projection", ["V", 0, 0], "V[0][0]"),
        ("projection", ["c"], "c"),
        ("projection", ["channels"], "channels"),
    ]
    BAD = [True, False, "1", [1], float("nan"), float("inf"), 10 ** 400, -10 ** 400]

    def _run_with(self, capsys, tmp_path, name, path=(), x=None):
        """The command of document `name`, with the value at `path` set to x."""
        argv = []
        for word in self.COMMANDS[name]:
            if word in self.DOCS:
                doc = copy.deepcopy(self.DOCS[word])
                if word == name and path:
                    *head, last = path
                    functools.reduce(operator.getitem, head, doc)[last] = x
                word = tmp_path / f"{word}.json"
                word.write_text(json.dumps(doc))
            argv.append(str(word))
        return _run(capsys, argv)

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_documents_are_read(self, capsys, tmp_path, name):
        code, out, err = self._run_with(capsys, tmp_path, name)
        assert code in (0, 2) and out and err == ""

    @pytest.mark.parametrize("x", BAD, ids=["true", "false", "string", "list", "nan", "inf",
                                            "huge", "-huge"])
    @pytest.mark.parametrize("name, path, field", SLOTS,
                             ids=[f"{name}.{'.'.join(map(str, path))}" for name, path, _ in SLOTS])
    def test_bad_number_names_its_slot(self, capsys, tmp_path, name, path, field, x):
        # a dimension past the largest float makes the product pass it: a cap
        cap = field.endswith(".dims") and type(x) is int and abs(x) > 10 ** 300
        code, out, err = self._run_with(capsys, tmp_path, name, path, x)
        assert (code, out) == ((5, "") if cap else (1, ""))
        kind = "dimension cap" if cap else "input error"
        assert err.startswith(f"dissipctl: {kind}: {field}: ") and err.count("\n") == 1

    INTEGER_SLOTS = [("model", ["dims", 0]), ("model", ["L", 1, "sites", 0]),
                     ("candidate", ["V", 0, "sites", 0]), ("spec", ["dims", 0]),
                     ("spec", ["terms", 1, "sites", 0]), ("spec", ["assignment", 1, 0]),
                     ("projection", ["channels"])]

    @pytest.mark.parametrize("name, path", INTEGER_SLOTS,
                             ids=[f"{name}.{'.'.join(map(str, path))}"
                                  for name, path in INTEGER_SLOTS])
    def test_integral_float_reads_as_its_integer(self, capsys, tmp_path, name, path):
        value = functools.reduce(operator.getitem, path, self.DOCS[name])
        assert type(value) is int
        assert self._run_with(capsys, tmp_path, name, path, float(value)) \
            == self._run_with(capsys, tmp_path, name)


class TestNonFiniteNumbers:
    """Non-finite and non-positive numbers on the command line end in exit 1
    naming the option."""

    @pytest.mark.parametrize("argv, option", [
        (["scale", "--name", "two_qubit", "--theorem", "inc-es", "--c", "nan"], "c"),
        (["scale", "--name", "two_qubit", "--theorem", "inc-es", "--c", "-1"], "c"),
        (["scale", "--name", "two_qubit", "--theorem", "inc-ds", "--c", "0"], "c"),
        (["scale", "--name", "two_qubit", "--theorem", "d-free", "--c", "-0.5"], "c"),
        (["check", "--name", "two_level", "--tol", "nan"], "tol"),
        (["check", "--name", "two_level", "--tol=-1e-9"], "tol"),
        (["check", "--name", "two_level", "--simulate", "--t-final", "inf"], "t-final"),
    ], ids=["c-nan", "c-negative", "c-zero", "c-negative-d-free", "tol-nan", "tol-negative",
            "t-final-inf"])
    def test_option_named(self, capsys, argv, option):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert f"input error: {option}: must be finite and positive" in err
        assert "Hermitian" not in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["1", "1.5", "1e300"])
    def test_tol_from_one_on_is_refused(self, capsys, tmp_path, tol):
        # from tol = 1 on, spectral_tol(w) >= max |w| and scaled_tol(a) >= ||a||_F,
        # so every PSD, Hermitian and zero test passes: a qubit with L = sigma_minus
        # and V = diag(0, -1), not PSD, read "trivial" with exit 0
        model = {"dims": [2], "H": matrix_to_json(np.zeros((2, 2))),
                 "L": [matrix_to_json(np.array([[0.0, 0.0], [1.0, 0.0]]))]}
        (tmp_path / "m.json").write_text(json.dumps(model))
        (tmp_path / "v.json").write_text(json.dumps({"V": matrix_to_json(np.diag([0.0, -1.0]))}))
        code, out, err = _run(capsys, ["check", "--model", str(tmp_path / "m.json"),
                                       "--v", str(tmp_path / "v.json"), "--tol", tol])
        assert code == 1 and out == ""
        assert err == f"dissipctl: input error: tol: must be below 1, got {float(tol)!r}\n"
        assert _run(capsys, ["check", "--name", "two_level", "--tol", tol]) == (1, "", err)

    @pytest.mark.parametrize("theorem", [["inc-es"], ["inc-ds"], ["d-free"],
                                         ["d-free", "--mode", "ds"]],
                             ids=["inc-es", "inc-ds", "d-free-es", "d-free-ds"])
    def test_c_whose_products_overflow_is_refused(self, capsys, theorem):
        # c (W_n - d_n I) overflowed, and the eigensolve after it failed with a
        # traceback; 1e300 still reaches the prior-certificate check
        argv = ["scale", "--name", "two_qubit", "--theorem", *theorem, "--c"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, argv + ["1e308"])
        assert code == 1 and out == ""
        assert err == ("dissipctl: input error: c: 1e+308 times the norm of a term is too "
                       "close to the float range\n")
        code, out, err = _run(capsys, argv + ["1e300"])
        assert code == 1 and "prior certificate missing" in err

    @pytest.mark.parametrize("n", ["0", "2", "5", "-1"])
    def test_n_out_of_range_names_its_field(self, capsys, n):
        # two_qubit has two terms, so n = 1 alone
        argv = ["scale", "--name", "two_qubit", "--theorem", "inc-es", "--n", n]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"dissipctl: input error: n: must satisfy 1 <= n < 2, got {n}\n"


def test_sim_cap_is_an_unknown_option(capsys):
    with pytest.raises(SystemExit) as err:
        main(["check", "--name", "two_level", "--sim-cap", "64"])
    assert err.value.code == 1
    assert "error: unrecognized arguments: --sim-cap 64" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--name", "two_level", "--t-final", "1", "--tol", "1e-6"],
    ["models", "list", "--seed", "0"],
    ["models", "list", "--seed", "-1"],
    ["models", "export", "two_level", "--tol", "1e-6"],
], ids=["simulate-tol", "models-seed", "models-negative-seed", "models-tol"])
def test_unread_options_are_unknown(capsys, argv):
    # simulate reads no tolerance, and models neither a tolerance nor a seed
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: dissipctl")
    assert captured.err.endswith(f"dissipctl: error: unrecognized arguments: "
                                 f"{' '.join(argv[-2:])}\n")


@pytest.mark.parametrize("workload", ["certify", "dynamics", "synthesis"])
def test_every_benchmark_job_parses(monkeypatch, tmp_path, workload):
    # the benchmark appends --seed to every job, also where the subcommand reads none
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    jobs = importlib.import_module("workloads").build_jobs(workload, 3, tmp_path)
    assert {job.command for job in jobs} == {"check", "scale", "simulate", "synthesize"}
    for job in jobs:
        assert _build_parser().parse_args(job.argv).seed == 3


ROOT = Path(__file__).resolve().parents[1]
INPUTS = ROOT / "tests" / "golden" / "inputs"


def _fresh(args, **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter on the package under test, with this environment."""
    src = str(Path(dissipctl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env,
                          timeout=300, check=False, **kwargs)


class TestNegativeSeed:
    """numpy's generators take no negative seed: every subcommand that takes
    --seed refuses one with exit 1 naming the field (check --simulate ended
    in numpy's traceback)."""

    @pytest.mark.parametrize("argv", [
        ["check", "--name", "two_level", "--simulate"],
        ["simulate", "--name", "two_level", "--t-final", "1"],
        ["scale", "--name", "two_qubit", "--theorem", "es"],
        ["synthesize", "--v", str(INPUTS / "projection_rank1.json"), "--c", "1"],
    ], ids=lambda argv: argv[0])
    def test_refused(self, capsys, argv):
        code, out, err = _run(capsys, [*argv, "--seed", "-1"])
        assert code == 1 and out == ""
        assert err == "dissipctl: input error: seed: must be a non-negative integer, got -1\n"


def test_samples_above_the_trajectory_cap(capsys):
    # 4.2M samples of a 2x2 state are 16.8M entries, above 4096^2 = 16.78M
    argv = ["simulate", "--name", "two_level", "--t-final", "1", "--samples", "4200000"]
    code, out, err = _run(capsys, argv)
    assert code == 5 and out == ""
    assert err == ("dissipctl: dimension cap: samples: 4200000 samples x 2^2 = 16800000 stored "
                   "entries exceed 4096^2\n")


def test_zero_candidate_above_the_simulation_cap(capsys, tmp_path):
    # the cap is checked before the certification: a zero candidate, trivially
    # stable without --simulate, is refused with it; simulate is refused at the
    # same cap before any state is built
    model = {"dims": [2] * 7, "H": {"sites": [1], "matrix": [[0, 0], [0, 0]]},
             "L": [{"sites": [1], "matrix": [[0, 1], [0, 0]]}]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    (tmp_path / "v.json").write_text(json.dumps({"V": matrix_to_json(np.zeros((128, 128)))}))
    argv = ["check", "--model", str(tmp_path / "model.json"), "--v", str(tmp_path / "v.json")]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and json.loads(out)["report"]["convergence"] == "trivial"
    assert _run(capsys, [*argv, "--simulate"]) == (
        5, "", "dissipctl: dimension cap: dimension 128 exceeds the simulation cap 64\n")
    assert _run(capsys, ["simulate", "--name", "toric_patch(extended)", "--t-final", "1"]) == (
        5, "", "dissipctl: dimension cap: dimension 512 exceeds the simulation cap 64\n")


def test_simulate_refuses_above_the_cap_before_building_the_default_state(capsys, tmp_path):
    # twelve qubits in Pauli shorthand: the maximally mixed state of dim 4096
    # alone would take 134 MB
    model = {"dims": [2] * 12, "H": {"pauli": "Z1"}, "L": [{"pauli": "X12"}]}
    (tmp_path / "model.json").write_text(json.dumps(model))
    tracemalloc.start()
    try:
        result = _run(capsys, ["simulate", "--model", str(tmp_path / "model.json"),
                               "--t-final", "1"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (5, "", "dissipctl: dimension cap: dimension 4096 exceeds the simulation "
                             "cap 64\n")
    assert peak < 10e6


class TestProgram:
    """`python -m dissipctl.cli` and the console script run `cli._entry`,
    which freezes the collector's import heap before `main`."""

    @pytest.mark.parametrize("argv, code", [
        (["check", "--name", "three_level"], 0),
        (["check", "--name", "no_such_model"], 1),
        (["scale", "--name", "toric_patch(extended)", "--theorem", "commuting"], 2),
        (["synthesize", "--v", str(INPUTS / "nonprojection_es.json"), "--c", "0.5"], 3),
        (["scale", "--name", "cluster_chain(99)", "--theorem", "es"], 5),
    ], ids=["0", "1", "2", "3", "5"])
    def test_same_bytes_as_main(self, capsysbinary, argv, code):
        proc = _fresh(["-m", "dissipctl.cli", *argv])
        assert main(argv) == code
        out = capsysbinary.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.out, out.err)

    def test_same_out_file_as_main(self, capsys, tmp_path):
        argv = ["check", "--name", "two_level", "--simulate", "--out"]
        proc = _fresh(["-m", "dissipctl.cli", *argv, str(tmp_path / "program.json")])
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        assert _run(capsys, [*argv, str(tmp_path / "main.json")]) == (0, "", "")
        text = (tmp_path / "program.json").read_bytes()
        assert text == (tmp_path / "main.json").read_bytes()
        assert json.loads(text)["report"]["simulation"]["n_states"] == 20

    HUGE = 10 ** 400
    MODEL = {"dims": [2], "H": [[0, 0], [0, 0]], "L": [[[0, 0], [1, 0]]]}
    SPEC = {"dims": [2, True], "terms": [{"sites": [1], "matrix": [[1, 0], [0, 0]]}],
            "couplings": [{"sites": [1], "matrix": [[0, 0], [1, 0]]}]}
    REFUSALS = {  # files, argv, exit code, the start of the one line on stderr
        "bool-entry": ({"a": {"V": [[True, 0], [0, 0]]}}, ["synthesize", "--v", "a", "--c", "1"],
                       1, "input error: V[0][0]: "),
        "bool-coeff": ({"m": MODEL, "b": {"V": {"pauli": "Z1", "coeff": False, "offset": True}}},
                       ["check", "--model", "m", "--v", "b"], 1, "input error: V.coeff: "),
        "bool-dimension": ({"c": SPEC}, ["scale", "--spec", "c", "--theorem", "es"],
                           1, "input error: spec.dims: "),
        "huge-c": ({"d": {"V": [[1, 0], [0, 0]], "c": HUGE}}, ["synthesize", "--v", "d"],
                   1, "input error: c: "),
        "huge-channels": ({"d": {"V": [[1, 0], [0, 0]], "channels": HUGE}},
                          ["synthesize", "--v", "d"], 1, "input error: channels: "),
        "huge-dimension": ({"e": {"dims": [2, HUGE], "L": [],
                                  "H": {"sites": [1], "matrix": [[0, 0], [0, 0]]}},
                            "v": {"V": {"sites": [1], "matrix": [[1, 0], [0, 0]]}}},
                           ["check", "--model", "e", "--v", "v"], 5, "dimension cap: model.dims: "),
        "1100-qubits": ({"f": dict(SPEC, dims=[2] * 1100)},
                        ["scale", "--spec", "f", "--theorem", "es"], 5, "dimension cap: spec.dims: "),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_malformed_number_is_one_named_line(self, tmp_path, case):
        # at the parent: bool-entry and bool-dimension exit 0, bool-coeff exits 2
        # with V = I, and the huge numbers end in an OverflowError traceback
        files, argv, code, start = self.REFUSALS[case]
        for name, doc in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        argv = [str(tmp_path / f"{w}.json") if w in files else w for w in argv]
        proc = _fresh(["-m", "dissipctl.cli", *argv], text=True)
        assert (proc.returncode, proc.stdout) == (code, "")
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith(f"dissipctl: {start}")

    def test_only_the_program_freezes(self):
        # main() called in-process leaves the collector alone; the program
        # entry, run as `-m` runs it and as the [project.scripts] wrapper
        # calls it, freezes it; a hook at exit reads the frozen count
        module, name = re.search(r'^dissipctl = "([\w.]+):(\w+)"$',
                                 (ROOT / "pyproject.toml").read_text(), re.M).groups()
        script = (
            "import atexit, gc, importlib, runpy, sys\n"
            "how, module, name = sys.argv[1:]\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            "argv = ['check', '--name', 'three_level']\n"
            "sys.argv = ['dissipctl', *argv]\n"
            "if how == 'main':\n"
            "    sys.exit(importlib.import_module(module).main(argv))\n"
            "if how == 'module':\n"
            "    runpy.run_module(module, run_name='__main__', alter_sys=True)\n"
            "sys.exit(getattr(importlib.import_module(module), name)())\n"
        )
        runs = {how: _fresh(["-c", script, how, module, name], text=True)
                for how in ("main", "module", "script")}
        assert {how: (p.returncode, p.stdout) for how, p in runs.items()} == \
            {how: (0, runs["main"].stdout) for how in runs}
        frozen = {how: int(p.stderr) for how, p in runs.items()}
        assert frozen["main"] == 0
        assert frozen["module"] > 1000 and frozen["script"] > 1000


def test_no_subcommand_loads_scipy(v_file):
    """scipy is a test oracle only: a fresh process that runs every
    computing subcommand, exact propagation included, never imports it."""
    calls = [
        ["check", "--name", "three_level"],
        ["check", "--name", "two_level", "--simulate"],
        ["scale", "--name", "two_qubit", "--theorem", "d-free"],
        ["synthesize", "--v", v_file, "--c", "1", "--channels", "2"],
        ["simulate", "--name", "cluster_chain(4)", "--t-final", "1", "--samples", "11"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "from dissipctl.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'scipy' in sys.modules]))\n"
    )
    proc = _fresh(["-c", script, json.dumps(calls)], text=True)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_loaded = json.loads(proc.stdout)
    assert codes == [0] * len(calls)
    assert not scipy_loaded
