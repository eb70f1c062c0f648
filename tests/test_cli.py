import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dissipctl
from dissipctl import synthesis
from dissipctl.cli import main
from dissipctl.lindblad import evolve
from dissipctl.serialize import matrix_to_json, model_to_json
from dissipctl.models import REGISTRY, build, two_level_example
from oracles import DenseModel, dense_candidate


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
        assert payload["report"]["message"] == "not a Lyapunov operator: V >= 0 fails"

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

    def test_numbers_in_file(self, capsys, tmp_path):
        path = tmp_path / "v.json"
        path.write_text('{"V": [[1, 0], [0, 0]], "c": 1, "channels": 2.0}')
        code, out, _ = _run(capsys, ["synthesize", "--v", str(path)])
        assert code == 0
        assert len(json.loads(out)["report"]["channels"]) == 2


class TestUsageErrors:
    """argparse's usage and type errors exit 1 (input error), not 2 (not
    certified), with argparse's message."""

    @pytest.mark.parametrize("argv, message", [
        (["check", "--name", "two_level", "--sim-cap", "abc"],
         "argument --sim-cap: invalid int value: 'abc'"),
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

    def test_dimension_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DISSIPCTL_SIM_CAP", "8")
        code, _, err = _run(capsys, ["simulate", "--name", "cluster_chain(4)",
                                     "--t-final", "1"])
        assert code == 5
        assert "cap" in err

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

    def test_check_with_simulation(self, capsys):
        code, out, _ = _run(capsys, ["check", "--name", "two_level", "--simulate",
                                     "--t-final", "12"])
        assert code == 0
        sim = json.loads(out)["report"]["simulation"]
        assert sim["exponential_envelope_ok"]


class TestScale:
    def test_two_qubit_d_free(self, capsys):
        code, out, _ = _run(capsys, ["scale", "--name", "two_qubit",
                                     "--theorem", "d-free", "--c", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["holds"]
        assert payload["report"]["margin"] >= -1e-9

    def test_cluster_commuting(self, capsys):
        code, out, _ = _run(capsys, ["scale", "--name", "cluster_chain(5)",
                                     "--theorem", "commuting"])
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["overall"]

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
        # the model block holds each operator on its sites, the candidate is
        # the matrix of the whole space; check --name reads the first candidate
        for name in [*sorted(REGISTRY), "toric_patch(extended)"]:
            code, out, _ = _run(capsys, ["models", "export", name])
            assert code == 0
            payload = json.loads(out)
            model_path = tmp_path / "model.json"
            model_path.write_text(json.dumps(payload["model"]))
            v_path = tmp_path / "v.json"
            v_path.write_text(json.dumps(next(iter(payload["candidates"].values()))))
            by_file = _run(capsys, ["check", "--model", str(model_path), "--v", str(v_path)])
            assert by_file == _run(capsys, ["check", "--name", name]), name
            if name == "three_level":
                assert by_file[0] == 0
                assert json.loads(by_file[1])["report"]["c_ds"] == pytest.approx(0.5, abs=1e-6)

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
        kind = "unitary" if key == "unitaries" else "new coupling"
        assert f"dissipctl: error: {kind} 0 dim 2 != 4" in err

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
        assert err == "dissipctl: error: hamiltonian must be Hermitian\n"

    def test_pauli_term_whose_square_overflows(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"dims": [2], "terms": [{"pauli": "Z1", "coeff": 1e200}]}))
        code, out, err = _run(capsys, ["scale", "--spec", str(path), "--theorem", "es"])
        assert code == 1 and out == ""
        assert "input error: spec.terms[0]: the operator has a squared norm too close" in err

    def test_simulate_a_rate_whose_propagator_needs_many_squarings(self, capsys):
        # Lambda dt has 1-norm 2e199 here; expm once overflowed on 4^s, s = 660
        code, out, err = _run(capsys, ["check", "--name", "two_level(0,1e100)", "--simulate"])
        assert code == 0 and "Traceback" not in err
        report = json.loads(out)["report"]
        assert report["c_es"] == 1e200 and report["simulation"]["exponential_envelope_ok"]

    def test_simulate_past_the_rounding_of_the_krylov_propagator(self, capsys):
        # above dim 16, exp(Lambda dt) over dt = 5e297 would be rounding only:
        # refused, naming t-final, with no numpy warning (an error under the
        # suite's filter)
        code, out, err = _run(capsys, ["simulate", "--name", "toric_patch", "--t-final", "1e300"])
        assert code == 1 and out == ""
        assert err == ("dissipctl: error: t-final 1e+300 too large: the propagator over a "
                       "sample interval is lost to rounding at rtol 1e-09\n")
        # the exact propagator of dims <= 16 reaches that horizon
        code, out, _ = _run(capsys, ["simulate", "--name", "two_level", "--t-final", "1e300"])
        assert code == 0 and out.splitlines()[-1] == "1e+300,0,1,1"

    @pytest.mark.parametrize("name", ["two_level(nan)", "two_level(1,inf)"])
    def test_non_finite_model_argument(self, capsys, name):
        code, out, err = _run(capsys, ["check", "--name", name])
        assert code == 1 and out == ""
        assert "input error: name: argument" in err and "must be finite" in err

    @pytest.mark.parametrize("name, message", [
        ("two_level(0,1e200)", "Numerical result out of range"),
        ("two_level(1e200)", "squared norm too close to the float range"),
        ("two_level(1" + "0" * 400 + ")", "int too large to convert to float"),
    ], ids=["constructor-overflow", "product-overflow", "integer-literal-overflow"])
    def test_huge_model_argument(self, capsys, name, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(capsys, ["check", "--name", name])
        assert code == 1 and out == ""
        assert f"input error: name: arguments in {name!r} overflow" in err and message in err
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

    @pytest.mark.parametrize("names", [["A", "A"], ["W", "X"]], ids=["repeated", "reserved"])
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

    @pytest.mark.parametrize("n", ["0", "2", "5", "-1"])
    def test_n_out_of_range_names_its_field(self, capsys, n):
        # two_qubit has two terms, so n = 1 alone
        argv = ["scale", "--name", "two_qubit", "--theorem", "inc-es", "--n", n]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"dissipctl: input error: n: must satisfy 1 <= n < 2, got {n}\n"


class TestSimCap:
    """The simulation dimension cap is a positive integer, from --sim-cap or
    the environment; anything else ends in exit 1 naming where it came from."""

    @pytest.mark.parametrize("argv", [
        ["check", "--name", "two_level", "--sim-cap", "0"],
        ["simulate", "--name", "two_level", "--t-final", "1", "--sim-cap", "-3"],
    ], ids=["zero", "negative"])
    def test_option_named(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert f"input error: sim-cap: must be a positive integer, got {argv[-1]}" in err

    def test_environment_named(self, capsys, monkeypatch):
        monkeypatch.setenv("DISSIPCTL_SIM_CAP", "abc")
        code, out, err = _run(capsys, ["simulate", "--name", "two_level", "--t-final", "1"])
        assert code == 1 and out == ""
        assert "input error: DISSIPCTL_SIM_CAP: must be a positive integer, got 'abc'" in err
        assert "Traceback" not in err


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
    src = str(Path(dissipctl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(calls)],
                          capture_output=True, text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_loaded = json.loads(proc.stdout)
    assert codes == [0] * len(calls)
    assert not scipy_loaded
