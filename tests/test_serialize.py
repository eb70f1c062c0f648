import json
import re
import time

import numpy as np
import pytest

from dissipctl.errors import InputFormatError
from dissipctl.lindblad import evolve
from dissipctl.linalg import SIGMA_MINUS
from dissipctl.models import build, two_level_example
from dissipctl.serialize import (
    _format_float,
    aggregate_from_json,
    aggregate_to_json,
    dumps_report,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    trajectory_to_csv,
    write_text_atomic,
)
from oracles import DenseModel, dense_view, pauli_string


class TestMatrixJson:
    def test_round_trip_complex(self):
        a = np.array([[1 + 2j, 0], [-0.5j, 3.25]], dtype=complex)
        assert np.array_equal(matrix_from_json(matrix_to_json(a)), a)

    def test_entries_are_re_im_pairs(self):
        out = matrix_to_json(np.array([[1j]]))
        assert out == [[[0.0, 1.0]]]

    def test_plain_numbers_accepted(self):
        assert np.array_equal(matrix_from_json([[1, 0], [0, 1]]), np.eye(2))

    def test_ragged_rejected_with_field(self):
        with pytest.raises(InputFormatError) as err:
            matrix_from_json([[1, 0], [0]], field="V")
        assert "V" in str(err.value)

    def test_bad_entry_rejected(self):
        with pytest.raises(InputFormatError):
            matrix_from_json([[["a", 0]]])

    @pytest.mark.parametrize("entry", [float("nan"), [0.0, float("inf")], 10**400])
    def test_non_finite_entry_rejected_with_position(self, entry):
        with pytest.raises(InputFormatError) as err:
            matrix_from_json([[1, 0], [0, entry]], field="H")
        assert "H[1][1]" in str(err.value) and "finite" in str(err.value)

    def test_entries_whose_squares_overflow_are_rejected_with_field(self):
        # finite entries, but L'L would not be: refused before any product
        with pytest.raises(InputFormatError, match=r"^L\[0\]: the matrix has a squared norm"):
            matrix_from_json([[0, 0], [1e200, 0]], field="L[0]")
        assert matrix_from_json([[0, 0], [1e150, 0]])[1, 0] == 1e150


class TestModelJson:
    def test_round_trip(self):
        m = two_level_example()
        obj = model_to_json(m.model)
        back = model_from_json(json.loads(json.dumps(obj)))
        assert back.structure.dims == m.model.structure.dims
        for ours, theirs in zip([m.model.hamiltonian, *m.model.couplings],
                                [back.hamiltonian, *back.couplings], strict=True):
            assert ours.sites == theirs.sites and np.array_equal(ours.matrix, theirs.matrix)

    def test_local_and_dense_forms_read_alike(self):
        # written on its sites, read back on them; a dense matrix is held on every site
        model = build("two_qubit").model
        obj = model_to_json(model)
        assert obj["L"][0] == {"sites": [1], "matrix": matrix_to_json(SIGMA_MINUS)}
        dense = DenseModel.of(model)
        back = model_from_json({"dims": [2, 2], "H": matrix_to_json(dense.hamiltonian),
                                "L": [matrix_to_json(l) for l in dense.couplings]})
        assert back.hamiltonian.sites == (1, 2)
        assert all(np.array_equal(a, b) for a, b in zip(DenseModel.of(back).couplings,
                                                        dense.couplings, strict=True))

    def test_missing_hamiltonian_names_field(self):
        with pytest.raises(InputFormatError) as err:
            model_from_json({"dims": [2], "L": []})
        assert "H" in str(err.value)

    def test_bad_dims(self):
        with pytest.raises(InputFormatError) as err:
            model_from_json({"dims": [0], "H": [[0]]})
        assert "dims" in str(err.value)


class TestAggregateJson:
    def test_round_trip_with_names(self):
        # cluster_chain and toric_patch carry unitaries, two_qubit new channels
        for name in ("cluster_chain(4)", "toric_patch", "two_qubit"):
            spec = build(name).aggregate
            back = aggregate_from_json(json.loads(json.dumps(aggregate_to_json(spec))))
            assert back.structure.dims == spec.structure.dims
            assert back.term_names == spec.term_names
            assert back.assignment == spec.assignment
            assert (back.unitaries is None) == (spec.unitaries is None)
            assert spec.unitaries is not None or spec.new_couplings
            for key in ("terms", "couplings", "unitaries", "new_couplings"):
                ours = getattr(dense_view(spec), key) or []
                theirs = getattr(dense_view(back), key) or []
                assert len(theirs) == len(ours), (name, key)
                assert all(map(np.array_equal, theirs, ours)), (name, key)

    def test_operators_are_written_on_their_sites(self):
        # the dense form took 37 s and 222 MB for this spec
        spec = build("toric_patch(extended)").aggregate
        start = time.perf_counter()
        text = json.dumps(aggregate_to_json(spec))
        assert time.perf_counter() - start < 0.1 and len(text) < 100_000
        obj = json.loads(text)
        term = spec.terms[0]
        assert obj["terms"][0] == {"sites": list(term.sites), "matrix": matrix_to_json(term.matrix)}
        back = aggregate_from_json(obj)
        for key in ("terms", "couplings", "unitaries", "new_couplings"):
            for ours, theirs in zip(getattr(spec, key), getattr(back, key), strict=True):
                assert ours.sites == theirs.sites and np.array_equal(ours.matrix, theirs.matrix)
        assert back.hamiltonian.sites == spec.hamiltonian.sites == ()

    @pytest.mark.parametrize("key", ["terms", "couplings", "unitaries", "new_couplings", "H"])
    @pytest.mark.parametrize("op, message", [
        ({"sites": [2, 1], "matrix": np.eye(4).tolist()}, "sites must be ascending"),
        ({"sites": [1, 1], "matrix": np.eye(4).tolist()}, "sites must be ascending"),
        ({"sites": [3], "matrix": np.eye(2).tolist()}, "sites must be ascending"),
        ({"sites": [0], "matrix": np.eye(2).tolist()}, "sites must be ascending"),
        ({"sites": [True], "matrix": np.eye(2).tolist()}, "sites must be ascending"),
        ({"sites": "1", "matrix": np.eye(2).tolist()}, "sites must be ascending"),
        ({"sites": [1], "matrix": np.eye(4).tolist()},
         r"matrix of dim 4 does not fit sites \[1\] of dimension 2"),
        ({"sites": [1]}, "matrix must be a non-empty array"),
    ], ids=["descending", "repeated", "past-the-end", "zero", "bool", "string", "dimension",
            "no-matrix"])
    def test_bad_local_operator_names_its_field(self, key, op, message):
        obj = aggregate_to_json(build("two_qubit").aggregate)
        obj[key] = op if key == "H" else [op]
        field = re.escape("spec.H" if key == "H" else f"spec.{key}[0]")
        with pytest.raises(InputFormatError, match=rf"^{field}(\.matrix)?: {message}"):
            aggregate_from_json(obj)

    def test_local_operator_headroom_is_that_of_the_whole_space(self):
        # 16 ||X||_F^2 = 1.44e308 fits; with the three other dimensions of
        # dims [2, 2, 2] it is 5.8e308, past the float range
        op = {"sites": [1], "matrix": [[3e153, 0], [0, 0]]}
        assert aggregate_from_json({"dims": [2], "terms": [op]}).terms[0].sites == (1,)
        with pytest.raises(InputFormatError, match=r"^spec.terms\[0\]: the operator has"):
            aggregate_from_json({"dims": [2, 2, 2], "terms": [op]})

    def test_pauli_shorthand_for_unitaries_and_new_channels(self):
        spec = build("cluster_chain").aggregate
        obj = dict(aggregate_to_json(spec), unitaries=[{"pauli": "Z2"}, {"pauli": "Z3"}],
                   new_couplings=[{"pauli": "X1", "coeff": 0.5}])
        back = dense_view(aggregate_from_json(obj))
        assert all(map(np.array_equal, back.unitaries, dense_view(spec).unitaries))
        assert np.array_equal(back.new_couplings[0], 0.5 * pauli_string("X1", spec.structure))

    def test_spec_operators_of_the_wrong_dimension(self):
        obj = aggregate_to_json(build("two_qubit").aggregate)
        for key in ("unitaries", "new_couplings"):
            bad = dict(obj, **{key: [[[1.0, 0.0], [0.0, 1.0]]]})
            with pytest.raises(InputFormatError, match=rf"^spec\.{key}\[0\]: matrix of dim 2 "
                               r"does not fit dims \[2, 2\] of dimension 4$"):
                aggregate_from_json(bad)

    def test_pauli_shorthand(self):
        obj = {
            "dims": [2, 2, 2],
            "terms": [{"pauli": "Z1 X2 Z3", "coeff": 0.5, "offset": 0.5}],
            "couplings": [],
            "assignment": [[]],
        }
        w = dense_view(aggregate_from_json(obj)).terms[0]
        assert np.allclose(w @ w, w, atol=1e-12)  # (S+1)/2 is a projection
        assert np.trace(w).real == pytest.approx(4.0)

    @pytest.mark.parametrize("term", [{"pauli": "Z1", "coeff": 1e200},
                                      {"pauli": "X1", "offset": [0.0, 1e200]}])
    def test_pauli_shorthand_whose_square_overflows(self, term):
        with pytest.raises(InputFormatError, match=r"^spec.terms\[0\]: the operator has"):
            aggregate_from_json({"dims": [2], "terms": [term]})

    def test_bad_pauli_site(self):
        obj = {"dims": [2], "terms": [{"pauli": "Z5"}]}
        with pytest.raises(InputFormatError):
            aggregate_from_json(obj)


class TestTrajectoryCsv:
    def test_header_and_shape(self):
        m = two_level_example()
        traj = evolve(m.model, None, 1.0, n_samples=5,
                      observables={"V": m.candidates["V"]})
        csv = trajectory_to_csv(traj)
        lines = csv.strip().splitlines()
        assert lines[0] == "t,V,trace,purity"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 4 for line in lines[1:])

    def test_fifteen_significant_digits(self):
        assert _format_float(np.pi) == "3.14159265358979"
        assert _format_float(1e-20) == "1e-20"
        assert "e" in _format_float(2.5e-13)


class TestReportDump:
    def test_floats_rounded_and_sorted(self):
        text = dumps_report({"b": 0.1234567890123456789, "a": [1.0, {"x": 2e-30}]})
        assert text == dumps_report(json.loads(text))
        assert json.loads(text)["b"] == float("0.123456789012346")

    def test_atomic_write(self, tmp_path):
        target = tmp_path / "out.json"
        write_text_atomic(str(target), "payload")
        assert target.read_text() == "payload"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".dissipctl-")]
        assert not leftovers
