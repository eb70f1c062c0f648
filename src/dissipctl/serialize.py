"""External formats: matrix/model/aggregate JSON and trajectory CSV.

A complex entry is encoded as a two-element array [re, im]; a matrix is a
row-major array of rows.  Numeric output is limited to 15 significant digits
so re-runs diff cleanly across platforms.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import DimensionCapError, DimensionMismatchError, InputFormatError
from .lindblad import LindbladModel, Trajectory
from .linalg import LocalOperator, TensorStructure, _number, as_operator, require_headroom
from .scalability import AggregateReport, AggregateSpec
from .synthesis import SynthesisResult


def _format_float(x: float) -> str:
    return f"{float(x):.15g}"


def _round_floats(obj):
    """Clamp every float in a JSON-ready structure to 15 significant digits."""
    if isinstance(obj, float):
        return float(_format_float(obj))
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dumps_report(obj: dict) -> str:
    return json.dumps(_round_floats(obj), indent=2, sort_keys=True) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dissipctl-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- matrices -----------------------------------------------------------------


def matrix_to_json(a: np.ndarray) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _entry_from_json(entry, field: str) -> complex:
    real, imag = entry if isinstance(entry, list) and len(entry) == 2 else (entry, 0.0)
    try:
        return complex(_number(real), _number(imag))
    except OverflowError:
        raise InputFormatError(field, f"entry must be finite, got {entry!r}") from None
    except ValueError:
        raise InputFormatError(field, f"complex entry must be [re, im], got {entry!r}") from None


def matrix_from_json(obj, field: str = "matrix") -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise InputFormatError(field, "matrix must be a non-empty array of rows")
    rows = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != len(obj):
            raise InputFormatError(field, f"row {i} does not make the matrix square")
        rows.append([_entry_from_json(e, f"{field}[{i}][{j}]") for j, e in enumerate(row)])
    return require_headroom(as_operator(np.array(rows, dtype=complex)), field, "the matrix")


# -- models -------------------------------------------------------------------


def _local_to_json(op: LocalOperator) -> dict:
    return {"sites": list(op.sites), "matrix": matrix_to_json(op.matrix)}


def model_to_json(model: LindbladModel) -> dict:
    """The model with H and every coupling in the form {"sites", "matrix"}."""
    return {
        "dims": list(model.structure.dims),
        "H": _local_to_json(model.hamiltonian),
        "L": list(map(_local_to_json, model.couplings)),
    }


def _dims_from_json(obj, field: str) -> TensorStructure:
    dims = obj.get("dims")
    try:
        return TensorStructure(dims if isinstance(dims, list) else ())
    except DimensionCapError as exc:
        raise DimensionCapError(str(exc), f"{field}.dims") from None
    except DimensionMismatchError:
        raise InputFormatError(f"{field}.dims",
                               "dims must be a list of positive integers") from None


def model_from_json(obj: dict) -> LindbladModel:
    """H and the couplings L in any form of `_term_from_json`."""
    if not isinstance(obj, dict):
        raise InputFormatError("model", "model must be a JSON object")
    structure = _dims_from_json(obj, "model")
    if "H" not in obj:
        raise InputFormatError("model.H", "missing Hamiltonian")
    return LindbladModel(structure, _term_from_json(obj["H"], structure, "model.H"),
                         _operators(obj, "L", structure, "model"))


# -- aggregates ---------------------------------------------------------------


def _term_from_json(obj, structure: TensorStructure, field: str) -> LocalOperator | np.ndarray:
    """The operator form {"sites": [..], "matrix": rows}, the matrix on its
    ascending 1-based sites; a Pauli shorthand coeff P + offset I, as a local
    operator on the sites of P; or a matrix of the whole space, which
    `AggregateSpec` reduces and `LindbladModel` holds on every site.  Its fit
    and headroom are checked where it is used, by `local_operator`."""
    if isinstance(obj, dict) and "sites" in obj:
        sites, n = obj["sites"], structure.n_sites
        try:
            ints = [_number(s, integral=True) for s in sites] if isinstance(sites, list) else None
        except (ValueError, OverflowError):
            ints = None
        if ints is None or not all(1 <= s <= n for s in ints) or ints != sorted(set(ints)):
            raise InputFormatError(field, f"sites must be ascending and distinct in 1..{n}, "
                                          f"got {sites!r}")
        return LocalOperator(ints, matrix_from_json(obj.get("matrix"), f"{field}.matrix"))
    if isinstance(obj, dict):
        if "pauli" not in obj:
            raise InputFormatError(field, "operator object needs a 'sites' or a 'pauli' key")
        op = LocalOperator.pauli(str(obj["pauli"]), structure, field)
        coeff = _entry_from_json(obj.get("coeff", 1.0), f"{field}.coeff")
        offset = _entry_from_json(obj.get("offset", 0.0), f"{field}.offset")
        with np.errstate(over="ignore"):
            term = coeff * op.matrix + offset * np.eye(len(op.matrix))
        return LocalOperator(op.sites, term)
    return matrix_from_json(obj, field)


def _operators(obj: dict, key: str, structure: TensorStructure, field: str) -> list:
    """The optional array obj[key] of matrices or Pauli shorthands; empty
    when the key is absent."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InputFormatError(f"{field}.{key}", f"must be an array, got {value!r}")
    return [_term_from_json(a, structure, f"{field}.{key}[{i}]") for i, a in enumerate(value)]


def _per_term(obj: dict, key: str, valid, what: str):
    """The optional list spec[key] of valid entries, or None."""
    value = obj.get(key)
    if value is not None and not (isinstance(value, list) and all(map(valid, value))):
        raise InputFormatError(f"spec.{key}", f"need an array of one {what} per term, "
                                              f"got {value!r}")
    return value


def aggregate_to_json(spec: AggregateSpec) -> dict:
    """The spec with every operator in the form {"sites": [..], "matrix": rows}."""
    out = {
        "dims": list(spec.structure.dims),
        "terms": list(map(_local_to_json, spec.terms)),
        "couplings": list(map(_local_to_json, spec.couplings)),
    }
    if spec.assignment is not None:  # a group of one channel as its index
        out["assignment"] = [ks[0] if len(ks) == 1 else ks for ks in spec.assignment]
    out["H"] = _local_to_json(spec.hamiltonian)
    if spec.term_names is not None:
        out["names"] = list(spec.term_names)
    if spec.unitaries is not None:
        out["unitaries"] = list(map(_local_to_json, spec.unitaries))
    if spec.new_couplings:
        out["new_couplings"] = list(map(_local_to_json, spec.new_couplings))
    return out


def aggregate_from_json(obj: dict) -> AggregateSpec:
    if not isinstance(obj, dict):
        raise InputFormatError("spec", "aggregate spec must be a JSON object")
    structure = _dims_from_json(obj, "spec")
    terms_obj = obj.get("terms")
    if not isinstance(terms_obj, list) or not terms_obj:
        raise InputFormatError("spec.terms", "need a non-empty array of terms")
    terms = [_term_from_json(t, structure, f"spec.terms[{i}]") for i, t in enumerate(terms_obj)]
    couplings = _operators(obj, "couplings", structure, "spec")
    assignment = _per_term(obj, "assignment", lambda x: True,  # AggregateSpec checks each
                           "channel index or list of indices")
    h = {"hamiltonian": _term_from_json(obj["H"], structure, "spec.H")} if "H" in obj else {}
    names = _per_term(obj, "names", lambda x: isinstance(x, str), "string")
    unitaries = _operators(obj, "unitaries", structure, "spec") if "unitaries" in obj else None
    return AggregateSpec(structure=structure, terms=terms, couplings=couplings,
                         assignment=assignment, term_names=names, unitaries=unitaries,
                         new_couplings=_operators(obj, "new_couplings", structure, "spec"), **h)


# -- reports ------------------------------------------------------------------


def synthesis_result_to_dict(result: SynthesisResult) -> dict:
    return {
        "U": matrix_to_json(result.unitary),
        "L": matrix_to_json(result.coupling),
        "c": result.c,
        "residuals": dict(result.residuals),
    }


def aggregate_report_to_dict(report: AggregateReport) -> dict:
    return {
        "mode": report.mode,
        "overall": report.overall,
        "d": report.d_total,
        "per_term": report.per_term,
        "notes": list(report.notes),
    }


def trajectory_to_csv(traj: Trajectory) -> str:
    names = list(traj.observables)
    header = ",".join(["t"] + names + ["trace", "purity"])
    traces = traj.traces()
    purities = traj.purities()
    lines = [header]
    for i, t in enumerate(traj.times):
        row = [_format_float(t)]
        row += [_format_float(traj.observables[name][i]) for name in names]
        row.append(_format_float(traces[i]))
        row.append(_format_float(purities[i]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
