"""Reference checks on job results.

A job fails on a crash, a timeout, an unexpected exit code, a wrong verdict or
a constant that misses its reference.  Only exit codes and report fields are
compared, never stderr text.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

UNITARITY_TOL = 1e-9
KINDS = ("field", "rows", "trace", "final", "synth", "silent")


def _lookup(obj, path: list[str]) -> list:
    """Values at a dotted path; ``*`` maps over a list."""
    if not path:
        return [obj]
    head, rest = path[0], path[1:]
    if head == "*":
        if not isinstance(obj, list) or not obj:
            raise KeyError("*")
        return [v for item in obj for v in _lookup(item, rest)]
    if not isinstance(obj, dict) or head not in obj:
        raise KeyError(head)
    return _lookup(obj[head], rest)


def _matches(got, want, tol: float) -> bool:
    if want is None or isinstance(want, (bool, str)) or isinstance(got, bool):
        return got == want
    if isinstance(got, (int, float)):
        return abs(float(got) - float(want)) <= tol
    return False


def _load_matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def synthesis_gate(v: np.ndarray, body: dict, c: float, tol: float) -> list[str]:
    """Unitary factors, ``L = U V``, and a decay constant of at least ``c - tol``
    for the model with zero Hamiltonian and the synthesized couplings."""
    from dissipctl.lindblad import LindbladModel
    from dissipctl.linalg import TensorStructure
    from dissipctl.stability import check_condition_es

    problems = []
    channels = body.get("channels", [body])
    couplings = []
    for k, ch in enumerate(channels):
        u, l = _load_matrix(ch["U"]), _load_matrix(ch["L"])
        unitarity = float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())
        if unitarity > UNITARITY_TOL:
            problems.append(f"channel {k}: unitarity residual {unitarity:.3e}")
        if float(np.abs(l - u @ v).max()) > UNITARITY_TOL:
            problems.append(f"channel {k}: L differs from U V")
        couplings.append(l)
    model = LindbladModel(TensorStructure((v.shape[0],)), np.zeros_like(v), couplings)
    c_es = check_condition_es(v, model)
    if c_es is None or c_es < c - tol:
        problems.append(f"decay constant {c_es} below target {c}")
    return problems


def check_output(job, exit_code: int, stdout: str) -> list[str]:
    """Problems with one job's exit code and report; empty when it passes.

    A report that lacks a field a check reads, or holds one of the wrong type,
    is a problem of that check, not an error of the benchmark.
    """
    unknown = [kind for kind, *_ in job.expect if kind not in KINDS]
    if unknown:
        raise ValueError(f"unknown check kind {unknown[0]!r}")
    if exit_code not in job.exits:
        return [f"exit code {exit_code}, expected one of {list(job.exits)}"]
    problems = []
    body = rows = None
    try:
        if job.command == "simulate":
            rows = list(csv.DictReader(io.StringIO(stdout)))
        elif any(kind in ("field", "synth") for kind, *_ in job.expect):
            body = json.loads(stdout)
    except ValueError as exc:
        return [f"unreadable report: {exc}"]
    if rows is not None and not rows:
        return ["empty CSV"]
    for kind, key, want, tol in job.expect:
        try:
            problems += _check_one(kind, key, want, tol, body, rows, stdout)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problems.append(f"{kind} {key}: malformed report ({type(exc).__name__}: {exc})")
    return problems


def _check_one(kind, key, want, tol, body, rows, stdout: str) -> list[str]:
    if kind == "field":
        values = _lookup(body, key.split("."))
        bad = [v for v in values if not _matches(v, want, tol)]
        if bad:
            return [f"{key}: got {bad[0]!r}, expected {want!r} (tol {tol:g})"]
    elif kind == "rows":
        if len(rows) != want:
            return [f"{len(rows)} rows, expected {want}"]
    elif kind == "trace":
        worst = max(abs(float(r["trace"]) - 1.0) for r in rows)
        if worst > tol:
            return [f"trace drifts by {worst:.3e}"]
    elif kind == "final":
        got = float(rows[-1][key])
        if abs(got - want) > tol:
            return [f"final {key}: got {got!r}, expected {want!r} (tol {tol:g})"]
    elif kind == "synth":
        with open(key) as handle:
            v = _load_matrix(json.load(handle)["V"])
        return synthesis_gate(v, body["report"], want, tol)
    elif kind == "silent":
        if stdout.strip():
            return ["unexpected report on stdout"]
    return []
