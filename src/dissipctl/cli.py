"""Command-line front end.

Subcommands: check, synthesize, simulate, scale, models.  Reports are JSON,
trajectories are CSV; all randomness is pinned by --seed so re-runs are
byte-identical.  synthesize is exact and uses no randomness; its report
carries no seed.

Exit codes: 0 success/certified, 1 input error (usage errors included),
2 not certified, 3 synthesis infeasible (reason norm, rank or es),
5 dimension cap exceeded.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from dataclasses import asdict

from . import __version__
from .errors import DimensionCapError, DissipctlError, InfeasibleError, InputFormatError
from .lindblad import _N_SAMPLES, evolve
from .linalg import DEFAULT_TOL, _number
from .models import REGISTRY, NamedModel, build
from .scalability import (
    check_corollary_commuting,
    check_incremental,
    check_theorem_ds_aggregation,
    check_theorem_es_aggregation,
    simulate_aggregate,
)
from .serialize import (
    _local_to_json,
    _term_from_json,
    aggregate_from_json,
    aggregate_report_to_dict,
    aggregate_to_json,
    dumps_report,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    synthesis_result_to_dict,
    trajectory_to_csv,
    write_text_atomic,
)
from .stability import certify_ground_state_stability
from .synthesis import synthesize

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CERTIFIED = 2
EXIT_INFEASIBLE = 3
EXIT_DIM_CAP = 5

def _check_numbers(args) -> None:
    """--c, --tol and --t-final must be finite and positive, and --tol below 1;
    --seed non-negative.  Every subcommand states these, also where a value
    goes unread; the library decides every other rule and names its field."""
    for dest in ("c", "tol", "t_final"):
        value = getattr(args, dest, None)
        if value is not None and not (math.isfinite(value) and value > 0):
            raise InputFormatError(dest.replace("_", "-"),
                                   f"must be finite and positive, got {value!r}")
    if getattr(args, "tol", 0) >= 1:  # spectral_tol(w) >= max |w|: every test passes
        raise InputFormatError("tol", f"must be below 1, got {args.tol!r}")
    if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
        raise InputFormatError("seed", f"must be a non-negative integer, got {args.seed}")


def _load_json(path: str, field: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise InputFormatError(field, f"file not found: {path}")
    except OSError as exc:  # a directory, or no permission
        raise InputFormatError(field, f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:  # not UTF-8, or not JSON
        raise InputFormatError(field, f"invalid JSON in {path}: {exc}")


def _load_v(path: str) -> tuple:
    """The --v file and its operator: the value of its "V" key, or the file."""
    obj = _load_json(path, "V")
    return obj, obj["V"] if isinstance(obj, dict) and "V" in obj else obj


def _emit(args, payload: dict | str) -> None:
    text = payload if isinstance(payload, str) else dumps_report(payload)
    if getattr(args, "out", None):
        try:
            write_text_atomic(args.out, text)
        except OSError as exc:  # a missing directory, or a directory at the path
            raise InputFormatError("out", f"cannot write {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _report_envelope(args, body: dict) -> dict:
    return {
        "tool": "dissipctl",
        "version": __version__,
        "command": args.command,
        "seed": args.seed,
        "tol": args.tol,
        "report": body,
    }


def _resolve_named(args) -> NamedModel | None:
    """The --name model, which excludes the file options; None without --name."""
    if not getattr(args, "name", None):
        return None
    given = [f"--{dest}" for dest in ("model", "spec", "v") if getattr(args, dest, None)]
    if given:
        raise InputFormatError("name", f"--name excludes {' and '.join(given)}")
    return build(args.name)


def _cmd_check(args) -> int:
    named = _resolve_named(args)
    if named is not None:
        model = named.model
        candidates = named.candidates
        v = candidates.get(args.candidate) if args.candidate \
            else next(iter(candidates.values()), None)
        if v is None:
            raise InputFormatError("candidate", f"model has candidates {sorted(candidates)}")
    else:
        if args.candidate:
            raise InputFormatError("candidate", "--candidate needs --name")
        if not args.model or not args.v:
            raise InputFormatError("model", "check needs --model and --v (or --name)")
        model = model_from_json(_load_json(args.model, "model"))
        v = _load_v(args.v)[1]  # an array of operator objects stands for their sum
        v = [_term_from_json(t, model.structure, f"V[{i}]") for i, t in enumerate(v)] \
            if isinstance(v, list) and v and isinstance(v[0], dict) \
            else _term_from_json(v, model.structure, "V")
    report = certify_ground_state_stability(
        v, model, simulate=args.simulate, t_final=args.t_final, seed=args.seed, tol=args.tol,
    )
    _emit(args, _report_envelope(args, asdict(report)))
    return EXIT_OK if report.certified else EXIT_NOT_CERTIFIED


def _cmd_synthesize(args) -> int:
    obj, v = _load_v(args.v)
    v = matrix_from_json(v, "V")
    given = {"c": args.c, "channels": args.channels}
    for key, kind in (("c", "a finite number"), ("channels", "an integer")):
        # the input file may carry the target constant and channel count
        value = obj.get(key) if isinstance(obj, dict) else None
        if given[key] is None and value is not None:
            try:
                given[key] = _number(value, integral=key == "channels")
            except (ValueError, OverflowError):
                raise InputFormatError(key, f"must be {kind}, got {value!r}") from None
    channels = 1 if given["channels"] is None else given["channels"]
    result = synthesize(v, given["c"], channels=channels, tol=args.tol)
    if isinstance(result, list):
        body = {"channels": [synthesis_result_to_dict(r) for r in result]}
    else:
        body = synthesis_result_to_dict(result)
    envelope = _report_envelope(args, body)
    del envelope["seed"]  # the closed form uses no randomness
    _emit(args, envelope)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    named = _resolve_named(args)
    if named is not None:
        model, spec = named.model, named.aggregate
    else:
        model = model_from_json(_load_json(args.model, "model")) if args.model else None
        spec = aggregate_from_json(_load_json(args.spec, "spec")) if args.spec else None
        if model is None and spec is None:
            raise InputFormatError("model", "simulate needs --model, --spec or --name")
    rho0 = matrix_from_json(_load_json(args.rho0, "rho0"), "rho0") if args.rho0 else None
    if spec is not None:  # the spec adds the W and per-term columns
        traj = simulate_aggregate(spec, args.t_final, model=model, rho0=rho0,
                                  n_samples=args.samples)
    else:
        traj = evolve(model, rho0, args.t_final, n_samples=args.samples,
                      observables=named.candidates if named is not None else {})
    _emit(args, trajectory_to_csv(traj))
    return EXIT_OK


def _cmd_scale(args) -> int:
    theorem, tol = args.theorem, args.tol
    aggregate = theorem in ("es", "ds", "commuting")
    for dest, ignored in (("c", aggregate), ("n", aggregate), ("mode", theorem != "d-free")):
        if ignored and getattr(args, dest) is not None:
            raise InputFormatError(dest, f"--theorem {theorem} takes no --{dest}")
    named = _resolve_named(args)
    if named is not None:
        spec = named.aggregate
        if spec is None:
            raise InputFormatError("name", f"model {named.name} has no aggregate description")
    elif args.spec:
        spec = aggregate_from_json(_load_json(args.spec, "spec"))
    else:
        raise InputFormatError("spec", "scale needs --spec or --name")

    # built per call: bench/layers.py traces the theorems by patching this module's names
    aggregates = {"es": check_theorem_es_aggregation, "ds": check_theorem_ds_aggregation,
                  "commuting": check_corollary_commuting}
    if theorem in aggregates:
        report = aggregates[theorem](spec, tol=tol)
        body, overall = aggregate_report_to_dict(report), report.overall
    else:
        n = args.n if args.n is not None else spec.n_terms - 1
        c = args.c if args.c is not None else 1.0
        d_free = theorem == "d-free"
        mode = (args.mode or "es") if d_free else theorem.removeprefix("inc-")
        holds, info = check_incremental(spec, n, c, mode=mode, d_free=d_free, tol=tol)
        body, overall = {"theorem": theorem, "holds": holds, "c": c, "n": n, **info}, holds
    _emit(args, _report_envelope(args, body))
    return EXIT_OK if overall else EXIT_NOT_CERTIFIED


def _cmd_models(args) -> int:
    if args.action == "list":
        _emit(args, {"models": {name: (fn.__doc__ or "").strip().splitlines()[0]
                                for name, fn in sorted(REGISTRY.items())}})
        return EXIT_OK
    named = build(args.model_name)
    body = {
        "name": named.name,
        "description": named.description,
        "model": model_to_json(named.model),
        "candidates": {k: list(map(_local_to_json, v)) if isinstance(v, list)  # their sum
                       else matrix_to_json(v) for k, v in named.candidates.items()},
        "expected": named.expected,
    }
    if named.aggregate is not None:
        body["spec"] = aggregate_to_json(named.aggregate)
    _emit(args, body)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse with usage and type errors on EXIT_INPUT: its own exit code 2
    is EXIT_NOT_CERTIFIED here.  The message is argparse's."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dissipctl",
        description="certify ground-state stability of open quantum systems, "
                    "synthesize dissipative couplings, and check aggregation",
    )
    parser.add_argument("--version", action="version", version=f"dissipctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="certify a candidate stability witness")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--v", help="candidate operator JSON path")
    p.add_argument("--name", help="built-in model, e.g. three_level")
    p.add_argument("--candidate", help="candidate name for built-in models")
    p.add_argument("--simulate", action="store_true", help="cross-check by simulation")
    p.add_argument("--t-final", type=float, default=20.0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synthesize", help="compute a coupling L = U V")
    p.add_argument("--v", required=True, help="candidate matrix JSON path")
    p.add_argument("--c", type=float, default=None, help="target decay constant")
    p.add_argument("--channels", type=int, default=None)
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="integrate the master equation, emit CSV")
    p.add_argument("--model", help="model JSON path")
    p.add_argument("--spec", help="aggregate spec JSON path (adds per-term columns)")
    p.add_argument("--name", help="built-in model")
    p.add_argument("--rho0", help="initial state JSON (default maximally mixed)")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--samples", type=int, default=_N_SAMPLES)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("scale", help="run an aggregation certificate")
    p.add_argument("--spec", help="aggregate spec JSON path")
    p.add_argument("--name", help="built-in model")
    p.add_argument("--theorem", required=True,
                   choices=["es", "ds", "inc-es", "inc-ds", "commuting", "d-free"])
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--n", type=int, default=None, help="terms already certified")
    p.add_argument("--mode", choices=["es", "ds"], default=None,
                   help="variant for --theorem d-free (default es)")
    p.set_defaults(func=_cmd_scale)

    p = sub.add_parser("models", help="list or export built-in models")
    p.add_argument("action", choices=["list", "export"])
    p.add_argument("model_name", nargs="?", help="model to export")
    p.set_defaults(func=_cmd_models)
    # check alone reads --seed; synthesize, scale and simulate keep it for the
    # scripted runs (bench/workloads.py) that pass it to every subcommand
    for name, p in sub.choices.items():
        if name != "models":
            p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
        if name not in ("simulate", "models"):
            p.add_argument("--tol", type=float, default=DEFAULT_TOL, help="base tolerance")
        p.add_argument("--out", help="output path (written atomically)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "models" and args.action == "export" and not args.model_name:
            raise InputFormatError("model_name", "export needs a model name")
        _check_numbers(args)
        return args.func(args)
    except InfeasibleError as exc:
        print(f"dissipctl: infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DimensionCapError as exc:
        print(f"dissipctl: dimension cap: {exc}", file=sys.stderr)
        return EXIT_DIM_CAP
    except DissipctlError as exc:  # a refusal that names its field is an input error
        kind = "error" if exc.field is None else "input error"
        print(f"dissipctl: {kind}: {exc}", file=sys.stderr)
        return EXIT_INPUT


def _entry() -> int:
    """The program: `main` on the command line, after moving the objects of
    every import, numpy's and this package's, to the collector's permanent
    generation, so that the full collections of interpreter teardown skip
    them.  `main` called as a library leaves the collector alone."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(_entry())
