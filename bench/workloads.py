"""Workload definitions: the CLI jobs of each workload and what they must return.

Each workload is a closed loop: one client runs its jobs one after another as
fresh ``dissipctl`` processes, so import time is part of every job.  Every
workload runs each of the four subcommands at least once, so that every
per-subcommand time is defined on every workload, and every layer is reached
on every workload.  The jobs outside a workload's focus are small: a
two-channel split of a 4x4 projection takes a few solver iterations, a
one-unit simulation of a qubit a few hundred RHS calls.

certify    dense eigensolves, the bisection constant search and the
           aggregation theorems; certified and not-certified verdicts.
dynamics   RK45 right-hand-side calls at dims 2-4 (Python overhead) and 16-64
           (matmul bound); the constant search is negligible at dim <= 4.
synthesis  the bilinear solver run both to convergence (multi-channel splits)
           and to exhaustion (rank-obstructed projections), plus the block
           dilation that bypasses it.

Expected values come from the registry's ``expected`` records (``Ref``), or are
frozen from the reports of dissipctl 0.1.0 at commit 7919666 where no record
exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("certify", "dynamics", "synthesis")

# Tolerance the test suite uses for decay constants.
CONST_TOL = 1e-6


@dataclass(frozen=True)
class Ref:
    """A value taken from ``models.build(model).expected[key]``."""

    model: str
    key: str


@dataclass
class Job:
    """One CLI call and the checks its exit code and report must pass.

    ``expect`` holds ``(kind, key, value, tol)`` tuples:

    * ``field``  JSON report path (``*`` maps over a list) equals ``value``;
    * ``rows``   the CSV has ``value`` data rows;
    * ``trace``  every CSV ``trace`` entry is within ``tol`` of 1;
    * ``final``  the last CSV row's ``key`` column equals ``value``;
    * ``synth``  the synthesized couplings pass the gate for target ``value``
      against the candidate in input file ``key``;
    * ``silent`` nothing is written to stdout.
    """

    id: str
    argv: list[str]
    exits: tuple[int, ...]
    expect: list[tuple] = field(default_factory=list)
    models: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)

    @property
    def command(self) -> str:
        return self.argv[0]


def _check(name: str, exit_code: int, expect: list[tuple], simulate: bool = False) -> Job:
    argv = ["check", "--name", name] + (["--simulate"] if simulate else [])
    tag = "check-sim" if simulate else "check"
    return Job(f"{tag}:{name}", argv, (exit_code,), expect, models=[name])


def _scale(name: str, theorem: str, exit_code: int, expect: list[tuple],
           c: float | None = None) -> Job:
    argv = ["scale", "--name", name, "--theorem", theorem]
    if c is not None:
        argv += ["--c", repr(c)]
    return Job(f"scale-{theorem}:{name}", argv, (exit_code,), expect, models=[name])


def _simulate(name: str, t_final: float, finals: dict[str, float]) -> Job:
    expect = [("rows", None, 201, 0), ("trace", None, None, 1e-8)]
    expect += [("final", col, val, CONST_TOL) for col, val in finals.items()]
    return Job(f"simulate:{name}", ["simulate", "--name", name, "--t-final", repr(t_final)],
               (0,), expect, models=[name])


def _synthesize(path: str, label: str, c: float, channels: int, exits=(0,)) -> Job:
    argv = ["synthesize", "--v", path, "--c", repr(c), "--channels", str(channels)]
    expect = [("synth", path, c, CONST_TOL)] if exits == (0,) else [("silent", None, None, 0)]
    return Job(f"synthesize:{label}", argv, exits, expect, inputs=[path])


def _probe_check() -> Job:
    # built from Pauli strings, so the synthesis workload reaches pauli_string and embed
    return _check("cluster_chain(3)", 0, [
        ("field", "report.c_es", 4.00000000099822, CONST_TOL),
        ("field", "report.c_ds", 4.00000000099822, CONST_TOL),
    ])


def _probe_synthesize(paths: dict[str, str], probe: dict) -> Job:
    return _synthesize(paths[probe["name"]], probe["name"], probe["c"], probe["channels"])


def _probe_d_free() -> Job:
    return _scale("two_qubit", "d-free", 0, [
        ("field", "report.holds", Ref("two_qubit", "corollary_d_free_c1"), 0),
    ], c=1.0)


def _probe_simulate() -> Job:
    # <V>(t) = <V>(0) exp(-t) for the two-level model from the maximally mixed state
    return _simulate("two_level", 1.0, {"V": 0.5 * float(np.exp(-1.0))})


# -- generated synthesis candidates --------------------------------------------


def _projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return cols @ cols.conj().T


def synthesis_inputs(seed: int) -> list[dict]:
    """Synthesis candidates for a seed: random projections of fixed shape.

    The slot shapes are fixed so that every seed asks for the same work; the
    seed picks the eigenbases, the ranks where the cost does not depend on
    them, and the target constants of the obstructed cases.
    """
    rng = np.random.default_rng(seed)
    out = []

    def add(kind, n, rank, c, channels):
        out.append({"name": f"{kind}-n{n}-r{rank}", "kind": kind, "c": c,
                    "channels": channels, "V": _projection(rng, n, rank)})

    # a small two-channel split: one short converging solve for the workloads
    # that focus elsewhere
    add("probe", 4, int(rng.integers(1, 3)), 1.0, 2)
    for n in (8, 12, 16):
        add("dilate", n, int(rng.integers(1, n // 2 + 1)), 1.0, 1)
    for n, channels in ((6, 2), (8, 3)):
        add(f"split{channels}", n, int(rng.integers(1, n // 2 + 1)), 1.0, channels)
    # rank > n/2 with c < 1: no unitary exists, the solver spends its budget
    add("obstructed", 4, 3, round(float(rng.uniform(0.25, 0.75)), 6), 1)
    add("obstructed", 6, int(rng.integers(4, 6)), round(float(rng.uniform(0.25, 0.75)), 6), 1)
    return out


def matrix_json(a: np.ndarray) -> list:
    """A matrix in the CLI's input format: rows of ``[re, im]`` pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def write_inputs(inputs: list[dict], directory: Path) -> dict[str, str]:
    """Write each candidate as ``{"V": ...}``; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item in inputs:
        path = directory / f"{item['name']}.json"
        path.write_text(json.dumps({"V": matrix_json(item["V"])}))
        paths[item["name"]] = str(path)
    return paths


# -- workloads -------------------------------------------------------------------


def _certify(probe: Job) -> list[Job]:
    return [
        _check("cluster_chain(8)", 0, [
            ("field", "report.convergence", "exponential", 0),
            ("field", "report.c_es", 4.00000000015904, CONST_TOL),
            ("field", "report.c_ds", 4.00000000015904, CONST_TOL),
        ]),
        _check("three_level", 0, [
            ("field", "report.convergence", "asymptotic only", 0),
            ("field", "report.c_es", Ref("three_level", "c_es"), CONST_TOL),
            ("field", "report.c_ds", Ref("three_level", "c_ds"), CONST_TOL),
        ]),
        _check("toric_patch", 0, [
            ("field", "report.convergence", "exponential", 0),
            ("field", "report.c_es", 4.00000000048598, CONST_TOL),
            ("field", "report.c_ds", 4.00000000048598, CONST_TOL),
        ]),
        _scale("toric_patch(extended)", "commuting", 2, [
            ("field", "report.overall", Ref("toric_patch(extended)", "commuting_certified"), 0),
            ("field", "report.per_term.*.c", 4.00000000099823, CONST_TOL),
        ]),
        _scale("cluster_chain(7)", "commuting", 0, [
            ("field", "report.overall", Ref("cluster_chain(7)", "commuting_certified"), 0),
            ("field", "report.per_term.*.c", Ref("cluster_chain(7)", "per_term_c"), CONST_TOL),
        ]),
        _scale("cluster_chain(7)", "ds", 0, [
            ("field", "report.overall", True, 0),
            ("field", "report.per_term.*.c", 4.00000000099823, CONST_TOL),
        ]),
        _probe_d_free(),
        _scale("two_qubit", "inc-ds", 2, [
            ("field", "report.holds", Ref("two_qubit", "incremental_ds_holds"), 0),
        ], c=1.0),
        _probe_simulate(),
        probe,
    ]


def _simulation_fields(monotone: bool, converged: bool, envelope: bool | None) -> list[tuple]:
    out = [
        ("field", "report.simulation.n_states", 20, 0),
        ("field", "report.simulation.monotone", monotone, 0),
        ("field", "report.simulation.converged_below_1e-6", converged, 0),
    ]
    if envelope is not None:
        out.append(("field", "report.simulation.exponential_envelope_ok", envelope, 0))
    return out


def _dynamics(probe: Job) -> list[Job]:
    return [
        _check("two_level", 0, [
            ("field", "report.c_es", Ref("two_level", "c_es"), CONST_TOL),
            ("field", "report.c_ds", Ref("two_level", "c_ds"), CONST_TOL),
        ] + _simulation_fields(True, True, True), simulate=True),
        _check("three_level", 0, [
            ("field", "report.c_es", Ref("three_level", "c_es"), CONST_TOL),
            ("field", "report.c_ds", Ref("three_level", "c_ds"), CONST_TOL),
        ] + _simulation_fields(True, False, None), simulate=True),
        _check("two_qubit", 0, [
            ("field", "report.c_es", 1.00000000049689, CONST_TOL),
            ("field", "report.c_ds", 1.00000000199791, CONST_TOL),
        ] + _simulation_fields(True, True, True), simulate=True),
        _simulate("cluster_chain(4)", 30.0, {"W": 0.0, "W2": 0.0, "W3": 0.0, "purity": 0.25}),
        _simulate("toric_patch", 5.0, {"W": 2.06115378161597e-09, "V1": 1.03057690265712e-09,
                                       "V2": 1.03057687895885e-09, "purity": 0.0624999997423558}),
        _probe_d_free(),
        probe,
    ]


def _synthesis(paths: dict[str, str], inputs: list[dict]) -> list[Job]:
    jobs = []
    for item in inputs:
        if item["kind"] == "probe":
            continue
        exits = (3, 4) if item["kind"] == "obstructed" else (0,)
        jobs.append(_synthesize(paths[item["name"]], item["name"], item["c"],
                                item["channels"], exits))
    return jobs + [_probe_check(), _probe_d_free(), _probe_simulate()]


def build_jobs(workload: str, seed: int, input_dir: Path) -> list[Job]:
    """The jobs of a workload in the order the seed gives them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    inputs = synthesis_inputs(seed)
    paths = write_inputs(inputs, input_dir)
    probe = _probe_synthesize(paths, inputs[0])
    if workload == "certify":
        jobs = _certify(probe)
    elif workload == "dynamics":
        jobs = _dynamics(probe)
    else:
        jobs = _synthesis(paths, inputs)
    order = np.random.default_rng(seed).permutation(len(jobs))
    jobs = [jobs[i] for i in order]
    for job in jobs:
        job.argv += ["--seed", str(seed)]
    return jobs


def resolve_refs(jobs: list[Job], build) -> None:
    """Replace each ``Ref`` by the registry value; ``build`` is ``models.build``."""
    cache = {}
    for job in jobs:
        for i, (kind, key, value, tol) in enumerate(job.expect):
            if isinstance(value, Ref):
                if value.model not in cache:
                    cache[value.model] = build(value.model).expected
                job.expect[i] = (kind, key, cache[value.model][value.key]["value"], tol)
