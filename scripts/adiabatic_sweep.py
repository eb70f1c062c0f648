#!/usr/bin/env python3
"""Sweep the ancilla speed factor k and report the sup-time trace distance
between the ancilla-mediated dynamics and its fast-decay limit."""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from dissipctl.errors import DissipctlError, PreconditionError
from dissipctl.lindblad import _N_SAMPLES, LindbladModel, _grid, _matrices, evolve
from dissipctl.linalg import (
    SIGMA_MINUS, SIGMA_PLUS, TensorStructure, dagger, hermitian_part, real_or_complex,
)
from dissipctl.models import two_level_example


def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of a - b; of each pair, for stacks (..., n, n)."""
    w = np.linalg.eigvalsh(hermitian_part(real_or_complex(a) - real_or_complex(b)))
    d = 0.5 * np.abs(w).sum(axis=-1)
    return float(d) if d.ndim == 0 else d


def partial_trace_last(rho: np.ndarray, dim_keep: int, dim_drop: int) -> np.ndarray:
    """Trace out the last factor; of each state, for a stack (..., n, n)."""
    r = np.asarray(rho).reshape(np.shape(rho)[:-2] + (dim_keep, dim_drop, dim_keep, dim_drop))
    return np.einsum("...iaja->...ij", r)


@dataclass
class AdiabaticReport:
    """Sup-over-time trace-distance error between the ancilla-mediated model
    and its fast-decay limit, per scaling factor k."""

    k_values: list[int]
    errors: list[float]
    monotone_tail: bool


def adiabatic_limit_check(model: LindbladModel, omega: float, gamma: float,
                          k_list, t_final: float) -> AdiabaticReport:
    """Compare ancilla-mediated dynamics against the fast-decay limit.

    For each scaling factor k, the system is joined with a decaying ancilla
    qubit via H_k = k*omega*(L sp + L' sm) + H_S and ancilla coupling
    k*sqrt(gamma)*sm; the ancilla is traced out and the reduced dynamics is
    compared with the limit model whose coupling is -(2*omega/sqrt(gamma))*L,
    the second-order effective operator of the fast-decay limit, both from the
    maximally mixed state (the ancilla in its ground state) on the default
    grid.  Errors should decrease along the upper half of ``k_list``.
    """
    if len(model.couplings) != 1:
        raise PreconditionError("adiabatic check needs a single designated coupling")
    k_list = [int(k) for k in k_list]
    if any(k2 <= k1 for k1, k2 in zip(k_list, k_list[1:])):
        raise PreconditionError("k_list must be strictly ascending")
    if not np.isfinite(omega):
        raise PreconditionError(f"omega must be finite, got {omega!r}")
    if not (np.isfinite(gamma) and gamma > 0):
        raise PreconditionError(f"gamma must be finite and positive, got {gamma!r}")
    n = model.dim
    _grid(2 * n, t_final, _N_SAMPLES)
    h_sys, (l_sys,) = _matrices(model)
    rho0 = np.eye(n) / n

    limit_coupling = -(2.0 * omega / np.sqrt(gamma)) * l_sys
    limit_model = LindbladModel(model.structure, h_sys, [limit_coupling])
    limit_states = evolve(limit_model, rho0, t_final).states

    anc_ground = np.diag([0.0, 1.0])
    joint_structure = TensorStructure(tuple(model.structure.dims) + (2,))

    errors = []
    for k in k_list:
        h_joint = k * omega * (np.kron(l_sys, SIGMA_PLUS) + np.kron(dagger(l_sys), SIGMA_MINUS)) \
            + np.kron(h_sys, np.eye(2))
        l_joint = k * np.sqrt(gamma) * np.kron(np.eye(n), SIGMA_MINUS)
        joint_model = LindbladModel(joint_structure, h_joint, [l_joint])
        joint_states = evolve(joint_model, np.kron(rho0, anc_ground), t_final).states
        reduced = partial_trace_last(joint_states, n, 2)
        errors.append(float(trace_distance(reduced, limit_states).max()))  # sup over time

    half = len(k_list) // 2
    tail = errors[max(half - 1, 0):]
    monotone = all(b <= a * (1 + 1e-12) for a, b in zip(tail, tail[1:]))
    return AdiabaticReport(k_values=k_list, errors=errors, monotone_tail=monotone)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--omega", type=float, default=1.0)
    parser.add_argument("--gamma", type=float, default=1.0)
    parser.add_argument("--k", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    parser.add_argument("--t-final", type=float, default=8.0)
    args = parser.parse_args()

    named = two_level_example()
    try:
        report = adiabatic_limit_check(named.model, args.omega, args.gamma,
                                       sorted(args.k), args.t_final)
    except DissipctlError as exc:  # a refused option: argparse's one line, exit 2
        parser.error(str(exc))
    print(f"{'k':>6}  {'sup-t trace distance':>22}")
    for k, err in zip(report.k_values, report.errors):
        print(f"{k:>6}  {err:>22.6e}")
    print(f"monotone over the upper half: {report.monotone_tail}")


if __name__ == "__main__":
    main()
