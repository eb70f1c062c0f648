#!/usr/bin/env python3
"""Sweep the ancilla speed factor k and report the sup-time trace distance
between the ancilla-mediated dynamics and its fast-decay limit."""

from __future__ import annotations

import argparse

from dissipctl.errors import DissipctlError
from dissipctl.lindblad import adiabatic_limit_check
from dissipctl.models import two_level_example


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
