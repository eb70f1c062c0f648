#!/usr/bin/env python3
"""Certify every built-in model's candidate witnesses and print a table."""

from __future__ import annotations

import argparse

from dissipctl.errors import DissipctlError
from dissipctl.models import REGISTRY, build
from dissipctl.stability import certify_ground_state_stability


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--simulate", action="store_true",
                        help="cross-check certificates by simulation (slower)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.seed < 0:  # numpy's generators take no negative seed
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")

    header = f"{'model':<26}{'candidate':<12}{'c_es':>12}{'c_ds':>12}  verdict"
    print(header)
    print("-" * len(header))
    for name in sorted(REGISTRY):
        named = build(name)
        model = named.model  # an aggregate's model holds its own local operators
        for cand_name, v in named.candidates.items():
            simulate = args.simulate and model.dim <= 16 and model.couplings
            try:
                report = certify_ground_state_stability(
                    v, model, simulate=bool(simulate), seed=args.seed)
            except DissipctlError as exc:
                parser.error(str(exc))
            c_es = "-" if report.c_es is None else f"{report.c_es:.6f}"
            c_ds = "-" if report.c_ds is None else f"{report.c_ds:.6f}"
            print(f"{name:<26}{cand_name:<12}{c_es:>12}{c_ds:>12}  {report.convergence}")


if __name__ == "__main__":
    main()
