#!/usr/bin/env python3
"""Drive a cluster chain from random pure states and dump the per-term
expectation trajectories to CSV (one file per initial state)."""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

from dissipctl.errors import DissipctlError
from dissipctl.linalg import haar_pure_state
from dissipctl.models import cluster_chain
from dissipctl.scalability import simulate_aggregate
from dissipctl.serialize import trajectory_to_csv, write_text_atomic


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=4)
    parser.add_argument("--t-final", type=float, default=30.0)
    parser.add_argument("--states", type=int, default=3)
    parser.add_argument("--samples", type=int, default=121)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="cluster_runs")
    args = parser.parse_args()
    if args.seed < 0:  # numpy's generators take no negative seed
        parser.error(f"--seed must be a non-negative integer, got {args.seed}")
    if args.states < 1:  # no state would be simulated, and nothing said
        parser.error(f"--states must be at least 1, got {args.states}")

    try:
        named = cluster_chain(args.qubits)
    except DissipctlError as exc:  # a refused option: argparse's one line, exit 2
        parser.error(str(exc))
    rng = np.random.default_rng(args.seed)
    out_dir = pathlib.Path(args.out_dir)

    dim = named.aggregate.structure.total_dim
    for idx in range(args.states):
        psi = haar_pure_state(rng, dim)
        try:
            traj = simulate_aggregate(named.aggregate, args.t_final,
                                      rho0=np.outer(psi, psi.conj()),
                                      n_samples=args.samples)
        except DissipctlError as exc:
            parser.error(str(exc))
        out_dir.mkdir(parents=True, exist_ok=True)  # after simulate_aggregate accepts the input
        path = out_dir / f"cluster_{args.qubits}q_state{idx}.csv"
        write_text_atomic(str(path), trajectory_to_csv(traj))
        finals = {name: traj.observables[name][-1] for name in named.aggregate.names()}
        print(f"state {idx}: wrote {path}  final terms "
              + " ".join(f"{k}={v:.2e}" for k, v in finals.items()))


if __name__ == "__main__":
    main()
