#!/usr/bin/env python3
"""Failure-tolerance sweep over the 15-node publishing network.

Publishes 1000 nanopublications into a complete 15-node topology, then
crashes an increasing number of nodes and measures how many codes stay
retrievable through the client procedure.  Deterministic for a given
--seed; writes one report per sweep point.

    python scripts/run_network_experiment.py --out /tmp/netexp --seed 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.network import (
    PublishEvent,
    SimConfig,
    Simulation,
    Unreachable,
    client_retrieve,
)


def run_point(nanopubs, failed_count: int, seed: int, outdir: Path) -> None:
    failed = tuple((2 * i + 1, 6, 99) for i in range(failed_count))
    config = SimConfig(
        node_count=15,
        topology="complete",
        rounds=10,
        seed=seed,
        failures=failed,
    )
    workload = [PublishEvent(i % 5, i % 15, np) for i, np in enumerate(nanopubs)]
    sim = Simulation(config)
    report = sim.run(workload)
    live = sim.live_nodes()

    retrievable = 0
    for code in report.published:
        try:
            client_retrieve(code, live)
            retrievable += 1
        except (KeyError, Unreachable):
            pass

    out = outdir / f"report-f{failed_count}.txt"
    out.write_text(report.to_text(), encoding="utf-8")
    print(
        f"f={failed_count:2d}  live={len(live):2d}  "
        f"published={len(report.published):4d}  retrievable={retrievable:4d}  "
        f"converged={report.converged}  -> {out}"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="netexp-reports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--publishes", type=int, default=1000)
    parser.add_argument("--max-failures", type=int, default=7)
    args = parser.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    nanopubs = generate_corpus(CorpusConfig(count=args.publishes, seed=args.seed))
    for failed_count in range(args.max_failures + 1):
        run_point(nanopubs, failed_count, args.seed, outdir)


if __name__ == "__main__":
    main()
