#!/usr/bin/env python3
"""Print the CPU time ``verify_reason`` takes per nanopublication.

    python scripts/verify_rate.py --count 2000

Generates a corpus (seed 0), then verifies every nanopub of it in each
of a fixed number of rounds, timed with ``time.process_time``, and
prints the median round's microseconds per nanopub.  That is the cost of
the canonical form plus SHA-256 that every put, retrieve and reopen pays
once per nanopub.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.trusty import verify_reason

ROUNDS = 7


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1000)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    corpus = generate_corpus(CorpusConfig(count=args.count, seed=0))
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.process_time()
        for np in corpus:
            reason = verify_reason(np, np.uri)
            if reason is not None:
                sys.exit(f"verification failed for <{np.uri}>: {reason}")
        rounds.append(time.process_time() - t0)

    print(f"nanopubs: {args.count}")
    print(f"verify: {statistics.median(rounds) / args.count * 1e6:.2f} us per nanopub (median of {ROUNDS} rounds)")


if __name__ == "__main__":
    main()
