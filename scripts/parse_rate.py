#!/usr/bin/env python3
"""Print the CPU time and rate of parsing a single-file TriG dump.

    python scripts/parse_rate.py --count 2000

Generates a corpus (seed 0) and writes it as one dump, as ``gen-corpus
--single-file`` does.  Then, in each of a fixed number of rounds timed
with ``time.process_time``, it parses the dump text with ``parse_trig``
and reads the dump file with ``read_corpus`` (parse, then split into
nanopublications, as ``store ingest`` and ``analyze`` do).  It prints the
median round of each as microseconds per nanopub and megabytes of TriG
per second.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.rdf import parse_trig, serialize_trig
from nanokit.store import read_corpus

ROUNDS = 7


def median_seconds(once) -> float:
    rounds = []
    for _ in range(ROUNDS):
        gc.collect()  # each round starts from a collected heap
        t0 = time.process_time()
        once()
        rounds.append(time.process_time() - t0)
    return statistics.median(rounds)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=1000)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    # the corpus is not kept, so the collector does not walk it while timing
    corpus = generate_corpus(CorpusConfig(count=args.count, seed=0))
    text = "".join(serialize_trig(np.to_document()) for np in corpus)
    del corpus
    size = len(text.encode("utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "dump.trig"
        dump.write_text(text, encoding="utf-8")
        if len(read_corpus(dump)) != args.count:
            sys.exit("read_corpus did not return every nanopub of the dump")
        timings = {
            "parse_trig": median_seconds(lambda: parse_trig(text)),
            "read_corpus": median_seconds(lambda: read_corpus(dump)),
        }

    print(f"nanopubs: {args.count} ({size / 1e6:.2f} MB of TriG)")
    for name, seconds in timings.items():
        print(
            f"{name}: {seconds / args.count * 1e6:.1f} us per nanopub, "
            f"{size / 1e6 / seconds:.2f} MB/s (median of {ROUNDS} rounds)"
        )


if __name__ == "__main__":
    main()
