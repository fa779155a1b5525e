#!/usr/bin/env python3
"""Print the Python heap kept per nanopublication, traced by tracemalloc.

    python scripts/memory_per_nanopub.py --count 10000

Three figures, each the traced bytes still allocated divided by the
corpus size: after ``generate_corpus`` (seed 0), after putting that
corpus into an in-memory ``NanopubStore`` (the corpus plus the store),
and after ``store.catch_up()`` builds the query index (the corpus, the
store and the index).  The package is imported before tracing starts, so
no figure counts it.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.store import NanopubStore


def _kept() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("--count must be at least 1")

    tracemalloc.start()
    start = _kept()
    corpus = generate_corpus(CorpusConfig(count=args.count, seed=0))
    generated = _kept() - start
    store = NanopubStore()
    store.put_all(corpus)
    stored = _kept() - start
    store.catch_up()
    indexed = _kept() - start
    tracemalloc.stop()

    print(f"nanopubs: {len(store)}")
    print(f"generated: {generated / args.count:.0f} bytes per nanopub")
    print(f"stored: {stored / args.count:.0f} bytes per nanopub (corpus plus store)")
    print(f"indexed: {indexed / args.count:.0f} bytes per nanopub (corpus, store and index)")


if __name__ == "__main__":
    main()
