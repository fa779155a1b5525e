#!/usr/bin/env python3
"""Generate a synthetic corpus and run every report over it.

    python scripts/corpus_report_demo.py --count 2000 --seed 0 --out /tmp/reports
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from nanokit.analysis import analyze, write_reports
from nanokit.corpusgen import CorpusConfig, generate_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="corpus-reports")
    args = parser.parse_args()

    report = analyze(generate_corpus(CorpusConfig(count=args.count, seed=args.seed)))
    totals = report.totals
    print(f"nanopublications: {totals.nanopub_count}")
    print(f"triples: {totals.total_triples} (mean {totals.mean_triples:.1f} per nanopub)")
    print(f"provenance mean: {totals.mean_provenance_triples:.1f}")

    for row in report.creators.rows:
        if row.total:
            print(f"creators[{row.identifier_type}]: {row.total} mentions, {row.unique} unique")

    for license_iri, count in report.licenses.rows:
        print(f"license {license_iri}: {count}")
    print(f"license unspecified: {report.licenses.unspecified}")

    paths = write_reports(args.out, report)
    print("reports:", ", ".join(str(p) for p in paths.values()))


if __name__ == "__main__":
    main()
