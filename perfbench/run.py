#!/usr/bin/env python3
"""nanokit benchmark: four seeded workloads, checked outputs, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-dump --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric by
name and unit, the environment, the inputs and the exact counts.  The
exit status is 0 only for a run whose outputs were all correct.

The program under test is imported from ``src/`` next to this
directory and nowhere else.  Scratch files, span dumps and the exact
counts of earlier runs live under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
NAMES = ("analyze-dump", "ingest-reopen", "api-query", "sim-15node")

# (name, unit); every untraced run reports all of them
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="corpusgen seed; same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=10.0, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--plant-fault", action="store_true",
                        help="corrupt one expected answer, to show the checks count it")
    return parser.parse_args(argv)


def load_program():
    """Import nanokit from this checkout's src/, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    try:
        import nanokit
    except ImportError as exc:
        raise SystemExit(f"error: cannot import nanokit from {src}: {exc}")
    if not Path(nanokit.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: nanokit imported from {nanokit.__file__}, not {src}")


def source_digest() -> str:
    """Digest of the program and the benchmark, keying the stored counts."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts_repeat(run, args) -> None:
    """Exact counts must equal those of every earlier run of the same
    program, workload, size, seed and mode."""
    if args.plant_fault:
        return
    key = f"{args.workload}-{'tiny' if args.tiny else 'full'}-seed{args.seed}-trace{args.trace}"
    path = OUT / "counts" / f"{key}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        changed = sorted(k for k in before.keys() | run.counts.keys() if before.get(k) != run.counts.get(k))
        if changed:
            run.wrong(1, f"exact counts differ from an earlier run: {', '.join(changed)}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run.counts, sort_keys=True) + "\n", encoding="utf-8")


def run_one(args) -> int:
    load_program()
    import tracer
    import workloads

    fn = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny,
                        args.plant_fault, workdir)
    try:
        fn(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if run.tracer is not None:
        layer = tracer.layer_metrics(run.tracer.spans, run.layer_extra)
        run.counts.update(tracer.span_counts(layer))
        run.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    check_counts_repeat(run, args)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok_ratio = max(0.0, 1 - run.failed / run.attempted)
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
    }
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(run.info, sort_keys=True))
    print("counts " + json.dumps(run.counts, sort_keys=True))

    if args.trace:
        units = tracer.PER_LAYER_UNITS
        values = layer
    else:
        # times scaled by the reference kernel (reference.py), rates
        # inversely; the raw lines keep the unscaled numbers, the
        # reference line the median factor of each phase
        print("reference " + json.dumps({phase: run.reference.factor(phase) for phase in run.reference.samples}))
        units = dict(END_TO_END)
        for name, value in run.raw.items():
            print(f"raw {name} {value:.6g} {units[name]}")
        values = {**run.e2e, "setup_s": run.setup_s, "peak_rss_mb": peak_rss_mb, "ok_ratio": ok_ratio}
        # the same numbers under the names the metrics have per workload
        for name, (value, unit) in {**run.aliases, "setup_s": (run.setup_s, "s")}.items():
            print(f"as {name} {value:.6g} {unit}")
        print(f"as peak_rss_mb {peak_rss_mb:.6g} MB")
        print(f"as failed_ratio {1 - ok_ratio:.6g} ratio")
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] * args.tiny + ["--plant-fault"] * args.plant_fault
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"{name}: {line}")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit status {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
