"""The four benchmark workloads.

Each workload generates its inputs from the seed with ``corpusgen``,
builds the state its timed part starts from, times that part, and
checks every output against expectations from ``oracle``.  The program
under test only ever sees the generated inputs: files for analyze-dump
and ingest-reopen, HTTP requests for api-query, publish events for
sim-15node.

Untraced runs repeat the timed pass until ``--seconds`` have passed (and
at least MIN_PASSES times) and report throughput as total work over
total time and latency as the median pass.  Traced runs make one
untraced pass and the same pass again under the tracer; the ratio of the
two wall times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import io
import itertools
import json
import math
import random
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from nanokit import cli
from nanokit.api import ApiServer, ApiService
from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.index import IndexMetadata, build_index
from nanokit.network import PublishEvent, SimConfig, Simulation, Unreachable, client_retrieve
from nanokit.rdf import parse_trig, serialize_trig
from nanokit.store import NanopubStore, split_corpus

import oracle
from reference import Reference
from tracer import Tracer

SETUP_REPS = 3
MIN_PASSES = 3
MIN_QUERIES = 1000  # per untraced api-query run, so p99 has ten samples beyond it

clock = time.perf_counter


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    plant_fault: bool
    workdir: Path
    attempted: int = 0
    failed: int = 0
    setup_s: float = 0.0
    e2e: dict = field(default_factory=dict)  # end-to-end values, scaled (reference.py)
    raw: dict = field(default_factory=dict)  # the same, unscaled, setup_s included
    aliases: dict = field(default_factory=dict)  # per-workload metric name -> (value, unit)
    layer_extra: dict = field(default_factory=dict)  # inputs to tracer.layer_metrics
    counts: dict = field(default_factory=dict)  # exact counts that must repeat
    info: dict = field(default_factory=dict)  # inputs and store size
    tracer: Optional[Tracer] = None
    reference: Reference = field(default_factory=Reference)
    # the clocks of set-up and of the timed part; CPU time for
    # single-threaded work that does no I/O worth the name, so time the
    # host steals is not counted
    setup_clock: Callable[[], float] = time.process_time
    pass_clock: Callable[[], float] = time.perf_counter

    def wrong(self, n: int, what: str) -> None:
        self.failed += n
        print(f"check failed ({self.workload}): {what}", file=sys.stderr)

    def time_setup(self, generate: Callable, build: Callable):
        """Set up SETUP_REPS times: generate the inputs, then build the
        state the timed part starts from.  setup_s is the median set-up,
        scaled by the median of the reference samples taken around them."""
        times, inputs, state = [], None, None
        for _ in range(SETUP_REPS):
            inputs = state = None  # drop the previous set-up before timing the next
            self.reference.sample("setup", self.setup_clock)
            t0 = self.setup_clock()
            inputs = generate()
            state = build(inputs)
            times.append(self.setup_clock() - t0)
        self.reference.sample("setup", self.setup_clock)
        self.raw["setup_s"] = statistics.median(times)
        self.setup_s = self.raw["setup_s"] * self.reference.factor("setup")
        return inputs, state

    def settle(self) -> float:
        """Start timing from a collected heap, after a reference sample,
        whose factor is returned.  Nothing is frozen out of the
        collector: the program's collections walk its own state, as they
        would in a real process."""
        gc.collect()
        return self.reference.sample("measure", self.pass_clock)

    def passes(self, once: Callable[[], dict]) -> list[dict]:
        """Untraced: repeat ``once`` for the run length; each result gets
        the ``factor`` of the reference sample taken just before it, so a
        change in the host's speed between passes cancels.  Traced: a
        warm-up pass, one untraced pass, then one under the tracer."""
        def timed() -> dict:
            factor = self.settle()
            return {**once(), "factor": factor}

        if not self.trace:
            results, start = [], clock()
            while len(results) < (1 if self.tiny else MIN_PASSES) or clock() - start < self.seconds:
                results.append(timed())
            return results
        timed()  # warm-up, so first-call costs stay out of the overhead ratio
        untraced = timed()
        self.tracer = Tracer()
        with self.tracer:
            traced = timed()
        self.layer_extra["trace.overhead"] = traced["wall"] / untraced["wall"]
        return [untraced, traced]

    def same_counts(self, results: list[dict]) -> None:
        """Every pass of one run must produce identical exact counts."""
        first = results[0]["counts"]
        for result in results[1:]:
            if result["counts"] != first:
                self.wrong(1, f"exact counts differ between passes: {result['counts']} != {first}")
        self.counts.update(first)

    def batch_metrics(self, n: int, results: list[dict]) -> None:
        """End-to-end metrics of a batch workload of ``n`` items a pass,
        raw and with each pass scaled by its factor."""
        self.raw.update(batch_metrics(n, [r["wall"] for r in results]))
        self.e2e.update(batch_metrics(n, [r["wall"] * r["factor"] for r in results]))


def pass_latencies(walls: list[float]) -> dict:
    """Median and tail of a batch workload's pass times, in ms.  A run
    has too few passes for a high percentile, so the tail is the upper
    quartile."""
    ms = [w * 1000 for w in walls]
    tail = statistics.quantiles(ms, n=4, method="inclusive")[2] if len(ms) > 1 else ms[0]
    return {"latency_p50_ms": statistics.median(ms), "latency_tail_ms": tail}


def batch_metrics(n: int, walls: list[float]) -> dict:
    """Items per second over all passes, and the pass latencies."""
    return {"throughput_per_s": n * len(walls) / sum(walls), **pass_latencies(walls)}


def query_metrics(latencies: list[float], busy: float) -> dict:
    """Requests per second of busy time, and the median and p99 latency."""
    return {
        "throughput_per_s": len(latencies) / busy,
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": statistics.quantiles(latencies, n=100)[98],
    }


def corpus(run: Run, count: int):
    return generate_corpus(CorpusConfig(count=count, seed=run.seed))


def nanokit_cli(*argv) -> int:
    """Run one ``nanokit`` command in-process, discarding its stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def document_text(nanopubs) -> str:
    """One concatenated TriG dump, as ``gen-corpus --single-file`` writes it."""
    return "".join(serialize_trig(np.to_document()) for np in nanopubs)


# -- analyze-dump -------------------------------------------------------------


def _scaling_exponents(nanopubs, sizes: tuple[int, int]) -> dict:
    """Parse and split time at two dump sizes; exponent k of t ~ n^k."""
    times = []
    for size in sizes:
        text = document_text(nanopubs[:size])
        t0 = clock()
        doc = parse_trig(text)
        t1 = clock()
        split_corpus(doc)
        times.append((t1 - t0, clock() - t1))
    ratio = math.log(sizes[1] / sizes[0])
    return {
        "rdf.parse_exponent": math.log(times[1][0] / times[0][0]) / ratio,
        "store.split_exponent": math.log(times[1][1] / times[0][1]) / ratio,
    }


def analyze_dump(run: Run) -> None:
    n = 30 if run.tiny else 500
    run.pass_clock = time.process_time
    dump = run.workdir / "dump.trig"
    reports = run.workdir / "reports"

    def build(nanopubs):
        dump.write_text(document_text(nanopubs), encoding="utf-8")

    nanopubs, _ = run.time_setup(lambda: corpus(run, n), build)
    expected = oracle.analysis_expectation(nanopubs)
    if run.plant_fault:
        expected["totals"]["nanopub_count"] += 1
    run.info.update(
        nanopubs=n,
        quads=sum(len(oracle.all_quads(np)) for np in nanopubs),
        input_bytes=dump.stat().st_size,
    )
    if run.trace:
        run.layer_extra.update(_scaling_exponents(nanopubs, (max(n // 4, 4), max(n // 2, 8))))
    del nanopubs  # the program reads the dump; the benchmark keeps only the expectation

    def once() -> dict:
        t0 = run.pass_clock()
        status = nanokit_cli("analyze", dump, "--out", reports)
        wall = run.pass_clock() - t0
        run.attempted += 1
        if status != 0:
            run.wrong(1, f"nanokit analyze exited {status}")
            return {"wall": wall, "counts": {}}
        text = (reports / "report.json").read_text(encoding="utf-8")
        problems = oracle.check_analysis(json.loads(text), expected)
        if problems:
            run.wrong(1, "; ".join(problems))
        return {"wall": wall, "counts": {"report_sha256": sha256(text)}}

    results = run.passes(once)
    run.same_counts(results)
    run.batch_metrics(n, results)
    run.aliases["analyze_np_per_s"] = (run.e2e["throughput_per_s"], "1/s")


# -- ingest-reopen ------------------------------------------------------------


def ingest_reopen(run: Run) -> None:
    n = 30 if run.tiny else 1000
    # ingest writes files, and its disk waits (fsync, for one) must count:
    # wall time, unscaled, as no reference kernel tracked it.  Reopen
    # reads files just written, from the page cache: CPU time, scaled.
    run.setup_clock = time.perf_counter  # set-up writes the input files
    run.pass_clock = time.process_time
    input_dirs = (run.workdir / f"inputs-{i}" for i in itertools.count())

    def build(nanopubs):
        # a fresh directory each time: deleting files would load the disk
        inputs = next(input_dirs)
        inputs.mkdir(parents=True)
        for np in nanopubs:
            path = inputs / f"{oracle.code_of(np.uri)}.trig"
            path.write_text(serialize_trig(np.to_document()), encoding="utf-8")
        return inputs

    nanopubs, inputs = run.time_setup(lambda: corpus(run, n), build)
    files = sorted(inputs.glob("*.trig"))
    input_bytes = sum(p.stat().st_size for p in files)
    expected_codes = [p.stem for p in files]  # the journal follows file order
    samples = random.Random(f"ingest-{run.seed}").sample(expected_codes, min(50, n))
    originals = {
        oracle.code_of(np.uri): frozenset(oracle.all_quads(np)) for np in nanopubs
        if oracle.code_of(np.uri) in samples
    }
    if run.plant_fault:
        expected_codes[0], expected_codes[1] = expected_codes[1], expected_codes[0]
    run.info.update(nanopubs=n, quads=sum(len(oracle.all_quads(np)) for np in nanopubs), input_bytes=input_bytes)
    del nanopubs  # the program reads the files; the benchmark keeps only the samples
    store_dirs = (run.workdir / f"store-{i}" for i in itertools.count())

    def once() -> dict:
        directory = next(store_dirs)
        t0 = clock()
        status = nanokit_cli("store", "ingest", "--store-dir", directory, *files)
        ingest_s = clock() - t0
        t1 = run.pass_clock()
        reopened = NanopubStore(directory)
        reopen_s = run.pass_clock() - t1
        run.attempted += n + 1 + len(samples)
        if status != 0:
            run.wrong(n, f"nanokit store ingest exited {status}")
        codes = reopened.codes()
        misplaced = sum(a != b for a, b in zip(codes, expected_codes)) + abs(len(codes) - n)
        if misplaced:
            run.wrong(min(misplaced, n + 1), f"{misplaced} codes out of journal order after reopen")
        for code in samples:
            got = reopened.get(code)
            if got is None or frozenset(oracle.all_quads(got)) != originals[code]:
                run.wrong(1, f"reopened get({code}) differs from the original")
        # stores are removed with the work directory after the run, so
        # that file deletion does not load the disk during later passes
        disk = sum(p.stat().st_size for p in directory.iterdir())
        return {"wall": ingest_s + reopen_s, "ingest": ingest_s, "reopen": reopen_s,
                "counts": {"disk_bytes": disk}}

    results = run.passes(once)
    run.same_counts(results)
    run.info["store_bytes"] = run.counts["disk_bytes"]
    run.layer_extra["store.disk_bytes_per_input_byte"] = run.counts["disk_bytes"] / input_bytes
    ingest = [r["ingest"] for r in results]
    reopen = [r["reopen"] for r in results]
    scaled_reopen = [r["reopen"] * r["factor"] for r in results]
    ingest_per_s = n * len(ingest) / sum(ingest)
    run.raw = {"throughput_per_s": ingest_per_s, **pass_latencies(reopen), **run.raw}
    run.e2e = {"throughput_per_s": ingest_per_s, **pass_latencies(scaled_reopen)}
    run.aliases["ingest_np_per_s"] = (ingest_per_s, "1/s")
    run.aliases["reopen_np_per_s"] = (n * len(scaled_reopen) / sum(scaled_reopen), "1/s")


# -- api-query ----------------------------------------------------------------


def _build_api_store(nanopubs, chain_n: int, solo_n: int, capacity: int):
    """The criterion-5 shape: every nanopub, an index chain, a solo index
    and a union index over the two."""
    store = NanopubStore()
    for np in nanopubs:
        store.put(np)
    uris = [np.uri for np in nanopubs]
    indexes = [
        build_index(uris[:chain_n], capacity=capacity, metadata=IndexMetadata(
            title=f"First {chain_n}", created="2018-01-01T00:00:00Z")),
        build_index(uris[chain_n:chain_n + solo_n], capacity=capacity, metadata=IndexMetadata(
            title=f"Next {solo_n}", created="2018-02-01T00:00:00Z")),
    ]
    indexes.append(build_index(
        [], sub_indexes=[records[-1].uri for records in indexes], capacity=capacity,
        metadata=IndexMetadata(title=f"Union {chain_n + solo_n}", created="2018-03-01T00:00:00Z"),
    ))
    for records in indexes:
        for record in records:
            store.put(record.nanopub)
    return store, indexes


def api_query(run: Run) -> None:
    n, chain_n, solo_n, capacity = (300, 75, 15, 25) if run.tiny else (10_000, 2500, 500, 1000)
    nanopubs, (store, indexes) = run.time_setup(
        lambda: corpus(run, n), lambda nps: _build_api_store(nps, chain_n, solo_n, capacity)
    )
    heads = [records[-1] for records in indexes]
    index_rows = [
        f"{i + 1}\t{head.uri}\t{head.title}\t{head.created}\t{len(head.sub_indexes)}\t{size}"
        for i, (head, size) in enumerate(zip(heads, (chain_n, solo_n, chain_n + solo_n)))
    ]
    stored = list(nanopubs) + [record.nanopub for records in indexes for record in records]
    pool = oracle.make_query_pool(
        random.Random(f"api-{run.seed}"), nanopubs, [h.uri for h in heads], repeat=1 if run.tiny else 4
    )
    oracle.resolve_expected(pool, stored, index_rows)
    if run.plant_fault:
        next(q for q in pool if q.expected is not None).expected.append("planted-wrong-answer")
    run.info.update(
        nanopubs=len(stored),
        quads=sum(len(oracle.all_quads(np)) for np in stored),
        distinct_queries=len(pool),
        store_records=len(store),
    )
    # for checking loose answers after the run; the nanopublications
    # themselves are the ones the store holds
    by_code = {oracle.code_of(np.uri): np for np in stored}
    del nanopubs, stored

    server = ApiServer(ApiService(store))
    thread = server.serve_in_background()
    host, port = server.server_address[:2]
    first: dict[int, bytes] = {}  # pool position -> first response body
    sent = Counter()

    def request(i: int) -> float:
        key = i % len(pool)
        query = pool[key]
        sent[key] += 1
        t0 = clock()
        try:
            with contextlib.closing(http.client.HTTPConnection(host, port, timeout=60)) as conn:
                conn.request("GET", query.path)
                response = conn.getresponse()
                body = response.read()
        except (OSError, http.client.HTTPException) as exc:
            run.wrong(1, f"{query.path}: {exc}")
            return (clock() - t0) * 1000
        latency = clock() - t0
        if response.status != 200:
            run.wrong(1, f"HTTP {response.status} for {query.path}")
        elif first.setdefault(key, body) != body:
            run.wrong(1, f"answer changed between repeats of {query.path}")
        return latency * 1000

    def once(count: int) -> dict:
        t0 = clock()
        latencies = [request(i) for i in range(count)]
        return {"wall": clock() - t0, "latencies": latencies, "counts": {}}

    try:
        if run.trace:
            results = run.passes(lambda: once(len(pool)))
            run.layer_extra["client_ms"] = results[1]["latencies"]
        else:
            latencies = []
            minimum = len(pool) if run.tiny else max(MIN_QUERIES, len(pool))
            run.settle()
            start = clock()
            while len(latencies) < minimum or clock() - start < run.seconds:
                latencies.append(request(len(latencies)))
            busy = clock() - start
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)

    rows = Counter()
    for key, body in first.items():
        query = pool[key]
        text = body.decode("utf-8")
        rows[f"rows.{query.method}"] += len(text.splitlines())
        if not oracle.check_answer(query, text, parse_trig, by_code):
            run.wrong(sent[key], f"{query.category} answer differs from the scan: {query.path}")
    run.attempted += sum(sent.values())
    run.counts.update(sorted(rows.items()))
    if not run.trace:
        # unscaled: much of a request's time is socket and thread
        # wake-ups, which the reference kernel does not track
        run.e2e = query_metrics(latencies, busy)
        run.raw.update(run.e2e)
        run.info["queries"] = len(latencies)
        by_category = defaultdict(list)
        for i, latency in enumerate(latencies):
            by_category[pool[i % len(pool)].category].append(latency)
        run.info["category_p50_ms"] = {c: round(statistics.median(v), 3) for c, v in sorted(by_category.items())}
        run.aliases["query_p50_ms"] = (run.e2e["latency_p50_ms"], "ms")
        run.aliases["query_p99_ms"] = (run.e2e["latency_tail_ms"], "ms")
        run.aliases["query_per_s"] = (run.e2e["throughput_per_s"], "1/s")


# -- sim-15node ---------------------------------------------------------------


def sim_15node(run: Run) -> None:
    n = 60 if run.tiny else 1000
    run.pass_clock = time.process_time
    failures = tuple((node, 6, 99) for node in range(1, 15, 2))  # 7 of 15 crash at round 6
    config = SimConfig(
        node_count=15, topology="complete", latency="uniform:0.001:0.050",
        rounds=10, seed=run.seed, failures=failures,
    )
    late = n * 9 // 10  # publishes round-robin over rounds 0-4, the rest in round 7
    schedule = [(i % 5 if i < late else 7, i % 15) for i in range(n)]

    def build(nanopubs):
        events = [PublishEvent(rnd, node, np) for (rnd, node), np in zip(schedule, nanopubs)]
        return events, Simulation(config)

    nanopubs, _ = run.time_setup(lambda: corpus(run, n), build)
    expected = oracle.expected_published([oracle.code_of(np.uri) for np in nanopubs], schedule, failures)
    if run.plant_fault:
        expected.discard(next(iter(sorted(expected))))
    run.info.update(nanopubs=n, quads=sum(len(oracle.all_quads(np)) for np in nanopubs), nodes=15)

    def once() -> dict:
        events, sim = build(nanopubs)
        t0 = run.pass_clock()
        report = sim.run(events)
        live = sim.live_nodes()
        unretrievable = 0
        for code in report.published:
            try:
                if not client_retrieve(code, live).uri.endswith(code):
                    unretrievable += 1
            except (KeyError, Unreachable):
                unretrievable += 1
        wall = run.pass_clock() - t0
        run.attempted += n + len(report.published)
        published = set(report.published)
        if published != expected:
            run.wrong(len(published ^ expected), "published codes differ from the schedule")
        if unretrievable:
            run.wrong(unretrievable, f"{unretrievable} published codes not retrievable")
        if not report.converged or len(live) != 8:
            run.wrong(1, f"converged={report.converged} live={len(live)}")
        counts = {
            "report_sha256": sha256(report.to_text()),
            "total_fetches": report.total_fetches,
            "published": len(report.published),
        }
        return {"wall": wall, "counts": counts}

    results = run.passes(once)
    run.same_counts(results)  # to_text() identical across repetitions
    run.batch_metrics(n, results)
    run.aliases["sim_s"] = (run.e2e["latency_p50_ms"] / 1000, "s")


# why each workload is in the benchmark: BENCHMARK.json and README.md
WORKLOADS = {
    "analyze-dump": analyze_dump,
    "ingest-reopen": ingest_reopen,
    "api-query": api_query,
    "sim-15node": sim_15node,
}
