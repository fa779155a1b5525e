"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps a fixed list of nanokit's public functions and methods
from outside the program: every loaded ``nanokit.*`` module attribute
that is one of those functions is replaced, so names other modules
import (``store.verify_reason``, ``cli.split_corpus``, ...) are traced
too.  Each call becomes one span ``(id, parent id, name, start, end,
note)`` kept in memory; spans are written out when the run ends.  A
function missing from the program under test is skipped, not an error.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("rdf", "nanopub", "trusty", "index", "store", "network", "api", "analysis")

API_METHODS = (
    "find_latest_nanopubs_with_pattern",
    "find_nanopubs_with_pattern",
    "find_latest_nanopubs_with_uri",
    "find_nanopubs_with_uri",
    "get_all_indexes",
    "get_index_elements",
    "get_nanopub",
)

# wire kinds of the node protocol, keyed by message class name
MESSAGE_KINDS = {
    "Publish": "publish",
    "Get": "get",
    "GetJournal": "get_journal",
    "PeersRequest": "peers_request",
    "Ok": "ok",
    "NanopubResponse": "nanopub",
    "JournalPage": "journal_page",
    "PeerList": "peer_list",
    "NotFound": "not_found",
    "Rejected": "rejected",
}


def _note_parse(args, kwargs, result):
    text = args[0] if args else kwargs.get("text", "")
    return (len(text.encode("utf-8")), len(result))


def _note_handle(args, kwargs, result):
    msg = args[1] if len(args) > 1 else kwargs.get("msg")
    entries = getattr(result, "entries", None)
    return (type(msg).__name__, type(result).__name__, len(entries) if entries is not None else 0)


def _note_value(args, kwargs, result):
    return result


def _note_rows(args, kwargs, result):
    return len(result) if isinstance(result, list) else 1


# (span name, module, attribute path, note)
TARGETS = [
    ("rdf.parse_trig", "nanokit.rdf", "parse_trig", _note_parse),
    ("rdf.serialize_trig", "nanokit.rdf", "serialize_trig", None),
    ("nanopub.validate", "nanokit.nanopub", "validate", None),
    ("nanopub.assemble", "nanokit.nanopub", "assemble", None),
    ("trusty.verify_reason", "nanokit.trusty", "verify_reason", None),
    ("trusty.verify", "nanokit.trusty", "verify", None),
    ("trusty.canonical_form", "nanokit.trusty", "canonical_form", None),
    ("store.open", "nanokit.store", "NanopubStore.__init__", None),
    ("store.put", "nanokit.store", "NanopubStore.put", None),
    ("store.codes", "nanokit.store", "NanopubStore.codes", None),
    ("store.journal_entries", "nanokit.store", "NanopubStore.journal_entries", None),
    ("store.get_by_uri", "nanokit.store", "NanopubStore.get_by_uri", None),
    ("store.find_by_pattern", "nanokit.store", "NanopubStore.find_by_pattern", None),
    ("store.find_by_uri", "nanokit.store", "NanopubStore.find_by_uri", None),
    ("store.split_corpus", "nanokit.store", "split_corpus", None),
    ("store.extract_nanopub", "nanokit.store", "extract_nanopub", None),
    ("index.list_indexes", "nanokit.index", "list_indexes", None),
    ("index.from_nanopub", "nanokit.index", "IndexRecord.from_nanopub", None),
    ("index.expand", "nanokit.index", "expand", None),
    ("network.handle", "nanokit.network", "ServerNode.handle", _note_handle),
    ("network.sync_round", "nanokit.network", "ServerNode.sync_round", _note_value),
    ("network.run", "nanokit.network", "Simulation.run", None),
    ("network.client_retrieve", "nanokit.network", "client_retrieve", None),
    *((f"api.{m}", "nanokit.api", f"ApiService.{m}", _note_rows) for m in API_METHODS),
    ("analysis.load_corpus", "nanokit.analysis", "load_corpus", None),
    ("analysis.write_reports", "nanokit.analysis", "write_reports", None),
    ("analysis.corpus_totals", "nanokit.analysis", "corpus_totals", None),
    ("analysis.creator_stats", "nanokit.analysis", "creator_stats", None),
    ("analysis.license_stats", "nanokit.analysis", "license_stats", None),
    ("analysis.namespace_table", "nanokit.analysis", "namespace_table", None),
    ("analysis.type_frequency", "nanokit.analysis", "type_frequency", None),
]

# (name, unit, better); every traced run reports all of them, 0 where the
# workload does not exercise the layer
PER_LAYER = [
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
    ("rdf.parse_quads_per_s", "1/s", "higher"),
    ("rdf.parse_mb_per_s", "MB/s", "higher"),
    ("rdf.parse_exponent", "exponent", "lower"),
    ("rdf.serialize_s", "s", "lower"),
    ("store.split_s", "s", "lower"),
    ("store.split_exponent", "exponent", "lower"),
    ("store.put_s", "s", "lower"),
    ("store.put_self_s", "s", "lower"),
    ("store.put_calls", "count", "lower"),
    ("store.disk_bytes_per_input_byte", "ratio", "lower"),
    ("store.open_s", "s", "lower"),
    ("store.find_by_pattern_p50_ms", "ms", "lower"),
    ("store.find_by_pattern_p99_ms", "ms", "lower"),
    ("store.find_by_uri_ms", "ms", "lower"),
    ("store.journal_entries_ms", "ms", "lower"),
    ("store.journal_entries_calls", "count", "lower"),
    ("nanopub.validate_s", "s", "lower"),
    ("nanopub.assemble_s", "s", "lower"),
    ("trusty.verify_s", "s", "lower"),
    ("trusty.verify_calls", "count", "lower"),
    ("trusty.canonical_form_s", "s", "lower"),
    ("index.list_indexes_ms", "ms", "lower"),
    ("index.from_nanopub_calls", "count", "lower"),
    ("network.sync_round_s", "s", "lower"),
    *((f"network.messages.{kind}", "count", "lower") for kind in MESSAGE_KINDS.values()),
    ("network.fetched", "count", "lower"),
    ("network.journal_pages", "count", "lower"),
    ("network.useful_entry_ratio", "ratio", "higher"),
    *((f"api.{m}_ms", "ms", "lower") for m in API_METHODS),
    ("api.http_overhead_ms", "ms", "lower"),
    ("analysis.write_reports_s", "s", "lower"),
]
PER_LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) or None when absent."""
    module = sys.modules.get(module_name)
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, raw) if raw is not None else None


class Tracer:
    """Installs span-recording wrappers; ``with tracer:`` traces a block."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, note):
        spans, ids, local, clock = self.spans, self._ids, self._local, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                extra = note(args, kwargs, result) if (note is not None and done) else None
                spans.append((sid, parent, name, t0, t1, extra))

        return traced

    def __enter__(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "nanokit" or n.startswith("nanokit."))
        ]
        for name, module_name, path, note in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                continue
            owner, attr, raw = found
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, note))
                else:
                    wrapped = self._wrap(raw, name, note)
                self._patched.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(raw, name, note)
            for module in modules:  # every module that imported the name
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patched.append((module, key, raw))
                        setattr(module, key, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()
        return False

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["id", "parent", "name", "start", "end", "note"]
        with path.open("w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh, separators=(",", ":"))


def _pct(values: list[float], q: int) -> float:
    """q-th percentile, or the only value, or 0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list[tuple], extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from one traced pass's spans.

    ``extra`` holds what the spans cannot give: ``trace.overhead``, the
    scaling exponents, ``store.disk_bytes_per_input_byte`` and the HTTP
    client latencies (``client_ms``), whose median less the median
    service span is the HTTP overhead.
    """
    child_total: dict[int, float] = defaultdict(float)
    child_named: dict[tuple[int, str], float] = defaultdict(float)
    for sid, parent, name, t0, t1, _ in spans:
        if parent:
            child_total[parent] += t1 - t0
            child_named[(parent, name)] += t1 - t0

    durs: dict[str, list[float]] = defaultdict(list)
    notes: dict[str, list] = defaultdict(list)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    put_self = 0.0
    for sid, parent, name, t0, t1, note in spans:
        dur = t1 - t0
        durs[name].append(dur)
        if note is not None:
            notes[name].append(note)
        out[name.split(".")[0] + ".self_s"] += dur - child_total[sid]
        if name == "store.put":
            put_self += dur - child_named[(sid, "nanopub.validate")] - child_named[(sid, "trusty.verify_reason")]

    def total(name):
        return sum(durs[name])

    def median_ms(name):
        return statistics.median(durs[name]) * 1000 if durs[name] else 0.0

    out["trace.spans"] = len(spans)
    parse_s = total("rdf.parse_trig")
    if parse_s:
        out["rdf.parse_quads_per_s"] = sum(q for _, q in notes["rdf.parse_trig"]) / parse_s
        out["rdf.parse_mb_per_s"] = sum(b for b, _ in notes["rdf.parse_trig"]) / 1e6 / parse_s
    out["rdf.serialize_s"] = total("rdf.serialize_trig")
    out["store.split_s"] = total("store.split_corpus")
    out["store.put_s"] = total("store.put")
    out["store.put_self_s"] = put_self
    out["store.put_calls"] = len(durs["store.put"])
    out["store.open_s"] = total("store.open")
    pattern_ms = [d * 1000 for d in durs["store.find_by_pattern"]]
    out["store.find_by_pattern_p50_ms"] = _pct(pattern_ms, 50)
    out["store.find_by_pattern_p99_ms"] = _pct(pattern_ms, 99)
    out["store.find_by_uri_ms"] = median_ms("store.find_by_uri")
    out["store.journal_entries_ms"] = median_ms("store.journal_entries")
    out["store.journal_entries_calls"] = len(durs["store.journal_entries"])
    out["nanopub.validate_s"] = total("nanopub.validate")
    out["nanopub.assemble_s"] = total("nanopub.assemble")
    out["trusty.verify_s"] = total("trusty.verify_reason")
    out["trusty.verify_calls"] = len(durs["trusty.verify_reason"])
    out["trusty.canonical_form_s"] = total("trusty.canonical_form")
    out["index.list_indexes_ms"] = median_ms("index.list_indexes")
    out["index.from_nanopub_calls"] = len(durs["index.from_nanopub"])
    if durs["network.sync_round"]:
        out["network.sync_round_s"] = statistics.fmean(durs["network.sync_round"])
    kinds = Counter()
    entries = 0
    for request, reply, n_entries in notes["network.handle"]:
        kinds[MESSAGE_KINDS.get(request, request)] += 1
        kinds[MESSAGE_KINDS.get(reply, reply)] += 1
        if request == "GetJournal":
            entries += n_entries
    for kind in MESSAGE_KINDS.values():
        out[f"network.messages.{kind}"] = kinds[kind]
    out["network.fetched"] = sum(notes["network.sync_round"])
    out["network.journal_pages"] = kinds["get_journal"]
    if entries:
        out["network.useful_entry_ratio"] = out["network.fetched"] / entries
    for method in API_METHODS:
        out[f"api.{method}_ms"] = median_ms(f"api.{method}")
    client_ms = extra.get("client_ms")
    service_ms = [
        (t1 - t0) * 1000 for _, parent, name, t0, t1, _ in spans if parent == 0 and name.startswith("api.")
    ]
    if client_ms and service_ms:
        out["api.http_overhead_ms"] = statistics.median(client_ms) - statistics.median(service_ms)
    out["analysis.write_reports_s"] = total("analysis.write_reports")
    for key in ("trace.overhead", "rdf.parse_exponent", "store.split_exponent",
                "store.disk_bytes_per_input_byte"):
        if key in extra:
            out[key] = extra[key]
    return out


def span_counts(metrics: dict[str, float]) -> dict[str, int]:
    """The exact counts of a traced pass, which must repeat run to run."""
    return {name: int(metrics[name]) for name, unit, _ in PER_LAYER if unit == "count"}
