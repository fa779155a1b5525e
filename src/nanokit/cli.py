"""Command-line front for the toolkit.

Exit codes: 0 success, 1 domain error (invalid, not found, tampered),
2 usage error.  NANO_STORE_DIR provides the default --store-dir.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analysis, corpusgen
from .api import ApiServer, ApiService
from .index import (
    IndexMetadata,
    build_incremental,
    build_index,
    expand,
    list_indexes,
    store_resolver,
)
from .nanopub import validate
from .network import (
    NodeServer,
    PublishEvent,
    ServerNode,
    SimConfig,
    Simulation,
    parse_address,
    tcp_request,
)
from .rdf import QuadPattern, TrigSyntaxError, iri, literal, parse_trig, serialize_trig
from .store import NanopubStore, StoreError, read_corpus, sole_uri
from .trusty import MintError, extract_artifact_code, mint, verify_reason

LICENSE_ALIASES = {
    "cc-by-3.0": corpusgen.LICENSE_CC_BY_3,
    "cc-by-4.0": corpusgen.LICENSE_CC_BY_4,
    "odbl": corpusgen.LICENSE_ODBL,
    "cc0": corpusgen.LICENSE_CC0,
}


class CliError(Exception):
    """Domain error surfaced to the user with exit status 1."""


def _read_doc(path: str):
    try:
        return parse_trig(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except TrigSyntaxError as exc:
        raise CliError(f"{path}: {exc}")


def _single_uri(doc, override: str | None) -> str:
    if override:
        return override
    try:
        return sole_uri(doc)
    except StoreError as exc:
        raise CliError(f"{exc}; pass --uri")


def _store_dir(args) -> str:
    directory = args.store_dir or os.environ.get("NANO_STORE_DIR")
    if not directory:
        raise CliError("no store directory: pass --store-dir or set NANO_STORE_DIR")
    return directory


def _open_store(args) -> NanopubStore:
    return NanopubStore(_store_dir(args))


def _read_uri_list(path: str | None) -> list[str]:
    if path is None:
        return []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    return [line.strip() for line in text.splitlines() if line.strip()]


def _metadata(args) -> IndexMetadata:
    return IndexMetadata(
        title=args.title,
        created=args.created,
        creators=tuple(args.creator or ()),
    )


def _parse_weights(spec: str, aliases: dict | None = None) -> dict:
    weights = {}
    for chunk in spec.split(","):
        name, _, value = chunk.partition("=")
        name = name.strip()
        key = None if name == "none" else (aliases or {}).get(name, name)
        weights[key] = float(value)
    return weights


# -- subcommand bodies --------------------------------------------------------


def cmd_validate(args) -> int:
    doc = _read_doc(args.file)
    uri = _single_uri(doc, args.uri)
    report = validate(doc, uri)
    if report.valid:
        print(f"valid {uri}")
        return 0
    for rule, message in report.violations:
        if args.format == "tsv":
            print(f"{rule}\t{message}")
        else:
            print(f"violation {rule}: {message}")
    return 1


def cmd_mint(args) -> int:
    doc = _read_doc(args.file)
    try:
        uri, minted = mint(doc, args.base)
    except MintError as exc:
        raise CliError(str(exc))
    text = serialize_trig(minted)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(uri.uri)
    else:
        sys.stdout.write(text)
        print(uri.uri, file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    doc = _read_doc(args.file)
    uri = _single_uri(doc, args.uri)
    reason = verify_reason(doc, uri)
    if reason is None:
        print(extract_artifact_code(uri))
        return 0
    print(f"verification failed: {reason}", file=sys.stderr)
    return 1


def cmd_store_ingest(args) -> int:
    store = _open_store(args)
    count = 0
    for path in args.files:
        nanopubs = read_corpus(path)
        try:
            store.put_all(nanopubs)
        except StoreError as exc:
            raise CliError(f"{path}: {exc}")
        count += len(nanopubs)
    print(f"ingested {count} nanopublications, store size {len(store)}")
    return 0


def cmd_store_get(args) -> int:
    store = _open_store(args)
    code = extract_artifact_code(args.code) or args.code
    np = store.get(code)
    if np is None:
        raise CliError(f"not found: {code}")
    sys.stdout.write(serialize_trig(np))
    return 0


def cmd_store_find(args) -> int:
    store = _open_store(args)
    if args.uri:
        codes = store.find_by_uri(args.uri, latest=not args.any_order)
    else:
        obj = None
        if args.obj is not None:
            obj = literal(args.obj) if args.objtype == "literal" else iri(args.obj)
        pattern = QuadPattern(
            subject=iri(args.subj) if args.subj else None,
            predicate=iri(args.pred) if args.pred else None,
            object=obj,
        )
        codes = store.find_by_pattern(pattern, latest=not args.any_order)
    for code in codes:
        print(code)
    return 0


def cmd_index_build(args) -> int:
    store = _open_store(args)
    elements = _read_uri_list(args.elements)
    records = build_index(
        elements,
        sub_indexes=args.sub_index or (),
        metadata=_metadata(args),
        capacity=args.capacity,
        base=args.base,
    )
    for record in records:
        store.put(record.nanopub)
    print(records[-1].uri)
    return 0


def cmd_index_append(args) -> int:
    store = _open_store(args)
    resolver = store_resolver(store)
    try:
        previous = resolver(args.previous)
    except KeyError:
        raise CliError(f"unknown index <{args.previous}>")
    records = build_incremental(
        previous,
        added=_read_uri_list(args.add),
        removed=set(_read_uri_list(args.remove)),
        metadata=_metadata(args),
        resolver=resolver,
        capacity=args.capacity,
        base=args.base,
    )
    for record in records:
        store.put(record.nanopub)
    print(records[-1].uri)
    return 0


def cmd_index_expand(args) -> int:
    resolver = store_resolver(_open_store(args))
    try:
        record = resolver(args.uri)
    except KeyError:
        raise CliError(f"unknown index <{args.uri}>")
    for uri in sorted(expand(record, resolver)):
        print(uri)
    return 0


def cmd_index_list(args) -> int:
    store = _open_store(args)
    for row in list_indexes(store):
        if args.format == "tsv":
            print(
                f"{row.number}\t{row.title or ''}\t{row.date or ''}\t"
                f"{row.sub_count}\t{row.size}\t{row.uri}"
            )
        else:
            print(
                f"{row.number}. {row.title or '(unnamed)'} date={row.date or '?'} "
                f"sub={row.sub_count} size={row.size} {row.uri}"
            )
    return 0


def _listen(server_class, handler, args):
    try:
        return server_class(handler, host=args.host, port=args.port)
    except OSError as exc:
        raise CliError(f"cannot listen on {args.host}:{args.port}: {exc.strerror}") from None


def cmd_serve(args) -> int:
    store = _open_store(args)
    server = _listen(ApiServer, ApiService(store), args)
    print(f"serving API on http://{server.address}/api/<method>")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()  # the socket and the workers
    return 0


def cmd_node_run(args) -> int:
    peers = list(args.peer or ())
    for peer in peers:
        parse_address(peer)  # a bad --peer is refused before the store opens
    store = _open_store(args)
    node = ServerNode("self", store, peers, send=lambda peer, msg: tcp_request(peer, msg))
    server = _listen(NodeServer, node, args)
    print(f"node listening on {server.address}, peers: {', '.join(peers) or 'none'}")
    if args.sync_interval > 0 and peers:
        import threading

        def sync_loop():
            import time

            while True:
                time.sleep(args.sync_interval)
                try:
                    node.sync_round()
                except Exception as exc:  # keep serving through peer trouble
                    print(f"sync error: {exc}", file=sys.stderr)

        threading.Thread(target=sync_loop, daemon=True).start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()  # the socket and the workers
    return 0


# one value parser per settable SimConfig field; an absent key keeps SimConfig's default
_SIM_FIELDS = {
    "node_count": int,
    "topology": str,
    "topology_p": float,
    "topology_seed": int,
    "latency": str,
    "timeout": float,
    "seed": int,
    "rounds": int,
    "page_size": int,
}
_PUBLISH_DEFAULTS = {"publish_count": 0, "publish_seed": 0, "publish_rounds": 1}


def _read_sim_config(path: str) -> tuple[SimConfig, int, int, int]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    settings: dict = {"node_count": 1}
    publish = dict(_PUBLISH_DEFAULTS)
    failures = []
    try:
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(" ")
            value = value.strip()
            if key == "fail":
                parts = value.split()
                if len(parts) != 3:
                    raise CliError(f"bad fail line: {line!r}")
                failures.append(tuple(int(p) for p in parts))
            elif key in _SIM_FIELDS:
                settings[key] = _SIM_FIELDS[key](value)
            elif key in publish:
                publish[key] = int(value)
            else:
                raise CliError(f"unknown simulation config key: {key!r}")
        config = SimConfig(**settings, failures=tuple(failures))
    except ValueError as exc:
        raise CliError(f"bad simulation config: {exc}")
    return config, publish["publish_count"], publish["publish_seed"], publish["publish_rounds"]


def build_workload(
    config: SimConfig, publish_count: int, publish_seed: int, publish_rounds: int
) -> list[PublishEvent]:
    corpus = corpusgen.generate_corpus(
        corpusgen.CorpusConfig(count=publish_count, seed=publish_seed)
    )
    return [
        PublishEvent(i % max(publish_rounds, 1), i % config.node_count, np)
        for i, np in enumerate(corpus)
    ]


def cmd_node_simulate(args) -> int:
    config, publish_count, publish_seed, publish_rounds = _read_sim_config(args.config)
    workload = build_workload(config, publish_count, publish_seed, publish_rounds)
    report = Simulation(config).run(workload)
    text = report.to_text()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args) -> int:
    tool_uris = frozenset(args.tool_uri) if args.tool_uri else analysis.DEFAULT_TOOL_URIS
    report = analysis.analyze(analysis.load_corpus(args.corpus), args.top_k, tool_uris)
    paths = analysis.write_reports(args.out, report)
    for name in ("totals", "creators", "licenses", "namespaces", "types", "json"):
        print(paths[name])
    return 0


def cmd_gen_corpus(args) -> int:
    config = corpusgen.CorpusConfig(
        count=args.count,
        seed=args.seed,
        base=args.base,
        creator_weights=(
            _parse_weights(args.creators) if args.creators else corpusgen.CorpusConfig().creator_weights
        ),
        license_weights=(
            _parse_weights(args.licenses, LICENSE_ALIASES)
            if args.licenses
            else corpusgen.CorpusConfig().license_weights
        ),
        type_pool=args.types,
    )
    corpus = corpusgen.generate_corpus(config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if args.single_file:
        chunks = [serialize_trig(np) for np in corpus]
        (outdir / "corpus.trig").write_text("".join(chunks), encoding="utf-8")
        print(outdir / "corpus.trig")
    else:
        for np in corpus:
            code = extract_artifact_code(np.uri)
            (outdir / f"{code}.trig").write_text(
                serialize_trig(np), encoding="utf-8"
            )
        print(f"wrote {len(corpus)} files to {outdir}")
    return 0


# -- argument wiring ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nanokit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a nanopublication file against the container rules")
    p.add_argument("file")
    p.add_argument("--uri", help="nanopublication URI (default: discovered)")
    p.add_argument("--format", choices=("text", "tsv"), default="text")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("mint", help="assign a content-hash identifier to a document")
    p.add_argument("file")
    p.add_argument("--base", required=True, help="self-URI stem ending in /, # or .")
    p.add_argument("--out", help="write minted TriG here instead of stdout")
    p.set_defaults(fn=cmd_mint)

    p = sub.add_parser("verify", help="check content against its hash identifier")
    p.add_argument("file")
    p.add_argument("--uri")
    p.set_defaults(fn=cmd_verify)

    store_parent = argparse.ArgumentParser(add_help=False)
    store_parent.add_argument("--store-dir", help="store directory (or NANO_STORE_DIR)")

    p = sub.add_parser("store", help="ingest and query a local store")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    q = store_sub.add_parser("ingest", parents=[store_parent])
    q.add_argument("files", nargs="+")
    q.set_defaults(fn=cmd_store_ingest)

    q = store_sub.add_parser("get", parents=[store_parent])
    q.add_argument("code", help="artifact code or full URI")
    q.set_defaults(fn=cmd_store_get)

    q = store_sub.add_parser("find", parents=[store_parent])
    q.add_argument("--subj")
    q.add_argument("--pred")
    q.add_argument("--obj")
    q.add_argument("--objtype", choices=("iri", "literal"), default="iri")
    q.add_argument("--uri", help="mention search instead of pattern search")
    q.add_argument("--any-order", action="store_true", help="skip recency sorting")
    q.set_defaults(fn=cmd_store_find)

    p = sub.add_parser("index", help="build, version, expand, and list indexes")
    index_sub = p.add_subparsers(dest="index_command", required=True)

    meta_parent = argparse.ArgumentParser(add_help=False)
    meta_parent.add_argument("--title")
    meta_parent.add_argument("--created", help="xsd:dateTime, e.g. 2018-04-05T00:00:00Z")
    meta_parent.add_argument("--creator", action="append")
    meta_parent.add_argument("--capacity", type=int, default=1000)
    meta_parent.add_argument("--base", default="http://example.org/index/")

    q = index_sub.add_parser("build", parents=[store_parent, meta_parent])
    q.add_argument("--elements", help="file with one nanopub URI per line")
    q.add_argument("--sub-index", action="append", help="sub-index URI (repeatable)")
    q.set_defaults(fn=cmd_index_build)

    q = index_sub.add_parser("append", parents=[store_parent, meta_parent])
    q.add_argument("--previous", required=True, help="head URI of the previous version")
    q.add_argument("--add", help="file with URIs to add")
    q.add_argument("--remove", help="file with URIs to remove")
    q.set_defaults(fn=cmd_index_append)

    q = index_sub.add_parser("expand", parents=[store_parent])
    q.add_argument("--uri", required=True)
    q.set_defaults(fn=cmd_index_expand)

    q = index_sub.add_parser("list", parents=[store_parent])
    q.add_argument("--format", choices=("text", "tsv"), default="text")
    q.set_defaults(fn=cmd_index_list)

    p = sub.add_parser("serve", parents=[store_parent], help="HTTP query API over a store")
    p.add_argument("--port", type=int, default=8080)
    p.add_argument("--host", default="127.0.0.1")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("node", help="run or simulate publishing-network nodes")
    node_sub = p.add_subparsers(dest="node_command", required=True)

    q = node_sub.add_parser("run", parents=[store_parent])
    q.add_argument("--port", type=int, default=8765)
    q.add_argument("--host", default="127.0.0.1")
    q.add_argument("--peer", action="append", help="host:port of a peer (repeatable)")
    q.add_argument("--sync-interval", type=float, default=10.0)
    q.set_defaults(fn=cmd_node_run)

    q = node_sub.add_parser("simulate")
    q.add_argument("--config", required=True, help="key-value simulation config file")
    q.add_argument("--out", help="write the report here")
    q.set_defaults(fn=cmd_node_simulate)

    p = sub.add_parser("analyze", help="run the five corpus reports")
    p.add_argument("corpus", help="directory of .trig files or one corpus file")
    p.add_argument("--out", required=True)
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--tool-uri", action="append", help="IRI counted as a tool creator")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("gen-corpus", help="deterministic synthetic test corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--base", default="http://example.org/np/")
    p.add_argument("--creators", help="kind=weight list, e.g. orcid=0.9,literal=0.1")
    p.add_argument("--licenses", help="license=weight list; 'none' for unlicensed")
    p.add_argument("--types", type=int, default=40, help="distinct assertion types")
    p.add_argument("--single-file", action="store_true")
    p.set_defaults(fn=cmd_gen_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError) as exc:  # every domain error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
