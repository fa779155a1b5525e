"""Decentralized publishing network.

Nodes expose four requests (PUBLISH, GET, GET_JOURNAL, PEERS_REQUEST)
and replicate by anti-entropy: each node pages through its peers'
append-only journals and pulls unknown codes, verifying before storing.
A node never stores anything that fails trusty verification.

The same message contract runs in-process (simulation, deterministic
given the config seed) and over TCP (one request/response per
connection; line headers ``KIND <kind>`` etc., TriG body for
nanopublication payloads).  The ``_WIRE`` table describes every kind
once, for both ``encode_message`` and ``decode_message``; any input
that cannot be decoded is a ``ProtocolError``, which a node answers
with ``REJECTED``.  A header value is one line, and a number is ASCII
digits.  Both TCP ends read at most ``MAX_MESSAGE_BYTES``; a node
discards up to as much again of a longer request before it answers
``REJECTED``, and a client keeps that answer when its send breaks or
the node, having stopped reading, resets the connection.

``ServerCore`` listens and runs every exchange of both servers,
``NodeServer`` here and the HTTP API's ``ApiServer``, which give only
the ``exchange`` of one request.  Its listen backlog is ``SLOTS``; at most
``SLOTS`` connections are served at once, each on a reused worker thread,
and one more waits until a worker is free.  A client is dropped, without
a reply, once its whole exchange has taken ``SERVER_TIMEOUT``, however it
trickles, once it stays silent that long, or when it resets or cuts the
connection; any other failure of an exchange is printed.
"""

from __future__ import annotations

import math
import random
import selectors
import socket
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

from .nanopub import Nanopublication
from .rdf import serialize_trig
from .store import NanopubStore, StoreError, parse_nanopub
from .trusty import extract_artifact_code, verify
from .util import parse_digits

DEFAULT_PAGE_SIZE = 100
# The largest message today is a capacity-1000 index link at ~208 KB.
MAX_MESSAGE_BYTES = 16 * 1024 * 1024
# Seconds a server gives one connection's whole exchange, and waits on a
# silent client; tcp_request's default timeout.
SERVER_TIMEOUT = 10.0
# Connections a server serves at once, each on a reused worker thread; one
# more waits for a free worker.  Peaks measured in flight on 2 cores: 3 on
# a three-node localhost sync, 2 for one closed-loop API client (its next
# request arrives while the worker closes the last), 14-15 for 16 or 32
# clients, whose throughput has stopped rising from 4 clients on.
SLOTS = 16


class Unreachable(Exception):
    """Peer cannot be contacted right now."""


class ProtocolError(ValueError):
    pass


# -- messages ---------------------------------------------------------------


@dataclass(frozen=True)
class Publish:
    nanopub: Nanopublication


@dataclass(frozen=True)
class Get:
    code: str


@dataclass(frozen=True)
class GetJournal:
    from_seq: int
    page_size: int


@dataclass(frozen=True)
class PeersRequest:
    pass


@dataclass(frozen=True)
class Ok:
    code: str


@dataclass(frozen=True)
class NanopubResponse:
    nanopub: Nanopublication


@dataclass(frozen=True)
class JournalPage:
    entries: tuple[tuple[int, str], ...]
    next_seq: int


@dataclass(frozen=True)
class PeerList:
    ids: tuple[str, ...]


@dataclass(frozen=True)
class NotFound:
    pass


@dataclass(frozen=True)
class Rejected:
    reason: str


Message = object
Send = Callable[[str, Message], Message]


# -- node -------------------------------------------------------------------


class ServerNode:
    """One network participant: a store, peers, and per-peer journal cursors."""

    def __init__(
        self,
        node_id: str,
        store: NanopubStore | None = None,
        peers: Iterable[str] = (),
        send: Send | None = None,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self.node_id = node_id
        self.store = store if store is not None else NanopubStore()
        self.peers = list(peers)
        self.send = send
        self.page_size = page_size
        self.cursors: dict[str, int] = {}
        self.rejected = 0  # fetched bodies that sync_round's put refused

    def handle(self, msg: Message) -> Message:
        if isinstance(msg, Publish):
            try:
                code = self.store.put(msg.nanopub)
            except StoreError as exc:
                return Rejected(str(exc))
            return Ok(code)
        if isinstance(msg, Get):
            np = self.store.get(msg.code)
            return NanopubResponse(np) if np is not None else NotFound()
        if isinstance(msg, GetJournal):
            entries = self.store.journal_entries(msg.from_seq, msg.page_size)
            next_seq = entries[-1][0] + 1 if entries else msg.from_seq
            return JournalPage(tuple(entries), next_seq)
        if isinstance(msg, PeersRequest):
            return PeerList(tuple(self.peers))
        return Rejected(f"malformed message: {type(msg).__name__}")

    def sync_round(self) -> int:
        """Pull unknown nanopublications from every reachable peer.

        Pages each peer's journal from the stored cursor; cursors only
        advance over pages that were fully processed, so an unreachable
        peer is simply retried from the same place next round, as is an
        undecodable journal page; a Get reply that is undecodable is
        skipped, and one that fails verification is skipped and counted in
        ``rejected``.
        A page whose ``next_seq`` does not pass the cursor, or a Get reply
        that holds another nanopub than the one asked for, ends that
        peer's round.
        The store is asked once per page for the codes it lacks, and only
        those are fetched.  A fetched code is looked up again right before
        its put, so one that another thread (a server thread under ``node
        run``) stored meanwhile is not counted; one stored while ``put``
        runs still is, though ``put`` keeps it once.  Returns the number of
        nanopubs fetched and stored.
        """
        if self.send is None:
            raise RuntimeError(f"node {self.node_id} has no transport")
        fetched = 0
        for peer_id in list(self.peers):
            cursor = self.cursors.get(peer_id, 1)
            try:
                while True:
                    resp = self.send(peer_id, GetJournal(cursor, self.page_size))
                    if not isinstance(resp, JournalPage) or resp.next_seq <= cursor:
                        break  # no page, or one that does not advance (an empty one)
                    for code in self.store.missing([code for _, code in resp.entries]):
                        try:
                            reply = self.send(peer_id, Get(code))
                        except ProtocolError:
                            continue  # undecodable: skipped
                        if not isinstance(reply, NanopubResponse):
                            continue
                        if extract_artifact_code(reply.nanopub.uri) != code:
                            raise ProtocolError(f"Get {code} answered with <{reply.nanopub.uri}>")
                        if self.store.get(code) is not None:
                            continue  # stored by another thread since the page was read
                        try:
                            self.store.put(reply.nanopub)
                            fetched += 1
                        except StoreError:  # tampered or invalid: never stored
                            self.rejected += 1
                    cursor = resp.next_seq
                    self.cursors[peer_id] = cursor
                    if len(resp.entries) < self.page_size:
                        break
            except (Unreachable, ProtocolError):
                continue
        return fetched


def client_retrieve(code: str, known_nodes, send: Send | None = None) -> Nanopublication:
    """Fetch ``code`` from the first node that returns verifiable content.

    ``known_nodes`` may hold ServerNode objects (queried directly) or
    node ids (queried through ``send``); they are tried in the given
    order, duplicates by node id skipped.  The result always passes
    trusty verification no matter which node served it.
    """
    tried = set()
    any_reachable = False
    for node in known_nodes:
        node_id = node.node_id if isinstance(node, ServerNode) else node
        if node_id in tried:
            continue
        tried.add(node_id)
        try:
            if isinstance(node, ServerNode):
                reply = node.handle(Get(code))
            else:
                if send is None:
                    raise RuntimeError("node ids given but no transport")
                reply = send(node_id, Get(code))
        except Unreachable:
            continue
        any_reachable = True
        if isinstance(reply, NanopubResponse):
            np = reply.nanopub
            if extract_artifact_code(np.uri) == code and verify(np, np.uri):
                return np
    if not any_reachable:
        raise Unreachable(f"no reachable node for {code}")
    raise KeyError(code)


# -- wire codec ---------------------------------------------------------------


class _Header(NamedTuple):
    """A header line of a message kind; ``name`` None is the TriG body."""

    name: Optional[str]
    attribute: str
    parse: Callable[[str], object]
    render: Callable[[object], str] = str
    repeated: bool = False  # one line per item of a tuple attribute


def _parse_entry(text: str) -> tuple[int, str]:
    seq, _, code = text.partition(" ")
    return parse_digits(seq), code


# Every character that str.splitlines() ends a line at, as its escape.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK_ESCAPES = str.maketrans({c: repr(c)[1:-1] for c in _LINE_BREAKS})


def _one_line(text: str) -> str:
    # a rejection reason may quote the input it rejects
    return text.translate(_LINE_BREAK_ESCAPES)


_BODY = _Header(None, "nanopub", parse_nanopub, serialize_trig)
_CODE = _Header("CODE", "code", str)
_ENTRY = _Header("ENTRY", "entries", _parse_entry, lambda entry: f"{entry[0]} {entry[1]}", True)

# Every message kind once: class -> (KIND, its headers in wire order).
_WIRE: dict[type, tuple[str, tuple[_Header, ...]]] = {
    Publish: ("PUBLISH", (_BODY,)),
    Get: ("GET", (_CODE,)),
    GetJournal: ("GET_JOURNAL", (_Header("FROM", "from_seq", parse_digits), _Header("PAGE_SIZE", "page_size", parse_digits))),
    PeersRequest: ("PEERS_REQUEST", ()),
    Ok: ("OK", (_CODE,)),
    NanopubResponse: ("NANOPUB", (_BODY,)),
    JournalPage: ("JOURNAL_PAGE", (_Header("NEXT_SEQ", "next_seq", parse_digits), _ENTRY)),
    PeerList: ("PEER_LIST", (_Header("PEER", "ids", str, repeated=True),)),
    NotFound: ("NOT_FOUND", ()),
    Rejected: ("REJECTED", (_Header("REASON", "reason", str, _one_line),)),
}
_KINDS = {kind: (cls, headers) for cls, (kind, headers) in _WIRE.items()}


def encode_message(msg: Message) -> bytes:
    try:
        kind, headers = _WIRE[type(msg)]
    except KeyError:
        raise ProtocolError(f"cannot encode {type(msg).__name__}") from None
    lines = [f"KIND {kind}"]
    body = ""
    for name, attribute, _, render, repeated in headers:
        value = getattr(msg, attribute)
        if name is None:
            body = render(value)
        else:
            for item in value if repeated else (value,):
                line = f"{name} {render(item)}"
                if line.splitlines() != [line]:
                    raise ProtocolError(f"{name} value spans lines: {line!r}")
                lines.append(line)
    return ("\n".join(lines) + "\n\n" + body).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """The message in ``data``; ProtocolError for any input it cannot decode."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError("message is not UTF-8") from exc
    head, _, body = text.partition("\n\n")
    lines = [line.partition(" ") for line in head.splitlines() if line.strip()]
    if not lines or lines[0][0] != "KIND":
        raise ProtocolError("missing KIND header")
    kind = lines[0][2]
    if kind not in _KINDS:
        raise ProtocolError(f"unknown message kind {kind!r}")
    cls, headers = _KINDS[kind]
    values: dict[str, list[str]] = {}
    for name, _, value in lines[1:]:
        values.setdefault(name, []).append(value)
    fields = {}
    for header in headers:
        texts = [body] if header.name is None else values.get(header.name, [])
        if not header.repeated and len(texts) != 1:
            raise ProtocolError(f"expected exactly one {header.name} header")
        try:
            parsed = tuple(header.parse(text) for text in texts)
        except ValueError as exc:  # a bad number, bad TriG, an invalid or not one nanopub
            raise ProtocolError(f"{header.name or 'body'}: {exc}") from exc
        fields[header.attribute] = parsed if header.repeated else parsed[0]
    return cls(**fields)


# -- TCP transport ------------------------------------------------------------


def _read_to_eof(sock: socket.socket, data: bytearray | None = None) -> bytes:
    """All bytes until the peer shuts down writing, gathered in ``data``
    when given, so that the caller keeps what came before an error;
    ProtocolError past MAX_MESSAGE_BYTES."""
    data = bytearray() if data is None else data
    while chunk := sock.recv(65536):
        data += chunk
        if len(data) > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"message exceeds {MAX_MESSAGE_BYTES} bytes")
    return bytes(data)


def _drain(sock: socket.socket) -> None:
    """Read and discard what is left of a refused request, up to one more
    MAX_MESSAGE_BYTES, so that the reply reaches a client still sending."""
    left = MAX_MESSAGE_BYTES
    while left > 0 and (chunk := sock.recv(min(left, 65536))):
        left -= len(chunk)


def parse_address(address: str) -> tuple[str, int]:
    """``host:port`` or ``[IPv6 address]:port`` as ``(host, port)``,
    without the brackets; ValueError unless the host is not empty and the
    port is ASCII digits in 1..65535."""
    host, _, port = address.rpartition(":")
    if host[:1] == "[" and host[-1:] == "]":
        host = host[1:-1]
    try:
        number = parse_digits(port)
        if host and "[" not in host and "]" not in host and 0 < number < 65536:
            return host, number
    except ValueError:
        pass
    raise ValueError(f"not host:port with a port in 1..65535: {address!r}")


def tcp_request(address: str, msg: Message, timeout: float = SERVER_TIMEOUT) -> Message:
    """One request/response exchange with ``host:port``; Unreachable for
    an address ``parse_address`` refuses, ProtocolError for any reply
    that cannot be decoded or exceeds MAX_MESSAGE_BYTES."""
    request = encode_message(msg)
    try:
        host_port = parse_address(address)
    except ValueError as exc:
        raise Unreachable(str(exc)) from None
    reply = bytearray()
    try:
        with socket.create_connection(host_port, timeout=timeout) as conn:
            broken = None
            try:
                conn.sendall(request)
                conn.shutdown(socket.SHUT_WR)
            except TimeoutError:
                raise
            except OSError as exc:
                broken = exc
            try:
                _read_to_eof(conn, reply)
            except ConnectionResetError as exc:
                broken = exc
        if broken is None:
            return decode_message(bytes(reply))
        # a node that refuses a request stops reading it, and may answer
        # REJECTED before the connection breaks or is reset
        try:
            answer = decode_message(bytes(reply))
        except ProtocolError:
            answer = None
        if not isinstance(answer, Rejected):
            raise broken
        return answer
    except OSError as exc:
        raise Unreachable(f"{address}: {exc}") from exc
    except ProtocolError as exc:
        raise ProtocolError(f"{address}: undecodable reply: {exc}") from exc


class ServerCore:
    """The bounded core of ``NodeServer`` and ``ApiServer``: it listens,
    and runs every exchange.  A surface gives only ``exchange(conn)``,
    which reads one bounded request, decodes and handles it, and returns
    the reply bytes, or None for no reply.

    ``serve_forever`` is the dispatcher.  It hands each accepted
    connection to a pool of at most ``SLOTS`` worker threads, each
    started only when no started one is idle and reused until
    ``server_close``; a connection past the bound waits for a free
    worker.  It ends an exchange ``SERVER_TIMEOUT`` after a worker takes
    it up by shutting its socket down: the worker's read or write
    returns, and the client gets no reply.  It sleeps until a connection,
    the next deadline or ``shutdown``, which wakes it through a socket
    pair.
    """

    def __init__(self, host: str, port: int):
        # an IPv6 address holds a colon, which no IPv4 address or host name does
        self.socket = socket.socket(socket.AF_INET6 if ":" in host else socket.AF_INET)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind((host, port))
            # a burst past the listen backlog has its SYNs dropped, and each
            # client retries only after a second
            self.socket.listen(SLOTS)
        except OSError:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self._lock = threading.Lock()
        # each exchange a worker has taken up -> its deadline, inf once it
        # is cut; the worker removes its own before it closes the socket
        self._deadlines: dict[socket.socket, float] = {}
        self._closing = False
        self._pool = ThreadPoolExecutor(SLOTS, thread_name_prefix=type(self).__name__)
        # serve_forever is running and no shutdown has woken it yet
        self._serving = False
        self._stopped = threading.Event()
        self._stopped.set()
        self._wake, self._waker = socket.socketpair()

    def serve_forever(self):
        """Accept and dispatch connections until ``shutdown``."""
        with self._lock:
            self._serving = True
            self._stopped.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self.socket, selectors.EVENT_READ)
                selector.register(self._wake, selectors.EVENT_READ)
                while True:
                    ready = {key.fileobj for key, _ in selector.select(self._cut_expired())}
                    if self._wake in ready:  # shutdown() was called
                        self._wake.recv(1)
                        return
                    if ready:
                        try:
                            conn, client_address = self.socket.accept()
                        except OSError:
                            continue  # a failed accept leaves no connection to serve
                        self._pool.submit(self._serve, conn, client_address)
        finally:
            with self._lock:
                self._serving = False
            self._stopped.set()

    def shutdown(self):
        """Stop ``serve_forever``, running in another thread, and wait for
        it; returns at once when it is not running."""
        with self._lock:
            if self._serving:  # one wake byte, which serve_forever reads
                self._serving = False
                self._waker.send(b"\0")
        self._stopped.wait()

    @property
    def address(self) -> str:
        """``host:port``, or ``[host]:port`` for IPv6, as ``parse_address`` reads it."""
        host, port = self.server_address[:2]
        return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"

    def _serve(self, conn, client_address):
        with self._lock:
            self._deadlines[conn] = time.monotonic() + SERVER_TIMEOUT
            if self._closing:  # taken up after server_close: never served
                self._cut(conn)
        try:
            conn.settimeout(SERVER_TIMEOUT)
            reply = self.exchange(conn)
            if reply is not None:
                conn.sendall(reply)
        except (ConnectionError, TimeoutError):
            pass  # a silent, reset or cut client: dropped without a reply
        except Exception:
            self.handle_error(conn, client_address)
        finally:
            with self._lock:
                del self._deadlines[conn]
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
            conn.close()

    def handle_error(self, request, client_address):
        """Print the traceback of an exchange that failed."""
        print(f"exchange with {client_address} failed:", file=sys.stderr)
        traceback.print_exc()

    def _cut(self, conn):
        # with the lock held, so the worker has not closed the socket yet
        self._deadlines[conn] = math.inf
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _cut_expired(self) -> float:
        """Cut every exchange past its deadline; the seconds until the next."""
        now = time.monotonic()
        with self._lock:
            for conn, deadline in self._deadlines.items():
                if deadline <= now:
                    self._cut(conn)
            first = min(self._deadlines.values(), default=math.inf)
        # an exchange taken up from now on ends SERVER_TIMEOUT or more away
        return min(first - now, SERVER_TIMEOUT)

    def server_close(self):
        """Stop listening, cut every exchange, and join the workers."""
        self.socket.close()
        self._wake.close()
        self._waker.close()
        with self._lock:
            self._closing = True
            for conn in self._deadlines:
                self._cut(conn)
        self._pool.shutdown(wait=True)


class NodeServer(ServerCore):
    """Serves one node's message contract over TCP."""

    def __init__(self, node: ServerNode, host: str = "127.0.0.1", port: int = 0):
        super().__init__(host, port)
        self.node = node

    def exchange(self, conn):
        try:
            msg = decode_message(_read_to_eof(conn))
        except ProtocolError as exc:
            _drain(conn)
            return encode_message(Rejected(str(exc)))
        return encode_message(self.node.handle(msg))


# -- simulation ---------------------------------------------------------------


@dataclass(frozen=True)
class SimConfig:
    """Deterministic network simulation parameters.

    ``latency`` is a distribution spec: ``constant:X``, ``uniform:A:B``,
    or ``exponential:MEAN``, sampled per message; a sample above
    ``timeout`` makes that message attempt fail.  ``failures`` entries
    are (node index, first down round, first up round): crash-stop with
    the store intact on recovery.
    """

    node_count: int
    topology: str = "complete"  # complete | ring | random
    topology_p: float = 0.5
    topology_seed: int = 0
    latency: str = "constant:0.0"
    timeout: Optional[float] = None
    failures: tuple[tuple[int, int, int], ...] = ()
    seed: int = 0
    rounds: int = 10
    page_size: int = DEFAULT_PAGE_SIZE


@dataclass(frozen=True)
class PublishEvent:
    round: int
    node_index: int
    nanopub: Nanopublication


@dataclass
class SimReport:
    rounds: int
    node_ids: tuple[str, ...]
    final_sizes: dict[str, int]
    converged: bool
    published: tuple[str, ...]
    dropped: tuple[str, ...]
    lags: dict[str, int]  # code -> rounds from publish to full replication
    unreplicated: tuple[str, ...]
    retrievability: dict[str, str]  # code -> holdings bitstring over node_ids
    total_fetches: int
    mean_latency: float

    def to_text(self) -> str:
        lines = [
            f"rounds {self.rounds}",
            "nodes " + ",".join(self.node_ids),
            f"converged {'true' if self.converged else 'false'}",
            f"published {len(self.published)}",
            f"dropped {len(self.dropped)}",
            f"unreplicated {len(self.unreplicated)}",
            f"total_fetches {self.total_fetches}",
            f"mean_latency {self.mean_latency:.9f}",
        ]
        replicated = [self.lags[c] for c in self.published if c in self.lags]
        if replicated:
            lines.append(f"mean_lag {sum(replicated) / len(replicated):.6f}")
            lines.append(f"max_lag {max(replicated)}")
        else:
            lines.append("mean_lag n/a")
            lines.append("max_lag n/a")
        for node_id in self.node_ids:
            lines.append(f"size {node_id} {self.final_sizes[node_id]}")
        for code in self.published:
            lines.append(f"retrievable {code} {self.retrievability[code]}")
        return "\n".join(lines) + "\n"


def _topology_edges(config: SimConfig) -> set[tuple[int, int]]:
    n = config.node_count
    if config.topology == "complete":
        return {(i, j) for i in range(n) for j in range(n) if i < j}
    if config.topology == "ring":
        if n == 1:
            return set()
        return {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    if config.topology == "random":
        rng = random.Random(config.topology_seed)
        edges = set()
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < config.topology_p:
                    edges.add((i, j))
        return edges
    raise ValueError(f"unknown topology {config.topology!r}")


def _latency_sampler(spec: str):
    parts = spec.split(":")
    kind = parts[0]
    if kind == "constant" and len(parts) == 2:
        value = float(parts[1])
        return lambda rng: value
    if kind == "uniform" and len(parts) == 3:
        low, high = float(parts[1]), float(parts[2])
        return lambda rng: rng.uniform(low, high)
    if kind == "exponential" and len(parts) == 2:
        mean = float(parts[1])
        return lambda rng: rng.expovariate(1.0 / mean) if mean > 0 else 0.0
    raise ValueError(f"bad latency spec {spec!r}")


class Simulation:
    """Round-based deterministic harness over in-process nodes."""

    def __init__(self, config: SimConfig):
        if config.node_count < 1:
            raise ValueError("node_count must be >= 1")
        self.config = config
        self.rng = random.Random(config.seed)
        self.sample_latency = _latency_sampler(config.latency)
        self.current_round = 0
        self.latencies: list[float] = []
        # node id -> its (first down round, first up round) windows
        self._outages: dict[str, list[tuple[int, int]]] = {}
        for idx, start, end in config.failures:
            self._outages.setdefault(f"n{idx:02d}", []).append((start, end))

        edges = _topology_edges(config)
        node_ids = [f"n{i:02d}" for i in range(config.node_count)]
        peers: dict[str, list[str]] = {nid: [] for nid in node_ids}
        for i, j in sorted(edges):
            peers[node_ids[i]].append(node_ids[j])
            peers[node_ids[j]].append(node_ids[i])
        self.nodes: dict[str, ServerNode] = {}
        for nid in node_ids:
            self.nodes[nid] = ServerNode(
                nid,
                NanopubStore(),
                sorted(peers[nid]),
                send=self._make_send(nid),
                page_size=config.page_size,
            )

    def node_ids(self) -> list[str]:
        return sorted(self.nodes)

    def is_down(self, node_id: str, rnd: int | None = None) -> bool:
        windows = self._outages.get(node_id)
        if windows is None:
            return False
        rnd = self.current_round if rnd is None else rnd
        return any(start <= rnd < end for start, end in windows)

    def _make_send(self, src: str) -> Send:
        def send(dst: str, msg: Message) -> Message:
            if self.is_down(src) or self.is_down(dst):
                raise Unreachable(f"{dst} is down")
            latency = self.sample_latency(self.rng)
            self.latencies.append(latency)
            if self.config.timeout is not None and latency > self.config.timeout:
                raise Unreachable(f"{dst} timed out")
            return self.nodes[dst].handle(msg)

        return send

    def run(self, workload: Iterable[PublishEvent]) -> SimReport:
        events = sorted(
            workload, key=lambda e: (e.round, e.node_index)
        )  # stable: ties keep given order via sort stability
        by_round: dict[int, list[PublishEvent]] = {}
        for event in events:
            by_round.setdefault(event.round, []).append(event)

        node_ids = self.node_ids()
        published: list[str] = []
        dropped: list[str] = []
        publish_round: dict[str, int] = {}
        lags: dict[str, int] = {}
        total_fetches = 0

        last_event_round = max(by_round) if by_round else -1
        total_rounds = max(self.config.rounds, last_event_round + 1)

        for rnd in range(total_rounds):
            self.current_round = rnd
            for event in by_round.get(rnd, ()):
                node_id = node_ids[event.node_index]
                code = event.nanopub.uri[-45:]
                if self.is_down(node_id):
                    dropped.append(code)
                    continue
                reply = self.nodes[node_id].handle(Publish(event.nanopub))
                if isinstance(reply, Ok):
                    published.append(reply.code)
                    publish_round.setdefault(reply.code, rnd)
                else:
                    dropped.append(code)
            for node_id in node_ids:
                if not self.is_down(node_id):
                    total_fetches += self.nodes[node_id].sync_round()
            live = [nid for nid in node_ids if not self.is_down(nid)]
            for code in published:
                if code not in lags and live and all(
                    self.nodes[nid].store.get(code) is not None for nid in live
                ):
                    lags[code] = rnd - publish_round[code]

        self.current_round = total_rounds  # final liveness uses the last round
        final_sizes = {nid: len(self.nodes[nid].store) for nid in node_ids}
        live = [nid for nid in node_ids if not self.is_down(nid, total_rounds - 1)]
        code_sets = [frozenset(self.nodes[nid].store.codes()) for nid in live]
        converged = len(set(code_sets)) <= 1
        retrievability = {
            code: "".join(
                "1" if self.nodes[nid].store.get(code) is not None else "0"
                for nid in node_ids
            )
            for code in published
        }
        mean_latency = (
            sum(self.latencies) / len(self.latencies) if self.latencies else 0.0
        )
        return SimReport(
            rounds=total_rounds,
            node_ids=tuple(node_ids),
            final_sizes=final_sizes,
            converged=converged,
            published=tuple(published),
            dropped=tuple(dropped),
            lags=lags,
            unreplicated=tuple(c for c in published if c not in lags),
            retrievability=retrievability,
            total_fetches=total_fetches,
            mean_latency=mean_latency,
        )

    def live_nodes(self, rnd: int | None = None) -> list[ServerNode]:
        rnd = (self.current_round - 1) if rnd is None else rnd
        return [
            self.nodes[nid]
            for nid in self.node_ids()
            if not self.is_down(nid, rnd)
        ]
