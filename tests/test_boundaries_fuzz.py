"""Seeded fuzzing of the boundaries where data enters the program.

HTTP: mutated requests go over real sockets to an ``ApiServer`` on a
small store, each client half-closing after it sends.  No request may
get a 500 or be dropped before its deadline, every reply must parse as
HTTP with ``http.client``, only a request of no bytes may go without
one, and the outcome of every request is pinned in a digest, so a
change to the HTTP front shows here as a diff.  The mutators follow the survey of Manès et al., "The Art,
Science, and Engineering of Fuzzing" (IEEE TSE 2019): flip bytes,
delete, duplicate or swap lines, splice in parts of real request paths,
and truncate.

Store log: mutated copies of a small disk store's ``journal.log`` are
reopened.  Each reopen either raises ``StoreError`` and leaves the file
byte-identical, or opens a store whose every nanopub verifies and whose
codes are a subset of the original's; the outcomes are pinned in a
digest too.  The mutators delete, duplicate or swap records, flip bytes,
splice in pieces of another store's log of the same nanopubs, and
truncate.

Wire: mutated encodings of one message of every kind, by the HTTP
mutators, are decoded.  ``decode_message`` may raise only
``ProtocolError``, a node answers every decoded message with a reply
that ``encode_message`` takes, and no input changes its store.  One in
twenty also goes to a ``NodeServer`` over TCP, which must answer the
same bytes; the replies are pinned in a digest.
"""

import hashlib
import http.client
import io
import random
import socket
import threading
from collections import Counter
from urllib.parse import urlencode

import pytest

from nanokit import namespaces as ns
from nanokit.api import ApiServer, ApiService
from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.index import IndexMetadata, build_index
from nanokit.network import (
    _WIRE,
    Get,
    GetJournal,
    JournalPage,
    NanopubResponse,
    NodeServer,
    NotFound,
    Ok,
    PeerList,
    PeersRequest,
    ProtocolError,
    Publish,
    Rejected,
    ServerNode,
    decode_message,
    encode_message,
    tcp_request,
)
from nanokit.store import NanopubStore, StoreError
from nanokit.trusty import verify_reason

from oracles import log_records


@pytest.fixture(scope="module")
def api():
    """A running server on 12 nanopubs and a three-link index over ten of
    them, the real request paths of all seven methods, and the list
    that ``handle_error`` appends to."""
    nanopubs = generate_corpus(CorpusConfig(count=12, seed=26))
    store = NanopubStore()
    for np in nanopubs:
        store.put(np)
    records = build_index(
        [np.uri for np in nanopubs[:10]],
        capacity=4,
        metadata=IndexMetadata(title="Fuzz", created="2018-01-01T00:00:00Z"),
    )
    for record in records:
        store.put(record.nanopub)
    literal = next(q.object for q in nanopubs[1].quads if q.object.is_literal)
    queries = [
        ("find_latest_nanopubs_with_pattern", {"pred": ns.DCT_LICENSE, "page_size": 3}),
        ("find_nanopubs_with_pattern", {"obj": literal.value, "objtype": "literal"}),
        ("find_nanopubs_with_pattern", {"subj": nanopubs[2].uri, "page": 2, "page_size": 1}),
        ("find_latest_nanopubs_with_uri", {"uri": nanopubs[3].uri, "page_size": 2}),
        ("find_nanopubs_with_uri", {"uri": nanopubs[4].uri}),
        ("get_all_indexes", {}),
        ("get_index_elements", {"index_uri": records[-1].uri, "page_size": 5}),
        ("get_nanopub", {"uri": nanopubs[5].uri}),
    ]
    paths = [f"/api/{method}?{urlencode(params)}".rstrip("?").encode("ascii") for method, params in queries]
    server = ApiServer(ApiService(store))
    errors = []
    server.handle_error = lambda request, client_address: errors.append(client_address)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2], paths, errors
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def exchange(address, data: bytes) -> bytes:
    """Send ``data``, shut down writing, and read until the server closes."""
    received = bytearray()
    with socket.create_connection(address, timeout=5) as conn:
        conn.sendall(data)
        conn.shutdown(socket.SHUT_WR)
        while chunk := conn.recv(65536):
            received += chunk
    return bytes(received)


def _status(reply: bytes) -> str:
    """The status of a reply, which ``http.client`` must parse."""
    if not reply:
        return "closed without reply"
    response = http.client.HTTPResponse(_Replayed(reply))
    response.begin()  # BadStatusLine for a reply with no status line
    return str(response.status)


class _Replayed:
    """A socket whose ``makefile`` reads back one reply."""

    def __init__(self, reply: bytes):
        self.reply = reply

    def makefile(self, mode):
        return io.BytesIO(self.reply)


def _outcome(reply: bytes) -> str:
    """The status, and the body of an API reply; a protocol error's page
    and header values such as ``Date`` are left out."""
    status = _status(reply)
    body = reply.partition(b"\r\n\r\n")[2]
    if status in ("414", "431", "501", "505") or body.startswith(b"<"):  # no API body starts with "<"
        return f"{status} error page"
    return f"{status} {body!r}"


def _flip(rng, data, paths):
    i = rng.randrange(len(data))
    return data[:i] + bytes([rng.randrange(256)]) + data[i + 1:]


def _delete_line(rng, data, paths):
    lines = data.splitlines(keepends=True)
    del lines[rng.randrange(len(lines))]
    return b"".join(lines)


def _duplicate_line(rng, data, paths):
    lines = data.splitlines(keepends=True)
    i = rng.randrange(len(lines))
    lines.insert(i, lines[i])
    return b"".join(lines)


def _swap_lines(rng, data, paths):
    lines = data.splitlines(keepends=True)
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    lines[i], lines[j] = lines[j], lines[i]
    return b"".join(lines)


def _splice(rng, data, paths):
    path = rng.choice(paths)
    a = rng.randrange(len(path))
    piece = path[a:a + rng.randint(1, 24)]
    i = rng.randint(0, len(data))
    return data[:i] + piece + data[i + rng.randint(0, 8):]


def _truncate(rng, data, paths):
    return data[:rng.randrange(len(data))]


_MUTATORS = [_flip, _delete_line, _duplicate_line, _swap_lines, _splice, _truncate]
_HEADERS = [b"Host: nanokit.test\r\n", b"User-Agent: fuzz/1.0\r\n", b"Accept: */*\r\n", b"Connection: keep-alive\r\n"]


def _requests(paths, rng_seed, count):
    """``count`` seeded requests, each a well-formed GET of a real path
    with one to three mutations."""
    rng = random.Random(rng_seed)
    for _ in range(count):
        headers = rng.sample(_HEADERS, rng.randint(0, len(_HEADERS)))
        data = b"GET %s HTTP/1.%d\r\n%s\r\n" % (rng.choice(paths), rng.randint(0, 1), b"".join(headers))
        for _ in range(rng.randint(1, 3)):
            if data:
                data = rng.choice(_MUTATORS)(rng, data, paths)
        yield data


def test_mutated_requests_match_pinned_outcomes(api):
    address, paths, errors = api
    statuses = Counter()
    digest = hashlib.sha256()
    for data in _requests(paths, 20160105, 4000):
        reply = exchange(address, data)
        status = _status(reply)
        statuses[status] += 1
        assert status != "500", data
        if status == "closed without reply":
            assert data == b"", data  # only a connection that sent nothing
        digest.update(_outcome(reply).encode("utf-8") + b"\n")
    assert errors == []
    assert statuses == {"200": 1634, "400": 1783, "404": 406, "501": 20, "closed without reply": 157}
    assert digest.hexdigest() == "e44b426ddb5cf2dd04e3fc5b8c741ca1ac35d14469102308180bd78f07304987"


_LONG_TARGET = b"GET /api/get_all_indexes?pad="


@pytest.mark.parametrize(
    "data, outcome",
    [
        pytest.param(b"GET /api/get_all_indexes HTTP/1.0\r\n\r\n", "200 b'1\\t", id="get"),
        pytest.param(b"GET /api/get_all_indexes HTTP/1.1\nHost: x\n\n", "200", id="lf-only"),
        pytest.param(b"GET /api/get_all_indexes HTTP/1.0", "200", id="eof-ends-head"),
        pytest.param(b"GET //api/get_all_indexes HTTP/1.0\r\n\r\n", "200", id="double-slash"),
        pytest.param(b"GET\xa0/api/get_all_indexes\x85HTTP/1.0\r\n\r\n", "200", id="latin-1-spaces"),
        pytest.param(_LONG_TARGET.ljust(65525, b"a") + b" HTTP/1.0\r\n", "200", id="line-at-bound"),
        pytest.param(b"G" * 65537, "414 error page", id="line-too-long"),
        pytest.param(b"GET / HTTP/1.0\r\n" + b"X: y\r\n" * 99 + b"\r\n", "404", id="99-headers"),
        pytest.param(b"GET / HTTP/1.0\r\n" + b"X: y\r\n" * 100, "431 error page", id="100-headers"),
        pytest.param(b"GET / HTTP/1.0\r\n" + b"a" * 65537, "431 error page", id="header-too-long"),
        pytest.param(b"POST /api/get_all_indexes HTTP/1.0\r\n\r\n", "501 error page", id="post"),
        pytest.param(b"HEAD /api/get_all_indexes HTTP/1.0\r\n\r\n", "501 error page", id="head"),
        pytest.param(b"GET /a b HTTP/1.0\r\n\r\n", "400 error page", id="four-words"),
        # a line that is not a method, a target and HTTP/1.x gets a 400,
        # any other major version a 505
        pytest.param(b"GET / HTTP/1.x\r\n\r\n", "400 error page", id="bad-version"),
        pytest.param("GET / HTTP/1.\xb2\r\n\r\n".encode("latin-1"), "400 error page", id="superscript-version"),
        pytest.param(b"GET / HTTP/2.0\r\n\r\n", "505 error page", id="http-2"),
        pytest.param(b"GET\r\n\r\n", "400 error page", id="one-word"),
        pytest.param(b"POST /api/get_all_indexes\r\n", "400 error page", id="http-0.9-post"),
        pytest.param(b"GET /api/get_all_indexes\r\n", "400 error page", id="http-0.9-get"),
        pytest.param(b"GET /api/get_all_indexes HTTP/0.9\r\n\r\n", "505 error page", id="http-0.9-named"),
        pytest.param(b"GET /api/get_all_indexes HTTP/00.9\r\n\r\n", "505 error page", id="http-00.9"),
        pytest.param(b"GET /a b HTTP/0.9\r\n\r\n", "400 error page", id="http-0.9-four-words"),
        pytest.param(b"GET api/get_all_indexes HTTP/1.0\r\n\r\n", "404", id="no-leading-slash"),
        pytest.param(b"GET /api/get_all_indexes http/1.0\r\n\r\n", "400 error page", id="lowercase-version"),
        pytest.param(b"GET /api/get_all_indexes HTTP/1.01234567890\r\n\r\n", "400 error page", id="long-minor"),
        pytest.param(b"GET /api/x\r\n" + b"X: y\r\n" * 100, "400 error page", id="http-0.9-431"),
        pytest.param(b"\r\nGET / HTTP/1.0\r\n\r\n", "400 error page", id="blank-line"),
        pytest.param(b" \t\x0c\r\n", "400 error page", id="whitespace-line"),
        pytest.param(b"", "closed without reply", id="empty"),
    ],
)
def test_http_front_edge_cases(api, data, outcome):
    address, paths, errors = api
    assert _outcome(exchange(address, data)).startswith(outcome)
    assert errors == []


# -- store log ----------------------------------------------------------------


def _delete_record(rng, records):
    del records[rng.randrange(len(records))]


def _duplicate_record(rng, records):
    i = rng.randrange(len(records))
    records.insert(rng.randint(0, len(records)), records[i])


def _swap_records(rng, records):
    i, j = rng.randrange(len(records)), rng.randrange(len(records))
    records[i], records[j] = records[j], records[i]


def _splice_log(rng, data, other):
    a = rng.randrange(len(other))
    piece = other[a:a + rng.randint(1, len(other) // 2)]
    i = rng.randint(0, len(data))
    return data[:i] + piece + data[i + rng.randint(0, 8):]


def _log_cases(log, other, count, rng_seed):
    """``count`` seeded mutations of ``log``: up to two record mutations,
    then up to two byte mutations, at least one in all."""
    rng = random.Random(rng_seed)
    record_mutators = [_delete_record, _duplicate_record, _swap_records]
    byte_mutators = [_flip, _splice_log, _truncate]
    for _ in range(count):
        records = log_records(log)
        rounds = rng.randint(0, 2)
        for _ in range(rounds):
            if records:
                rng.choice(record_mutators)(rng, records)
        data = b"".join(records)
        for _ in range(rng.randint(0 if rounds else 1, 2)):
            if data:
                data = rng.choice(byte_mutators)(rng, data, other)
        yield data


def test_mutated_store_logs_reopen_or_are_refused_unchanged(tmp_path):
    nanopubs = generate_corpus(CorpusConfig(count=6, seed=32))
    original = NanopubStore(tmp_path / "original")
    original.put_all(nanopubs)
    NanopubStore(tmp_path / "other").put_all(nanopubs[::-1])
    log = (tmp_path / "original" / "journal.log").read_bytes()
    other = (tmp_path / "other" / "journal.log").read_bytes()
    journal = tmp_path / "fuzzed" / "journal.log"
    journal.parent.mkdir()
    outcomes = Counter()
    digest = hashlib.sha256()
    for data in _log_cases(log, other, 400, 20180405):
        journal.write_bytes(data)
        try:
            store = NanopubStore(journal.parent)
        except StoreError as exc:
            assert journal.read_bytes() == data, exc
            outcome = "refused " + str(exc).split(":", 1)[0]
        else:
            codes = store.codes()
            assert set(codes) <= set(original.codes()), data
            assert all(verify_reason(np, np.uri) is None for np in map(store.get, codes))
            kept = journal.read_bytes()
            assert data.startswith(kept)
            assert NanopubStore(journal.parent).codes() == codes and journal.read_bytes() == kept
            outcome = f"opened {len(codes)} " + " ".join(codes)
        outcomes[outcome.split(" ", 1)[0]] += 1
        digest.update(outcome.encode("ascii") + b"\n")
    assert outcomes == {"refused": 270, "opened": 130}
    assert digest.hexdigest() == "ff2e8d8ff91e999f57bfba36754b9b2ba61162b61b7e61d099feab50671038a7"


# -- wire ---------------------------------------------------------------------


def _wire_messages(nanopubs):
    """One message of every wire kind, on codes of ``nanopubs``."""
    codes = [np.uri[-45:] for np in nanopubs]
    messages = [
        Publish(nanopubs[0]),
        Get(codes[1]),
        GetJournal(2, 3),
        PeersRequest(),
        Ok(codes[0]),
        NanopubResponse(nanopubs[1]),
        JournalPage(((1, codes[0]), (2, codes[1])), 3),
        PeerList(("127.0.0.1:8765", "[::1]:8766")),
        NotFound(),
        Rejected("verification failed"),
    ]
    assert {type(msg) for msg in messages} == set(_WIRE)
    return messages


def _wire_cases(encodings, rng_seed, count):
    """``count`` seeded mutations, one to three each, of the encodings in
    turn; a splice takes its piece from any of them."""
    rng = random.Random(rng_seed)
    for i in range(count):
        data = encodings[i % len(encodings)]
        for _ in range(rng.randint(1, 3)):
            if data:
                data = rng.choice(_MUTATORS)(rng, data, encodings)
        yield data


def test_mutated_wire_messages_are_refused_or_answered():
    nanopubs = generate_corpus(CorpusConfig(count=3, seed=33))
    node = ServerNode("n0", peers=["127.0.0.1:8765"])
    node.store.put_all(nanopubs)
    encodings = [encode_message(msg) for msg in _wire_messages(nanopubs)]
    server = NodeServer(node)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    outcomes = Counter()
    digest = hashlib.sha256()
    try:
        for i, data in enumerate(_wire_cases(encodings, 20180405, 600)):
            try:
                msg = decode_message(data)
            except ProtocolError as exc:
                outcome, reply = "refused", Rejected(str(exc))
            else:
                outcome, reply = _WIRE[type(msg)][0], node.handle(msg)
            answer = encode_message(reply)
            if i % 20 == 0:  # 30 of them also over TCP
                assert exchange(server.server_address[:2], data) == answer, data
                if outcome != "refused":
                    assert encode_message(tcp_request(server.address, msg)) == answer, data
            outcomes[outcome] += 1
            digest.update(answer + b"\0")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert node.store.codes() == [np.uri[-45:] for np in nanopubs]
    assert outcomes == {
        "refused": 427, "PEER_LIST": 34, "JOURNAL_PAGE": 28, "GET": 24, "OK": 19, "NOT_FOUND": 17,
        "REJECTED": 16, "PUBLISH": 12, "PEERS_REQUEST": 11, "NANOPUB": 9, "GET_JOURNAL": 3,
    }
    assert digest.hexdigest() == "3aeb351124a4aef9cc33b0b4725a8e8626f50a558bc719e5e3698b79fde15b43"
