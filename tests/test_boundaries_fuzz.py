"""Seeded fuzzing of the boundaries where data enters the program.

HTTP: mutated requests go over real sockets to an ``ApiServer`` on a
small store, each client half-closing after it sends.  No request may
get a 500 or be dropped before its deadline, and the outcome of every
request is pinned in a digest, so a change to the HTTP front shows here
as a diff.  The mutators follow the survey of Manès et al., "The Art,
Science, and Engineering of Fuzzing" (IEEE TSE 2019): flip bytes,
delete, duplicate or swap lines, splice in parts of real request paths,
and truncate.
"""

import hashlib
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
from nanokit.store import NanopubStore


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
    if not reply:
        return "closed without reply"
    if not reply.startswith(b"HTTP/"):
        return "no status line"  # an HTTP/0.9 reply: the body alone
    return reply.split(b" ", 2)[1].decode("latin-1")


def _outcome(reply: bytes) -> str:
    """The status, and the body of an API reply; a protocol error's page
    and header values such as ``Date`` are left out."""
    status = _status(reply)
    body = reply.partition(b"\r\n\r\n")[2] if reply.startswith(b"HTTP/") else reply
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
            words = data.split(b"\n", 1)[0].decode("latin-1").split()
            # a blank request line gets no reply; HTTP/0.9's reply is its body alone
            assert len(words) in (0, 2), data
        digest.update(_outcome(reply).encode("utf-8") + b"\n")
    assert errors == []
    assert statuses == {
        "200": 1634, "no status line": 1230, "closed without reply": 558, "404": 406, "400": 152, "501": 20,
    }
    assert digest.hexdigest() == "494198f60cf4b7a999fef77dd4a8d4f9776729947b6b6dc5d7ddd2ef277d95a1"


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
        # http.server answers these as HTTP/0.9: the error page with no status line
        pytest.param(b"GET / HTTP/1.x\r\n\r\n", "no status line error page", id="bad-version"),
        pytest.param("GET / HTTP/1.\xb2\r\n\r\n".encode("latin-1"), "no status line error page", id="superscript-version"),
        pytest.param(b"GET / HTTP/2.0\r\n\r\n", "no status line error page", id="http-2"),
        pytest.param(b"GET\r\n\r\n", "no status line error page", id="one-word"),
        pytest.param(b"POST /api/get_all_indexes\r\n", "no status line error page", id="http-0.9-post"),
        pytest.param(b"GET /api/get_all_indexes\r\n", "no status line b'1\\t", id="http-0.9-get"),
        pytest.param(b"GET /api/get_all_indexes HTTP/0.9\r\n\r\n", "no status line b'1\\t", id="http-0.9-named"),
        pytest.param(b"GET /api/get_all_indexes HTTP/00.9\r\n\r\n", "200 b'1\\t", id="http-00.9"),
        pytest.param(b"GET /a b HTTP/0.9\r\n\r\n", "no status line error page", id="http-0.9-four-words"),
        pytest.param(b"GET api/get_all_indexes HTTP/1.0\r\n\r\n", "404", id="no-leading-slash"),
        pytest.param(b"GET /api/get_all_indexes http/1.0\r\n\r\n", "no status line error page", id="lowercase-version"),
        pytest.param(b"GET /api/get_all_indexes HTTP/1.01234567890\r\n\r\n", "no status line error page", id="long-minor"),
        pytest.param(b"GET /api/x\r\n" + b"X: y\r\n" * 100, "no status line error page", id="http-0.9-431"),
        pytest.param(b"\r\nGET / HTTP/1.0\r\n\r\n", "closed without reply", id="blank-line"),
        pytest.param(b" \t\x0c\r\n", "closed without reply", id="whitespace-line"),
        pytest.param(b"", "closed without reply", id="empty"),
    ],
)
def test_http_front_edge_cases(api, data, outcome):
    address, paths, errors = api
    assert _outcome(exchange(address, data)).startswith(outcome)
    assert errors == []
