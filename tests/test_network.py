import hashlib
import socket
import socketserver
import struct
import threading
import time

import pytest

from nanokit import network
from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.nanopub import Nanopublication
from nanokit.network import (
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
    PublishEvent,
    Rejected,
    ServerNode,
    SimConfig,
    Simulation,
    Unreachable,
    client_retrieve,
    decode_message,
    encode_message,
    parse_address,
    tcp_request,
)
from nanokit.rdf import Quad, QuadDocument, iri, literal, serialize_trig
from nanokit.trusty import extract_artifact_code

from oracles import run_simulation


@pytest.fixture(scope="module")
def nanopubs(corpus200):
    return corpus200[:30]


def wire_pair(node_a: ServerNode, node_b: ServerNode):
    nodes = {node_a.node_id: node_a, node_b.node_id: node_b}
    send = lambda dst, msg: nodes[dst].handle(msg)
    node_a.send = send
    node_b.send = send


def test_get_unknown_code_not_found():
    node = ServerNode("n0")
    assert node.handle(Get("RA" + "A" * 43)) == NotFound()


def test_publish_then_get_roundtrip(nanopubs):
    node = ServerNode("n0")
    np = nanopubs[0]
    reply = node.handle(Publish(np))
    assert isinstance(reply, Ok)
    fetched = node.handle(Get(reply.code))
    assert isinstance(fetched, NanopubResponse)
    assert fetched.nanopub.to_document() == np.to_document()


def _tampered(np):
    """``np`` under its own URI with every literal object changed."""
    doc = np.to_document()
    tampered = QuadDocument(
        [
            Quad(q.subject, q.predicate, literal("evil"), q.graph)
            if q.object.is_literal
            else q
            for q in doc.quads
        ]
    )
    return Nanopublication(np.uri, tampered.quads)


def test_publish_tampered_is_rejected(nanopubs):
    node = ServerNode("n0")
    reply = node.handle(Publish(_tampered(nanopubs[0])))
    assert isinstance(reply, Rejected)
    assert len(node.store) == 0  # never stored


def test_sync_round_counts_a_tampered_body_it_drops(nanopubs):
    honest = ServerNode("a")
    honest.handle(Publish(nanopubs[0]))

    def send(dst, msg):
        if isinstance(msg, Get):
            return NanopubResponse(_tampered(nanopubs[0]))
        return honest.handle(msg)

    b = ServerNode("b", peers=["a"], send=send)
    b.handle(Publish(nanopubs[1]))
    before = b.store.journal_entries()
    assert b.rejected == 0
    assert b.sync_round() == 0
    assert b.rejected == 1
    assert b.store.journal_entries() == before


def test_malformed_message_rejected():
    node = ServerNode("n0")
    assert isinstance(node.handle("not a message"), Rejected)


def test_journal_paging(nanopubs):
    node = ServerNode("n0")
    for np in nanopubs[:12]:
        node.handle(Publish(np))
    page = node.handle(GetJournal(1, 5))
    assert isinstance(page, JournalPage)
    assert len(page.entries) == 5
    assert page.next_seq == 6
    page2 = node.handle(GetJournal(page.next_seq, 100))
    assert len(page2.entries) == 7


def test_peers_request():
    node = ServerNode("n0", peers=["n1", "n2"])
    assert node.handle(PeersRequest()) == PeerList(("n1", "n2"))


def test_sync_round_fixpoint_is_zero(nanopubs):
    a = ServerNode("a", peers=["b"])
    b = ServerNode("b", peers=["a"])
    wire_pair(a, b)
    for np in nanopubs[:5]:
        a.handle(Publish(np))
    assert b.sync_round() == 5
    assert b.sync_round() == 0  # fixpoint
    assert a.sync_round() == 0


def test_two_node_sync_fetches_one(nanopubs):
    a = ServerNode("a", peers=["b"])
    b = ServerNode("b", peers=["a"])
    wire_pair(a, b)
    a.handle(Publish(nanopubs[0]))
    assert b.sync_round() == 1
    assert b.store.get(nanopubs[0].uri[-45:]) is not None


def test_sync_pages_through_large_journals(nanopubs):
    a = ServerNode("a", peers=["b"], page_size=4)
    b = ServerNode("b", peers=["a"], page_size=4)
    wire_pair(a, b)
    for np in nanopubs:
        a.handle(Publish(np))
    assert b.sync_round() == len(nanopubs)
    assert set(b.store.codes()) == set(a.store.codes())


def test_unreachable_peer_keeps_cursor():
    a = ServerNode("a", peers=["b"])

    def send(dst, msg):
        raise Unreachable(dst)

    a.send = send
    assert a.sync_round() == 0
    assert a.cursors == {}


def test_undecodable_reply_skips_one_code_not_the_round(nanopubs):
    source = ServerNode("a")
    other = ServerNode("c")
    for np in nanopubs[:4]:
        source.handle(Publish(np))
    other.handle(Publish(nanopubs[4]))
    bad_code = nanopubs[1].uri[-45:]
    nodes = {"a": source, "c": other}

    def send(dst, msg):
        if isinstance(msg, Get) and msg.code == bad_code:
            raise ProtocolError("undecodable reply")
        return nodes[dst].handle(msg)

    b = ServerNode("b", peers=["a", "c"], send=send)
    assert b.sync_round() == 4
    assert b.store.get(bad_code) is None  # never stored
    assert set(b.store.codes()) == {np.uri[-45:] for np in nanopubs[:5]} - {bad_code}
    assert b.cursors == {"a": 5, "c": 2}  # advanced past the bad entry


def test_undecodable_journal_page_skips_that_peer_only(nanopubs):
    good = ServerNode("c")
    good.handle(Publish(nanopubs[0]))

    def send(dst, msg):
        if dst == "a":
            raise ProtocolError("undecodable reply")
        return good.handle(msg)

    b = ServerNode("b", peers=["a", "c"], send=send)
    assert b.sync_round() == 1
    assert b.cursors == {"c": 2}  # peer a is retried from the start


def test_client_retrieve_last_node_wins(nanopubs):
    np = nanopubs[0]
    empty1 = ServerNode("e1")
    empty2 = ServerNode("e2")
    holder = ServerNode("h")
    holder.handle(Publish(np))
    got = client_retrieve(np.uri[-45:], [empty1, empty2, holder])
    assert got.to_document() == np.to_document()


def test_client_retrieve_nowhere_raises(nanopubs):
    with pytest.raises(KeyError):
        client_retrieve(nanopubs[0].uri[-45:], [ServerNode("e1"), ServerNode("e2")])


class _Answering(ServerNode):
    """A node that answers every message with one reply."""

    def __init__(self, node_id, reply):
        super().__init__(node_id)
        self.reply = reply

    def handle(self, msg):
        return self.reply


def test_client_retrieve_accepts_only_the_code_asked(nanopubs):
    np = nanopubs[0]
    code = extract_artifact_code(np.uri)
    node = _Answering("x", NanopubResponse(np))  # answers every Get with one valid nanopub

    for asked in ("", code[-10:], code[1:]):
        with pytest.raises(KeyError):
            client_retrieve(asked, [node])
    assert client_retrieve(code, [node]) is np


def test_fifteen_node_complete_topology_syncs_in_two_rounds(corpus200):
    nanopubs = corpus200[:100]
    config = SimConfig(node_count=15, topology="complete", rounds=2, seed=0)
    sim = Simulation(config)
    workload = [PublishEvent(0, i % 15, np) for i, np in enumerate(nanopubs)]
    report = sim.run(workload)
    assert report.converged
    assert all(size == 100 for size in report.final_sizes.values())
    assert all(bits == "1" * 15 for bits in report.retrievability.values())


def test_ring_diameter_bound(corpus200):
    config = SimConfig(node_count=5, topology="ring", rounds=5, seed=0)
    report = run_simulation(config, [PublishEvent(0, 0, corpus200[0])])
    assert report.converged
    assert all(size == 1 for size in report.final_sizes.values())
    # a ring of 5 has diameter 2; replication completes within it
    assert max(report.lags.values()) <= 2


def test_single_node_simulation(corpus200):
    config = SimConfig(node_count=1, rounds=1, seed=0)
    workload = [PublishEvent(0, 0, np) for np in corpus200[:5]]
    report = run_simulation(config, workload)
    assert report.converged
    assert report.final_sizes["n00"] == 5


def test_identical_seed_identical_report(corpus200):
    config = SimConfig(
        node_count=6,
        topology="random",
        topology_p=0.6,
        topology_seed=3,
        latency="uniform:0.001:0.05",
        rounds=6,
        seed=42,
        failures=((2, 1, 3),),
    )
    workload = [PublishEvent(i % 3, i % 6, np) for i, np in enumerate(corpus200[:30])]
    texts = {Simulation(config).run(workload).to_text() for _ in range(3)}
    assert len(texts) == 1


def test_replication_report_is_pinned():
    # 5 nodes, 60 nanopubs, one crash, uniform latency with timeouts, short pages
    config = SimConfig(
        node_count=5,
        latency="uniform:0.001:0.05",
        timeout=0.045,
        rounds=8,
        seed=7,
        page_size=10,
        failures=((2, 2, 5),),
    )
    nanopubs = generate_corpus(CorpusConfig(count=60, seed=5))
    workload = [PublishEvent(i % 4, i % 5, np) for i, np in enumerate(nanopubs)]
    text = Simulation(config).run(workload).to_text()
    assert "published 54\ndropped 6\n" in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "d376635689ef8fa8e740cb0e20e98f9f51725a598832a4f8284b1e2b0f43b632"
    )


def test_failed_node_drops_publish_and_recovers(corpus200):
    config = SimConfig(node_count=3, topology="complete", rounds=6, seed=0, failures=((1, 0, 2),))
    workload = [
        PublishEvent(0, 1, corpus200[0]),  # dropped: node n01 is down
        PublishEvent(0, 0, corpus200[1]),
        PublishEvent(3, 1, corpus200[2]),  # accepted after recovery
    ]
    report = run_simulation(config, workload)
    assert len(report.dropped) == 1
    assert len(report.published) == 2
    assert report.converged
    assert all(size == 2 for size in report.final_sizes.values())


def test_retrieval_with_failures_when_any_live_node_holds(corpus200):
    config = SimConfig(node_count=5, topology="complete", rounds=3, seed=1, failures=((0, 2, 10), (4, 2, 10)))
    nanopubs = corpus200[:10]
    sim = Simulation(config)
    report = sim.run([PublishEvent(0, i % 5, np) for i, np in enumerate(nanopubs)])
    live = sim.live_nodes()
    assert len(live) == 3
    for np in nanopubs:
        code = np.uri[-45:]
        holders = [node for node in live if node.store.get(code) is not None]
        assert holders  # fully synced before the failures hit
        got = client_retrieve(code, live)
        assert got.uri == np.uri


def test_is_down_and_live_nodes_follow_every_outage_window(corpus200):
    # n01 is down, up, then down again; n03 is down from round 0 on
    failures = ((1, 1, 3), (3, 0, 9), (1, 5, 7))
    config = SimConfig(node_count=4, rounds=8, seed=0, failures=failures)
    sim = Simulation(config)
    sim.run([PublishEvent(0, 0, corpus200[0])])

    def scanned(node_id, rnd):
        return any(int(node_id[1:]) == idx and start <= rnd < end for idx, start, end in failures)

    node_ids = sim.node_ids()
    assert [nid for nid in node_ids if any(scanned(nid, r) for r in range(10))] == ["n01", "n03"]
    for rnd in range(10):
        assert [sim.is_down(nid, rnd) for nid in node_ids] == [scanned(nid, rnd) for nid in node_ids]
        assert sim.live_nodes(rnd) == [sim.nodes[nid] for nid in node_ids if not scanned(nid, rnd)]
    assert [sim.is_down("n01", r) for r in range(8)] == [False, True, True, False, False, True, True, False]
    sim.current_round = 4
    assert [sim.is_down(nid) for nid in node_ids] == [False, False, False, True]
    assert sim.live_nodes() == [sim.nodes[nid] for nid in ("n00", "n01", "n02")]  # round 3


# -- wire codec ---------------------------------------------------------------


def test_wire_roundtrip_every_kind(nanopubs):
    np = nanopubs[0]
    messages = [
        Publish(np),
        Get("RA" + "B" * 43),
        GetJournal(7, 50),
        PeersRequest(),
        Ok("RA" + "B" * 43),
        NanopubResponse(np),
        JournalPage(((1, "RA" + "B" * 43), (2, "RA" + "C" * 43)), 3),
        PeerList(("n1", "n2")),
        NotFound(),
        Rejected("because"),
    ]
    for msg in messages:
        decoded = decode_message(encode_message(msg))
        if isinstance(msg, (Publish, NanopubResponse)):
            assert decoded.nanopub.to_document() == msg.nanopub.to_document()
        else:
            assert decoded == msg


def test_wire_decode_garbage_raises():
    with pytest.raises(ProtocolError):
        decode_message(b"HELLO\n\n")
    with pytest.raises(ProtocolError):
        decode_message(b"\xff\xfe")


@pytest.mark.parametrize("count", [0, 2])
def test_wire_nanopub_body_must_hold_exactly_one(nanopubs, count):
    body = "".join(serialize_trig(np.to_document()) for np in nanopubs[:count])
    with pytest.raises(ProtocolError):
        decode_message(("KIND NANOPUB\n\n" + body).encode("utf-8"))


def test_tcp_undecodable_reply_is_protocol_error():
    class Garbage(socketserver.BaseRequestHandler):
        def handle(self):
            self.request.recv(65536)
            self.request.sendall(b"KIND NANOPUB\n\n<http://x.example/a> <broken")

    server = socketserver.TCPServer(("127.0.0.1", 0), Garbage)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        with pytest.raises(ProtocolError):
            tcp_request(f"{host}:{port}", Get("RA" + "A" * 43), timeout=5)
    finally:
        server.shutdown()
        server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_tcp_server_roundtrip(nanopubs):
    node = ServerNode("srv")
    server = NodeServer(node)
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        np = nanopubs[0]
        reply = tcp_request(server.address, Publish(np))
        assert isinstance(reply, Ok)
        fetched = tcp_request(server.address, Get(reply.code))
        assert isinstance(fetched, NanopubResponse)
        assert fetched.nanopub.to_document() == np.to_document()
        assert tcp_request(server.address, Get("RA" + "D" * 43)) == NotFound()
    finally:
        server.shutdown()
        server.server_close()


def test_tcp_unreachable():
    with pytest.raises(Unreachable):
        tcp_request("127.0.0.1:1", Get("RA" + "A" * 43), timeout=0.5)


def test_wire_bytes_are_pinned(nanopubs):
    np, code = nanopubs[0], "RA" + "B" * 43
    messages = [
        Publish(np),
        Get(code),
        GetJournal(7, 50),
        PeersRequest(),
        Ok(code),
        NanopubResponse(np),
        JournalPage(((1, code), (2, "RA" + "C" * 43)), 3),
        JournalPage((), 9),
        PeerList(("n1", "n2")),
        PeerList(()),
        NotFound(),
        Rejected("because"),
    ]
    wire = [encode_message(msg) for msg in messages]
    assert hashlib.sha256(b"".join(wire)).hexdigest() == (
        "031c3f96341e276f727bcee668303352e0c185cfa6c4ac62ad98c2e737ee383f"
    )
    for msg, data in zip(messages, wire):
        decoded = decode_message(data)
        assert type(decoded) is type(msg)
        if isinstance(msg, (Publish, NanopubResponse)):
            assert decoded.nanopub.to_document() == msg.nanopub.to_document()
        else:
            assert decoded == msg


def _invalid_nanopub_body(np):
    # the assertion graph emptied: parses as TriG, fails the container rules
    doc = QuadDocument(q for q in np.quads if q.graph.value != np.assertion.iri)
    return "KIND NANOPUB\n\n" + serialize_trig(doc)


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda nps: b"\xff\xfe", id="not-utf8"),
        pytest.param(lambda nps: b"", id="empty"),
        pytest.param(lambda nps: "CODE x\n\n", id="no-kind"),
        pytest.param(lambda nps: "KIND HELLO\n\n", id="unknown-kind"),
        pytest.param(lambda nps: "KIND GET\n\n", id="missing-code"),
        pytest.param(lambda nps: "KIND GET\nCODE a\nCODE b\n\n", id="duplicate-code"),
        pytest.param(lambda nps: "KIND GET_JOURNAL\nFROM x\nPAGE_SIZE 1\n\n", id="bad-from"),
        pytest.param(lambda nps: "KIND GET_JOURNAL\nFROM 1\nPAGE_SIZE y\n\n", id="bad-page-size"),
        pytest.param(lambda nps: "KIND JOURNAL_PAGE\nNEXT_SEQ z\n\n", id="bad-next-seq"),
        pytest.param(lambda nps: "KIND JOURNAL_PAGE\nNEXT_SEQ 1\nENTRY x y\n\n", id="bad-entry-seq"),
        pytest.param(lambda nps: "KIND GET_JOURNAL\nFROM \u0663\nPAGE_SIZE 1\n\n", id="arabic-indic-from"),
        pytest.param(lambda nps: "KIND GET_JOURNAL\nFROM 1\nPAGE_SIZE -5\n\n", id="negative-page-size"),
        pytest.param(lambda nps: "KIND GET_JOURNAL\nFROM  1\nPAGE_SIZE 1_0\n\n", id="spaced-or-underscored"),
        pytest.param(lambda nps: "KIND JOURNAL_PAGE\nNEXT_SEQ +2\n\n", id="signed-next-seq"),
        pytest.param(lambda nps: "KIND JOURNAL_PAGE\nNEXT_SEQ 2\nENTRY \uff11 y\n\n", id="fullwidth-entry-seq"),
        pytest.param(lambda nps: "KIND NANOPUB\n\n<broken", id="bad-trig"),
        pytest.param(lambda nps: _invalid_nanopub_body(nps[0]), id="invalid-nanopub"),
        pytest.param(lambda nps: "KIND PUBLISH\n\n", id="no-nanopub"),
        pytest.param(
            lambda nps: "KIND PUBLISH\n\n" + serialize_trig(nps[0]) + serialize_trig(nps[1]),
            id="two-nanopubs",
        ),
    ],
)
def test_wire_decode_raises_only_protocol_error(nanopubs, make):
    data = make(nanopubs)
    with pytest.raises(ProtocolError):
        decode_message(data if isinstance(data, bytes) else data.encode("utf-8"))


@pytest.mark.parametrize(
    "msg",
    [
        Ok("a\n\nKIND OK"),
        Get("a\rb"),
        Get("trailing\n"),
        PeerList(("n1", "a\nCODE b")),
        JournalPage(((1, "RA\u2028x"),), 2),
    ],
)
def test_wire_encode_refuses_value_spanning_lines(msg):
    with pytest.raises(ProtocolError, match="spans lines"):
        encode_message(msg)


def test_wire_rejection_reason_is_sent_on_one_line():
    reply = decode_message(encode_message(Rejected("a\n\nKIND OK\r\u2028")))
    assert reply == Rejected("a\\n\\nKIND OK\\r\\u2028")


def test_sync_round_stores_get_reply_only_for_the_code_asked(nanopubs):
    wanted, other = nanopubs[0], nanopubs[1]
    code = wanted.uri[-45:]
    honest = ServerNode("a")
    honest.handle(Publish(wanted))
    lying = True

    def send(dst, msg):
        if lying and isinstance(msg, Get):
            return NanopubResponse(other)  # valid, but not the one asked for
        return honest.handle(msg)

    b = ServerNode("b", peers=["a"], send=send)
    assert b.sync_round() == 0
    assert len(b.store) == 0
    assert b.cursors == {}  # the page is asked for again next round
    lying = False
    assert b.sync_round() == 1
    assert b.store.get(code) is not None
    assert b.cursors == {"a": 2}


def test_sync_round_asks_only_for_the_codes_it_lacks_in_page_order(nanopubs):
    a = ServerNode("a")
    for np in nanopubs[:8]:
        a.handle(Publish(np))
    b = ServerNode("b", peers=["a"], page_size=8)
    held = {1, 2, 5}
    for i in sorted(held):
        b.handle(Publish(nanopubs[i]))
    asked = []

    def send(dst, msg):
        if isinstance(msg, Get):
            asked.append(msg.code)
        return a.handle(msg)

    b.send = send
    lacked = [np.uri[-45:] for i, np in enumerate(nanopubs[:8]) if i not in held]
    assert b.sync_round() == len(lacked)
    assert asked == lacked
    assert set(b.store.codes()) == set(a.store.codes())


def test_sync_round_does_not_count_a_code_stored_meanwhile(nanopubs):
    a = ServerNode("a")
    for np in nanopubs[:3]:
        a.handle(Publish(np))
    b = ServerNode("b", peers=["a"])
    raced = nanopubs[1]

    def send(dst, msg):
        reply = a.handle(msg)
        if isinstance(msg, Get) and msg.code == raced.uri[-45:]:
            b.handle(Publish(raced))  # a server thread stores it between the page and the Get
        return reply

    b.send = send
    assert b.sync_round() == 2
    assert len(b.store) == 3
    assert [code for _, code in b.store.journal_entries()].count(raced.uri[-45:]) == 1
    assert b.rejected == 0


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def test_tcp_server_rejects_message_over_cap(monkeypatch):
    monkeypatch.setattr(network, "MAX_MESSAGE_BYTES", 1024)
    server = NodeServer(ServerNode("srv"))
    thread = _start(server)
    try:
        reply = tcp_request(server.address, Get("RA" + "A" * 2000), timeout=5)
        assert isinstance(reply, Rejected)
        assert "1024" in reply.reason
        assert tcp_request(server.address, Get("RA" + "A" * 43), timeout=5) == NotFound()
    finally:
        _stop(server, thread)


@pytest.mark.parametrize("size", [200_000, 2_000_000])
def test_tcp_server_rejects_oversize_request_larger_than_socket_buffers(monkeypatch, size):
    # the client is still sending when the server stops reading at the cap
    monkeypatch.setattr(network, "MAX_MESSAGE_BYTES", 1024)
    server = NodeServer(ServerNode("srv"))
    thread = _start(server)
    try:
        request = Get("RA" + "A" * size)
        replies = [tcp_request(server.address, request, timeout=5) for _ in range(50)]
        assert all(isinstance(reply, Rejected) for reply in replies)
    finally:
        _stop(server, thread)



def test_tcp_server_reads_all_of_a_request_up_to_twice_the_cap(monkeypatch):
    # the node discards the rest of a refused request instead of closing
    # on unread bytes, so the client's send never breaks
    monkeypatch.setattr(network, "MAX_MESSAGE_BYTES", 64 * 1024)
    server = NodeServer(ServerNode("srv"))
    thread = _start(server)
    host, port = server.server_address[:2]
    request = encode_message(Get("RA" + "A" * 150_000))
    try:
        for _ in range(50):
            with socket.create_connection((host, port), timeout=5) as conn:
                conn.sendall(request)
                conn.shutdown(socket.SHUT_WR)
                assert isinstance(decode_message(network._read_to_eof(conn)), Rejected)
    finally:
        _stop(server, thread)


def test_tcp_request_keeps_rejected_sent_before_a_reset():
    # a node that stops reading answers REJECTED, then its close with
    # unread bytes resets the connection
    listener = socket.create_server(("127.0.0.1", 0))
    host, port = listener.getsockname()[:2]

    def refuse(count):
        for _ in range(count):
            conn, _ = listener.accept()
            with conn:
                conn.recv(16)
                conn.sendall(encode_message(Rejected("too large")))
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

    thread = threading.Thread(target=refuse, args=(20,), daemon=True)
    thread.start()
    try:
        for _ in range(20):
            reply = tcp_request(f"{host}:{port}", Get("RA" + "A" * 1000), timeout=5)
            assert reply == Rejected("too large")
    finally:
        thread.join(timeout=5)
        listener.close()


def test_tcp_server_drops_silent_client(monkeypatch):
    monkeypatch.setattr(network, "SERVER_TIMEOUT", 0.5)
    server = NodeServer(ServerNode("srv"))
    thread = _start(server)
    try:
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            started = time.monotonic()
            assert conn.recv(65536) == b""  # closed, no reply
            assert time.monotonic() - started < 4
    finally:
        _stop(server, thread)


def test_tcp_request_stops_reading_endless_reply(monkeypatch):
    monkeypatch.setattr(network, "MAX_MESSAGE_BYTES", 4096)

    class Endless(socketserver.BaseRequestHandler):
        # a decodable PEER_LIST far past the cap: only the cap can refuse it
        def handle(self):
            self.request.recv(65536)
            try:
                self.request.sendall(b"KIND PEER_LIST\n")
                for _ in range(4096):
                    self.request.sendall(b"PEER n\n" * 128)
                self.request.sendall(b"\n")
            except OSError:
                pass  # the client hung up

    server = socketserver.TCPServer(("127.0.0.1", 0), Endless)
    thread = _start(server)
    try:
        host, port = server.server_address[:2]
        with pytest.raises(ProtocolError, match="4096"):
            tcp_request(f"{host}:{port}", PeersRequest(), timeout=5)
    finally:
        _stop(server, thread)


def _hostile(np):
    """``np`` renamed under a base that ends in neither '/', '#' nor '.',
    keeping its code: a nanopub whose URI is no trusty URI."""
    own = np.uri
    uri = own[:-45] + "x" + own[-45:]

    def swap(term):
        if term.is_iri and term.value.startswith(own):
            return iri(uri + term.value[len(own) :])
        return term

    return Nanopublication(
        uri, (Quad(swap(q.subject), swap(q.predicate), swap(q.object), swap(q.graph)) for q in np.quads)
    )


def test_sync_round_skips_a_reply_that_is_no_trusty_uri(nanopubs):
    code = nanopubs[0].uri[-45:]
    honest = ServerNode("c")
    honest.handle(Publish(nanopubs[1]))

    def send(dst, msg):
        if dst == "c":
            return honest.handle(msg)
        if isinstance(msg, GetJournal):
            return JournalPage(((1, code),), 2)
        return NanopubResponse(_hostile(nanopubs[0]))

    b = ServerNode("b", peers=["h", "c"], send=send)
    assert b.sync_round() == 1
    assert b.store.codes() == [nanopubs[1].uri[-45:]]
    assert b.cursors == {"h": 2, "c": 2}  # past the hostile entry


def test_publish_of_no_trusty_uri_is_rejected(nanopubs):
    node = ServerNode("n0")
    assert isinstance(node.handle(Publish(_hostile(nanopubs[0]))), Rejected)
    assert len(node.store) == 0


def test_client_retrieve_skips_a_copy_that_is_no_trusty_uri(nanopubs):
    np = nanopubs[0]
    honest = ServerNode("c")
    honest.handle(Publish(np))
    hostile = _Answering("h", NanopubResponse(_hostile(np)))
    assert client_retrieve(np.uri[-45:], [hostile, honest]) is np


def test_sync_round_stops_on_page_that_does_not_advance(nanopubs):
    good = ServerNode("c")
    good.handle(Publish(nanopubs[0]))
    calls = []

    def send(dst, msg):
        calls.append((dst, msg))
        assert len(calls) < 50, "sync_round kept asking"
        if dst == "c":
            return good.handle(msg)
        if isinstance(msg, GetJournal):  # a full page that points back at the cursor
            entries = tuple((msg.from_seq + i, "RA" + "Z" * 43) for i in range(msg.page_size))
            return JournalPage(entries, msg.from_seq)
        return NotFound()

    b = ServerNode("b", peers=["a", "c"], send=send, page_size=2)
    assert b.sync_round() == 1
    assert b.cursors == {"c": 2}  # peer a stays where it was


def test_sync_round_ends_when_a_peer_serves_pages_without_end(nanopubs):
    # a peer whose journal never ends and that holds none of the codes it lists
    good = ServerNode("c")
    good.handle(Publish(nanopubs[0]))
    sends, asked = [], []

    def send(dst, msg):
        sends.append(dst)
        if len(sends) > 50_000:
            raise AssertionError("sync_round kept asking")
        if dst == "c":
            return good.handle(msg)
        if isinstance(msg, GetJournal):  # a full page of fresh codes that advances the cursor
            seqs = range(msg.from_seq, msg.from_seq + msg.page_size)
            return JournalPage(tuple((seq, f"RA{seq:043d}") for seq in seqs), seqs.stop)
        asked.append(msg.code)
        return NotFound()

    b = ServerNode("b", peers=["a", "c"], send=send)
    assert b.sync_round() == 1
    assert "c" in sends and b.cursors["c"] == 2
    assert sends.count("a") == network.SYNC_PAGES_PER_PEER * (1 + b.page_size)
    cursor = b.cursors["a"]
    assert cursor == 1 + network.SYNC_PAGES_PER_PEER * b.page_size
    assert asked == [f"RA{seq:043d}" for seq in range(1, cursor)]
    assert b.behind == {"a"}
    b.sync_round()
    assert b.cursors["a"] > cursor  # and the next round resumes there


def test_sync_round_reads_at_most_its_page_budget_from_one_peer(nanopubs):
    code = extract_artifact_code(nanopubs[0].uri)
    pages = []

    def send(dst, msg):  # full pages, without end, of a code b holds
        pages.append(msg)
        assert len(pages) < 10_000, "sync_round kept asking"
        seqs = range(msg.from_seq, msg.from_seq + msg.page_size)
        return JournalPage(tuple((seq, code) for seq in seqs), seqs.stop)

    b = ServerNode("b", peers=["a"], send=send, page_size=2)
    b.handle(Publish(nanopubs[0]))
    assert b.sync_round() == 0
    assert len(pages) == network.SYNC_PAGES_PER_PEER
    assert b.cursors == {"a": 1 + 2 * network.SYNC_PAGES_PER_PEER}
    assert b.behind == {"a"}


def test_sync_round_refuses_a_page_longer_than_page_size(nanopubs):
    good = ServerNode("c")
    good.handle(Publish(nanopubs[0]))
    sends = []

    def send(dst, msg):
        sends.append((dst, msg))
        assert len(sends) < 1000, "sync_round kept asking"
        if dst == "c":
            return good.handle(msg)
        seqs = range(msg.from_seq, msg.from_seq + msg.page_size + 1)  # one entry too many
        return JournalPage(tuple((seq, f"RA{seq:043d}") for seq in seqs), seqs.stop)

    b = ServerNode("b", peers=["a", "c"], send=send, page_size=3)
    assert b.sync_round() == 1
    assert [msg for dst, msg in sends if dst == "a"] == [GetJournal(1, 3)]  # no Get
    assert b.cursors == {"c": 2} and b.behind == set()


def test_sync_round_catches_up_over_rounds_and_clears_behind(nanopubs, monkeypatch):
    monkeypatch.setattr(network, "SYNC_PAGES_PER_PEER", 2)
    a = ServerNode("a")
    for np in nanopubs[:5]:
        a.handle(Publish(np))
    b = ServerNode("b", peers=["a"], send=lambda dst, msg: a.handle(msg), page_size=1)
    rounds = []
    for _ in range(3):
        rounds.append((b.sync_round(), set(b.behind)))
    assert rounds == [(2, {"a"}), (2, {"a"}), (1, set())]
    assert len(b.store) == 5


def test_sync_loop_sleeps_only_when_no_peer_is_behind(nanopubs, monkeypatch):
    from nanokit.cli import sync_loop

    monkeypatch.setattr(network, "SYNC_PAGES_PER_PEER", 2)
    a = ServerNode("a")
    for np in nanopubs[:5]:
        a.handle(Publish(np))
    b = ServerNode("b", peers=["a"], send=lambda dst, msg: a.handle(msg), page_size=1)
    slept = []

    class Stop(Exception):
        pass

    def sleep(seconds):
        slept.append((seconds, len(b.store)))
        if len(slept) == 2:
            raise Stop

    with pytest.raises(Stop):
        sync_loop(b, 10.0, sleep=sleep)
    assert slept == [(10.0, 0), (10.0, 5)]  # three rounds, one sleep before and one after


def test_tcp_server_answers_rejection_of_line_breaking_input_on_one_line():
    server = NodeServer(ServerNode("srv"))
    thread = _start(server)
    try:
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as conn:
            conn.sendall(b"KIND PUBLISH\n\n<http://g> { <http://s> <http://p> <\\u000A> . }")
            conn.shutdown(socket.SHUT_WR)
            reply = decode_message(network._read_to_eof(conn))
        assert reply == Rejected("body: relative IRI not allowed: <\\n> (line 1, column 36)")
    finally:
        _stop(server, thread)


@pytest.mark.parametrize(
    "address, expected",
    [
        ("localhost:8765", ("localhost", 8765)),
        ("127.0.0.1:1", ("127.0.0.1", 1)),
        ("node.example:65535", ("node.example", 65535)),
        ("::1:8765", ("::1", 8765)),
        ("[::1]:8765", ("::1", 8765)),
        ("[2001:db8::1]:80", ("2001:db8::1", 80)),
    ],
)
def test_parse_address_takes_host_and_port(address, expected):
    assert parse_address(address) == expected


@pytest.mark.parametrize(
    "address",
    ["localhost", "localhost:", ":8765", "host:0", "host:65536", "host:99999", "host:8x",
     "host:+80", "host: 80", "host:\u0668\u0660", pytest.param("host:" + "9" * 5000, id="long"),
     "[::1]", "[]:80", "[::1:80"],
)
def test_parse_address_refuses_a_bad_port_or_no_host(address):
    with pytest.raises(ValueError):
        parse_address(address)


@pytest.mark.parametrize("address", ["localhost", "127.0.0.1:99999"])
def test_tcp_request_to_a_bad_address_is_unreachable(address):
    with pytest.raises(Unreachable):
        tcp_request(address, Get("RA" + "A" * 43), timeout=0.5)


def test_sync_round_goes_on_past_a_bad_peer_address(nanopubs):
    source = ServerNode("srv")
    source.handle(Publish(nanopubs[0]))
    server = NodeServer(source)
    thread = _start(server)
    try:
        node = ServerNode("self", peers=["localhost", server.address], send=tcp_request)
        assert node.sync_round() == 1
        assert node.store.get(extract_artifact_code(nanopubs[0].uri)) is not None
    finally:
        _stop(server, thread)
