"""The bounded server core that ``NodeServer`` and ``ApiServer`` share:
reused workers, the bound on them and the whole-request deadline, on
both surfaces, and its one error policy.  The tests of the bound run the
core at two workers."""

import errno
import http.client
import socket
import struct
import sys
import threading
import time

import pytest

from nanokit import network
from nanokit.api import ApiServer, ApiService
from nanokit.network import Get, NodeServer, NotFound, ServerNode, decode_message, encode_message
from nanokit.store import NanopubStore

from conftest import needs_ipv6


def _decoded(data):
    try:
        return decode_message(data)
    except network.ProtocolError:
        return None


class Wire:
    request = encode_message(Get("RA" + "A" * 43))
    trickled = b"KIND GET\nCODE " + b"A" * 60

    @staticmethod
    def server():
        return NodeServer(ServerNode("srv"))

    @staticmethod
    def answered(reply):
        return _decoded(reply) == NotFound()

    @staticmethod
    def server_on(port):
        return NodeServer(ServerNode("srv"), port=port)

    @staticmethod
    def break_handling(monkeypatch):
        def full_disk(self, msg):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(ServerNode, "handle", full_disk)


class Http:
    request = b"GET /api/get_all_indexes HTTP/1.0\r\n\r\n"
    trickled = b"GET /api/get_all_indexes?" + b"a" * 60

    @staticmethod
    def server():
        return ApiServer(ApiService(NanopubStore()))

    @staticmethod
    def answered(reply):
        return reply.startswith(b"HTTP/1.0 200 ")

    @staticmethod
    def server_on(port):
        return ApiServer(ApiService(NanopubStore()), port=port)

    @staticmethod
    def break_handling(monkeypatch):
        def broken(self, page=1, page_size=None):
            raise RuntimeError("broken")

        monkeypatch.setattr(ApiService, "get_all_indexes", broken)


SURFACES = [pytest.param(Wire, id="wire"), pytest.param(Http, id="http")]


@pytest.fixture
def bound(monkeypatch):
    monkeypatch.setattr(network, "SLOTS", 2)


def _start(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def _stop(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def exchange(address, data):
    """Send ``data``, shut down writing, and read until the server closes:
    the bytes that came before the close or a reset."""
    received = bytearray()
    with socket.create_connection(address, timeout=5) as conn:
        conn.sendall(data)
        conn.shutdown(socket.SHUT_WR)
        try:
            while chunk := conn.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass
    return bytes(received)


@pytest.mark.parametrize("surface", SURFACES)
def test_a_connection_past_the_bound_waits_for_a_free_worker(monkeypatch, bound, surface):
    monkeypatch.setattr(network, "SERVER_TIMEOUT", 1.0)
    server = surface.server()
    thread = _start(server)
    address = server.server_address[:2]
    try:
        silent = [socket.create_connection(address, timeout=5) for _ in range(2)]
        try:
            started = time.monotonic()
            reply = exchange(address, surface.request)
            waited = time.monotonic() - started
            assert surface.answered(reply), reply
            assert 0.5 < waited < 3  # served once the silent two are dropped
            for conn in silent:
                assert conn.recv(65536) == b""  # dropped at the deadline, no reply
        finally:
            for conn in silent:
                conn.close()
    finally:
        _stop(server, thread)


@pytest.mark.parametrize("surface", SURFACES)
def test_a_busy_port_raises_the_oserror(surface):
    with socket.create_server(("127.0.0.1", 0)) as busy:
        with pytest.raises(OSError) as raised:
            surface.server_on(busy.getsockname()[1])
    assert raised.value.errno == errno.EADDRINUSE


def _recording_errors(server):
    errors = []
    server.handle_error = lambda request, client_address: errors.append(client_address)
    return errors


@pytest.mark.parametrize("surface", SURFACES)
def test_a_failed_exchange_reaches_handle_error_once_without_a_reply(monkeypatch, surface):
    surface.break_handling(monkeypatch)
    server = surface.server()
    errors = _recording_errors(server)
    thread = _start(server)
    try:
        assert exchange(server.server_address[:2], surface.request) == b""
    finally:
        _stop(server, thread)
    assert len(errors) == 1


@pytest.mark.parametrize("surface", SURFACES)
def test_a_client_that_resets_mid_request_is_dropped_silently(surface):
    server = surface.server()
    errors = _recording_errors(server)
    thread = _start(server)
    address = server.server_address[:2]
    try:
        conn = socket.create_connection(address, timeout=5)
        conn.sendall(surface.trickled)
        time.sleep(0.1)  # taken up, and waiting for the rest
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()  # sends a reset
        assert surface.answered(exchange(address, surface.request))
    finally:
        _stop(server, thread)
    assert errors == []


def trickle(conn, data, limit=6.0):
    """Send ``data`` one byte every 0.2 s until the server ends the
    exchange: the seconds that took and what the server sent, or None if
    it kept the client for ``limit`` seconds."""
    started = time.monotonic()
    conn.settimeout(0.2)
    for byte in data:
        if time.monotonic() - started > limit:
            break
        try:
            conn.sendall(bytes([byte]))
            received = conn.recv(65536)
        except TimeoutError:
            continue
        except OSError:  # reset or broken: dropped
            received = b""
        return time.monotonic() - started, received
    return time.monotonic() - started, None


@pytest.mark.parametrize("surface", SURFACES)
def test_listen_backlog_admits_a_connect_per_slot(surface):
    # not serving, so every connect waits in the kernel's accept queue
    server = surface.server()
    admitted = 0
    conns = []
    try:
        for _ in range(network.SLOTS):
            try:
                conns.append(socket.create_connection(server.server_address, timeout=0.3))
            except OSError:
                continue
            admitted += 1
    finally:
        for conn in conns:
            conn.close()
        server.server_close()
    assert admitted == network.SLOTS


@pytest.mark.parametrize("surface", SURFACES)
def test_drops_a_trickling_client_at_the_deadline(monkeypatch, surface):
    monkeypatch.setattr(network, "SERVER_TIMEOUT", 1.0)
    server = surface.server()
    thread = _start(server)
    try:
        with socket.create_connection(server.server_address[:2], timeout=5) as conn:
            elapsed, received = trickle(conn, surface.trickled)
        assert received == b"", received  # dropped without a reply
        assert elapsed < 2.5
        assert surface.answered(exchange(server.server_address[:2], surface.request))
    finally:
        _stop(server, thread)


@pytest.mark.parametrize("surface", SURFACES)
def test_shutdown_returns_at_once(surface):
    server = surface.server()
    thread = _start(server)
    time.sleep(0.05)  # the dispatcher is waiting for a connection
    started = time.monotonic()
    server.shutdown()
    assert time.monotonic() - started < 0.1
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("surface", SURFACES)
def test_shutdown_of_a_server_never_served_returns_at_once(surface):
    server = surface.server()
    stopper = threading.Thread(target=server.shutdown, daemon=True)
    stopper.start()
    stopper.join(timeout=2)
    thread = _start(server)
    try:
        assert not stopper.is_alive()
        # and leaves nothing behind that would end a later serve_forever
        thread.join(timeout=0.2)
        assert thread.is_alive()
        assert surface.answered(exchange(server.server_address[:2], surface.request))
    finally:
        _stop(server, thread)


@needs_ipv6
def test_a_node_answers_on_ipv6():
    server = NodeServer(ServerNode("srv"), host="::1")
    thread = _start(server)
    try:
        assert server.address == f"[::1]:{server.server_address[1]}"
        assert network.tcp_request(server.address, Get("RA" + "A" * 43)) == NotFound()
    finally:
        _stop(server, thread)


@needs_ipv6
def test_the_api_answers_a_get_on_ipv6():
    server = ApiServer(ApiService(NanopubStore()), host="::1")
    thread = _start(server)
    try:
        assert server.address == f"[::1]:{server.server_address[1]}"
        conn = http.client.HTTPConnection(server.address, timeout=5)
        try:
            conn.request("GET", "/api/get_all_indexes")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
        finally:
            conn.close()
    finally:
        _stop(server, thread)


@pytest.mark.parametrize("surface", SURFACES)
def test_cuts_a_silent_client_at_its_deadline(monkeypatch, surface):
    monkeypatch.setattr(network, "SERVER_TIMEOUT", 0.7)  # off any 0.5 s polling grid
    server = surface.server()
    thread = _start(server)
    try:
        with socket.create_connection(server.server_address[:2], timeout=5) as conn:
            started = time.monotonic()
            assert conn.recv(65536) == b""  # dropped, no reply
            elapsed = time.monotonic() - started
        assert 0.6 < elapsed < 0.9
    finally:
        _stop(server, thread)


@pytest.mark.parametrize("surface", SURFACES)
def test_close_leaves_no_worker_alive(bound, surface):
    before = set(threading.enumerate())
    server = surface.server()
    thread = _start(server)
    address = server.server_address[:2]
    for _ in range(3):
        assert surface.answered(exchange(address, surface.request))
    silent = [socket.create_connection(address, timeout=5) for _ in range(2)]
    waiting = socket.create_connection(address, timeout=5)
    try:
        waiting.sendall(surface.request)
        waiting.shutdown(socket.SHUT_WR)
        time.sleep(0.2)  # accepted, and queued behind the silent two
        _stop(server, thread)
        for conn in silent + [waiting]:
            try:
                assert conn.recv(65536) == b""  # closed without a reply
            except ConnectionResetError:
                pass
    finally:
        for conn in silent + [waiting]:
            conn.close()
    started = [t for t in threading.enumerate() if t not in before]
    for worker in started:
        worker.join(timeout=5)
    assert not [t for t in started if t.is_alive()]


@pytest.mark.parametrize("surface", SURFACES)
def test_workers_are_reused_and_never_more_than_the_bound(bound, surface):
    server = surface.server()
    handlers = []
    run_exchange = server.exchange

    def recording(conn):
        handlers.append(threading.current_thread())
        return run_exchange(conn)

    server.exchange = recording
    thread = _start(server)
    address = server.server_address[:2]
    try:
        for _ in range(10):  # one client, one request at a time
            assert surface.answered(exchange(address, surface.request))
        assert len(set(handlers)) <= 2

        replies = []

        def client():
            for _ in range(10):
                replies.append(exchange(address, surface.request))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [threading.Thread(target=client) for _ in range(4)]
            for c in clients:
                c.start()
            for c in clients:
                c.join(timeout=60)
            assert not any(c.is_alive() for c in clients)
        finally:
            sys.setswitchinterval(interval)
        assert len(replies) == 40
        assert all(surface.answered(r) for r in replies)
        assert len(set(handlers)) <= 2
    finally:
        _stop(server, thread)
