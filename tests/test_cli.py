import hashlib
import json
import os
import socket
from pathlib import Path

import pytest

from nanokit.api import ApiServer
from nanokit.cli import main
from nanokit.network import NodeServer, ServerCore
from nanokit.rdf import parse_trig
from nanokit.store import NanopubStore, candidate_uris
from nanokit.trusty import verify

from conftest import FIXTURES, needs_ipv6


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_verify_minted_fixture(capsys):
    status, out, _ = run(capsys, "verify", str(FIXTURES / "birddiet.trig"))
    assert status == 0
    assert out.strip() == "RAOUCV1Y0V-zazLk95FSe1TSGK8vif-Md4Ae5aiGWW7Hz"


def test_verify_tampered_fixture(tmp_path, capsys):
    text = (FIXTURES / "birddiet.trig").read_text(encoding="utf-8")
    tampered = tmp_path / "tampered.trig"
    tampered.write_text(text.replace('"1985"', '"1986"'), encoding="utf-8")
    status, _, err = run(capsys, "verify", str(tampered))
    assert status == 1
    assert "verification failed" in err


def test_validate_valid_and_invalid(capsys):
    status, out, _ = run(capsys, "validate", str(FIXTURES / "birddiet.trig"))
    assert status == 0
    assert out.startswith("valid ")

    bad = FIXTURES / "invalid" / "empty-assertion-1.trig"
    status, out, _ = run(capsys, "validate", str(bad), "--format", "tsv")
    assert status == 1
    assert any(line.startswith("empty-assertion\t") for line in out.splitlines())


def test_mint_writes_minted_file(tmp_path, capsys):
    source = tmp_path / "pre.trig"
    source.write_text(
        """
<http://m.example/thing.#head> {
  <http://m.example/thing.> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://www.nanopub.org/nschema#Nanopublication> .
  <http://m.example/thing.> <http://www.nanopub.org/nschema#hasAssertion> <http://m.example/thing.#assertion> .
  <http://m.example/thing.> <http://www.nanopub.org/nschema#hasProvenance> <http://m.example/thing.#provenance> .
  <http://m.example/thing.> <http://www.nanopub.org/nschema#hasPublicationInfo> <http://m.example/thing.#pubinfo> .
}
<http://m.example/thing.#assertion> {
  <http://m.example/a> <http://m.example/p> "v" .
}
<http://m.example/thing.#provenance> {
  <http://m.example/thing.#assertion> <http://www.w3.org/ns/prov#wasDerivedFrom> <http://m.example/source> .
}
<http://m.example/thing.#pubinfo> {
  <http://m.example/thing.> <http://purl.org/dc/terms/created> "2018-01-01T00:00:00Z" .
}
""",
        encoding="utf-8",
    )
    out_file = tmp_path / "minted.trig"
    status, out, _ = run(
        capsys, "mint", str(source), "--base", "http://m.example/thing.", "--out", str(out_file)
    )
    assert status == 0
    minted_uri = out.strip()
    doc = parse_trig(out_file.read_text(encoding="utf-8"))
    assert verify(doc, minted_uri)
    # minted output verifies via the verify subcommand too
    status, out, _ = run(capsys, "verify", str(out_file))
    assert status == 0


def test_store_ingest_get_find(tmp_path, capsys):
    store_dir = tmp_path / "store"
    gen_dir = tmp_path / "gen"
    status, out, _ = run(capsys, "gen-corpus", "--out", str(gen_dir), "--count", "12", "--seed", "3")
    assert status == 0

    files = sorted(str(p) for p in gen_dir.glob("*.trig"))
    status, out, _ = run(capsys, "store", "ingest", "--store-dir", str(store_dir), *files)
    assert status == 0
    assert "ingested 12" in out

    some_code = files[0].rsplit("/", 1)[-1][:-5]
    status, out, _ = run(capsys, "store", "get", "--store-dir", str(store_dir), some_code)
    assert status == 0
    doc = parse_trig(out)
    assert candidate_uris(doc)[0].endswith(some_code)

    status, out, _ = run(
        capsys, "store", "find", "--store-dir", str(store_dir),
        "--pred", "http://purl.org/dc/terms/license",
    )
    assert status == 0
    listed = out.splitlines()
    # thin shell: identical to the library call
    store = NanopubStore(store_dir)
    from nanokit.rdf import QuadPattern, iri

    expected = store.find_by_pattern(QuadPattern(predicate=iri("http://purl.org/dc/terms/license")))
    assert listed == expected


def test_store_get_missing_is_domain_error(tmp_path, capsys):
    status, _, err = run(
        capsys, "store", "get", "--store-dir", str(tmp_path / "s"), "RA" + "A" * 43
    )
    assert status == 1
    assert "error" in err


def test_index_build_expand_list(tmp_path, capsys):
    store_dir = tmp_path / "store"
    gen_dir = tmp_path / "gen"
    run(capsys, "gen-corpus", "--out", str(gen_dir), "--count", "10", "--seed", "5")
    files = sorted(str(p) for p in gen_dir.glob("*.trig"))
    run(capsys, "store", "ingest", "--store-dir", str(store_dir), *files)

    elements_file = tmp_path / "elements.txt"
    uris = ["http://example.org/np/" + p.rsplit("/", 1)[-1][:-5] for p in files]
    elements_file.write_text("\n".join(uris[:6]) + "\n", encoding="utf-8")

    status, out, _ = run(
        capsys, "index", "build", "--store-dir", str(store_dir),
        "--elements", str(elements_file),
        "--title", "First six", "--created", "2018-05-01T00:00:00Z",
        "--capacity", "4",
    )
    assert status == 0
    head_uri = out.strip()

    status, out, _ = run(
        capsys, "index", "expand", "--store-dir", str(store_dir), "--uri", head_uri
    )
    assert status == 0
    assert sorted(out.splitlines()) == sorted(uris[:6])

    add_file = tmp_path / "more.txt"
    add_file.write_text("\n".join(uris[6:]) + "\n", encoding="utf-8")
    status, out, _ = run(
        capsys, "index", "append", "--store-dir", str(store_dir),
        "--previous", head_uri, "--add", str(add_file),
        "--title", "All ten", "--created", "2018-06-01T00:00:00Z",
        "--capacity", "4",
    )
    assert status == 0
    v2_uri = out.strip()

    status, out, _ = run(
        capsys, "index", "expand", "--store-dir", str(store_dir), "--uri", v2_uri
    )
    assert sorted(out.splitlines()) == sorted(uris)

    status, out, _ = run(
        capsys, "index", "list", "--store-dir", str(store_dir), "--format", "tsv"
    )
    assert status == 0
    rows = [line.split("\t") for line in out.splitlines()]
    assert [r[1] for r in rows] == ["First six", "All ten"]
    assert [r[4] for r in rows] == ["6", "10"]


def test_index_append_rejects_capacity_below_one(tmp_path, capsys):
    store_dir = tmp_path / "store"
    gen_dir = tmp_path / "gen"
    run(capsys, "gen-corpus", "--out", str(gen_dir), "--count", "35", "--seed", "5")
    files = sorted(str(p) for p in gen_dir.glob("*.trig"))
    run(capsys, "store", "ingest", "--store-dir", str(store_dir), *files)
    uris = ["http://example.org/np/" + p.rsplit("/", 1)[-1][:-5] for p in files]
    elements_file, add_file = tmp_path / "v1.txt", tmp_path / "add.txt"
    elements_file.write_text("\n".join(uris[:30]) + "\n", encoding="utf-8")
    add_file.write_text("\n".join(uris[30:]) + "\n", encoding="utf-8")
    status, out, _ = run(
        capsys, "index", "build", "--store-dir", str(store_dir),
        "--elements", str(elements_file), "--title", "v1",
    )
    assert status == 0
    head_uri = out.strip()
    journal = (store_dir / "journal.log").read_bytes()

    status, out, err = run(
        capsys, "index", "append", "--store-dir", str(store_dir),
        "--previous", head_uri, "--add", str(add_file), "--title", "v2",
        "--capacity", "-1",
    )
    assert status == 1
    assert out == ""
    assert "capacity must be >= 1" in err
    assert (store_dir / "journal.log").read_bytes() == journal
    assert len(NanopubStore(store_dir)) == 36


@pytest.mark.parametrize(
    "argv",
    [("expand", "--uri"), ("append", "--title", "t", "--previous")],
    ids=["expand", "append"],
)
def test_index_commands_on_unknown_uri(tmp_path, capsys, argv):
    unknown = "http://example.org/index/" + "RA" + "Q" * 43
    status, _, err = run(capsys, "index", *argv, unknown, "--store-dir", str(tmp_path / "s"))
    assert status == 1
    assert f"unknown index <{unknown}>" in err


def test_validate_two_nanopubs_without_uri_asks_for_it(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    run(capsys, "gen-corpus", "--out", str(gen_dir), "--count", "2", "--single-file")
    status, _, err = run(capsys, "validate", str(gen_dir / "corpus.trig"))
    assert status == 1
    assert "found 2; pass --uri" in err


def test_analyze_outputs_five_reports(tmp_path, capsys):
    gen_dir = tmp_path / "gen"
    run(capsys, "gen-corpus", "--out", str(gen_dir), "--count", "25", "--seed", "9", "--single-file")
    out_dir = tmp_path / "reports"
    status, out, _ = run(capsys, "analyze", str(gen_dir / "corpus.trig"), "--out", str(out_dir))
    assert status == 0
    names = {line.rsplit("/", 1)[-1] for line in out.splitlines()}
    assert names == {
        "totals.tsv", "creators.tsv", "licenses.tsv", "namespaces.tsv", "types.tsv", "report.json",
    }
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["totals"]["nanopub_count"] == 25


# SHA-256 of each output of analyze on gen-corpus seed 13, 80 nanopubs,
# --top-k 3 and a --tool-uri that the corpus mentions
ANALYZE_GOLDEN = {
    "totals.tsv": "64dbc3421e133c77fc2ba5cf05608df9f79c7525114a9423349363244003c46e",
    "creators.tsv": "2262e7c146aea93704933f6c9f375fa90a75d130ec748e401c151a031b10b35c",
    "licenses.tsv": "a8d01b8c5b9f914601bb6d7a8da4bac903e7821eee5f44cda7c7934324d57dbd",
    "namespaces.tsv": "e97220e6100adb96ab9a5dbb6272db4ef8065f25e9a72b79ee9c4549c9452918",
    "types.tsv": "12544603649b981f16aad32ffcb91ddfecda6a86feaaf725ddfafa0afe993f80",
    "report.json": "98fa4dbfe020e4f5be841c1406ae1eb6a6aecf927da266c8427689bc0594936c",
}


def test_analyze_outputs_pinned_for_dump_and_directory(tmp_path, capsys):
    gen = ("--count", "80", "--seed", "13")
    run(capsys, "gen-corpus", "--out", str(tmp_path / "dir"), *gen)
    run(capsys, "gen-corpus", "--out", str(tmp_path / "one"), *gen, "--single-file")
    options = ("--top-k", "3", "--tool-uri", "https://doi.org/10.5281/zenodo.999999")
    outputs = {}
    for corpus, out in ((tmp_path / "dir", "out-dir"), (tmp_path / "one" / "corpus.trig", "out-one")):
        status, _, _ = run(capsys, "analyze", str(corpus), "--out", str(tmp_path / out), *options)
        assert status == 0
        outputs[out] = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir()}
    assert outputs["out-dir"] == outputs["out-one"]
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in outputs["out-one"].items()}
    assert digests == ANALYZE_GOLDEN


def test_analyze_names_the_file_that_fails(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    run(capsys, "gen-corpus", "--out", str(corpus_dir), "--count", "3", "--seed", "1")
    bad = corpus_dir / "zz-stray.trig"  # read after the three good files
    bad.write_text("<http://g> { <http://s> <http://p> <http://o> . }\n", encoding="utf-8")
    out_dir = tmp_path / "reports"
    status, out, err = run(capsys, "analyze", str(corpus_dir), "--out", str(out_dir))
    assert status == 1
    assert out == ""
    assert err == f"error: {bad}: 1 quads belong to no nanopublication (first graph: <http://g>)\n"
    assert not (out_dir / "report.json").exists()


def test_store_ingest_names_the_file_that_fails(tmp_path, capsys):
    run(capsys, "gen-corpus", "--out", str(tmp_path / "gen"), "--count", "1", "--seed", "1")
    good = next((tmp_path / "gen").glob("*.trig"))
    bad = tmp_path / "bad.trig"  # a valid nanopub, then a stray graph
    bad.write_text(good.read_text(encoding="utf-8") + "<http://g> { <http://s> <http://p> <http://o> . }\n")
    store_dir = tmp_path / "store"
    status, out, err = run(capsys, "store", "ingest", "--store-dir", str(store_dir), str(bad))
    assert (status, out) == (1, "")
    assert err == f"error: {bad}: 1 quads belong to no nanopublication (first graph: <http://g>)\n"
    assert len(NanopubStore(store_dir)) == 0  # nothing of the failing file is stored
    missing = tmp_path / "missing.trig"
    status, _, err = run(capsys, "store", "ingest", "--store-dir", str(store_dir), str(good), str(missing))
    assert (status, err) == (1, f"error: no such file: {missing}\n")
    assert len(NanopubStore(store_dir)) == 1  # the file before it stays stored
    status, _, err = run(capsys, "analyze", str(missing), "--out", str(tmp_path / "reports"))
    assert (status, err) == (1, f"error: no such file: {missing}\n")


def test_store_ingest_stores_nothing_of_a_file_with_an_unverifiable_nanopub(tmp_path, capsys):
    run(capsys, "gen-corpus", "--out", str(tmp_path / "gen"), "--count", "2", "--seed", "1")
    first, second = (p.read_text(encoding="utf-8") for p in sorted((tmp_path / "gen").glob("*.trig")))
    planted = "  <http://evil.example/s> <http://evil.example/p> <http://evil.example/o> .\n"
    tampered = second.replace("#assertion> {\n", "#assertion> {\n" + planted)
    assert tampered.count("http://evil.example/s") == 1
    both = tmp_path / "both.trig"
    both.write_text(first + tampered, encoding="utf-8")
    store_dir = tmp_path / "store"
    status, out, err = run(capsys, "store", "ingest", "--store-dir", str(store_dir), str(both))
    assert (status, out) == (1, "")
    second_uri = candidate_uris(parse_trig(second))[0]
    assert err.startswith(f"error: {both}: verification failed for <{second_uri}>: ")
    assert len(NanopubStore(store_dir)) == 0


def test_gen_corpus_deterministic(tmp_path, capsys):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run(capsys, "gen-corpus", "--out", str(dir_a), "--count", "8", "--seed", "4")
    run(capsys, "gen-corpus", "--out", str(dir_b), "--count", "8", "--seed", "4")
    names_a = sorted(p.name for p in dir_a.glob("*.trig"))
    names_b = sorted(p.name for p in dir_b.glob("*.trig"))
    assert names_a == names_b
    for name in names_a:
        assert (dir_a / name).read_text() == (dir_b / name).read_text()


def test_simulate_deterministic_report(tmp_path, capsys):
    config = tmp_path / "sim.conf"
    config.write_text(
        "node_count 4\ntopology ring\nrounds 6\nseed 1\n"
        "publish_count 10\npublish_seed 2\npublish_rounds 2\n"
        "fail 2 1 3\n",
        encoding="utf-8",
    )
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    status, _, _ = run(capsys, "node", "simulate", "--config", str(config), "--out", str(out1))
    assert status == 0
    run(capsys, "node", "simulate", "--config", str(config), "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert "converged" in text and "retrievable" in text


def test_simulate_rejects_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "sim.conf"
    config.write_text("node_cout 3\npublish_count 5\n", encoding="utf-8")
    out = tmp_path / "report.txt"
    status, _, err = run(capsys, "node", "simulate", "--config", str(config), "--out", str(out))
    assert status == 1
    assert "node_cout" in err
    assert not out.exists()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_missing_store_dir_is_domain_error(capsys, monkeypatch):
    monkeypatch.delenv("NANO_STORE_DIR", raising=False)
    status, _, err = run(capsys, "store", "get", "RA" + "A" * 43)
    assert status == 1
    assert "store directory" in err


def test_env_var_store_dir(tmp_path, capsys, monkeypatch):
    gen_dir = tmp_path / "gen"
    run(capsys, "gen-corpus", "--out", str(gen_dir), "--count", "3", "--seed", "6")
    monkeypatch.setenv("NANO_STORE_DIR", str(tmp_path / "envstore"))
    files = sorted(str(p) for p in gen_dir.glob("*.trig"))
    status, out, _ = run(capsys, "store", "ingest", *files)
    assert status == 0
    assert "ingested 3" in out


@pytest.fixture
def served(monkeypatch):
    """Node servers that ``node run`` went on to serve; serving returns at once."""
    servers = []
    monkeypatch.setattr(NodeServer, "serve_forever", lambda self: servers.append(self))
    yield servers
    for server in servers:
        server.server_close()


@pytest.mark.parametrize("peer", ["localhost", "localhost:", "localhost:99999", "localhost:0"])
def test_node_run_refuses_a_bad_peer_before_it_opens_the_store(tmp_path, capsys, served, peer):
    store_dir = tmp_path / "store"
    argv = ["node", "run", "--store-dir", str(store_dir), "--port", "0", "--sync-interval", "0"]
    status, _, err = run(capsys, *argv, "--peer", "127.0.0.1:8765", "--peer", peer)
    assert status == 1
    assert repr(peer) in err
    assert served == []
    assert not store_dir.exists()


def test_node_run_serves_with_good_peers(tmp_path, capsys, served):
    argv = ["node", "run", "--store-dir", str(tmp_path / "store"), "--port", "0"]
    status, out, _ = run(capsys, *argv, "--sync-interval", "0", "--peer", "127.0.0.1:8765")
    assert status == 0
    assert len(served) == 1
    assert "peers: 127.0.0.1:8765" in out


@pytest.mark.parametrize(
    "server_class, argv",
    [(ApiServer, ["serve"]), (NodeServer, ["node", "run", "--sync-interval", "0"])],
    ids=["serve", "node-run"],
)
def test_ctrl_c_closes_the_server(tmp_path, capsys, monkeypatch, server_class, argv):
    interrupted = []

    def interrupt(self):
        interrupted.append(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(server_class, "serve_forever", interrupt)
    status, _, _ = run(capsys, *argv, "--store-dir", str(tmp_path / "store"), "--port", "0")
    assert status == 0
    (server,) = interrupted
    assert server.socket.fileno() == -1  # the listening socket is released


@needs_ipv6
@pytest.mark.parametrize(
    "argv, listening",
    [
        (["serve"], "serving API on http://[::1]:"),
        (["node", "run", "--sync-interval", "0"], "node listening on [::1]:"),
    ],
    ids=["serve", "node-run"],
)
def test_serve_and_node_run_listen_on_ipv6(tmp_path, capsys, monkeypatch, argv, listening):
    served = []

    def interrupt(self):
        served.append(self.server_address)
        raise KeyboardInterrupt

    monkeypatch.setattr(ServerCore, "serve_forever", interrupt)
    status, out, _ = run(
        capsys, *argv, "--store-dir", str(tmp_path / "store"), "--host", "::1", "--port", "0"
    )
    assert status == 0
    ((host, port, *_),) = served
    assert host == "::1"
    assert out.startswith(f"{listening}{port}")


def _open_sockets():
    """The sockets this process holds, by inode."""
    held = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own descriptor, closed by now
            continue
        if target.startswith("socket:"):
            held.add(target)
    return held


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc to list open sockets")
@pytest.mark.parametrize(
    "argv", [["serve"], ["node", "run", "--sync-interval", "0"]], ids=["serve", "node-run"]
)
def test_a_busy_port_is_an_error_line(tmp_path, capsys, argv):
    with socket.create_server(("127.0.0.1", 0)) as busy:
        port = busy.getsockname()[1]
        before = _open_sockets()
        status, out, err = run(capsys, *argv, "--store-dir", str(tmp_path / "store"), "--port", str(port))
        after = _open_sockets()
    assert status == 1
    assert out == ""
    assert err == f"error: cannot listen on 127.0.0.1:{port}: Address already in use\n"
    assert len(err.splitlines()) == 1  # no traceback
    assert after == before
