import socket
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "fixtures"
sys.path.insert(0, str(TESTS))

from nanokit.corpusgen import CorpusConfig, generate_corpus
from nanokit.rdf import parse_trig
from nanokit.store import NanopubStore, candidate_uris


def _binds_ipv6_loopback() -> bool:
    try:
        with socket.socket(socket.AF_INET6) as probe:
            probe.bind(("::1", 0))
    except OSError:
        return False
    return True


needs_ipv6 = pytest.mark.skipif(not _binds_ipv6_loopback(), reason="this host cannot bind ::1")


@pytest.fixture(scope="session")
def birddiet_doc():
    return parse_trig((FIXTURES / "birddiet.trig").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def birddiet_uri(birddiet_doc):
    return candidate_uris(birddiet_doc)[0]


@pytest.fixture(scope="session")
def valid_fixture_docs():
    docs = []
    for path in sorted((FIXTURES / "valid").glob("*.trig")):
        docs.append((path.name, parse_trig(path.read_text(encoding="utf-8"))))
    return docs


@pytest.fixture(scope="session")
def invalid_fixture_docs():
    docs = []
    for path in sorted((FIXTURES / "invalid").glob("*.trig")):
        docs.append((path.name, parse_trig(path.read_text(encoding="utf-8"))))
    return docs


@pytest.fixture(scope="session")
def corpus200():
    return generate_corpus(CorpusConfig(count=200, seed=11))


@pytest.fixture(scope="session")
def store200(corpus200):
    store = NanopubStore()
    for np in corpus200:
        store.put(np)
    return store
