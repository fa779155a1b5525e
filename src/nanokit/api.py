"""Query service over a store: the seven retrieval methods.

Transport is plain HTTP request/response on routes
``/api/<method_name>`` with query parameters named exactly like the
method parameters (subj, pred, obj, objtype, uri, index_uri, page,
page_size).  List responses are one code/URI per line; get_nanopub
returns TriG.  Errors come back as ``ERROR <code> <message>`` lines.
The front takes ``GET`` only, over HTTP/1.x, one request per
connection, and answers in one write, always with a status line.  It
reads a request line of at most 65,536 bytes and throws away fewer than
100 header lines of at most 65,536 bytes each.  Other requests get
``http.server``'s statuses: 414 for a longer request line, 400 for a
line that is not a method, a target and ``HTTP/1.<digits>``, 505 for
any other major version, 431 for more or longer header lines, 501 for
any other method; a connection that sends nothing gets no reply.
``ApiServer`` gives only the exchange; ``network.ServerCore`` listens
and bounds it as it does the node server: a backlog of ``SLOTS``, at
most ``SLOTS`` requests at once and one more waiting, and a client
dropped without a reply once it has taken ``SERVER_TIMEOUT``, stays
silent that long, or resets or cuts the connection; any other failure
is printed.
"""

from __future__ import annotations

import re
import threading
from email.utils import formatdate
from http import HTTPStatus
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .index import IndexSummary, UnresolvableIndexError, list_indexes, store_resolver, walk
from .network import ServerCore
from .rdf import QuadPattern, Term, iri, literal, serialize_trig
from .store import NanopubStore
from .trusty import extract_artifact_code
from .util import parse_digits

DEFAULT_PAGE_SIZE = 1000
MAX_PAGE_SIZE = 10000

class ApiError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class NotFoundError(ApiError):
    def __init__(self, message: str):
        super().__init__("not-found", message)


def _page_window(page: int, page_size: int) -> slice:
    """The slice of one page; checked before any lookup runs."""
    if page < 1:
        raise ApiError("bad-page", f"page must be >= 1, got {page}")
    if not 1 <= page_size <= MAX_PAGE_SIZE:
        raise ApiError("bad-page-size", f"page_size must be in 1..{MAX_PAGE_SIZE}")
    start = (page - 1) * page_size
    return slice(start, start + page_size)


class ApiService:
    """The seven query methods, paged, over one store."""

    def __init__(self, store: NanopubStore):
        self.store = store

    # pattern / uri searches ------------------------------------------------

    def find_latest_nanopubs_with_pattern(
        self,
        subj: Optional[Term] = None,
        pred: Optional[Term] = None,
        obj: Optional[Term] = None,
        page: int = 1,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> list[str]:
        window = _page_window(page, page_size)
        pattern = QuadPattern(subject=subj, predicate=pred, object=obj)
        return self.store.find_by_pattern(pattern, latest=True, stop=window.stop)[window]

    def find_nanopubs_with_pattern(
        self,
        subj: Optional[Term] = None,
        pred: Optional[Term] = None,
        obj: Optional[Term] = None,
        page: int = 1,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> list[str]:
        window = _page_window(page, page_size)
        pattern = QuadPattern(subject=subj, predicate=pred, object=obj)
        return self.store.find_by_pattern(pattern, latest=False, stop=window.stop)[window]

    def find_latest_nanopubs_with_uri(
        self, uri: str, page: int = 1, page_size: int = DEFAULT_PAGE_SIZE
    ) -> list[str]:
        window = _page_window(page, page_size)
        return self.store.find_by_uri(uri, latest=True, stop=window.stop)[window]

    def find_nanopubs_with_uri(
        self, uri: str, page: int = 1, page_size: int = DEFAULT_PAGE_SIZE
    ) -> list[str]:
        window = _page_window(page, page_size)
        return self.store.find_by_uri(uri, latest=False, stop=window.stop)[window]

    # indexes ----------------------------------------------------------------

    def get_all_indexes(
        self, page: int = 1, page_size: int = DEFAULT_PAGE_SIZE
    ) -> list[IndexSummary]:
        window = _page_window(page, page_size)
        return list_indexes(self.store)[window]

    def get_index_elements(
        self, index_uri: str, page: int = 1, page_size: int = DEFAULT_PAGE_SIZE
    ) -> list[str]:
        """Direct elements of the index record and its appends chain, head
        first; does not recurse into sub-indexes.  A missing head or link
        is not-found; a head or link that is not an index, or a cycle,
        is a bad request."""
        window = _page_window(page, page_size)
        resolver = store_resolver(self.store)
        try:
            chain = walk(resolver(index_uri), resolver, subs=False)
        except KeyError:
            raise NotFoundError(f"unknown index <{index_uri}>") from None
        except UnresolvableIndexError as exc:
            raise NotFoundError(str(exc)) from None
        elements = [e for record in chain for e in record.elements]
        return elements[window]

    # single nanopublication ---------------------------------------------------

    def get_nanopub(self, uri: str) -> str:
        code = extract_artifact_code(uri)
        if code is None:
            raise ApiError("bad-uri", f"no artifact code in <{uri}>")
        np = self.store.get(code)
        if np is None:
            raise NotFoundError(f"unknown nanopublication <{uri}>")
        return serialize_trig(np)


# -- HTTP front ---------------------------------------------------------------


def _parse_term(params: dict, key: str) -> Optional[Term]:
    values = params.get(key)
    if not values:
        return None
    value = values[0]
    if key == "obj":
        objtype = params.get("objtype", ["iri"])[0]
        if objtype == "literal":
            return literal(value)
        if objtype != "iri":
            raise ApiError("bad-parameter", "objtype must be iri or literal")
    try:
        return iri(value)
    except ValueError as exc:
        raise ApiError("bad-parameter", f"{key}: {exc}") from None


def _parse_int(params: dict, key: str, default: int) -> int:
    values = params.get(key)
    if not values:
        return default
    try:
        return parse_digits(values[0])
    except ValueError:
        raise ApiError("bad-parameter", f"{key} must be an integer") from None


def _require(params: dict, key: str) -> str:
    values = params.get(key)
    if not values:
        raise ApiError("missing-parameter", f"{key} is required")
    return values[0]


# http.server's bounds on a request head: lines of at most _MAX_LINE bytes,
# and fewer than _MAX_HEADER_LINES header lines, counting the blank one
_MAX_LINE, _MAX_HEADER_LINES = 65536, 100
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.[0-9]{1,10}")


def _read_head(rfile) -> tuple[Optional[int], Optional[str]]:
    """The status of a protocol error, or the target of a GET to answer;
    neither for a connection that sent nothing.  The headers are read
    only to be thrown away.  The bounds, and the order the statuses are
    checked in, are http.server's."""
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        return 414, None
    if not line:
        return None, None
    words = line.decode("latin-1").split()
    version = _VERSION.fullmatch(words[-1]) if len(words) == 3 else None
    if version is None:
        return 400, None
    if int(version[1]) != 1:
        return 505, None
    for _ in range(_MAX_HEADER_LINES):
        line = rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            return 431, None
        if line in (b"\r\n", b"\n", b""):
            break
    else:
        return 431, None
    if words[0] != "GET":
        return 501, None
    target = words[1]  # a leading "//" is one "/"
    return None, "/" + target.lstrip("/") if target.startswith("/") else target


class ApiServer(ServerCore):
    def __init__(self, service: ApiService, host: str = "127.0.0.1", port: int = 0):
        service.store.catch_up()  # index what is stored now, before it listens
        super().__init__(host, port)
        self.service = service

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def exchange(self, conn) -> Optional[bytes]:
        with conn.makefile("rb") as rfile:
            status, target = _read_head(rfile)
        if target is not None:
            status, body, kind = *self._get(target), "plain"
        elif status is not None:
            body, kind = f"<html><body><h1>{status} {HTTPStatus(status).phrase}</h1></body></html>\n", "html"
        else:
            return None  # a connection that sent nothing gets no reply
        data = body.encode("utf-8")
        return (
            f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nDate: {formatdate(usegmt=True)}\r\n"
            f"Content-Type: text/{kind}; charset=utf-8\r\nContent-Length: {len(data)}\r\n\r\n"
        ).encode("latin-1") + data

    def _get(self, target: str) -> tuple[int, str]:
        try:
            split = urlsplit(target)  # "http://[::1/" raises ValueError
            if not split.path.startswith("/api/"):
                raise NotFoundError("unknown route")
            method = split.path[len("/api/"):]
            params = parse_qs(split.query, keep_blank_values=True)
            return 200, self._dispatch(self.service, method, params)
        except NotFoundError as exc:
            return 404, f"ERROR {exc.code} {exc.message}\n"
        except ApiError as exc:
            return 400, f"ERROR {exc.code} {exc.message}\n"
        except (ValueError, KeyError) as exc:
            return 400, f"ERROR bad-request {exc}\n"

    def _dispatch(self, service: ApiService, method: str, params: dict) -> str:
        page = _parse_int(params, "page", 1)
        page_size = _parse_int(params, "page_size", DEFAULT_PAGE_SIZE)
        if method in ("find_latest_nanopubs_with_pattern", "find_nanopubs_with_pattern"):
            fn = getattr(service, method)
            codes = fn(
                subj=_parse_term(params, "subj"),
                pred=_parse_term(params, "pred"),
                obj=_parse_term(params, "obj"),
                page=page,
                page_size=page_size,
            )
            return "".join(code + "\n" for code in codes)
        if method in ("find_latest_nanopubs_with_uri", "find_nanopubs_with_uri"):
            fn = getattr(service, method)
            codes = fn(_require(params, "uri"), page=page, page_size=page_size)
            return "".join(code + "\n" for code in codes)
        if method == "get_all_indexes":
            rows = service.get_all_indexes(page=page, page_size=page_size)
            return "".join(
                f"{row.number}\t{row.uri}\t{row.title or ''}\t{row.date or ''}\t"
                f"{row.sub_count}\t{row.size}\n"
                for row in rows
            )
        if method == "get_index_elements":
            elements = service.get_index_elements(
                _require(params, "index_uri"), page=page, page_size=page_size
            )
            return "".join(e + "\n" for e in elements)
        if method == "get_nanopub":
            return service.get_nanopub(_require(params, "uri"))
        raise NotFoundError(f"unknown method {method!r}")

