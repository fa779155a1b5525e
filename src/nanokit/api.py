"""Query service over a store: the seven retrieval methods.

Transport is plain HTTP request/response on routes
``/api/<method_name>`` with query parameters named exactly like the
method parameters (subj, pred, obj, objtype, uri, index_uri, page,
page_size).  List responses are one code/URI per line; get_nanopub
returns TriG.  Errors come back as ``ERROR <code> <message>`` lines.
The server is bounded by ``network.ServerCore``: it serves at most
``SLOTS`` requests at once, one more waits for a free worker, and it
drops a request, without a reply, once it has taken ``SERVER_TIMEOUT``.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from .index import IndexSummary, UnresolvableIndexError, list_indexes, store_resolver, walk
from .network import SERVER_TIMEOUT, ServerCore
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


class _ApiRequestHandler(BaseHTTPRequestHandler):
    timeout = SERVER_TIMEOUT  # a client silent this long is dropped without a reply

    def log_message(self, fmt, *args):
        pass  # quiet; the CLI decides what to print

    def do_GET(self):
        split = urlsplit(self.path)
        if not split.path.startswith("/api/"):
            self._send(404, "ERROR not-found unknown route\n")
            return
        method = split.path[len("/api/"):]
        params = parse_qs(split.query, keep_blank_values=True)
        service: ApiService = self.server.service
        try:
            body = self._dispatch(service, method, params)
        except NotFoundError as exc:
            self._send(404, f"ERROR {exc.code} {exc.message}\n")
        except ApiError as exc:
            self._send(400, f"ERROR {exc.code} {exc.message}\n")
        except (ValueError, KeyError) as exc:
            self._send(400, f"ERROR bad-request {exc}\n")
        else:
            self._send(200, body)

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

    def _send(self, status: int, body: str):
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)


class ApiServer(ServerCore, HTTPServer):
    def __init__(self, service: ApiService, host: str = "127.0.0.1", port: int = 0):
        service.store.catch_up()  # index what is stored now, before it listens
        super().__init__((host, port), _ApiRequestHandler)
        self.service = service

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread
