"""The cube query server: bounded admission, deadlines, load shedding.

``python -m repro serve-cube cube.store`` runs an HTTP front end over a
:class:`~repro.serving.view.StoredCubeView`.  It binds 127.0.0.1 (port 0
picks a free port) and the caller owns shutdown; every query runs on its
connection's own handler thread:

* a query whose reply is already in the server's result LRU is answered
  with the **cached bytes**: no admission slot, no sort, no
  ``json.dumps``.  The LRU is keyed by the canonical spec
  (``json.dumps(spec, sort_keys=True)``) and holds the encoded reply;
  a store is immutable once opened, so an entry is only ever evicted;
* a miss takes one of ``workers + queue_depth`` admission slots or is
  **shed immediately** (HTTP 503, ``"overloaded"``, retriable), then
  one of ``workers`` compute permits; it caches its reply even after
  its caller was told 504, so the advertised retry is a hit;
* each admitted miss has a **deadline**: the accept loop's sweep sends
  the 504 (``"deadline-exceeded"``, retriable, ``Connection: close``)
  in one non-blocking write, or shuts a socket that would block.  The
  slot is freed only when the computation finishes, so shedding sees
  the true backlog;
* malformed or unanswerable queries (unknown op, unknown dimension,
  non-materializable cuboid) return HTTP 400 with ``"retriable": false``.

Wire protocol: ``POST /query`` with a JSON body (see
:func:`execute_query` for the op shapes), ``GET /stats`` for the shared
``serving.*`` counters, ``GET /healthz`` for liveness.  Group keys are
tuples in Python and become sorted ``[values-list, aggregate]`` pairs in
JSON, so responses are deterministic byte-for-byte for a deterministic
store.

Connections: the server speaks HTTP/1.1 and keeps a connection open
across requests; its ``socketserver`` thread reads the socket into its
own buffer (``http.server`` would load ``http.client``, ``ssl`` and
``email``).  Every reply carries an exact ``Content-Length`` and leaves
in one write (a header write then a body write on a kept-alive socket
is the Nagle/delayed-ACK 40 ms stall).  The server closes after a reply
to a pre-1.1 or ``Connection: close`` client, after a 504 (its thread
is still computing), after a framing error (a bad request or header
line, a missing, malformed, conflicting or too large length,
``Transfer-Encoding`` on a POST, a body on a GET: the bytes that follow
cannot be trusted), when a request's head and body are not all in
``IDLE_TIMEOUT_S`` after its wait began, and on :meth:`CubeServer.close`.
At most ``MAX_CONNECTIONS`` are live, one thread each: the accept thread
answers one more with the 503 ``"overloaded"`` and closes it.  The listen
queue is as deep, so a burst is admitted or refused at once instead of
waiting out SYN retransmits.
"""

from __future__ import annotations

import contextlib
import json
import socket
import socketserver
import threading
import time
from collections import OrderedDict
from http import HTTPStatus  # an enum; the http package imports no more
from typing import Dict, List, Optional, Tuple

from ..query.view import QueryError
from .store import StoreError
from .view import StoredCubeView

DEFAULT_WORKERS = 4
DEFAULT_QUEUE_DEPTH = 16
DEFAULT_DEADLINE = 5.0
#: Default number of encoded replies kept in the result LRU.
DEFAULT_RESULT_CACHE = 128
#: Accept-loop poll, seconds: how late a 504 may be, and close()'s wait.
POLL_S = 0.05
#: Largest request body read; a longer one is refused (413) unread.
MAX_BODY_BYTES = 1 << 20
#: Seconds each request (head and body) may take to arrive, and each
#: reply to leave, before the server drops the connection and its thread.
IDLE_TIMEOUT_S = 15.0
#: Longest request or header line, and most header lines (414, 431).
MAX_LINE_BYTES, MAX_HEADERS = 65536, 100
#: Most live connections, hence handler threads; one more is answered
#: 503 on the accept thread and closed.
MAX_CONNECTIONS = 64

#: Ops answerable over the wire.  ``dice`` is deliberately absent: its
#: predicates are Python callables and deserializing code is not a
#: feature a query server should have.
WIRE_OPS = (
    "rollup",
    "total",
    "slice",
    "drilldown",
    "top",
    "pivot",
    "cuboid_sizes",
)


def _refusal(error: str, retriable: bool = False) -> Dict:
    """An error body; by default one retrying unchanged cannot improve."""
    return {"ok": False, "error": error, "retriable": retriable}


def _encode(body: Dict) -> bytes:
    """The wire bytes of a reply body: key-sorted JSON, UTF-8."""
    return json.dumps(body, sort_keys=True).encode("utf-8")


def _http_date(t: float) -> str:
    """The ``Date`` value of time ``t``: ``email.utils.formatdate(t,
    usegmt=True)`` without loading ``email``."""
    tm = time.gmtime(t)
    return "%s, %02d %s %04d %02d:%02d:%02d GMT" % (
        ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")[tm.tm_wday],
        tm.tm_mday,
        ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")[tm.tm_mon - 1],
        tm.tm_year, tm.tm_hour, tm.tm_min, tm.tm_sec,
    )


def _jsonable_groups(groups: Dict) -> List:
    """``{tuple: value}`` → deterministic ``[[values, value], ...]``."""
    return [
        [list(values) if isinstance(values, tuple) else values, value]
        for values, value in sorted(
            groups.items(), key=lambda item: repr(item[0])
        )
    ]


def execute_query(view: StoredCubeView, spec: Dict) -> object:
    """Run one wire-format query ``spec`` against ``view``.

    Op shapes::

        {"op": "rollup", "dimensions": ["name", "year"]}
        {"op": "total"}
        {"op": "slice", "fixed": {"city": "Rome"}}
        {"op": "drilldown", "group": {"name": "laptop"}, "into": "city"}
        {"op": "top", "dimensions": ["name"], "k": 5}
        {"op": "pivot", "row": "name", "column": "year"}
        {"op": "cuboid_sizes"}

    Returns a JSON-serializable result; raises :class:`QueryError` for
    anything malformed or unanswerable.
    """
    if not isinstance(spec, dict):
        raise QueryError("query must be a JSON object")
    op = spec.get("op")
    if op not in WIRE_OPS:
        raise QueryError(
            f"unknown op {op!r}; supported: {', '.join(WIRE_OPS)}"
        )
    try:
        if op in ("rollup", "top"):
            dims = spec.get("dimensions", [])
            if type(dims) is not list or not all(type(d) is str for d in dims):
                raise QueryError(
                    f"{op}'s 'dimensions' must be an array of names"
                )
        if op == "rollup":
            return _jsonable_groups(view.rollup(*dims))
        if op == "total":
            return view.total()
        if op == "slice":
            fixed = spec.get("fixed")
            if not isinstance(fixed, dict):
                raise QueryError("slice needs a 'fixed' object")
            return _jsonable_groups(view.slice(**fixed))
        if op == "drilldown":
            group = spec.get("group")
            into = spec.get("into")
            if not isinstance(group, dict) or not isinstance(into, str):
                raise QueryError(
                    "drilldown needs a 'group' object and an 'into' name"
                )
            return _jsonable_groups(view.drilldown(group, into))
        if op == "top":
            k = spec.get("k", 10)
            if type(k) is not int:  # not a bool either
                raise QueryError("top's 'k' must be an integer")
            return [
                [list(values), value] for values, value in view.top(dims, k)
            ]
        if op == "pivot":
            row, column = spec.get("row"), spec.get("column")
            if not isinstance(row, str) or not isinstance(column, str):
                raise QueryError("pivot needs 'row' and 'column' names")
            table = view.pivot(row, column)
            return [
                [r, _jsonable_groups(columns)]
                for r, columns in sorted(
                    table.items(), key=lambda item: repr(item[0])
                )
            ]
        # cuboid_sizes
        return [
            [list(names), count]
            for names, count in sorted(view.cuboid_sizes().items())
        ]
    except TypeError as exc:
        # Wrong-typed spec fields (e.g. dimensions: 3) surface here.
        raise QueryError(str(exc)) from None


class CubeServer:
    """A bound, not-yet-serving query server over a stored cube.

    >>> server = CubeServer(view, port=0)            # doctest: +SKIP
    >>> server.port                                  # doctest: +SKIP
    >>> server.serve_forever()                       # blocks; doctest: +SKIP

    Tests drive it with ``start()``/``close()`` around HTTP requests at
    ``http://127.0.0.1:{server.port}``.
    """

    def __init__(
        self,
        view: StoredCubeView,
        workers: int = DEFAULT_WORKERS,
        queue_depth: int = DEFAULT_QUEUE_DEPTH,
        deadline: float = DEFAULT_DEADLINE,
        port: int = 0,
        result_cache: int = DEFAULT_RESULT_CACHE,
    ):
        if workers <= 0:
            raise ValueError("workers must be positive")
        if queue_depth < 0:
            raise ValueError("queue_depth cannot be negative")
        if deadline <= 0:
            raise ValueError("deadline must be positive")
        self.view = view
        self.workers = workers
        self.queue_depth = queue_depth
        self.deadline = deadline
        self.counters = view.counters
        self._slots = threading.Semaphore(workers + queue_depth)
        self._computing = threading.Semaphore(workers)
        self._lock = threading.Lock()
        #: Encoded replies by canonical spec, least recently used first,
        #: under their own lock: a hit never waits on the sweep's.
        self._results: "OrderedDict[str, bytes]" = OrderedDict()
        self._result_cache = max(1, result_cache)
        self._results_lock = threading.Lock()
        self._connections: set = set()  # open client sockets, for close()
        #: Admitted misses, ``connection -> due time``: oldest first.
        self._due: Dict[socket.socket, float] = {}
        self._httpd, self._response = self._build_httpd(port)
        self._thread: Optional[threading.Thread] = None
        self._serving = False

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    # -- request handling ----------------------------------------------------

    def _probe(self, key: str) -> Optional[bytes]:
        """The reply cached under ``key``, else None; counts the hit or
        miss."""
        with self._results_lock:
            payload = self._results.get(key)
            if payload is None:
                self.counters.bump("serving.cache_miss")
            else:
                self.counters.bump("serving.cache_hit")
                self._results.move_to_end(key)
            return payload

    def _answer(self, key: str, spec: Dict) -> bytes:
        """A miss: compute, encode, cache — also when the sweep has
        already answered 504, so the advertised retry is a hit.  Two
        racing misses both compute: equal bytes, the later insert wins."""
        payload = _encode(
            {"ok": True, "result": execute_query(self.view, spec)}
        )
        with self._results_lock:
            self._results[key] = payload
            if len(self._results) > self._result_cache:
                self._results.popitem(last=False)
        return payload

    def _handle_query(self, spec, connection) -> Optional[Tuple[int, object]]:
        """One query; returns (status, body) — the encoded reply of a
        200, a dict otherwise — or None when the sweep has answered
        ``connection`` 504.  The result cache is probed first: a hit
        takes no admission slot."""
        key = json.dumps(spec, sort_keys=True)
        payload = self._probe(key)
        if payload is not None:
            self.counters.bump("serving.requests")
            return 200, payload
        if not self._slots.acquire(blocking=False):
            self.counters.bump("serving.shed")
            return 503, _refusal("overloaded", retriable=True)
        self.counters.bump("serving.requests")
        with self._lock:
            self._due[connection] = time.monotonic() + self.deadline
        try:
            with self._computing:
                reply = 200, self._answer(key, spec)
        except (QueryError, StoreError) as exc:
            self.counters.bump("serving.query_errors")
            reply = 400, _refusal(str(exc))
        finally:
            # The slot is freed when the computation finishes — not when
            # the deadline fires — so admission always reflects real backlog.
            self._slots.release()
            with self._lock:  # whoever pops the entry owns the reply
                swept = self._due.pop(connection, None) is None
        return None if swept else reply

    def _sweep(self) -> None:
        """Answer each overdue miss 504 in a write that never blocks the
        accept loop; one that would, or is partial, shuts the socket
        down.  The lock spans the sends, so a handler that finds its
        entry gone may close its socket at once."""
        with self._lock:
            for connection, due in list(self._due.items()):
                if due > time.monotonic():
                    break
                del self._due[connection]
                self.counters.bump("serving.deadline_exceeded")
                reply = self._response(
                    504, _refusal("deadline-exceeded", retriable=True), True
                )
                try:
                    connection.settimeout(0)  # never restored: it closes
                    sent = connection.send(reply)
                except OSError:  # the write would block, or the peer left
                    sent = 0
                if sent < len(reply):
                    with contextlib.suppress(OSError):
                        connection.shutdown(socket.SHUT_RDWR)

    def stats(self) -> Dict:
        """The ``/stats`` body.  Of its counters the server owns
        ``serving.connections`` (accepted) and ``serving.requests``
        (queries answered from the cache or admitted; their ratio is
        queries per connection),
        ``serving.cache_hit`` / ``serving.cache_miss`` (result-LRU
        probes), ``serving.shed`` (503), ``serving.deadline_exceeded``
        (504), ``serving.query_errors`` (400 from the query),
        ``serving.bad_requests`` (framing errors: 400/413, then closed)
        and ``serving.disconnects`` (client gone mid-request or -reply).
        ``result_cache`` sizes the server's reply LRU: what it holds in
        memory beyond the store's segment cache.
        """
        with self._results_lock:
            result_cache = {
                "entries": len(self._results),
                "payload_bytes": sum(map(len, self._results.values())),
            }
        return {
            "counters": self.counters.to_dict(),
            "workers": self.workers,
            "queue_depth": self.queue_depth,
            "deadline": self.deadline,
            "result_cache": result_cache,
            "store": {
                "path": self.view.store.path,
                "bytes": self.view.store.store_bytes,
                "cuboids": len(self.view.store.masks),
                "groups": self.view.store.total_groups,
            },
        }

    def _build_httpd(self, port: int):
        """The listening server, and the function that frames a reply."""
        server = self
        date = [0, ""]  # [second, Date value]; racers just format it twice

        def response(status: int, body, close: bool) -> bytes:
            payload = body if isinstance(body, bytes) else _encode(body)
            now = int(time.time())
            if date[0] != now:
                date[:] = now, _http_date(now)
            head = (
                f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
                f"Date: {date[1]}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                + "Connection: close\r\n" * close + "\r\n"
            )
            return head.encode("ascii") + payload

        class Handler(socketserver.BaseRequestHandler):
            def setup(self):
                self.connection = self.request
                self.connection.settimeout(IDLE_TIMEOUT_S)
                self.connection.setsockopt(  # replies are one write each
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, True
                )
                self._buf, self._pos = b"", 0  # received, not yet read

            def handle(self):
                self.close_connection = False
                try:
                    while not self.close_connection:
                        self.due = None  # set by the request's first recv
                        self.handle_one_request()
                except socket.timeout:  # not TimeoutError on 3.9
                    pass  # no whole request in time, or a stalled reply
                except ConnectionError:  # reset on a read, EPIPE on a reply
                    server.counters.bump("serving.disconnects")

            def handle_one_request(self):
                self.raw_requestline = self._read(MAX_LINE_BYTES + 1, True)
                if len(self.raw_requestline) > MAX_LINE_BYTES:
                    return self.send_error(414)
                if not self.parse_request():
                    return
                if not hasattr(self, "do_" + self.command):
                    unsupported = f"Unsupported method ({self.command!r})"
                    return self.send_error(501, unsupported)
                getattr(self, "do_" + self.command)()

            def _read(self, size: int, line: bool = False) -> bytes:
                """``size`` bytes, or with ``line`` through the first
                newline within them; fewer only at EOF.  A request's
                reads all end within ``IDLE_TIMEOUT_S`` of its first."""
                parts = []
                while True:
                    start = self._pos
                    end = start + size
                    if line:
                        end = self._buf.find(b"\n", start, end) + 1 or end
                    parts.append(self._buf[start:end])
                    if end <= len(self._buf):  # the rest was buffered
                        self._pos = end
                        return b"".join(parts)
                    size -= len(self._buf) - start
                    if self.due is None:  # the socket holds the whole budget
                        self.due = time.monotonic() + IDLE_TIMEOUT_S
                    else:
                        left = self.due - time.monotonic()
                        if left <= 0:
                            raise socket.timeout
                        self.connection.settimeout(left)
                    self._buf, self._pos = self.connection.recv(65536), 0
                    if not self._buf:  # EOF
                        return b"".join(parts)

            def parse_request(self):
                """The request head, read without a MIME parser:
                ``self.headers`` maps lowercased names to values (repeats
                joined).  Falsy after a refusal or EOF."""
                self.close_connection = True
                words = str(self.raw_requestline, "latin-1").split()
                if len(words) != 3:  # blank: close quietly; HTTP/0.9: 400
                    return words and self.send_error(400, "bad request line")
                self.command, self.path, version = words
                # RFC 9112: HTTP-version = "HTTP/" DIGIT "." DIGIT
                if not (len(version) == 8 and version[:5] == "HTTP/"
                        and version[6] == "." and version[5:8:2].isdecimal()):
                    return self.send_error(400, f"bad version {version[:9]!r}")
                if version >= "HTTP/2":
                    return self.send_error(505, f"{version} is unsupported")
                self.request_version = version
                headers = self.headers = {}
                for _ in range(MAX_HEADERS + 1):
                    raw = self._read(MAX_LINE_BYTES + 1, True)
                    if len(raw) > MAX_LINE_BYTES:
                        return self.send_error(431, "header line too long")
                    if not raw.endswith(b"\n"):
                        return False  # the client left mid-head
                    if raw in (b"\r\n", b"\n"):
                        break
                    name, colon, value = str(raw, "latin-1").partition(":")
                    if not (colon and name and name == name.strip()):
                        # No colon, a folded line or "Name :".
                        return self.send_error(400, f"bad header {raw[:40]!r}")
                    name, value = name.lower(), value.strip()
                    if headers.setdefault(name, value) != value:
                        if name == "content-length":
                            return self.send_error(400, "two lengths differ")
                        headers[name] += ", " + value
                else:
                    return self.send_error(431, "too many header lines")
                tokens = headers.get("connection", "").replace(" ", "")
                close = "close" in tokens.lower().split(",")
                self.close_connection = close or version < "HTTP/1.1"
                return True

            def _reply(self, status: int, body, close: bool = False) -> None:
                self.close_connection |= close
                if self.connection.gettimeout() != IDLE_TIMEOUT_S:
                    self.connection.settimeout(IDLE_TIMEOUT_S)  # reply budget
                self.connection.sendall(
                    response(status, body, self.close_connection)
                )

            def send_error(self, code, message=None, explain=None):
                """A framing error, the request line's (414, 501), the
                head's or ``do_POST``'s: typed reply, then close, because
                the bytes that follow cannot be trusted."""
                server.counters.bump("serving.bad_requests")
                error = message or HTTPStatus(code).phrase
                self._reply(code, _refusal(error), close=True)

            def do_GET(self):  # noqa: N802 - handle_one_request's name
                # A body on a GET is never read: reply, then close.
                close = (
                    "content-length" in self.headers
                    or "transfer-encoding" in self.headers
                )
                if self.path == "/healthz":
                    self._reply(200, {"ok": True}, close)
                elif self.path == "/stats":
                    self._reply(200, server.stats(), close)
                else:
                    self._reply(404, _refusal("not found"), close)

            def do_POST(self):  # noqa: N802 - handle_one_request's name
                if "transfer-encoding" in self.headers:  # not length-framed
                    return self.send_error(400, "Transfer-Encoding refused")
                raw = self.headers.get("content-length", "")
                # isdigit() alone admits "\xb2", and int() raises past 4300
                # digits; no honest length comes near 19.
                if not (raw.isascii() and raw.isdigit() and len(raw) < 19):
                    return self.send_error(
                        400, "Content-Length must be a decimal byte count"
                    )
                if int(raw) > MAX_BODY_BYTES:
                    return self.send_error(
                        413, f"body exceeds {MAX_BODY_BYTES} bytes"
                    )
                if (
                    self.headers.get("expect", "").lower() == "100-continue"
                    and self.request_version >= "HTTP/1.1"
                ):
                    self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
                # Read before routing, so a body sent to an unknown path
                # is not parsed as the connection's next request.
                body = self._read(int(raw))
                if self.path != "/query":
                    self._reply(404, _refusal("not found"))
                    return
                try:
                    spec = json.loads(body or b"{}")
                except (ValueError, RecursionError):  # or nested too deep
                    self._reply(400, _refusal("body is not valid JSON"))
                    return
                reply = server._handle_query(spec, self.connection)
                if reply is None:  # the sweep has sent the 504
                    self.close_connection = True
                else:
                    self._reply(*reply)

        class TCPServer(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            request_queue_size = MAX_CONNECTIONS
            daemon_threads = True  # a kept-alive connection never blocks exit

            def process_request(self, request, client_address):
                """Start the connection's thread, or past
                ``MAX_CONNECTIONS`` live ones, send the 503 in one
                write that never blocks the accept loop and close."""
                with server._lock:
                    admitted = len(server._connections) < MAX_CONNECTIONS
                    if admitted:
                        server._connections.add(request)
                    server.counters.bump(
                        "serving.connections" if admitted else "serving.shed"
                    )
                if admitted:
                    return super().process_request(request, client_address)
                refusal = _refusal("overloaded", retriable=True)
                with contextlib.suppress(OSError):  # would block, or gone
                    request.setblocking(False)
                    request.send(response(503, refusal, True))
                self.shutdown_request(request)

            def shutdown_request(self, request):
                with server._lock:
                    server._connections.discard(request)
                super().shutdown_request(request)

        httpd = TCPServer(("127.0.0.1", port), Handler)
        httpd.service_actions = self._sweep
        return httpd, response

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "CubeServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(POLL_S,), daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._serving = True
        try:
            self._httpd.serve_forever(POLL_S)
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        if self._serving:
            # shutdown() waits on serve_forever's exit handshake, so it
            # must only run once the serve loop has actually started.
            self._httpd.shutdown()
        self._httpd.server_close()
        # Kept-alive connections would hold their threads until the idle
        # timeout; shut them down so every client sees EOF now.
        with self._lock:
            for connection in self._connections:
                try:
                    connection.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client closed it first
                    pass
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "CubeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
