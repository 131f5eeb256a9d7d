"""The query server: wire protocol, admission control, deadlines."""

import contextlib
import http.client
import json
import re
import select
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import ClusterConfig, SPCube
from repro.cubing import sequential_cube
from repro.datagen import gen_binomial
from repro.query import CubeView
from repro.relation import Relation, Schema
from repro.serving import CubeServer, CubeStore, StoredCubeView, execute_query
from repro.serving import server as server_module


def _request(port, path, body=None):
    """One HTTP round-trip; returns (status, decoded JSON body)."""
    url = f"http://127.0.0.1:{port}{path}"
    if body is None:
        req = urllib.request.Request(url)
    else:
        req = urllib.request.Request(
            url, data=json.dumps(body).encode(), method="POST"
        )
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(scope="module")
def relation():
    return gen_binomial(300, 0.4, seed=9)


@pytest.fixture(scope="module")
def store_path(relation, tmp_path_factory):
    run = SPCube(ClusterConfig(num_machines=4)).compute(relation)
    path = str(tmp_path_factory.mktemp("serve") / "cube.store")
    CubeStore.write(run.cube, path, aggregate="count")
    return path


@pytest.fixture
def view(store_path):
    with StoredCubeView.open(store_path) as v:
        yield v


@pytest.fixture
def server(view):
    with CubeServer(view, workers=2, queue_depth=4, port=0).start() as srv:
        yield srv


class TestWireProtocol:
    def test_healthz(self, server):
        assert _request(server.port, "/healthz") == (200, {"ok": True})

    def test_answers_match_execute_query(self, server, view):
        for spec in [
            {"op": "total"},
            {"op": "rollup", "dimensions": ["a1", "a3"]},
            {"op": "top", "dimensions": ["a1"], "k": 3},
            {"op": "pivot", "row": "a1", "column": "a2"},
            {"op": "cuboid_sizes"},
        ]:
            status, body = _request(server.port, "/query", spec)
            assert status == 200 and body["ok"]
            # JSON round-trips lists, so compare against the re-decoded
            # oracle rather than raw tuples.
            oracle = json.loads(json.dumps(execute_query(view, spec)))
            assert body["result"] == oracle

    def test_unknown_dimension_is_400_not_retriable(self, server):
        status, body = _request(
            server.port, "/query", {"op": "rollup", "dimensions": ["bogus"]}
        )
        assert status == 400
        assert body["retriable"] is False
        assert "unknown dimension" in body["error"]

    @pytest.mark.parametrize(
        "spec, field",
        [
            ({"op": "rollup", "dimensions": "a1a2"}, "dimensions"),
            ({"op": "rollup", "dimensions": {"a1": 1}}, "dimensions"),
            ({"op": "rollup", "dimensions": ["a1", 2]}, "dimensions"),
            ({"op": "top", "dimensions": "a1", "k": 2}, "dimensions"),
            ({"op": "top", "dimensions": ["a1"], "k": True}, "k"),
            ({"op": "top", "dimensions": ["a1"], "k": 2.0}, "k"),
        ],
        ids=[
            "rollup-string", "rollup-object", "rollup-number-name",
            "top-string", "top-k-bool", "top-k-float",
        ],
    )
    def test_wrong_typed_field_is_400_not_retriable(self, server, spec, field):
        # A string or an object unpacks into names, and True is an int:
        # each would otherwise be answered as some other query.
        status, body = _request(server.port, "/query", spec)
        assert status == 400 and body["retriable"] is False
        assert f"'{field}' must be" in body["error"]

    @pytest.mark.parametrize(
        "spec",
        [
            {"op": "slice", "fixed": {"a1": [1]}},
            {"op": "drilldown", "group": {"a1": {"k": 1}}, "into": "a2"},
        ],
        ids=["slice-list", "drilldown-object"],
    )
    def test_unhashable_fixed_value_is_400_naming_the_dimension(
        self, server, spec
    ):
        status, body = _request(server.port, "/query", spec)
        assert status == 400
        assert "'a1'" in body["error"] and "unhashable" in body["error"]
        assert "\n" not in body["error"]

    def test_unknown_op_is_400(self, server):
        status, body = _request(server.port, "/query", {"op": "dice"})
        assert status == 400
        assert "unknown op" in body["error"]

    def test_invalid_json_body_is_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/query",
            data=b"not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400

    def test_unknown_path_is_404(self, server):
        assert _request(server.port, "/nope")[0] == 404

    def test_stats_exposes_counters_and_config(self, server):
        _request(server.port, "/query", {"op": "total"})
        status, body = _request(server.port, "/stats")
        assert status == 200
        assert body["counters"]["serving.requests"] >= 1
        assert body["workers"] == 2
        assert body["queue_depth"] == 4
        assert body["store"]["groups"] > 0
        assert body["result_cache"] == {
            "entries": 1,
            "payload_bytes": len(b'{"ok": true, "result": 300}'),
        }

    def test_dice_is_not_a_wire_op(self):
        assert "dice" not in server_module.WIRE_OPS


class TestAdmissionControl:
    def test_exhausted_slots_shed_with_503(self, server):
        # Drain every admission slot so the next request is refused
        # deterministically — no racing threads required.
        taken = 0
        while server._slots.acquire(blocking=False):
            taken += 1
        assert taken == server.workers + server.queue_depth
        try:
            status, body = _request(server.port, "/query", {"op": "total"})
        finally:
            for _ in range(taken):
                server._slots.release()
        assert status == 503
        assert body == {
            "ok": False,
            "error": "overloaded",
            "retriable": True,
        }
        assert server.counters.value("serving.shed") == 1
        # After slots return, service resumes.
        assert _request(server.port, "/query", {"op": "total"})[0] == 200

    def test_deadline_exceeded_is_504_retriable(
        self, view, monkeypatch
    ):
        import time

        finished = {"done": False}

        def slow_execute(view_, spec):
            time.sleep(0.5)
            finished["done"] = True
            return 0

        monkeypatch.setattr(server_module, "execute_query", slow_execute)
        with CubeServer(view, workers=1, deadline=0.05, port=0).start() as srv:
            status, body = _request(srv.port, "/query", {"op": "total"})
            assert status == 504
            assert body["error"] == "deadline-exceeded"
            assert body["retriable"] is True
            assert srv.counters.value("serving.deadline_exceeded") == 1
            # The slot is reclaimed when the worker finishes, not when
            # the deadline fires: wait out the sleeper, then reuse it.
            deadline = time.time() + 5
            while not finished["done"] and time.time() < deadline:
                time.sleep(0.02)
            assert finished["done"]

    def test_a_queued_miss_is_cut_at_its_deadline_and_cached(
        self, view, monkeypatch
    ):
        release, calls = threading.Event(), []

        def execute(view_, spec):
            calls.append(spec["n"])
            assert release.wait(10)
            return spec["n"]

        monkeypatch.setattr(server_module, "execute_query", execute)
        with CubeServer(
            view, workers=1, queue_depth=1, deadline=0.05, port=0
        ).start() as srv:
            try:
                # The first computes; the second waits for the one worker.
                for n in range(2):
                    spec = {"op": "slow", "n": n}
                    assert _request(srv.port, "/query", spec)[0] == 504
                assert calls == [0]
            finally:
                release.set()
            assert _free_slots_return_to(srv, 2)
            for n in range(2):
                spec = {"op": "slow", "n": n}
                assert _request(srv.port, "/query", spec) == (
                    200, {"ok": True, "result": n},
                )
            assert calls == [0, 1]
            assert srv.counters.value("serving.cache_hit") == 2
            assert srv.counters.value("serving.deadline_exceeded") == 2

    def test_config_validation(self, view):
        with pytest.raises(ValueError, match="workers"):
            CubeServer(view, workers=0)
        with pytest.raises(ValueError, match="queue_depth"):
            CubeServer(view, queue_depth=-1)
        with pytest.raises(ValueError, match="deadline"):
            CubeServer(view, deadline=0)

    def test_close_before_serve_does_not_hang(self, view):
        # BaseServer.shutdown() deadlocks if serve_forever never ran;
        # close() must special-case the never-started server.
        server = CubeServer(view, port=0)
        server.close()


class TestServerOverRetailCube:
    def test_string_dimensions_roundtrip(self, retail_relation, tmp_path):
        cube = sequential_cube(retail_relation)
        path = str(tmp_path / "retail.store")
        CubeStore.write(cube, path, aggregate="count")
        with StoredCubeView.open(path) as view:
            with CubeServer(view, port=0).start() as srv:
                status, body = _request(
                    srv.port,
                    "/query",
                    {"op": "slice", "fixed": {"city": "Rome"}},
                )
                assert status == 200
                groups = dict(
                    (tuple(values), value)
                    for values, value in body["result"]
                )
                assert groups[("keyboard", 2009)] == 2


def test_a_dimension_named_self_slices_in_process_and_on_the_wire(tmp_path):
    schema = Schema(["self", "k"], "m")
    rows = [("x", 1, 1), ("x", 2, 1), ("y", 1, 1)]
    oracle = CubeView(sequential_cube(Relation(schema, rows)))
    path = str(tmp_path / "self.store")
    CubeStore.write(oracle.cube, path, aggregate="count")
    spec = {"op": "slice", "fixed": {"self": "x"}}
    expected = json.dumps(
        {"ok": True, "result": execute_query(oracle, spec)}, sort_keys=True
    ).encode()
    with StoredCubeView.open(path) as view:
        assert view.slice(self="x") == oracle.slice(self="x") == {
            (1,): 1, (2,): 1,
        }
        assert view.dice(self=lambda v: v == "y") == {("y", 1): 1}
        with CubeServer(view, port=0).start() as srv:
            conn = http.client.HTTPConnection("127.0.0.1", srv.port, timeout=5)
            try:
                assert _ask(conn, json.dumps(spec).encode()) == (200, expected)
            finally:
                conn.close()


# -- persistent connections ---------------------------------------------------

TOTAL = json.dumps({"op": "total"}).encode()
#: Valid JSON to no depth ``json.loads`` reaches: it raises RecursionError.
NESTED = b"[" * 100_000 + b"]" * 100_000


def _post(path, body, extra=b""):
    """Raw bytes of one HTTP/1.1 POST with an exact Content-Length."""
    return (
        b"POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n%s\r\n%s"
        % (path, len(body), extra, body)
    )


def _read_replies(sock, count, within=5.0):
    """Parse ``count`` HTTP responses off ``sock``: [(status, headers, body)]."""
    sock.settimeout(within)
    reader = sock.makefile("rb")
    replies = []
    for _ in range(count):
        version, status, _reason = reader.readline().split(b" ", 2)
        assert version == b"HTTP/1.1"
        headers = {}
        for line in iter(reader.readline, b"\r\n"):
            name, value = line.decode("ascii").split(":", 1)
            headers[name.lower()] = value.strip()
        body = reader.read(int(headers["content-length"]))
        replies.append((int(status), headers, json.loads(body)))
    return replies


def _closed_within(sock, seconds):
    """True when the peer closes ``sock`` (EOF) inside ``seconds``."""
    sock.settimeout(seconds)
    try:
        return sock.recv(1) == b""
    except socket.timeout:
        return False
    except ConnectionError:
        return True


def _threads_return_to(baseline, within=2.0):
    deadline = time.time() + within
    while threading.active_count() > baseline and time.time() < deadline:
        time.sleep(0.01)
    return threading.active_count() <= baseline


def _connect(port):
    return socket.create_connection(("127.0.0.1", port), timeout=5)


@contextlib.contextmanager
def _no_free_slots(srv):
    """Hold every free admission slot; yields how many there were."""
    taken = 0
    while srv._slots.acquire(blocking=False):
        taken += 1
    try:
        yield taken
    finally:
        for _ in range(taken):
            srv._slots.release()


def _free_slots_return_to(srv, count, within=5.0):
    """True once ``count`` admission slots are free again."""
    deadline = time.time() + within
    while time.time() < deadline:
        with _no_free_slots(srv) as free:
            pass
        if free == count:
            return True
        time.sleep(0.02)
    return False


class TestKeepAlive:
    def test_mixed_requests_share_one_connection(self, server, view):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            for _ in range(3):
                conn.request("POST", "/query", body=TOTAL)
                resp = conn.getresponse()
                assert resp.status == 200
                assert json.loads(resp.read())["result"] == view.total()
                conn.request(
                    "POST", "/query",
                    body=json.dumps(
                        {"op": "rollup", "dimensions": ["bogus"]}
                    ),
                )
                resp = conn.getresponse()
                assert resp.status == 400
                assert json.loads(resp.read())["retriable"] is False
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                assert (resp.status, resp.read()) == (200, b'{"ok": true}')
            conn.request("GET", "/stats")
            counters = json.loads(conn.getresponse().read())["counters"]
        finally:
            conn.close()
        assert counters["serving.connections"] == 1
        assert counters["serving.requests"] == 6
        assert counters["serving.query_errors"] == 3
        assert counters["serving.bad_requests"] == 0

    def test_pipelined_requests_get_in_order_replies(self, server, view):
        with _connect(server.port) as sock:
            sock.sendall(
                _post(b"/query", TOTAL)
                + b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            )
            first, second = _read_replies(sock, 2)
        assert first[0] == 200 and first[2]["result"] == view.total()
        assert second[0] == 200 and second[2] == {"ok": True}

    def test_unrouted_post_body_does_not_poison_the_next_request(
        self, server
    ):
        with _connect(server.port) as sock:
            sock.sendall(
                _post(b"/nope", b"GET /stats HTTP/1.1\r\n\r\n")
                + _post(b"/query", TOTAL)
            )
            first, second = _read_replies(sock, 2)
        assert first[0] == 404
        assert second[0] == 200 and second[2]["ok"]

    @pytest.mark.parametrize(
        "length, status",
        [
            (b"-1", 400),
            (b"abc", 400),
            (b"9" * 5000, 400),
            (b"9999999999", 413),
            (b"%d" % (server_module.MAX_BODY_BYTES + 1), 413),
        ],
        ids=["negative", "text", "huge-digits", "10-digits", "max-plus-1"],
    )
    def test_bad_content_length_is_a_typed_reply_then_close(
        self, server, capfd, length, status
    ):
        baseline = threading.active_count()
        began = time.time()
        with _connect(server.port) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: "
                + length + b"\r\n\r\n"
            )
            [(got, headers, body)] = _read_replies(sock, 1, within=1.0)
            assert _closed_within(sock, 1.0)
        assert time.time() - began < 1.0
        assert got == status
        assert headers["connection"] == "close"
        assert body["ok"] is False and body["retriable"] is False
        assert server.counters.value("serving.bad_requests") == 1
        assert _threads_return_to(baseline)
        assert capfd.readouterr().err == ""

    def test_deeply_nested_body_is_400_and_the_connection_lives(
        self, server, capfd
    ):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        try:
            status, body = _ask(conn, NESTED)
            assert status == 400
            assert json.loads(body) == {
                "ok": False, "error": "body is not valid JSON",
                "retriable": False,
            }
            assert _ask(conn, TOTAL)[0] == 200
        finally:
            conn.close()
        assert server.counters.value("serving.connections") == 1
        assert capfd.readouterr().err == ""

    def test_post_without_content_length_is_400(self, server):
        with _connect(server.port) as sock:
            sock.sendall(b"POST /query HTTP/1.1\r\nHost: t\r\n\r\n")
            [(status, _headers, body)] = _read_replies(sock, 1)
            assert _closed_within(sock, 1.0)
        assert status == 400 and body["retriable"] is False

    def test_get_with_a_body_is_answered_then_closed(self, server):
        with _connect(server.port) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
            )
            [(status, headers, _body)] = _read_replies(sock, 1)
            assert _closed_within(sock, 1.0)
        assert status == 200 and headers["connection"] == "close"

    def test_short_body_and_idle_connection_time_out(
        self, view, monkeypatch, capfd
    ):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.2)
        with CubeServer(view, workers=1, port=0).start() as srv:
            baseline = threading.active_count()
            with _connect(srv.port) as stalled, _connect(srv.port) as idle:
                stalled.sendall(
                    b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{"
                )
                assert _closed_within(stalled, 1.0)
                assert _closed_within(idle, 1.0)
            assert _threads_return_to(baseline)
            assert srv.counters.value("serving.requests") == 0
        assert capfd.readouterr().err == ""

    def test_a_trickled_head_is_dropped_at_the_request_budget(
        self, view, monkeypatch, capfd
    ):
        """``IDLE_TIMEOUT_S`` bounds the whole request, not each recv:
        a byte every 0.1 s does not keep the connection alive."""
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.5)
        with CubeServer(view, workers=1, port=0).start() as srv:
            baseline = threading.active_count()
            with _connect(srv.port) as sock:
                began = time.time()
                for byte in _post(b"/query", TOTAL):  # ~7 s at this pace
                    sock.send(bytes([byte]))
                    if _closed_within(sock, 0.1):
                        break
                assert time.time() - began < 1.0
            assert _threads_return_to(baseline)
            assert srv.counters.value("serving.requests") == 0
        assert capfd.readouterr().err == ""

    def test_a_request_in_pieces_inside_the_budget_is_answered(
        self, view, monkeypatch
    ):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.5)
        request_bytes = _post(b"/query", TOTAL)
        n = len(request_bytes)
        with CubeServer(view, workers=1, port=0).start() as srv:
            with _connect(srv.port) as sock:
                for i in range(4):  # 0.3 s from first piece to last
                    time.sleep(0.1 if i else 0)
                    sock.sendall(request_bytes[i * n // 4:(i + 1) * n // 4])
                [(status, _headers, body)] = _read_replies(sock, 1)
        assert (status, body["result"]) == (200, view.total())

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /healthz HTTP/1.0\r\n\r\n",
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        ],
        ids=["http10", "http10-keep-alive", "connection-close"],
    )
    def test_one_reply_then_close(self, server, request_bytes):
        with _connect(server.port) as sock:
            sock.sendall(request_bytes)
            [(status, headers, body)] = _read_replies(sock, 1)
            assert _closed_within(sock, 1.0)
        assert (status, body) == (200, {"ok": True})
        assert headers["connection"] == "close"

    def test_shed_reply_leaves_the_connection_usable(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
        with _no_free_slots(server):
            conn.request("POST", "/query", body=TOTAL)
            resp = conn.getresponse()
            assert resp.status == 503
            assert json.loads(resp.read())["retriable"] is True
        try:
            conn.request("POST", "/query", body=TOTAL)
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["ok"]
        finally:
            conn.close()
        assert server.counters.value("serving.connections") == 1

    def test_deadline_reply_closes_the_connection(self, view, monkeypatch):
        release = threading.Event()
        real = server_module.execute_query

        def execute(view_, spec):
            if spec.get("op") == "slow":
                release.wait(5)
                return 0
            return real(view_, spec)

        monkeypatch.setattr(server_module, "execute_query", execute)
        with CubeServer(
            view, workers=2, queue_depth=0, deadline=0.05, port=0
        ).start() as srv:
            conn = http.client.HTTPConnection(
                "127.0.0.1", srv.port, timeout=5
            )
            try:
                conn.request("POST", "/query", body=b'{"op": "slow"}')
                resp = conn.getresponse()
                assert resp.status == 504
                assert resp.getheader("Connection") == "close"
                assert json.loads(resp.read())["retriable"] is True
                # Its thread is still computing: the retry reconnects.
                conn.request("POST", "/query", body=TOTAL)
                resp = conn.getresponse()
                assert resp.status == 200 and json.loads(resp.read())["ok"]
            finally:
                release.set()
                conn.close()
            assert srv.counters.value("serving.connections") == 2
            # No admission slot leaks: both come back once the sleeper ends.
            assert _free_slots_return_to(srv, 2)

    @pytest.mark.parametrize("limit", [0, 10], ids=["would-block", "partial"])
    def test_a_504_that_cannot_leave_whole_shuts_its_socket(
        self, view, monkeypatch, capfd, limit
    ):
        release = threading.Event()

        def execute(view_, spec):
            release.wait(5)
            return 0

        monkeypatch.setattr(server_module, "execute_query", execute)
        with CubeServer(view, workers=1, deadline=0.05, port=0) as srv:
            accept = srv._httpd.get_request

            def get_request():
                sock, address = accept()
                return _ShortSendSocket(sock, limit), address

            srv._httpd.get_request = get_request
            srv.start()
            try:
                with _connect(srv.port) as sock:
                    sock.sendall(_post(b"/query", TOTAL))
                    began = time.time()
                    sock.settimeout(2.0)
                    wire = b"".join(iter(lambda: sock.recv(65536), b""))
                    assert time.time() - began < 1.0
                # The accept loop did not stall on it.
                began = time.time()
                assert _request(srv.port, "/healthz") == (200, {"ok": True})
                assert time.time() - began < 1.0
            finally:
                release.set()
            assert wire == b"HTTP/1.1 504"[:limit]
            assert srv.counters.value("serving.deadline_exceeded") == 1
            assert _free_slots_return_to(srv, srv.workers + srv.queue_depth)
        assert capfd.readouterr().err == ""

    def test_client_reset_mid_reply_is_counted_not_printed(
        self, view, monkeypatch, capfd
    ):
        received = threading.Event()
        release = threading.Event()

        def execute(view_, spec):
            received.set()
            release.wait(5)
            return 0

        monkeypatch.setattr(server_module, "execute_query", execute)
        with CubeServer(view, workers=1, port=0).start() as srv:
            sock = _connect(srv.port)
            sock.sendall(_post(b"/query", TOTAL))
            assert received.wait(5)
            # SO_LINGER 0: close() sends RST, so the reply hits a dead peer.
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.close()
            release.set()
            deadline = time.time() + 5
            while (
                not srv.counters.value("serving.disconnects")
                and time.time() < deadline
            ):
                time.sleep(0.01)
            assert srv.counters.value("serving.disconnects") == 1
        assert capfd.readouterr().err == ""

    def test_close_drops_idle_and_in_flight_connections(
        self, view, monkeypatch
    ):
        received = threading.Event()
        release = threading.Event()
        real = server_module.execute_query

        def execute(view_, spec):
            if spec.get("op") == "slow":
                received.set()
                release.wait(5)
                return 0
            return real(view_, spec)

        monkeypatch.setattr(server_module, "execute_query", execute)
        srv = CubeServer(view, workers=2, port=0).start()
        socks = [_connect(srv.port) for _ in range(5)]
        try:
            for sock in socks[:4]:  # kept alive, now idle
                sock.sendall(_post(b"/query", TOTAL))
                assert _read_replies(sock, 1)[0][0] == 200
            socks[4].sendall(_post(b"/query", b'{"op": "slow"}'))
            assert received.wait(5)
            began = time.time()
            srv.close()
            assert time.time() - began < 2.0
            for sock in socks:
                assert _closed_within(sock, 1.0)
        finally:
            release.set()
            for sock in socks:
                sock.close()


class TestConnectionCap:
    """Past ``MAX_CONNECTIONS`` live connections the accept thread answers
    503 and closes: no handler thread starts for the refused one."""

    CAP = 4  # the test opens at most CAP + 2 sockets

    def test_the_connection_past_the_cap_is_503_then_closed(
        self, view, monkeypatch
    ):
        monkeypatch.setattr(server_module, "MAX_CONNECTIONS", self.CAP)
        with CubeServer(view, port=0).start() as srv:
            before = threading.active_count()
            idle = [_connect(srv.port) for _ in range(self.CAP)]
            try:
                refused = _connect(srv.port)
                try:
                    [(status, headers, body)] = _read_replies(refused, 1)
                    assert _closed_within(refused, 2.0)
                finally:
                    refused.close()
                assert (status, body) == (
                    503, {"ok": False, "error": "overloaded", "retriable": True}
                )
                assert headers["connection"] == "close"
                assert threading.active_count() - before <= self.CAP
                assert srv.counters.value("serving.shed") == 1
                assert srv.counters.value("serving.connections") == self.CAP
                # One leaves; once its thread has ended, a newcomer is served.
                idle.pop().close()
                deadline = time.time() + 5
                while len(srv._connections) == self.CAP and time.time() < deadline:
                    time.sleep(0.01)
                idle.append(_connect(srv.port))
                idle[-1].sendall(_post(b"/query", TOTAL))
                assert _read_replies(idle[-1], 1)[0][0] == 200
                assert srv.counters.value("serving.shed") == 1
            finally:
                for sock in idle:
                    sock.close()

    def test_a_burst_past_the_cap_is_held_or_shed_at_once(self, view):
        """The listen queue is ``MAX_CONNECTIONS`` deep: of a burst of
        ``MAX_CONNECTIONS + 36`` clients, each sending half a request
        head, the cap's worth are held and the rest get their 503 within
        2 s.  A queue of 5 dropped most of the burst's SYNs, which came
        back together after 1 s and overflowed it again."""
        cap, extra = server_module.MAX_CONNECTIONS, 36
        with CubeServer(view, port=0).start() as srv:
            socks = []
            try:
                for _ in range(cap + extra):
                    sock = socket.socket()
                    sock.setblocking(False)
                    sock.connect_ex(("127.0.0.1", srv.port))
                    socks.append(sock)
                unsent, replies = set(socks), {}
                deadline = time.time() + 2.0
                while time.time() < deadline and len(replies) < extra:
                    readable, writable, _ = select.select(
                        [s for s in socks if s not in replies], list(unsent),
                        [], 0.05,
                    )
                    for sock in writable:
                        with contextlib.suppress(OSError):
                            sock.send(b"POST /query HTTP/1.1\r\nContent-")
                        unsent.discard(sock)
                    for sock in readable:
                        with contextlib.suppress(OSError):
                            replies[sock] = sock.recv(64)
                shed = [r for r in replies.values() if r.startswith(
                    b"HTTP/1.1 503 ")]
                assert (len(shed), len(replies)) == (extra, extra)
                assert not unsent
                assert srv.counters.value("serving.connections") == cap
                assert srv.counters.value("serving.shed") == extra
            finally:
                for sock in socks:
                    sock.close()


# -- the request head ---------------------------------------------------------

_LONG = server_module.MAX_LINE_BYTES
#: Requests the head reader refuses, each with its status; the connection
#: closes after the reply.  Over-long lines end exactly at the byte that
#: trips the limit, so the refusal leaves nothing unread.
REFUSALS = {
    "chunked-post": (
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
        b"Content-Length: 5\r\n\r\n%x\r\n%s\r\n0\r\n\r\n"
        % (len(TOTAL), TOTAL),
        400,
    ),
    "conflicting-lengths": (
        b"POST /query HTTP/1.1\r\nContent-Length: 15\r\n"
        b"Content-Length: 2\r\n\r\n" + TOTAL,
        400,
    ),
    "folded-header": (
        b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n 2\r\n\r\n", 400,
    ),
    "header-without-colon": (b"GET /healthz HTTP/1.1\r\nX-A 1\r\n\r\n", 400),
    "space-before-colon": (b"GET /healthz HTTP/1.1\r\nHost : t\r\n\r\n", 400),
    "http09-line": (b"GET /healthz\r\n", 400),
    "bad-version": (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    "two-digit-version": (b"GET /healthz HTTP/1.10\r\n\r\n", 400),
    "http2": (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    "unknown-method": (b"PUT /query HTTP/1.1\r\n\r\n", 501),
    "request-line-too-long": (b"GET /" + b"a" * (_LONG - 4), 414),
    "header-line-too-long": (
        b"GET /healthz HTTP/1.1\r\nX: " + b"a" * (_LONG - 2), 431,
    ),
    "too-many-headers": (
        b"GET /healthz HTTP/1.1\r\n"
        + b"X: 1\r\n" * (server_module.MAX_HEADERS + 1),
        431,
    ),
}


class TestRequestHead:
    """The server reads the request head itself: one reply per raw head,
    after which the connection is closed or answers the next request."""

    ACCEPTED = {
        "lowercase-content-length": (
            b"POST /query HTTP/1.1\r\ncontent-length: %d\r\n\r\n%s"
            % (len(TOTAL), TOTAL),
            False,
        ),
        "same-length-twice": (
            _post(b"/query", TOTAL, b"Content-Length: %d\r\n" % len(TOTAL)),
            False,
        ),
        "repeated-header": (
            b"GET /healthz HTTP/1.1\r\nX-A: 1\r\nX-A: 2\r\n\r\n", False,
        ),
        "most-headers": (
            b"GET /healthz HTTP/1.1\r\n"
            + b"X: 1\r\n" * server_module.MAX_HEADERS + b"\r\n",
            False,
        ),
        "uppercase-connection-close": (
            b"GET /healthz HTTP/1.1\r\nCONNECTION: close\r\n\r\n", True,
        ),
        "close-in-a-token-list": (
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive, Close\r\n\r\n",
            True,
        ),
        "chunked-get": (
            b"GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"0\r\n\r\n",
            True,
        ),
    }
    CASES = {
        **{name: (raw, 200, closed) for name, (raw, closed) in ACCEPTED.items()},
        **{name: (raw, status, True) for name, (raw, status) in REFUSALS.items()},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_status_and_whether_the_connection_closes(
        self, server, capfd, name
    ):
        request_bytes, status, closed = self.CASES[name]
        with _connect(server.port) as sock:
            sock.sendall(request_bytes)
            # At once: an HTTP/0.9 line used to wait IDLE_TIMEOUT_S.
            [(got, headers, body)] = _read_replies(sock, 1, within=1.0)
            if closed:
                assert _closed_within(sock, 1.0)
            else:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                assert _read_replies(sock, 1)[0][0] == 200
        assert got == status
        assert (headers.get("connection") == "close") == closed
        assert body["ok"] is (status == 200)
        assert server.counters.value("serving.bad_requests") == (status != 200)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("version", [b"HTTP/1.1", b"HTTP/1.0"])
    def test_expect_100_continue(self, server, view, version):
        """An HTTP/1.1 client gets the interim 100 before it sends the
        body; an HTTP/1.0 one's expectation is ignored."""
        head = (
            b"POST /query %s\r\nEXPECT: 100-Continue\r\n"
            b"Content-Length: %d\r\n\r\n" % (version, len(TOTAL))
        )
        interim = b"HTTP/1.1 100 Continue\r\n\r\n"
        with _connect(server.port) as sock:
            if version == b"HTTP/1.1":
                sock.sendall(head)
                assert sock.makefile("rb").read(len(interim)) == interim
                sock.sendall(TOTAL)
            else:
                sock.sendall(head + TOTAL)
            [(status, _headers, body)] = _read_replies(sock, 1)
        assert (status, body["result"]) == (200, view.total())

    def test_no_request_needs_the_stdlib_header_parser(
        self, server, view, monkeypatch, capfd
    ):
        def parse_headers(*_args, **_kwargs):
            raise AssertionError("http.client.parse_headers was called")

        monkeypatch.setattr(http.client, "parse_headers", parse_headers)
        [(a1, a2)] = sorted(view.rollup("a1", "a2"))[:1]
        specs = [
            {"op": "rollup", "dimensions": ["a1"]},
            {"op": "total"},
            {"op": "slice", "fixed": {"a1": a1, "a2": a2}},
            {"op": "drilldown", "group": {"a1": a1}, "into": "a2"},
            {"op": "top", "dimensions": ["a1"], "k": 2},
            {"op": "pivot", "row": "a1", "column": "a2"},
            {"op": "cuboid_sizes"},
        ]
        assert {spec["op"] for spec in specs} == set(server_module.WIRE_OPS)
        with _connect(server.port) as sock:  # one kept-alive connection
            for spec in specs:
                sock.sendall(_post(b"/query", json.dumps(spec).encode()))
                [(status, _headers, body)] = _read_replies(sock, 1)
                assert status == 200 and body["ok"], (spec, body)
            for path in (b"/healthz", b"/stats"):
                sock.sendall(b"GET %s HTTP/1.1\r\nHost: t\r\n\r\n" % path)
                assert _read_replies(sock, 1)[0][0] == 200
        assert server.counters.value("serving.connections") == 1
        assert capfd.readouterr().err == ""


def _wire_after_eof(port, chunks, pause=0.0):
    """Send ``chunks``, ``pause`` s apart, then EOF; every byte received,
    without the ``Date`` line (it may tick between two calls)."""
    with _connect(port) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        for chunk in chunks:
            sock.send(chunk)
            time.sleep(pause)
        sock.shutdown(socket.SHUT_WR)
        wire = b"".join(iter(lambda: sock.recv(65536), b""))
    return re.sub(rb"Date: [^\r]*\r\n", b"", wire)


class TestRequestReader:
    """The handler's own buffer over ``recv``: lines and bodies come out
    the same however the bytes are split."""

    def test_one_byte_per_send_gets_the_one_send_reply(self, server):
        request_bytes = _post(b"/query", TOTAL)
        assert b"\r\n" in request_bytes  # so one send splits "\r" | "\n"
        whole = _wire_after_eof(server.port, [request_bytes])
        trickled = _wire_after_eof(
            server.port,
            [bytes([byte]) for byte in request_bytes],
            pause=0.002,
        )
        assert whole.startswith(b"HTTP/1.1 200 ")
        assert trickled == whole

    def test_pipelined_requests_and_a_third_head_in_one_send(
        self, server, view
    ):
        rollup = json.dumps({"op": "rollup", "dimensions": ["a1"]}).encode()
        third = _post(b"/query", TOTAL)
        head = third[: -len(TOTAL)]
        with _connect(server.port) as sock:
            sock.sendall(
                _post(b"/query", TOTAL) + _post(b"/query", rollup) + head
            )
            first, second = _read_replies(sock, 2)
            assert not _closed_within(sock, 0.2)  # waiting for the body
            sock.sendall(TOTAL)
            [last] = _read_replies(sock, 1)
        assert first[0] == second[0] == last[0] == 200
        assert first[2]["result"] == last[2]["result"] == view.total()
        assert second[2]["result"] == json.loads(
            json.dumps(execute_query(view, json.loads(rollup)))
        )

    def test_a_max_size_body_spans_many_recvs(self, server, view):
        body = TOTAL + b" " * (server_module.MAX_BODY_BYTES - len(TOTAL))
        with _connect(server.port) as sock:
            sock.sendall(_post(b"/query", body))
            [(status, _headers, reply)] = _read_replies(sock, 1)
            assert (status, reply["result"]) == (200, view.total())
            # Nothing over- or under-read: the connection answers again.
            sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
            assert _read_replies(sock, 1)[0][0] == 200


@pytest.mark.parametrize(
    "t",
    [0, 1709251199, 2147483648, 1704067199],
    ids=["epoch", "2024-02-29T23:59:59", "2038-01-19T03:14:08", "year-end"],
)
def test_http_date_is_email_formatdate(t):
    import email.utils

    assert server_module._http_date(t) == email.utils.formatdate(
        t, usegmt=True
    )


class _RecordingSocket:
    """Delegates to a real socket, recording each ``send``/``sendall``."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def send(self, data, *flags):
        self._sends.append(bytes(data))
        return self._sock.send(data, *flags)

    def sendall(self, data, *flags):
        self._sends.append(bytes(data))
        return self._sock.sendall(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _ShortSendSocket:
    """A real socket whose ``send`` writes at most ``limit`` bytes; with
    ``limit`` 0 it would block."""

    def __init__(self, sock, limit):
        self._sock = sock
        self._limit = limit

    def send(self, data, *flags):
        if not self._limit:
            raise BlockingIOError
        return self._sock.send(data[: self._limit], *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestResponseFraming:
    """Every reply is one HTTP/1.1 response in one socket write."""

    REQUESTS = {
        "query-200": (_post(b"/query", TOTAL), 200),
        "query-error-400": (_post(b"/query", b'{"op": "dice"}'), 400),
        "invalid-json-400": (_post(b"/query", b"not json"), 400),
        "deep-json-400": (_post(b"/query", NESTED), 400),
        "healthz-200": (b"GET /healthz HTTP/1.1\r\n\r\n", 200),
        "stats-200": (b"GET /stats HTTP/1.1\r\n\r\n", 200),
        "get-404": (b"GET /nope HTTP/1.1\r\n\r\n", 404),
        "post-404": (_post(b"/nope", b"{}"), 404),
        "bad-length-400": (
            b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400,
        ),
        "too-long-413": (
            b"POST /query HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n", 413,
        ),
        "bad-request-line-400": (b"nonsense\r\n\r\n", 400),
        "unknown-method-501": (b"PUT /query HTTP/1.1\r\n\r\n", 501),
        "shed-503": (_post(b"/query", b'{"op": "shed"}'), 503),
        "deadline-504": (_post(b"/query", b'{"op": "slow"}'), 504),
        **{
            f"{name}-{status}": (raw, status)
            for name, (raw, status) in REFUSALS.items()
        },
    }

    @pytest.fixture
    def recording_server(self, view, monkeypatch):
        real = server_module.execute_query

        def execute(view_, spec):
            if spec.get("op") == "slow":
                time.sleep(0.2)
                return 0
            return real(view_, spec)

        monkeypatch.setattr(server_module, "execute_query", execute)
        sends = []
        with CubeServer(view, workers=1, deadline=0.05, port=0) as srv:
            accept = srv._httpd.get_request

            def get_request():
                sock, address = accept()
                return _RecordingSocket(sock, sends), address

            srv._httpd.get_request = get_request
            yield srv.start(), sends

    @pytest.mark.parametrize("name", sorted(REQUESTS))
    def test_reply_is_one_response_in_one_write(self, recording_server, name):
        srv, sends = recording_server
        request_bytes, status = self.REQUESTS[name]
        shed = name == "shed-503"
        with _no_free_slots(srv) if shed else contextlib.nullcontext():
            with _connect(srv.port) as sock:
                sock.sendall(request_bytes)
                sock.shutdown(socket.SHUT_WR)  # EOF ends the connection
                wire = b"".join(iter(lambda: sock.recv(65536), b""))
        assert sends == [wire]
        head, _, body = wire.partition(b"\r\n\r\n")
        status_line, *header_lines = head.decode("ascii").split("\r\n")
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        headers = dict(line.lower().split(": ", 1) for line in header_lines)
        assert headers["content-type"] == "application/json"
        assert int(headers["content-length"]) == len(body)
        assert isinstance(json.loads(body), dict)


# -- the answer-bytes cache ---------------------------------------------------


def _ask(conn, body):
    """POST raw ``body`` to /query on ``conn``; (status, raw reply body)."""
    conn.request("POST", "/query", body=body)
    reply = conn.getresponse()
    return reply.status, reply.read()


def _oracle_body(oracle, spec):
    """The reply the wire format promises: the oracle's answer, encoded."""
    return json.dumps(
        {"ok": True, "result": execute_query(oracle, spec)}, sort_keys=True
    ).encode()


@pytest.fixture
def conn(server):
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=5)
    yield connection
    connection.close()


class TestAnswerBytesCache:
    """A result-cache hit is answered with the bytes the miss encoded."""

    @pytest.fixture(scope="class")
    def oracle(self, relation):
        return CubeView(sequential_cube(relation))

    @pytest.fixture(scope="class")
    def anchor(self, oracle):
        return sorted(oracle.rollup("a1", "a2"))[0]

    def test_hit_equals_its_miss_and_the_oracle_for_every_wire_op(
        self, server, conn, oracle, anchor
    ):
        a1, a2 = anchor
        specs = [
            {"op": "rollup", "dimensions": ["a3", "a1"]},
            {"op": "total"},
            {"op": "slice", "fixed": {"a1": a1, "a2": a2}},
            {"op": "drilldown", "group": {"a1": a1}, "into": "a2"},
            {"op": "top", "dimensions": ["a1"], "k": 2},
            {"op": "pivot", "row": "a1", "column": "a2"},
            {"op": "cuboid_sizes"},
        ]
        assert {spec["op"] for spec in specs} == set(server_module.WIRE_OPS)
        for held, spec in enumerate(specs, start=1):
            body = json.dumps(spec).encode()
            expected = _oracle_body(oracle, spec)
            assert _ask(conn, body) == (200, expected)  # the miss
            assert _ask(conn, body) == (200, expected)  # the hit
            # One wire query is one lookup and one slot: top and pivot do
            # not also probe for, or cache, the rollup beneath them.
            assert len(server._results) == held
            assert server.counters.value("serving.cache_miss") == held
            assert server.counters.value("serving.cache_hit") == held
        assert server.counters.value("serving.requests") == 2 * len(specs)

    def test_key_order_shares_an_entry(self, server, conn):
        first = _ask(conn, b'{"op": "top", "dimensions": ["a1"], "k": 2}')
        again = _ask(conn, b'{"k": 2, "dimensions": ["a1"], "op": "top"}')
        assert first == again and first[0] == 200
        assert len(server._results) == 1
        assert server.counters.value("serving.cache_hit") == 1

    def test_k_into_and_fixed_values_do_not_share_one(
        self, server, conn, oracle, anchor
    ):
        a1, other = anchor[0], sorted(oracle.rollup("a1"))[-1][0]
        assert a1 != other
        for spec in [
            {"op": "top", "dimensions": ["a1"], "k": 2},
            {"op": "top", "dimensions": ["a1"], "k": 3},
            {"op": "drilldown", "group": {"a1": a1}, "into": "a2"},
            {"op": "drilldown", "group": {"a1": a1}, "into": "a3"},
            {"op": "drilldown", "group": {"a1": other}, "into": "a3"},
        ]:
            assert _ask(conn, json.dumps(spec).encode()) == (
                200, _oracle_body(oracle, spec),
            )
        assert len(server._results) == 5
        assert server.counters.value("serving.cache_hit") == 0

    def test_a_400_is_never_cached(self, server, conn):
        bad = b'{"op": "rollup", "dimensions": ["bogus"]}'
        first, again = _ask(conn, bad), _ask(conn, bad)
        assert first == again and first[0] == 400
        assert server.counters.value("serving.query_errors") == 2
        assert server.counters.value("serving.cache_hit") == 0
        assert len(server._results) == 0
        assert server.stats()["result_cache"] == {
            "entries": 0, "payload_bytes": 0,
        }

    def test_stress_keeps_the_bound_and_the_bytes(self, store_path, oracle):
        # More client threads than cores, a short switch interval, a cache
        # smaller than the pool: handler-thread probes race worker-thread
        # inserts, and neither may overfill the LRU or serve a wrong body.
        pool = [
            json.dumps({"op": "rollup", "dimensions": dims})
            for dims in (["a1"], ["a2"], ["a3"], ["a1", "a2"], ["a2", "a3"])
        ]
        expected = {body: _oracle_body(oracle, json.loads(body)) for body in pool}
        wrong, overfull, rounds, clients = [], [], 60, 3

        def client(offset):
            connection = http.client.HTTPConnection(
                "127.0.0.1", srv.port, timeout=10
            )
            try:
                for step in range(rounds):
                    body = pool[(offset + step) % len(pool)]
                    if _ask(connection, body) != (200, expected[body]):
                        wrong.append(body)
                    if len(srv._results) > 3:
                        overfull.append(len(srv._results))
            finally:
                connection.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with StoredCubeView.open(store_path) as view:
                with CubeServer(
                    view, workers=2, port=0, result_cache=3
                ).start() as srv:
                    threads = [
                        threading.Thread(target=client, args=(i,))
                        for i in range(clients)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                    assert not any(t.is_alive() for t in threads)
                    stats = srv.stats()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [] and overfull == []
        assert stats["result_cache"]["entries"] <= 3
        counters = stats["counters"]
        assert counters["serving.cache_hit"] + counters["serving.cache_miss"] == (
            rounds * clients
        )
        assert counters["serving.shed"] == counters["serving.query_errors"] == 0


class TestCacheHitsBypassAdmission:
    """Hits take no slot; misses are admitted, timed out and shed as before."""

    WORKERS, QUEUE_DEPTH = 1, 1

    @pytest.fixture
    def gated(self, view, monkeypatch):
        """(server, release, calls): ``{"op": "slow", ...}`` specs block
        their worker until ``release`` is set, then answer 0."""
        release, calls = threading.Event(), []
        real = server_module.execute_query

        def execute(view_, spec):
            if spec.get("op") == "slow":
                calls.append(spec)
                assert release.wait(10)
                return 0
            return real(view_, spec)

        monkeypatch.setattr(server_module, "execute_query", execute)
        with CubeServer(
            view, workers=self.WORKERS, queue_depth=self.QUEUE_DEPTH,
            deadline=0.05, port=0,
        ).start() as srv:
            try:
                yield srv, release, calls
            finally:
                release.set()

    def _hold_every_slot(self, srv, tag):
        """Admit one blocked query per slot; each is cut at its deadline
        while its worker (running or queued) keeps the slot."""
        for n in range(self.WORKERS + self.QUEUE_DEPTH):
            spec = {"op": "slow", "tag": tag, "n": n}
            assert _request(srv.port, "/query", spec)[0] == 504

    def test_uncached_is_shed_while_cached_still_answers(self, gated):
        srv, _release, _calls = gated
        total = _request(srv.port, "/query", {"op": "total"})
        assert total[0] == 200
        self._hold_every_slot(srv, "a")
        status, body = _request(
            srv.port, "/query", {"op": "rollup", "dimensions": ["a1"]}
        )
        assert status == 503 and body["retriable"] is True
        assert _request(srv.port, "/query", {"op": "total"}) == total
        assert srv.counters.value("serving.shed") == 1
        assert srv.counters.value("serving.cache_hit") == 1

    def test_a_504_is_a_hit_on_retry_once_its_worker_finishes(self, gated):
        srv, release, calls = gated
        assert _request(srv.port, "/query", {"op": "slow"})[0] == 504
        release.set()
        slots = self.WORKERS + self.QUEUE_DEPTH
        assert _free_slots_return_to(srv, slots)
        assert _request(srv.port, "/query", {"op": "slow"}) == (
            200, {"ok": True, "result": 0},
        )
        assert len(calls) == 1  # the retry never reached a worker
        assert srv.counters.value("serving.cache_hit") == 1

    def test_no_slot_leaks_through_hits_or_expired_workers(self, gated):
        srv, release, _calls = gated
        slots = self.WORKERS + self.QUEUE_DEPTH
        _request(srv.port, "/query", {"op": "total"})
        self._hold_every_slot(srv, "a")
        for _ in range(3):  # hits while every slot is held
            assert _request(srv.port, "/query", {"op": "total"})[0] == 200
        release.set()
        assert _free_slots_return_to(srv, slots)
        # Every slot is back: a fresh blocked query per slot is admitted
        # (cut at its deadline, not shed), and only the next one is shed.
        release.clear()
        self._hold_every_slot(srv, "b")
        assert srv.counters.value("serving.shed") == 0
        assert _request(srv.port, "/query", {"op": "slow", "n": -1})[0] == 503
        assert srv.counters.value("serving.deadline_exceeded") == 2 * slots


# -- no import on the request path ---------------------------------------------

#: Runs in a child interpreter (pytest has already imported nearly all of
#: ``repro``, which would hide a lazy import): serve, print the port and
#: ``sys.modules`` once listening, wait for the client to finish, print
#: what the requests made the server import.
_SERVE_AND_REPORT_IMPORTS = """
import json, sys
from repro.serving import CubeServer, StoredCubeView
with StoredCubeView.open(sys.argv[1]) as view:
    with CubeServer(view, port=0).start() as server:
        before = set(sys.modules)
        print(server.port, flush=True)
        print(json.dumps(sorted(before)), flush=True)
        sys.stdin.readline()
        print(json.dumps(sorted(set(sys.modules) - before)), flush=True)
"""


def test_no_request_makes_the_server_import_anything(relation, tmp_path):
    import subprocess

    # A partial store, so a rollup also takes the re-aggregation path.
    run = SPCube(ClusterConfig(num_machines=4)).compute(relation)
    path = str(tmp_path / "partial.store")
    CubeStore.write(run.cube, path, aggregate="count", cuboids=[0b1111, 0b11])
    child = subprocess.Popen(
        [sys.executable, "-c", _SERVE_AND_REPORT_IMPORTS, path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(child.stdout.readline())
        loaded = json.loads(child.stdout.readline())
        statuses = [
            _request(port, "/query", spec)[0]
            for spec in [
                {"op": "rollup", "dimensions": ["a1"]},  # re-aggregated
                {"op": "rollup", "dimensions": ["a1"]},  # cache hit
                {"op": "total"},
                {"op": "slice", "fixed": {"a1": 0}},
                {"op": "drilldown", "group": {"a1": 0}, "into": "a2"},
                {"op": "top", "dimensions": ["a1"], "k": 2},
                {"op": "pivot", "row": "a1", "column": "a2"},
                {"op": "cuboid_sizes"},
                {"op": "rollup", "dimensions": ["bogus"]},
            ]
        ]
        assert statuses == [200] * 8 + [400]
        assert set(server_module.WIRE_OPS) == {
            "rollup", "total", "slice", "drilldown", "top", "pivot",
            "cuboid_sizes",
        }  # one of every wire op was sent above
        with _connect(port) as sock:
            sock.sendall(_post(b"/query", b"not json"))
            assert _read_replies(sock, 1)[0][0] == 400
        with _connect(port) as sock:  # oversized: refused unread
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n"
                % (server_module.MAX_BODY_BYTES + 1)
            )
            assert _read_replies(sock, 1)[0][0] == 413
        with _connect(port) as sock:  # not HTTP at all
            sock.sendall(b"GARBAGE\r\n\r\n")
            assert _read_replies(sock, 1)[0][0] == 400
        assert _request(port, "/stats")[0] == 200
        assert _request(port, "/healthz") == (200, {"ok": True})
        assert _request(port, "/nope")[0] == 404
        grown, _ = child.communicate("done\n", timeout=30)
    finally:
        child.kill()
        child.wait()
    assert json.loads(grown) == []
    # What serving does not need is not held either: no HTTP client, MIME
    # or TLS library, and no OpenSSL behind hashlib.
    unneeded = (
        "http.server", "http.client", "email", "ssl", "_ssl", "hashlib",
        "_hashlib", "mimetypes", "html",
    )
    assert [
        module for module in loaded
        if any(module == u or module.startswith(u + ".") for u in unneeded)
    ] == []
