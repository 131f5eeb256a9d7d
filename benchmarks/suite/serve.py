"""The measured server in its own process, and the closed-loop clients.

The server is ``python -m repro serve-cube STORE --port 0`` with default
flags; the port is parsed from its banner and readiness is a polled
``/healthz`` with a timeout.  Clients are closed-loop (each dashboard or
analyst caller waits for its reply before asking again), one thread per
client in this one generator process, each on a reused
``http.client.HTTPConnection`` (it reconnects by itself while the server
speaks HTTP/1.0 and stays connected once it keeps connections alive).
Every response body is compared byte-for-byte with the expected one.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

READY_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 30.0
_BANNER = re.compile(r"http://127\.0\.0\.1:(\d+)")


class ServerFailed(RuntimeError):
    """The server process died or never became ready."""


class Server:
    """A ``serve-cube`` child process; the creator calls :meth:`close`."""

    def __init__(self, store_path: str, src_dir: str, log_path: str):
        self.started = time.perf_counter()
        env = dict(os.environ, PYTHONPATH=src_dir, PYTHONUNBUFFERED="1")
        # The banner goes to a file, not a pipe nobody drains.
        self._log_path = log_path
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-cube", store_path,
             "--port", "0"],
            env=env, stdout=self._log, stderr=self._log,
        )
        try:
            self.port = self._await_banner()
            self._await_healthz()
        except BaseException:
            self.close()
            raise
        self.start_to_ready_s = time.perf_counter() - self.started

    def _expired(self) -> bool:
        if self.process.poll() is not None:
            raise ServerFailed(
                f"server exited with {self.process.returncode}: "
                + self.log_tail()
            )
        return time.perf_counter() - self.started > READY_TIMEOUT_S

    def _await_banner(self) -> int:
        while not self._expired():
            with open(self._log_path, "r", errors="replace") as handle:
                match = _BANNER.search(handle.read())
            if match:
                return int(match.group(1))
            time.sleep(0.005)
        raise ServerFailed("server printed no banner: " + self.log_tail())

    def _await_healthz(self) -> None:
        while not self._expired():
            try:
                if get_json(self.port, "/healthz") == {"ok": True}:
                    return
            except ValueError:  # not listening yet: empty reply
                pass
            time.sleep(0.005)
        raise ServerFailed("server never answered /healthz")

    def log_tail(self) -> str:
        with open(self._log_path, "r", errors="replace") as handle:
            return handle.read()[-500:].strip()

    def stats(self) -> Dict:
        return get_json(self.port, "/stats")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServerFailed("no VmHWM in /proc status")

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def get_json(port: int, path: str):
    client = Client(port)
    try:
        return json.loads(client.get(path)[1])
    finally:
        client.close()


class Client:
    """One closed-loop caller on one reused connection."""

    def __init__(self, port: int):
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
        )

    def _exchange(self, method: str, path: str, body: Optional[bytes]):
        try:
            self._connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"} if body else {},
            )
            response = self._connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self._connection.close()
            return -1, b""

    def query(self, body: bytes):
        """``(status, response bytes)``; ``-1`` for a transport error."""
        return self._exchange("POST", "/query", body)

    def get(self, path: str):
        return self._exchange("GET", path, None)

    def close(self) -> None:
        self._connection.close()


def healthz_floor(port: int, count: int) -> List[float]:
    """Latencies of ``count`` ``/healthz`` calls: HTTP with no query."""
    client = Client(port)
    latencies = []
    try:
        for _ in range(count):
            started = time.perf_counter()
            client.get("/healthz")
            latencies.append(time.perf_counter() - started)
    finally:
        client.close()
    return latencies


def closed_loop(
    port: int,
    bodies: Sequence[bytes],
    expected: Sequence[bytes],
    clients: int,
    seed: int,
    min_requests: int,
    seconds: float,
    tracer,
) -> Dict:
    """Drive ``clients`` closed-loop callers; returns latencies and failures.

    Each client draws specs uniformly from the pool with its own seeded
    generator and keeps going until it has sent its share of
    ``min_requests`` *and* ``seconds`` have passed.
    """
    per_client = -(-min_requests // clients)
    results: List[Optional[Dict]] = [None] * clients
    parent = tracer.current()
    start_line = threading.Barrier(clients + 1)

    def run(client_id: int) -> None:
        rng = random.Random(seed * 1000 + client_id)
        client = Client(port)
        latencies, failures, sizes = [], 0, []
        start_line.wait()
        deadline = time.perf_counter() + seconds
        try:
            while len(latencies) < per_client or (
                time.perf_counter() < deadline
            ):
                index = rng.randrange(len(bodies))
                with tracer.span(
                    "http.query", parent=parent, concurrent=1, spec=index
                ) as counts:
                    begun = time.perf_counter()
                    status, payload = client.query(bodies[index])
                    latencies.append(time.perf_counter() - begun)
                    counts["status"] = status
                    counts["bytes"] = len(payload)
                sizes.append(len(payload))
                if status != 200 or payload != expected[index]:
                    failures += 1
        finally:
            client.close()
        results[client_id] = {
            "latencies": latencies, "failures": failures, "sizes": sizes,
        }

    threads = [
        threading.Thread(target=run, args=(i,)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    start_line.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - began
    if any(result is None for result in results):
        raise RuntimeError("a client thread died")
    latencies = [x for result in results for x in result["latencies"]]
    return {
        "latencies": latencies,
        "sizes": [x for result in results for x in result["sizes"]],
        "failures": sum(result["failures"] for result in results),
        "wall": wall,
    }
