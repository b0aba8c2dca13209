"""Closed-loop client: every attempt is counted, failures included."""

import itertools
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench import loadgen


class _Flaky(BaseHTTPRequestHandler):
    """200 for even bodies, 500 for odd ones, a dropped socket for 'drop'."""

    protocol_version = "HTTP/1.1"

    def log_message(self, *args):
        pass

    def do_POST(self):  # noqa: N802 - stdlib naming
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if body == b"drop":
            self.close_connection = True
            self.connection.close()
            return
        status = 200 if int(body) % 2 == 0 else 500
        reply = b'{"ok": true}'
        self.send_response(status)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)


@pytest.fixture
def server():
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Flaky)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()


def test_failures_count_against_attempts(server):
    bodies = [b"0", b"1", b"drop", b"2"]
    result = loadgen.closed_loop(
        "127.0.0.1", server.server_port, bodies,
        [itertools.cycle(range(4))], 0.3,
    )
    samples = result.samples
    assert len(samples) >= 4
    statuses = {s.body: s.status for s in samples}
    assert statuses == {0: 200, 1: 500, 2: 0, 3: 200}
    ok = loadgen.outcomes(samples, lambda s: True)
    assert ok.count(False) == sum(1 for s in samples if s.body in (1, 2))
    # a wrong answer with HTTP 200 is a failure too
    wrong = loadgen.outcomes(samples, lambda s: s.body != 3)
    assert wrong.count(False) == sum(1 for s in samples if s.body in (1, 2, 3))
    assert len(ok) == len(samples)


def test_request_ids_are_unique_per_connection(server):
    result = loadgen.closed_loop(
        "127.0.0.1", server.server_port, [b"0"],
        [itertools.repeat(0), itertools.repeat(0)], 0.2,
    )
    rids = [s.rid for s in result.samples]
    assert len(set(rids)) == len(rids)
    assert {rid.split("-")[0] for rid in rids} == {"r0", "r1"}
