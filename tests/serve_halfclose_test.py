#!/usr/bin/env python3
"""Regression test: abusive TCP clients must not wedge or kill qulrb_serve.

Five hostile clients in sequence against one server:
  1. half-close — send a solve, shut down the write side (server sees EOF
     while the solve is still running), never read the response;
  2. hard close — send a solve and close with SO_LINGER 0, so the server's
     response write hits a reset socket (EPIPE/ECONNRESET path);
  3. slow reader — send a solve and simply stop reading;
  4. deep nesting — one line of 200 000 '[' then 200 000 ']', which must be
     answered with an error (not overflow the JSON parser's stack);
  5. oversized line — more than the 1 MiB request-line cap with no newline,
     which must be answered with "line too long" before the server closes.

After all five, a well-behaved client connects and must still get a stats
response, proving no worker thread died to SIGPIPE and no callback is parked
forever on a dead peer's send buffer.

Usage: serve_halfclose_test.py <qulrb_serve-binary> <port>
"""

import json
import socket
import struct
import subprocess
import sys
import time

SOLVE = (
    b'{"op":"solve","id":%d,"loads":[20,2,2,2],"counts":[8,8,8,8],'
    b'"k":4,"sweeps":200,"restarts":1,"seed":3}\n'
)


def connect(port, attempts=50):
    for _ in range(attempts):
        try:
            return socket.create_connection(("127.0.0.1", port), timeout=5)
        except OSError:
            time.sleep(0.1)
    raise SystemExit("could not connect to qulrb_serve")


# One byte over the servers' request-line cap (net::kMaxRequestLine).
MAX_LINE = 1 << 20


def hostile_nesting(port):
    """A nested line is a parse error on a connection that stays open."""
    s = connect(port)
    f = s.makefile("rb")
    s.sendall(b"[" * 200000 + b"]" * 200000 + b"\n")
    doc = json.loads(f.readline())
    assert "error" in doc and "nesting" in doc["error"], doc
    s.sendall(b'{"op":"health"}\n')
    assert "stats" in json.loads(f.readline())
    s.close()


def hostile_oversize(port):
    """An over-long line is answered, then the connection closes."""
    s = connect(port)
    f = s.makefile("rb")
    s.sendall(b"x" * (MAX_LINE + 1))
    doc = json.loads(f.readline())
    assert doc.get("error") == "line too long", doc
    assert f.readline() == b"", "connection stayed open"
    s.close()


def main():
    serve, port = sys.argv[1], int(sys.argv[2])
    proc = subprocess.Popen(
        [serve, "--port", str(port), "--workers", "2", "--quiet"],
        stdout=subprocess.DEVNULL,
    )
    try:
        # 1. half-close: EOF arrives while the solve runs.
        s = connect(port)
        s.sendall(SOLVE % 1)
        s.shutdown(socket.SHUT_WR)
        s.close()

        # 2. hard close: linger(0) turns close() into a reset, so the
        # server's response write fails with EPIPE/ECONNRESET.
        s = connect(port)
        s.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        s.sendall(SOLVE % 2)
        s.close()

        # 3. slow reader: never read; the 2s SO_SNDTIMEO must unblock the
        # worker even if our receive window fills.
        slow = connect(port)
        slow.sendall(SOLVE % 3)

        # 4./5. hostile lines: both answered with an error, neither kills
        # the server.
        hostile_nesting(port)
        hostile_oversize(port)

        time.sleep(1.0)  # let the solves finish and the writes fail

        # A polite client must still be served.
        s = connect(port)
        s.sendall(b'{"op":"stats"}\n')
        line = s.makefile("rb").readline()
        doc = json.loads(line)
        assert "stats" in doc, line
        assert doc["stats"]["completed"] >= 1, line
        s.sendall(b'{"op":"shutdown"}\n')
        s.close()
        slow.close()

        assert proc.wait(timeout=20) == 0, "server exited non-zero"
        print("ok: server survived half-closed, reset, slow, nested and oversized clients")
        return 0
    finally:
        if proc.poll() is None:
            proc.kill()


if __name__ == "__main__":
    sys.exit(main())
