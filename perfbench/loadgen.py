"""A keep-alive HTTP/1.1 client and the ``srtw serve`` process it drives.

One client keeps one persistent connection. The server closes a
connection after a fixed number of requests and says so with
``Connection: close``; the client then reconnects on its next request.
Opening a connection per request instead leaves one socket per request
in TIME_WAIT, and latency drifts upward as they pile up.
"""

import os
import socket
import subprocess
import time


class ProtocolError(Exception):
    pass


def request_bytes(method, target, body=b"", headers=()):
    head = [f"{method} {target} HTTP/1.1", "Host: srtw", f"Content-Length: {len(body)}"]
    head += [f"{k}: {v}" for k, v in headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class Conn:
    def __init__(self, addr, timeout_s):
        self.addr = addr
        self.timeout_s = timeout_s
        self.sock = None
        self.buf = b""
        self.connects = 0

    def close(self):
        if self.sock is not None:
            self.sock.close()
        self.sock = None
        self.buf = b""

    def _fill(self):
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ProtocolError("connection closed mid-response")
        self.buf += chunk

    def roundtrip(self, raw):
        """Sends one prepared request; returns (status, headers, body)."""
        if self.sock is None:
            self.sock = socket.create_connection(self.addr, timeout=self.timeout_s)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.connects += 1
        try:
            self.sock.sendall(raw)
            while b"\r\n\r\n" not in self.buf:
                self._fill()
            head, self.buf = self.buf.split(b"\r\n\r\n", 1)
            lines = head.decode("latin-1").split("\r\n")
            parts = lines[0].split(" ", 2)
            if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
                raise ProtocolError(f"bad status line {lines[0]!r}")
            headers = {}
            for line in lines[1:]:
                k, _, v = line.partition(":")
                headers[k.strip().lower()] = v.strip()
            length = int(headers.get("content-length", "-1"))
            if length < 0:
                raise ProtocolError("response without Content-Length")
            while len(self.buf) < length:
                self._fill()
            body, self.buf = self.buf[:length], self.buf[length:]
        except BaseException:
            self.close()
            raise
        if headers.get("connection", "").lower() == "close":
            self.close()
        return int(parts[1]), headers, body


class Server:
    """One ``srtw serve`` process on an ephemeral local port."""

    def __init__(self, srtw, log_path):
        self.addr = None
        self.log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [srtw, "serve", "--addr", "127.0.0.1:0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self.log,
        )
        line = self.proc.stdout.readline().decode()
        prefix = "srtw-serve listening on "
        if not line.startswith(prefix):
            self.stop()
            raise RuntimeError(f"srtw serve did not announce its address: {line!r}")
        host, port = line[len(prefix):].strip().rsplit(":", 1)
        self.addr = (host, int(port))

    def wait_ready(self, timeout_s=10.0):
        deadline = time.monotonic() + timeout_s
        probe = request_bytes("GET", "/readyz")
        while True:
            conn = Conn(self.addr, 2.0)
            try:
                if conn.roundtrip(probe)[0] == 200:
                    return
            except (OSError, ProtocolError):
                pass
            finally:
                conn.close()
            if time.monotonic() > deadline:
                raise RuntimeError("srtw serve never became ready")
            time.sleep(0.002)

    def cpu_ticks(self):
        """utime + stime of the server, all threads, in clock ticks."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])

    def stop(self):
        """Drains the server and waits for it to exit."""
        if self.proc.poll() is None:
            if self.addr:
                conn = Conn(self.addr, 5.0)
                try:
                    conn.roundtrip(request_bytes("POST", "/shutdown"))
                except (OSError, ProtocolError):
                    pass
                finally:
                    conn.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


CLK_TCK = os.sysconf("SC_CLK_TCK")
