"""Shared plumbing for the serve smoke harnesses.

:mod:`repro.serve.smoke`, :mod:`repro.serve.routersmoke` and
:mod:`repro.serve.crashsmoke` all talk JSON over plain ``http.client`` and
(the latter two) drive real ``python -m repro`` subprocesses whose bound
port is scraped from their startup line.  Both live here once.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

_PORT_RE = re.compile(r"http://[\d.]+:(\d+)")


def request(port: int, method: str, path: str, payload=None, timeout=30.0):
    """One JSON request to ``127.0.0.1:port``; returns ``(status, body)``.

    The body is decoded JSON when the response says so, else text.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = json.dumps(payload) if payload is not None else None
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        data = resp.read()
        if resp.getheader("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(data)
        return resp.status, data.decode()
    finally:
        conn.close()


class ReproProcess:
    """A ``python -m repro`` subprocess with stdout-scraped port discovery.

    Args:
        args: the ``repro`` command line (e.g. ``["serve", "--port", "0"]``).
        env: extra environment variables on top of the caller's.
        failure: exception type raised when the process dies before
            binding or never reports a port.
    """

    def __init__(
        self,
        args: list[str],
        *,
        env: dict | None = None,
        failure: type[Exception] = RuntimeError,
    ) -> None:
        self.failure = failure
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={**os.environ, **(env or {})},
        )
        self.lines: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip("\n"))

    def wait_port(self, timeout: float = 60.0) -> int:
        """Block until the startup line names the bound port; return it."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in list(self.lines):
                m = _PORT_RE.search(line)
                if m:
                    return int(m.group(1))
            if self.proc.poll() is not None:
                raise self.failure(
                    f"process exited rc={self.proc.returncode} before "
                    f"binding; stdout: {self.lines!r}"
                )
            time.sleep(0.02)
        raise self.failure("process did not report its port in time")

    def kill(self) -> None:
        """SIGKILL the process if still running, then reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30.0)

    def terminate(self, timeout: float = 60.0) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)
