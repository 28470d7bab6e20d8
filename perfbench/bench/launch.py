"""Start ``repro serve`` as a subprocess, time it to ``/readyz``, and
stop it."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

from . import machine

BOOT_TIMEOUT_S = 150
STOP_TIMEOUT_S = 40
_URL = re.compile(r"serving on (http://[\d.]+:\d+)")


def get(url: str, timeout: float = 10.0) -> tuple[int, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


class ServeProcess:
    """One ``repro serve --warm presets`` over a fresh store directory,
    pinned to ``cpus``."""

    def __init__(self, ctx, cpus: set, trace_dir: Path | None = None) -> None:
        self.ctx = ctx
        self.cpus = cpus
        self.trace_dir = trace_dir
        self.store = ctx.fresh_dir("store")
        self.log_path = ctx.fresh_dir("log") / "serve.log"
        self.proc: subprocess.Popen | None = None
        self.url = ""
        self.setup_s = 0.0

    def start(self) -> "ServeProcess":
        argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--warm", "presets", "--store", str(self.store)]
        spawned = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.ctx.root, env=self.ctx.program_env(self.trace_dir),
                stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
                # Pinned before exec, so every thread the server starts inherits it.
                preexec_fn=lambda: os.sched_setaffinity(0, self.cpus),
            )
        try:
            self._wait_ready(spawned + BOOT_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - spawned
        return self

    def _wait_ready(self, deadline: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited during boot:\n{self.log()[-2000:]}")
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve did not become ready in time")
            if not self.url:
                match = _URL.search(self.log())
                if match:
                    self.url = match.group(1)
            if self.url:
                try:
                    status, _ = get(self.url + "/readyz", timeout=5)
                except OSError:
                    status = 0
                if status == 200:
                    return
            time.sleep(0.01)

    def log(self) -> str:
        return self.log_path.read_text(errors="replace")

    def cpu_seconds(self) -> float:
        return machine.cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return machine.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain, spans flushed), then SIGKILL the whole
        process group if the drain overruns; returns once the server is gone."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc = None
