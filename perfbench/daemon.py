"""Starts and stops ``ctxradius serve`` as a separate process.

The daemon's stderr is its event log; it goes to a file, never to a pipe
the benchmark would have to keep draining.  The bound port is read from
the first ``listen`` event line.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


class DaemonError(Exception):
    pass


class Daemon:
    def __init__(self, source: Path, config: Path, trace_out: Path | None = None,
                 cpu: int | None = None):
        self.config = config
        self.events_path = config.parent / "events.log"
        self.trace_out = trace_out
        if trace_out is None:
            cmd = [sys.executable, "-m", "ctxradius.cli", "serve", "--config", str(config)]
        else:
            cmd = [sys.executable, str(HERE / "launcher.py"), str(trace_out),
                   "serve", "--config", str(config)]
        env = dict(os.environ, PYTHONPATH=str(source))
        self._events = open(self.events_path, "wb")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=self._events, env=env, cwd=config.parent)
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})
        self.port = 0

    def wait_listening(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        with open(self.events_path, "rb") as fh:
            seen = b""
            while True:
                seen += fh.read()
                for line in seen.split(b"\n")[:-1]:
                    parts = line.split(b"\t")
                    if len(parts) >= 3 and parts[1] == b"listen":
                        self.port = int(parts[2].rpartition(b":")[2])
                        return self.port
                if self.proc.poll() is not None:
                    raise DaemonError(f"daemon exited with {self.proc.returncode}: "
                                      f"{seen.decode(errors='replace')[-500:]}")
                if time.monotonic() > deadline:
                    raise DaemonError("daemon did not report listening")
                time.sleep(0.0005)

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def event_bytes(self) -> int:
        return os.path.getsize(self.events_path)

    def stop(self, timeout: float = 20.0) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._events.close()
        return self.proc.returncode


def vm_hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
