"""Spawning, timing, measuring and stopping the server under test."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from client import Connection, CheckError
from inputs import Query

HERE = Path(__file__).resolve().parent


def program_env(root: Path) -> dict:
    """The environment the program runs in: its ``src/`` on the path and
    bytecode caching on, so a start loads compiled modules as an
    installed package does instead of compiling every module again."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(root / "src")
    return env


class ServerError(RuntimeError):
    """The server did not come up, or died under the benchmark."""


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found += [int(child) for child in handle.read().split()]
        except OSError:
            pass
    return found


def _descendants(pid: int) -> List[int]:
    out, frontier = [], [pid]
    while frontier:
        children = _children(frontier.pop())
        out += children
        frontier += children
    return out


def _peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except OSError:
        return True


class CpuMeter:
    """CPU time the server has run, in nanoseconds, summed over every
    thread of the server and of its shard workers.

    Each thread's ``/proc/PID/task/TID/schedstat`` holds its run time in
    nanoseconds; the kernel leaves out the time the hypervisor took the
    vCPU away and the time the thread waited to be scheduled, so this
    counts the work the server did for a request, not the host's
    contention.  The files stay open and one ``pread`` rereads each
    (about a microsecond).  ``refresh`` picks up threads started since
    the last one; call it only between two measured intervals."""

    def __init__(self, pid: int):
        self._pid = pid
        self._files: dict = {}      # (pid, tid) -> [fd, last value]
        self.refresh()

    def refresh(self) -> None:
        for pid in [self._pid] + _descendants(self._pid):
            try:
                tids = os.listdir(f"/proc/{pid}/task")
            except OSError:
                continue
            for tid in tids:
                if (pid, tid) in self._files:
                    continue
                try:
                    fd = os.open(f"/proc/{pid}/task/{tid}/schedstat",
                                 os.O_RDONLY)
                except OSError:
                    continue
                self._files[(pid, tid)] = [fd, 0]
        self.read()

    def read(self) -> int:
        """Nanoseconds run so far; a thread that has ended keeps its
        last reading, so an interval never goes negative."""
        total = 0
        for entry in self._files.values():
            try:
                entry[1] = int(os.pread(entry[0], 128, 0).split()[0])
            except (OSError, ValueError, IndexError):
                pass
            total += entry[1]
        return total

    def close(self) -> None:
        for fd, _ in self._files.values():
            os.close(fd)
        self._files.clear()


class Server:
    """One ``repro serve`` process (plus any shard workers it forks),
    started in its own session so the whole tree can be stopped."""

    def __init__(self, root: Path, graph: Path, serve_args: Sequence[str],
                 log: Path, traced_samples: Optional[Path] = None):
        program = ([sys.executable, str(HERE / "traced_serve.py"),
                    str(traced_samples)] if traced_samples
                   else [sys.executable, "-m", "repro"])
        self.argv = program + ["--backend", "columnar", "serve", str(graph),
                               "--frontend", "asyncio", "--port", "0",
                               *serve_args]
        self._log = open(log, "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, cwd=root, env=program_env(root), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True)
        self.port = 0
        self._known: List[int] = []

    def wait_ready(self, warmup: Query, timeout: float = 120.0) -> float:
        """Seconds from spawn until the warm-up query was answered."""
        deadline = self.started + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise ServerError(f"server did not start: {self.argv}")
            ready, _, _ = select.select([self.process.stdout], [], [],
                                        remaining)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    raise ServerError("server closed its output at start")
                line += chunk
        self.port = int(line.split(b"127.0.0.1:")[1].split()[0])
        conn = Connection(self.port)
        try:
            status, _, _, _ = conn.query(warmup.text, "json")
        finally:
            conn.close()
        if status != 200:
            raise CheckError(f"warm-up query answered {status}")
        return time.perf_counter() - self.started

    def peak_rss_mb(self) -> float:
        """Peak resident memory, summed over the server and its workers."""
        pids = [self.process.pid] + _descendants(self.process.pid)
        self._known = pids
        return sum(_peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        """SIGINT (the CLI's orderly shutdown), then SIGKILL the whole
        process group, and wait until every process of it has ended —
        stopping only the coordinator would leave shard workers alive."""
        pids = set(self._known) | set(_descendants(self.process.pid))
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        self.process.wait()
        deadline = time.monotonic() + 10
        while any(not _gone(pid) for pid in pids):
            if time.monotonic() > deadline:
                raise ServerError(f"processes {sorted(pids)} did not end")
            time.sleep(0.02)
        self.process.stdout.close()
        self._log.close()
