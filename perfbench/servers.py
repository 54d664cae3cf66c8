"""Fresh ``repro serve`` processes: spawn, register, measure, reap.

Each server runs in its own session (process group), so teardown can
signal the frontend and every pool worker it spawned, and then wait
until no process of the group is left — detached ``repro-compute``
threads die with their process, so nothing outlives a run.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.service.client import ServiceClient

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space inside the checkout (listed in .gitignore).
SCRATCH = ROOT / ".perfbench_tmp"
HEALTH_TIMEOUT_S = 60.0


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def scratch_dir(prefix: str) -> str:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=SCRATCH)


def _group_pids(pgid: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state, fields[2] the process group.
        if int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds ``pid`` has used, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[11] and fields[12] are utime and stime, in clock ticks.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Server:
    """One fresh server process on a free port with a fresh cache dir."""

    def __init__(self, workers: int = 0, max_schemas: int = 64):
        self.workers = workers
        self.cache_dir = scratch_dir("cache-")
        self.port = free_port()
        args = [sys.executable, "-m", "repro", "serve", "--port", str(self.port),
                "--cache-dir", self.cache_dir, "--max-schemas", str(max_schemas)]
        if workers:
            args += ["--workers", str(workers)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        env.pop("REPRO_CACHE_DIR", None)
        self.proc = subprocess.Popen(
            args, cwd=str(ROOT), env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.client = ServiceClient("127.0.0.1", self.port, timeout=60.0)

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            try:
                status, envelope = self.client.request("GET", "/healthz")
                if status == 200 and envelope.get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.01)

    def register(self, schemas: Sequence[Tuple[str, str]]) -> None:
        for text, fingerprint in schemas:
            status, envelope = self.client.request("POST", "/schemas", {"schema": text})
            got = (envelope.get("result") or {}).get("fingerprint")
            if status != 200 or got != fingerprint:
                raise RuntimeError(f"registration failed: {status} {envelope.get('error')}")

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the server and every process it spawned."""
        return sum(vm_hwm_mb(pid) for pid in _group_pids(self.proc.pid))

    def cpu_s(self) -> float:
        """CPU seconds used by the server and every process it spawned."""
        return sum(cpu_s(pid) for pid in _group_pids(self.proc.pid))

    def stop(self) -> None:
        self.client.close()
        pgid = self.proc.pid
        for sig, grace in ((signal.SIGTERM, 5.0), (signal.SIGKILL, 10.0)):
            try:
                os.killpg(pgid, sig)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                if self.proc.poll() is not None and not _group_pids(pgid):
                    break
                time.sleep(0.02)
            else:
                continue
            break
        self.proc.wait(timeout=10)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def start(plan, workers: int = 0) -> Tuple[Server, float]:
    """A healthy server with every set-up schema registered, and the
    seconds that took from spawn (the ``setup_s`` interval)."""
    started = time.perf_counter()
    server = Server(workers=workers, max_schemas=plan.max_schemas)
    try:
        server.wait_healthy()
        server.register(plan.setup_schemas)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def reset_own_hwm() -> None:
    """Restart this process's VmHWM from its current RSS (Linux >= 4.0)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def own_hwm_mb() -> float:
    return vm_hwm_mb(os.getpid())


def remove_scratch() -> None:
    """Drop the scratch directory once every server has removed its own."""
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def nproc() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))
