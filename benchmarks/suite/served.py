"""The ``python -m repro.cli serve`` child process of the ``served_tcp`` workload.

The server is the only process the benchmark starts.  :class:`ServerProcess`
is a context manager so the child is reaped and its port file removed on
every exit path, including a client that raises mid-pass.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import Dict, Optional

START_TIMEOUT_S = 30.0
EXIT_TIMEOUT_S = 20.0


class ServerProcess:
    """One ``repro.cli serve`` child bound to an ephemeral loopback port.

    ``clients`` becomes ``--exit-after-clients``: once that many connections
    have come and gone the server prints its ``# net:`` summary and exits on
    its own; :meth:`finish` waits for that and returns the parsed summary.
    """

    def __init__(self, workdir: str, src_dir: str, clients: int) -> None:
        self.port_file = os.path.join(workdir, f"port-{os.getpid()}-{id(self):x}.txt")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--port-file",
                self.port_file,
                "--exit-after-clients",
                str(clients),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.port: Optional[int] = None

    def wait_ready(self) -> int:
        """Block until the port file holds the bound port; returns it."""
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve exited with code {self.process.returncode} before "
                    f"listening: {self.process.stderr.read()}"
                )
            try:
                with open(self.port_file, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                self.port = int(text)
                return self.port
            time.sleep(0.002)
        raise RuntimeError("serve did not write its port file in time")

    def cpu_seconds(self) -> float:
        """User+system CPU the live child has used so far.

        ``/proc/<pid>/schedstat`` counts on-CPU nanoseconds per task;
        kernels built without it fall back to the 10 ms ticks of
        ``/proc/<pid>/stat``.  (``RUSAGE_CHILDREN`` only covers children
        that were already waited for, so it cannot price a single pass.)
        """
        pid = self.process.pid
        try:
            total = 0
            for task in os.listdir(f"/proc/{pid}/task"):
                with open(f"/proc/{pid}/task/{task}/schedstat", "r", encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
            return total / 1e9
        except (FileNotFoundError, IndexError, ValueError):
            with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def finish(self) -> Dict[str, int]:
        """Wait for the server's own exit; returns its ``# net:`` counters."""
        try:
            out, err = self.process.communicate(timeout=EXIT_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.stop()
            raise RuntimeError("serve did not exit after its last client left")
        finally:
            self._remove_port_file()
        if self.process.returncode != 0:
            raise RuntimeError(f"serve exited with code {self.process.returncode}: {err}")
        for line in out.splitlines():
            if line.startswith("# net:"):
                return {
                    key: int(value)
                    for key, value in (item.split("=") for item in line[6:].split())
                }
        raise RuntimeError(f"serve printed no '# net:' summary: {out!r}")

    def stop(self) -> None:
        """Terminate (then kill) the child if it still runs, and reap it."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for pipe in (self.process.stdout, self.process.stderr):
            if pipe is not None:
                pipe.close()
        self._remove_port_file()

    def _remove_port_file(self) -> None:
        try:
            os.remove(self.port_file)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
