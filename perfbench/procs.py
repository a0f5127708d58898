"""Process-tree helpers read from ``/proc``: summed RSS sampling and a clean
wait for every process the benchmark started (the Spark JVM and its Python
workers)."""
from __future__ import annotations

import os
import signal
import threading
import time
from typing import Dict, List, Set

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / float(1 << 20)


def _parent_map() -> Dict[int, int]:
    """pid -> ppid for every process visible in /proc."""
    out: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
            # The command name is parenthesised and may hold spaces: split after it.
            out[int(name)] = int(stat[stat.rindex(")") + 2 :].split()[1])
        except (OSError, ValueError, IndexError):  # exited while we were scanning
            continue
    return out


def descendants(pid: int) -> List[int]:
    """Every live process below ``pid`` in the process tree."""
    children: Dict[int, List[int]] = {}
    for p, pp in _parent_map().items():
        children.setdefault(pp, []).append(p)
    out: List[int] = []
    todo = list(children.get(pid, []))
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, []))
    return out


def tree_rss_mb(pid: int) -> float:
    """Summed resident set size of ``pid`` and all its descendants, in MB."""
    total = 0.0
    for p in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{p}/statm") as f:
                total += int(f.read().split()[1]) * _PAGE_MB
        except (OSError, IndexError, ValueError):
            continue
    return total


class PeakRss:
    """Samples the summed RSS of this process tree on a background thread
    while the ``with`` block runs; ``peak_mb`` holds the largest sample."""

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        pid = os.getpid()
        while True:
            self.peak_mb = max(self.peak_mb, tree_rss_mb(pid))
            if self._stop.wait(self.interval_s):
                return

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak_mb = max(self.peak_mb, tree_rss_mb(os.getpid()))


def wait_gone(pids: Set[int], timeout_s: float) -> Set[int]:
    """Poll until none of ``pids`` is alive; SIGKILL what is left after
    ``timeout_s`` and return those pids."""
    deadline = time.monotonic() + timeout_s
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        alive = {p for p in alive if _alive(p)}
        if alive:
            time.sleep(0.1)
    for p in alive:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    return alive


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"
