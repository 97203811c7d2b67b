"""What the record says about the machine a run measured on."""

from __future__ import annotations

import os
import platform
import signal
import time
from pathlib import Path


def describe() -> dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_rev(root: Path) -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_ticks() -> list[int] | None:
    """Machine-wide CPU ticks from ``/proc/stat`` (None where absent)."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(field) for field in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def busy_steal_frac(before: list[int] | None, after: list[int] | None):
    """Share of the CPU time this machine wanted that its hypervisor
    gave to someone else: steal ÷ (user + nice + system + irq + softirq
    + steal). None where ``/proc/stat`` has no steal column.
    """
    if before is None or after is None or len(before) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = (
        b - a for a, b in zip(before[:8], after[:8])
    )
    wanted = user + nice + system + irq + softirq + steal
    return steal / wanted if wanted else 0.0


class StealClock:
    """Wall time of an interval, with the hypervisor's steal taken out.

    On a shared virtual machine the hypervisor runs other guests on our
    virtual CPUs; ``/proc/stat`` counts that time as *steal*. Across one
    ten-run set on a 2-core guest the busy steal share ranged from 2% to
    34%, and the closed-loop median authentication rose with it from
    about 200 ms to 380 ms. ``adjusted`` scales the wall time by
    ``1 - steal share``: two runs at 23% and 34% steal, raw 241 and
    277 ms, came to 185 and 182 ms against 190-200 ms for calm runs.
    Slowdowns the guest cannot see as steal stay in. ``seconds`` keeps
    the raw wall time.
    """

    def __enter__(self) -> "StealClock":
        self._ticks = cpu_ticks()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.seconds = time.perf_counter() - self._started
        self.steal = busy_steal_frac(self._ticks, cpu_ticks()) or 0.0

    @property
    def kept(self) -> float:
        """Share of the wanted CPU time the guest actually got."""
        return 1.0 - self.steal

    @property
    def adjusted(self) -> float:
        return self.seconds * self.kept


# -- processes ---------------------------------------------------------
#
# Shared-memory mask plans start multiprocessing's resource tracker, a
# helper process that lives until its owner closes a pipe. Left alone it
# ends only after its owner has exited, as an orphan the machine's init
# reaps later; so the benchmark stops its own tracker, adopts the
# trackers of its server children, and waits for each to end.


def stop_resource_tracker() -> None:
    """Stop this process's resource tracker, if it started one, and wait
    for it to end. Run it after every shared segment is unlinked: an
    unlink afterwards would start a new tracker.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except (ImportError, AttributeError, ChildProcessError):
        pass


def adopt_orphans() -> bool:
    """Become the parent of descendants whose parent exits (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that their end can be waited for.
    """
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def group_pids(pgid: int) -> list[int]:
    """Processes of group ``pgid``, the exited but unreaped ones too."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid:
            pids.append(int(entry))
    return pids


def end_group(pgid: int, grace: float) -> bool:
    """Wait until process group ``pgid`` has no process left, reaping
    the members this process adopted. After ``grace`` seconds the rest
    get SIGKILL and another ``grace``. True if the group ended.
    """
    deadline = time.monotonic() + grace
    killed = False
    while True:
        left = group_pids(pgid)
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not ours: init reaps it
        if not left:
            return True
        if time.monotonic() > deadline:
            if killed:
                return False
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed = True
            deadline = time.monotonic() + grace
        time.sleep(0.005)
