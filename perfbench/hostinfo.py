"""The host manifest stamped on every benchmark result, and the speed reference.

Times from different hosts, or from one host at different load, cannot be
compared without their measurement conditions.  :func:`manifest` records
them.  :class:`SpeedReference` times a fixed step of pure-Python work,
which tracks how fast this host runs interpreter-bound code at this moment;
the benchmark interleaves it with the measured work to correct for host
speed drift.
"""

from __future__ import annotations

import os
import platform
import random
import statistics
import sys
import time
from pathlib import Path


#: seconds of one :meth:`SpeedReference.seconds` step on the nominal host
#: that speed-corrected times refer to
NOMINAL_REFERENCE_S = 0.004


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value


class SpeedReference:
    """A fixed step of interpreter work, timed to track host speed.

    The step is an integer loop plus one pass that updates 16,384 small
    objects in shuffled heap order.  The loop alone tracks the host's clock
    speed; the pass also tracks memory contention, which slows the
    simulator's object-heavy code (the PS link's job scans most of all)
    more than it slows arithmetic.
    """

    def __init__(self) -> None:
        cells = [_Cell(float(i)) for i in range(1 << 14)]
        random.Random(0).shuffle(cells)
        self._cells = cells
        self.seconds()

    def seconds(self) -> float:
        """Wall seconds of one step."""
        start = time.perf_counter()
        x = 0
        for i in range(20_000):
            x = (x * 31 + i) & 0xFFFF
        for cell in self._cells:
            cell.value -= 1e-9
        return time.perf_counter() - start


def reference_seconds(rounds: int = 9) -> float:
    """Median seconds of one reference step on this host, now."""
    reference = SpeedReference()
    return statistics.median(reference.seconds() for _ in range(rounds))


def git_sha(root: Path) -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "host.ref_s": reference_seconds(),
    }
