"""Event-driven egalitarian processor-sharing server (paper §2.1).

The paper models the whole network behind the proxy as one server running a
processor-sharing (round-robin with infinitesimal quantum) discipline: with
``n`` jobs in service, each receives ``capacity / n`` units of work per unit
time.  For Poisson arrivals the mean response time of a job of size ``x`` is
``x / (1 − ρ)`` (eq. 2) — the property every simulation experiment
validates against.

The implementation is *exact* (no time-stepping): between consecutive
events the per-job service rate is constant, so remaining work decays
linearly and the next completion time is known in closed form.  On every
arrival/departure the server:

1. charges elapsed work to all active jobs (``elapsed * rate / n``,
   subtracted from each job's remaining work, clamped at 0),
2. reschedules the earliest completion: ``min`` of the remaining work, the
   jobs within a relative ``1e-9`` (plus an absolute epsilon) of it, and a
   timer ``min · n / capacity`` from now.

Storage.  The remaining work of the active jobs lives beside ``_active``
in one of two representations, chosen from the number of active jobs with
hysteresis: a Python ``list`` of floats while few jobs share the server,
and a float64 NumPy buffer once many do (the paper's harmful regime, where
indiscriminate prefetching drives ρ → 1 and thousands of transfers share
the link).  Both apply the same IEEE operations to the same values in the
same order — per-element subtract then clamp, exact ``min``, the same
tolerance test, the delay as a Python float, completions in list order —
so every completion time is bit-identical whichever representation runs
and wherever the switch happens.  The list path exists because a NumPy
call costs about a microsecond whatever its length, which is more than a
whole pass over a handful of jobs.  ``PSJob.remaining`` is therefore not
updated while a job is in service; it is exact once the job has left.

Why not virtual time.  A GPS/WFQ-style virtual clock (finish tag
``V_arrival + work``) would make an event O(log n), but it rounds
differently from the sequence ``((w − c₁) − c₂) − …`` applied here, so
every completion time — and every pinned result of the simulator — would
move in its last bits.  The vectorised Θ(n) pass keeps them and costs a
few microseconds at thousands of jobs, less than the event-heap work
around it.

Stale completion timers are invalidated with an epoch counter rather than
searching the heap — O(1) per reschedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.monitors import TimeWeightedValue
from repro.errors import SimulationError

__all__ = ["ProcessorSharingServer", "PSJob"]

#: Jobs whose remaining work falls below this are considered complete;
#: guards against float drift accumulating over millions of reschedules.
_WORK_EPSILON = 1e-12

#: Active-job counts at which remaining work moves into the NumPy buffer
#: (reaching ``_VECTOR_ENTER``) and back into a list (falling to
#: ``_VECTOR_LEAVE``).  Chosen from the per-event cost ladder in
#: ``benchmarks/test_bench_ps_link.py``; the gap keeps a count hovering
#: near the crossover from converting on every event.
_VECTOR_ENTER = 128
_VECTOR_LEAVE = 64


@dataclass(eq=False, slots=True)  # identity semantics: jobs live in sets keyed by object
class PSJob:
    """One job in (or through) the processor-sharing server.

    Attributes
    ----------
    work:
        Total service requirement (e.g. item size in bytes when the server
        rate is bytes/second).
    arrival_time:
        When the job entered service.
    completion_time:
        Filled in at departure; NaN while in service.
    tag:
        Caller-supplied context (e.g. the request that caused the fetch).
    remaining:
        Work left when the job left the server: 0.0 on completion, the
        exact residual when cancelled or aborted by ``fail_all``.  Valid
        once the job has left the server; while it is in service the
        server keeps the live value in its own storage.
    """

    work: float
    arrival_time: float
    tag: Any = None
    completion_time: float = float("nan")
    remaining: float = field(init=False)
    done: "Event | None" = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.remaining = self.work

    @property
    def response_time(self) -> float:
        """Sojourn time (arrival to completion); NaN while in service."""
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """Response time per unit of work."""
        return self.response_time / self.work if self.work > 0 else float("nan")


class ProcessorSharingServer:
    """M/G/1-PS service centre with exact event-driven sharing.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Total service rate ``b`` (work units per time unit), shared equally
        among active jobs.

    Notes
    -----
    The server keeps online statistics needed by the experiments: utilisation
    (busy-time weighted), time-averaged number in system, total work served,
    and per-job response times are returned through the completion events.

    Examples
    --------
    >>> env = Environment()
    >>> server = ProcessorSharingServer(env, capacity=10.0)
    >>> def client(env, server):
    ...     job = yield server.submit(work=5.0)
    ...     return job.response_time
    >>> proc = env.process(client(env, server))
    >>> env.run(proc)
    0.5
    """

    def __init__(self, env: Environment, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"server capacity must be > 0, got {capacity!r}")
        self.env = env
        self.capacity = float(capacity)
        self._active: list[PSJob] = []
        # Remaining work of ``_active[i]`` at index i: a list of floats, or
        # (``_vector``) the first ``len(_active)`` slots of a float64 buffer.
        self._rem: list[float] = []
        self._buf = np.empty(0)
        self._vector = False
        self._last_update = env.now
        self._epoch = 0  # invalidates stale completion timers
        # Indices into ``_active`` of the jobs the armed timer will complete
        # (a list, or an index array in vector mode).
        self._expected: Any = []
        self._completed_jobs = 0
        self._total_work_served = 0.0
        self._busy_time = 0.0
        self._jobs_in_system = TimeWeightedValue(env, initial=0.0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Jobs currently in service."""
        return len(self._active)

    def submit(self, work: float, tag: Any = None) -> Event:
        """Enter a job; returns an event that succeeds with the finished
        :class:`PSJob` at its completion time."""
        if work < 0:
            raise SimulationError(f"job work must be >= 0, got {work!r}")
        self._advance()
        job = PSJob(work=float(work), arrival_time=self.env.now, tag=tag)
        job.done = Event(self.env)
        if work <= _WORK_EPSILON:
            # Zero-size job: completes immediately without touching shares.
            job.remaining = 0.0
            job.completion_time = self.env.now
            self._completed_jobs += 1
            job.done.succeed(job)
            return job.done
        active = self._active
        n = len(active)
        active.append(job)
        if self._vector:
            buf = self._buf
            if n == len(buf):
                buf = self._buf = np.concatenate((buf, np.empty(n)))
            buf[n] = job.work
        else:
            self._rem.append(job.work)
            if n + 1 >= _VECTOR_ENTER:
                self._to_vector()
        self._jobs_in_system.set(n + 1)
        self._reschedule()
        return job.done

    def cancel(self, done_event: Event) -> Optional[PSJob]:
        """Abort an in-service job (e.g. a prefetch made moot by a demand hit).

        The job's event is failed with :class:`SimulationError`; work already
        performed stays counted in the served-work statistics (the bandwidth
        was genuinely consumed).  Returns the job with ``remaining`` set to
        its residual work, or None when it already completed.
        """
        self._advance()
        for i, job in enumerate(self._active):
            if job.done is done_event:
                job.remaining = self._remaining()[i]
                self._remove([i])
                job.completion_time = float("nan")
                done_event.fail(SimulationError("job cancelled"))
                self._reschedule()
                return job
        return None

    def fail_all(self, exc: BaseException) -> int:
        """Abort every in-service job at once (a crashed server).

        Each job's done event is failed with ``exc`` and its ``remaining``
        set to its residual work; work already served stays counted (the
        bandwidth was genuinely consumed before the crash).  Returns the
        number of jobs aborted.
        """
        self._advance()
        failed = self._active
        residuals = self._remaining()
        self._active = []
        self._rem = []
        self._vector = False
        self._jobs_in_system.set(0)
        for job, residual in zip(failed, residuals):
            job.remaining = residual
            job.completion_time = float("nan")
            job.done.fail(exc)
        self._reschedule()
        return len(failed)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def completed_jobs(self) -> int:
        return self._completed_jobs

    @property
    def total_work_served(self) -> float:
        """Work units actually delivered (≤ capacity × busy time)."""
        return self._total_work_served

    def utilization(self) -> float:
        """Fraction of elapsed time since time 0 the server was busy
        (≥1 active job)."""
        self._advance()
        horizon = self.env.now
        return self._busy_time / horizon if horizon > 0 else 0.0

    def mean_jobs_in_system(self) -> float:
        """Time-averaged number of concurrent jobs (compare ρ/(1−ρ))."""
        self._advance()
        return self._jobs_in_system.time_average()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _remaining(self) -> list[float]:
        """Remaining work of the active jobs, in list order."""
        return self._buf[: len(self._active)].tolist() if self._vector else self._rem

    def _to_vector(self) -> None:
        n = len(self._rem)
        self._buf = np.empty(2 * n)
        self._buf[:n] = self._rem
        self._rem = []
        self._vector = True

    def _advance(self) -> None:
        """Charge work done since the last event to all active jobs."""
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed < 0:  # pragma: no cover - clock is monotone
            raise SimulationError("processor-sharing clock went backwards")
        if elapsed == 0:
            return
        n = len(self._active)
        if n:
            per_job = elapsed * self.capacity / n
            # Subtract, then clamp float drift at 0: its magnitude is bounded
            # by scheduling precision, never a whole quantum.  ``r - p < 0``
            # exactly when ``r < p``, so the list form is the same clamp.
            if self._vector:
                rem = self._buf[:n]
                np.subtract(rem, per_job, out=rem)
                np.maximum(rem, 0.0, out=rem)
            else:
                self._rem = [r - per_job if r >= per_job else 0.0 for r in self._rem]
            self._total_work_served += elapsed * self.capacity
            self._busy_time += elapsed
        self._last_update = now

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the current job set.

        The timer remembers *which* jobs it was armed for.  When it fires
        (and is not stale) those jobs complete by construction — between
        events rates are constant, so the earliest finisher is exact.
        Completing the remembered set, rather than re-deriving it from the
        drifting remaining-work counters, avoids a float-precision livelock
        when ``now + delay`` rounds to ``now`` near large clock values.
        Any change to the job set re-arms (and so re-indexes) the timer.
        """
        self._epoch += 1
        n = len(self._active)
        if not n:
            self._expected = []
            return
        if self._vector:
            rem = self._buf[:n]
            min_remaining = float(rem.min())
            limit = min_remaining + (min_remaining * 1e-9 + _WORK_EPSILON)
            self._expected = np.flatnonzero(rem <= limit)
        elif n == 1:
            # Single-job fast path (the common case at moderate load): the
            # tolerance test below would select exactly this job anyway.
            min_remaining = self._rem[0]
            self._expected = [0]
        else:
            rem = self._rem
            min_remaining = min(rem)
            limit = min_remaining + (min_remaining * 1e-9 + _WORK_EPSILON)
            self._expected = [i for i, r in enumerate(rem) if r <= limit]
        delay = min_remaining * n / self.capacity
        timer = self.env.timeout(delay if delay > 0.0 else 0.0, self._epoch)
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, timer: Event) -> None:
        if timer._value != self._epoch:
            return  # a newer arrival/departure superseded this timer
        self._advance()
        expected = self._expected
        if self._vector:
            done = self._buf[: len(self._active)] <= _WORK_EPSILON
            done[expected] = True
            finished = np.flatnonzero(done).tolist()
        else:
            finished = expected
            extra = [
                i for i, r in enumerate(self._rem) if r <= _WORK_EPSILON and i not in expected
            ]
            if extra:
                finished = sorted(expected + extra)
        now = self.env.now
        active = self._active
        for i in finished:
            job = active[i]
            job.remaining = 0.0
            job.completion_time = now
            job.done.succeed(job)
        self._completed_jobs += len(finished)
        self._remove(finished)
        self._reschedule()

    def _remove(self, indices: list[int]) -> None:
        """Drop the jobs at ascending ``indices`` from both parallel stores,
        leaving vector mode once few jobs remain."""
        active = self._active
        n = len(active)
        if self._vector:
            buf = self._buf
            if len(indices) == 1:
                i = indices[0]
                buf[i : n - 1] = buf[i + 1 : n]
            else:
                keep = np.ones(n, dtype=bool)
                keep[indices] = False
                buf[: n - len(indices)] = buf[:n][keep]
            for i in reversed(indices):
                del active[i]
            if len(active) <= _VECTOR_LEAVE:
                self._rem = buf[: len(active)].tolist()
                self._vector = False
        else:
            rem = self._rem
            for i in reversed(indices):
                del active[i]
                del rem[i]
        self._jobs_in_system.set(len(active))
