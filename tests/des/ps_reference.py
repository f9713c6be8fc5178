"""Reference processor-sharing server: the pure-Python loop implementation.

This is the server as it was before remaining work moved into parallel
list/NumPy storage, kept verbatim in its arithmetic as the oracle for
``tests/des/test_ps_differential.py``.  Every active job carries its live
``remaining`` counter; each event runs Python passes over all of them.  The
production server must reproduce its completion times, completion order and
residual work exactly (``==``, not approximately).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.monitors import TimeWeightedValue
from repro.errors import SimulationError

_WORK_EPSILON = 1e-12


@dataclass(eq=False, slots=True)
class ReferenceJob:
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
        return self.completion_time - self.arrival_time


class ReferenceProcessorSharingServer:
    """Same public surface as ``ProcessorSharingServer`` for the oracle's use."""

    def __init__(self, env: Environment, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"server capacity must be > 0, got {capacity!r}")
        self.env = env
        self.capacity = float(capacity)
        self._active: list[ReferenceJob] = []
        self._last_update = env.now
        self._epoch = 0
        self._expected: list[ReferenceJob] = []
        self._completed_jobs = 0
        self._total_work_served = 0.0
        self._busy_time = 0.0
        self._jobs_in_system = TimeWeightedValue(env, initial=0.0)

    @property
    def num_active(self) -> int:
        return len(self._active)

    @property
    def completed_jobs(self) -> int:
        return self._completed_jobs

    @property
    def total_work_served(self) -> float:
        return self._total_work_served

    def mean_jobs_in_system(self) -> float:
        self._advance()
        return self._jobs_in_system.time_average()

    def submit(self, work: float, tag: Any = None) -> Event:
        if work < 0:
            raise SimulationError(f"job work must be >= 0, got {work!r}")
        self._advance()
        job = ReferenceJob(work=float(work), arrival_time=self.env.now, tag=tag)
        job.done = Event(self.env)
        if work <= _WORK_EPSILON:
            job.remaining = 0.0
            job.completion_time = self.env.now
            self._completed_jobs += 1
            job.done.succeed(job)
            return job.done
        self._active.append(job)
        self._jobs_in_system.set(len(self._active))
        self._reschedule()
        return job.done

    def cancel(self, done_event: Event) -> Optional[ReferenceJob]:
        self._advance()
        for job in self._active:
            if job.done is done_event:
                self._active.remove(job)
                self._jobs_in_system.set(len(self._active))
                job.completion_time = float("nan")
                done_event.fail(SimulationError("job cancelled"))
                self._reschedule()
                return job
        return None

    def fail_all(self, exc: BaseException) -> int:
        self._advance()
        failed = list(self._active)
        self._active.clear()
        self._jobs_in_system.set(0)
        for job in failed:
            job.completion_time = float("nan")
            job.done.fail(exc)
        self._reschedule()
        return len(failed)

    def _advance(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed == 0:
            return
        n = len(self._active)
        if n:
            per_job = elapsed * self.capacity / n
            for job in self._active:
                job.remaining -= per_job
                if job.remaining < 0:
                    job.remaining = 0.0
            self._total_work_served += elapsed * self.capacity
            self._busy_time += elapsed
        self._last_update = now

    def _reschedule(self) -> None:
        self._epoch += 1
        active = self._active
        if not active:
            self._expected = []
            return
        n = len(active)
        if n == 1:
            min_remaining = active[0].remaining
            self._expected = [active[0]]
        else:
            min_remaining = min(job.remaining for job in active)
            tol = min_remaining * 1e-9 + _WORK_EPSILON
            self._expected = [j for j in active if j.remaining <= min_remaining + tol]
        delay = min_remaining * n / self.capacity
        epoch = self._epoch
        timer = self.env.timeout(delay if delay > 0.0 else 0.0)
        timer.callbacks.append(lambda _ev, e=epoch: self._on_timer(e))

    def _on_timer(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        self._advance()
        finished = set(self._expected)
        finished.update(j for j in self._active if j.remaining <= _WORK_EPSILON)
        for job in self._active[:]:
            if job not in finished:
                continue
            self._active.remove(job)
            job.remaining = 0.0
            job.completion_time = self.env.now
            self._completed_jobs += 1
            job.done.succeed(job)
        self._jobs_in_system.set(len(self._active))
        self._reschedule()
