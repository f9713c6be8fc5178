"""Differential tests: the processor-sharing server against its loop oracle.

``ps_reference.ReferenceProcessorSharingServer`` is the pure-Python loop
server the production one replaced.  Both are driven through the same
operation script in their own environment; every job's completion time,
residual work and outcome, the order in which jobs leave, and the server
statistics must be *exactly* equal (``==``).  Scripts run with the real
list/vector switch points and with tiny ones, so switching in both
directions, ties, zero-size jobs, ``cancel`` and ``fail_all`` are exercised
on both storage paths.  The Little's-law tests check the server's own
bookkeeping.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.des.processor_sharing as ps
from repro.des import Environment, ProcessorSharingServer
from repro.errors import SimulationError
from ps_reference import ReferenceProcessorSharingServer

CAPACITY = 1.0


def _key(x: float):
    """Exact-equality key that treats NaN as equal to NaN."""
    return "nan" if math.isnan(x) else x


def drive(server_cls, script, capacity=CAPACITY, start=0.0):
    """Run ``script`` — a list of ``(time, op, arg)`` sorted by time, times
    counted from the clock value ``start`` — and return the observable trace.

    Ops: ``("submit", work)``, ``("cancel", k)`` (the k-th submitted job),
    ``("fail_all", None)`` and ``("observe", None)`` (an outside read that
    charges elapsed work mid-interval, as metrics collectors do).
    """
    env = Environment(initial_time=start)
    server = server_cls(env, capacity=capacity)
    jobs: list = []
    departures: list = []
    peak = [0]

    def on_done(k):
        def record(event):
            departures.append((k, event._ok, env.now))

        return record

    def driver(env):
        for time, op, arg in script:
            if start + time > env.now:
                yield env.at(start + time)
            if op == "submit":
                k = len(jobs)
                done = server.submit(arg, tag=k)
                done.callbacks.append(on_done(k))
                # A zero-size job is already triggered with its job; any
                # other is the newest entry of the active list.
                jobs.append(done._value if arg <= ps._WORK_EPSILON else server._active[-1])
                peak[0] = max(peak[0], server.num_active)
            elif op == "cancel":
                if arg < len(jobs):
                    server.cancel(jobs[arg].done)
            elif op == "fail_all":
                server.fail_all(SimulationError("crash"))
            else:
                server.mean_jobs_in_system()

    env.process(driver(env))
    env.run()
    per_job = [
        (job.work, job.arrival_time, _key(job.completion_time), job.remaining)
        for job in jobs
    ]
    stats = (
        server.num_active,
        server.completed_jobs,
        server.total_work_served,
        server._busy_time,
        server.mean_jobs_in_system(),
        env.now,
    )
    return {"jobs": per_job, "departures": departures, "stats": stats, "peak": peak[0]}


def assert_matches_oracle(script, capacity=CAPACITY, start=0.0):
    got = drive(ProcessorSharingServer, script, capacity, start)
    want = drive(ReferenceProcessorSharingServer, script, capacity, start)
    assert got["departures"] == want["departures"]
    assert got["jobs"] == want["jobs"]
    assert got["stats"] == want["stats"]
    return got


@pytest.fixture(params=["real", "tiny"])
def switch_points(request, monkeypatch):
    """Run each test with the real switch points and with tiny ones, so
    small scripts also cross the list/vector switch both ways."""
    if request.param == "tiny":
        monkeypatch.setattr(ps, "_VECTOR_ENTER", 4)
        monkeypatch.setattr(ps, "_VECTOR_LEAVE", 2)
    return ps._VECTOR_ENTER, ps._VECTOR_LEAVE


def poisson_script(rho, seed, *, horizon, burst=0):
    """Poisson arrivals of exponential work (mean 1) at load ``rho`` until
    ``horizon``, plus ``burst`` unit jobs at ``horizon / 4``; the server then
    drains to empty."""
    rng = np.random.default_rng(seed)
    script = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rho)
        if t >= horizon:
            break
        script.append((t, "submit", float(rng.exponential(1.0))))
    script += [(horizon / 4, "submit", 1.0)] * burst
    script.sort(key=lambda row: row[0])
    return script


class TestPoissonStreams:
    @pytest.mark.parametrize("rho", [0.5, 0.95, 1.3])
    def test_crosses_switch_both_ways_bit_identically(self, rho, switch_points):
        enter, leave = switch_points
        script = poisson_script(rho, seed=int(rho * 100), horizon=400.0, burst=enter + 10)
        got = assert_matches_oracle(script)
        assert got["peak"] >= enter  # entered vector storage ...
        assert got["stats"][0] == 0  # ... and drained back through ``leave``

    @pytest.mark.parametrize("rho", [0.5, 0.95, 1.3])
    def test_outside_reads_mid_interval(self, rho, switch_points):
        script = poisson_script(rho, seed=7, horizon=150.0, burst=switch_points[0])
        script += [(t, "observe", None) for t in np.arange(0.37, 300.0, 1.7)]
        script.sort(key=lambda row: row[0])
        assert_matches_oracle(script)


class TestTiesAndZeroWork:
    def test_equal_burst_completes_together(self, switch_points):
        enter = switch_points[0]
        script = [(0.0, "submit", 1.0)] * (2 * enter)
        script += [(0.5, "submit", 1.0)] * enter + [(0.5, "submit", 1.0 + 1e-12)]
        got = assert_matches_oracle(script)
        first_wave = {t for k, _, t in got["departures"] if k < 2 * enter}
        assert len(first_wave) == 1

    def test_zero_size_jobs_interleaved(self, switch_points):
        enter = switch_points[0]
        script = []
        for i in range(3 * enter):
            script.append((0.1 * i, "submit", 0.0 if i % 3 == 0 else 2.0 + (i % 5)))
            script.append((0.1 * i, "submit", 1e-13))
        got = assert_matches_oracle(script)
        zero = [w for w, _, t, r in got["jobs"] if w <= ps._WORK_EPSILON]
        assert zero and got["peak"] >= enter


class TestCancelAndFailAll:
    @pytest.mark.parametrize("population", ["below", "above"])
    def test_cancel(self, population, switch_points):
        enter, leave = switch_points
        n = max(leave - 1, 1) if population == "below" else enter + 5
        script = [(0.001 * i, "submit", 1.0 + 0.25 * (i % 7)) for i in range(n)]
        script += [(0.5, "cancel", k) for k in range(0, n, 3)]
        script += [(0.6, "cancel", 0)]  # already cancelled: a no-op
        got = assert_matches_oracle(script)
        cancelled = [k for k, ok, _ in got["departures"] if not ok]
        assert cancelled == list(range(0, n, 3))
        for k in cancelled:
            assert 0.0 < got["jobs"][k][3] < 1.0 + 0.25 * (k % 7)  # exact residual

    @pytest.mark.parametrize("population", ["below", "above"])
    def test_fail_all_then_restart(self, population, switch_points):
        enter, leave = switch_points
        n = max(leave - 1, 1) if population == "below" else 2 * enter
        script = [(0.001 * i, "submit", 1.0 + 0.5 * (i % 4)) for i in range(n)]
        script += [(0.3, "fail_all", None), (0.3, "fail_all", None)]
        script += [(0.4 + 0.01 * i, "submit", 0.5) for i in range(n)]
        got = assert_matches_oracle(script)
        assert sum(not ok for _, ok, _ in got["departures"]) == n


OPS = st.one_of(
    st.tuples(st.just("submit"), st.sampled_from([0.0, 1e-13, 0.5, 1.0, 1.0, 2.5])),
    st.tuples(st.just("submit"), st.sampled_from([3e-12, 1e-10, 1e-7])),
    st.tuples(st.just("submit"), st.floats(1e-6, 10.0)),
    st.tuples(st.just("burst"), st.integers(1, 8)),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("fail_all"), st.none()),
    st.tuples(st.just("observe"), st.none()),
)


#: Clock values a script starts from: far from 0, ``now + delay`` rounds.
STARTS = st.sampled_from([0.0, 1e5 + 0.1, 1e9 + 0.3])


@st.composite
def scripts(draw):
    rows = []
    t = 0.0
    for op, arg in draw(st.lists(OPS, min_size=1, max_size=60)):
        t += draw(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1.0, draw(st.floats(0.0, 3.0))]))
        if op == "burst":
            rows += [(t, "submit", 1.0)] * arg
        else:
            rows.append((t, op, arg))
    return rows


class TestHypothesis:
    @settings(max_examples=150, deadline=None)
    @given(script=scripts(), capacity=st.sampled_from([0.5, 1.0, 3.0]), start=STARTS)
    def test_matches_oracle_across_switch(self, script, capacity, start):
        # Tiny switch points so generated scripts cross them both ways;
        # patched by hand because function-scoped fixtures do not reset
        # between examples.
        saved = ps._VECTOR_ENTER, ps._VECTOR_LEAVE
        ps._VECTOR_ENTER, ps._VECTOR_LEAVE = 3, 1
        try:
            assert_matches_oracle(script, capacity, start)
        finally:
            ps._VECTOR_ENTER, ps._VECTOR_LEAVE = saved

    @settings(max_examples=40, deadline=None)
    @given(script=scripts(), start=STARTS)
    def test_matches_oracle_real_switch(self, script, start):
        assert_matches_oracle(script, start=start)


class TestClockRounding:
    """Far from time 0, ``now + delay`` rounds, so the work charged at a
    completion instant can overshoot the smallest job's remaining work: the
    clamp at 0 and the completion of every emptied job must match the
    oracle on both storage paths."""

    @pytest.mark.parametrize("n", [1, 5, 200])
    def test_overshoot_is_clamped_at_zero(self, n):
        """An abort at the completion instant, queued ahead of the timer,
        sees the clamped residual 0.0."""
        start = 1e6 + 0.1
        work = next(
            w for w in (0.5 + k * 1e-7 for k in range(1, 10_000))
            if ((start + w * n / CAPACITY) - start) * CAPACITY / n > w
        )
        crash_at = start + work * n / CAPACITY
        residuals = []
        for server_cls in (ProcessorSharingServer, ReferenceProcessorSharingServer):
            env = Environment(initial_time=start)
            server = server_cls(env, capacity=CAPACITY)
            env.call_at(crash_at, lambda _ev, s=server: s.fail_all(SimulationError("crash")))
            dones = [server.submit(work)] + [server.submit(10.0 + i) for i in range(n - 1)]
            for done in dones:
                done.callbacks.append(lambda _ev: None)  # the failure is expected
            jobs = list(server._active)
            env.run()
            residuals.append([job.remaining for job in jobs])
            assert all(not done._ok for done in dones)
        assert residuals[0] == residuals[1]
        assert residuals[0][0] == 0.0

    @pytest.mark.parametrize("n", [2, 200])
    def test_overshoot_completes_every_emptied_job(self, n):
        """A job just outside the timer's tolerance set that the overshoot
        empties leaves with it, in list order, rather than one timer later."""
        start = 1e9 + 0.3
        eps = ps._WORK_EPSILON
        smallest, other = next(
            (m, m + (m * 1e-9 + eps) + 1e-12)
            for m in (k * 1e-12 for k in range(1, 100_000))
            if (m + (m * 1e-9 + eps) + 1e-12) - ((start + m * n) - start) / n <= eps
        )
        departures = []
        for server_cls in (ProcessorSharingServer, ReferenceProcessorSharingServer):
            env = Environment(initial_time=start)
            server = server_cls(env, capacity=1.0)
            works = [other, smallest] + [10.0 + i for i in range(n - 2)]
            log = []
            for k, work in enumerate(works):
                server.submit(work).callbacks.append(lambda ev, k=k: log.append((k, ev.env.now)))
            env.run(until=start + 1.0)
            departures.append(log)
        assert departures[0] == departures[1]
        assert [k for k, _ in departures[0]] == [0, 1]
        assert departures[0][0][1] == departures[0][1][1]


class TestLittlesLaw:
    """Runs that start and end empty: ∫N dt equals the summed response
    times, and the work served equals the work submitted (1e-9 relative —
    float summation order differs between the two sides)."""

    @pytest.mark.parametrize(
        "rho, burst", [(0.5, 0), (0.95, 0), (1.3, 300)], ids=["small-n", "mid-n", "large-n"]
    )
    def test_integral_of_n_equals_sum_of_response_times(self, rho, burst):
        env = Environment()
        server = ProcessorSharingServer(env, capacity=CAPACITY)
        finished = []
        peak = [0]

        def job(env, work):
            finished.append((yield server.submit(work)))

        def source(env):
            for time, _, work in poisson_script(rho, seed=11, horizon=500.0, burst=burst):
                if time > env.now:
                    yield env.at(time)
                env.process(job(env, work))
                peak[0] = max(peak[0], server.num_active + 1)

        env.process(source(env))
        env.run()
        assert server.num_active == 0
        if burst:
            assert peak[0] > ps._VECTOR_ENTER
        integral = server.mean_jobs_in_system() * env.now
        sum_response = math.fsum(job.response_time for job in finished)
        assert integral == pytest.approx(sum_response, rel=1e-9)
        sum_work = math.fsum(job.work for job in finished)
        assert server.total_work_served == pytest.approx(sum_work, rel=1e-9)
        assert all(job.remaining == 0.0 for job in finished)


class TestRemainingContract:
    def test_remaining_on_leaving(self):
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        long_done = server.submit(10.0)
        short_done = server.submit(1.0)
        env.run(until=3.0)  # short job left at t=2; long one has 10 - 1 - 1 = 8 left
        assert short_done.value.remaining == 0.0
        cancelled = server.cancel(long_done)
        assert cancelled.remaining == 8.0
        assert math.isnan(cancelled.completion_time)

    def test_utilization_takes_no_since(self):
        env = Environment()
        server = ProcessorSharingServer(env, capacity=1.0)
        server.submit(1.0)
        env.run(until=4.0)
        assert server.utilization() == 0.25
        with pytest.raises(TypeError):
            server.utilization(since=1.0)
