"""Tests for the on-demand (point-to-point) baseline."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.geometry import Point, Rect
from repro.index import brute_force_knn
from repro.ondemand import OnDemandServer, erlang_b, mmc_wait_time
from repro.workloads import generate_pois

BOUNDS = Rect(0, 0, 20, 20)


def make_server(n=300, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    pois = generate_pois(BOUNDS, n, rng)
    return OnDemandServer(pois, **kwargs), pois


def burst(count, seed, k=5):
    """``count`` requests that all arrive at t = 0."""
    rng = np.random.default_rng(seed)
    return [(0.0, Point(*rng.uniform(0, 20, 2)), k) for _ in range(count)]


def poisson_arrivals(rate, horizon, seed, k=5):
    rng = np.random.default_rng(seed)
    arrivals, t = [], 0.0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= horizon:
            return arrivals
        arrivals.append((t, Point(*rng.uniform(0, 20, 2)), k))


class TestServer:
    def test_validation(self):
        _, pois = make_server()
        with pytest.raises(ExperimentError):
            OnDemandServer(pois, channels=0)
        with pytest.raises(ExperimentError):
            OnDemandServer(pois, per_result_service_time=0)
        with pytest.raises(ExperimentError):
            OnDemandServer(pois, fixed_overhead=-1)

    def test_service_time_positive_and_grows_with_k(self):
        server, _ = make_server()
        assert 0 < server.service_time(1) < server.service_time(20)
        (one,) = server.serve([(0.0, Point(10, 10), 1)])
        (twenty,) = server.serve([(0.0, Point(10, 10), 20)])
        assert one.service_time == server.service_time(1)
        assert twenty.service_time == server.service_time(20)

    def test_answers_are_exact(self):
        server, pois = make_server(seed=1, channels=2)
        queries = [Point(3, 3), Point(15, 7), Point(9, 18)]
        answers = server.serve([(0.0, q, 5) for q in queries])
        assert len(answers) == 3
        for answer, q in zip(answers, queries):
            assert list(answer.results) == brute_force_knn(pois, q, 5)

    def test_contention_creates_queueing(self):
        server, _ = make_server(seed=2, channels=1)
        answers = server.serve(burst(10, seed=3))
        assert len(answers) == 10
        # With one channel, later requests must have queued.
        assert max(a.queued_for for a in answers) > 0
        assert server.served == 10

    def test_more_channels_reduce_waiting(self):
        def total_wait(channels):
            server, _ = make_server(seed=4, channels=channels)
            return sum(a.queued_for for a in server.serve(burst(20, seed=5)))

        assert total_wait(channels=8) < total_wait(channels=1)

    def test_out_of_order_arrivals_raise(self):
        server, _ = make_server()
        with pytest.raises(ExperimentError, match="out of order"):
            server.serve([(2.0, Point(1, 1), 1), (1.0, Point(1, 1), 1)])


# Inter-arrival gaps and answer sizes of a small request stream; the
# answer size is the only thing a service time depends on.
STREAMS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        st.integers(min_value=0, max_value=12),
    ),
    min_size=1,
    max_size=40,
)


def stream_arrivals(stream):
    arrivals, t = [], 0.0
    for gap, k in stream:
        t += gap
        arrivals.append((t, Point(10, 10), k))
    return arrivals


class TestQueueLaws:
    """``serve`` is the c-server FCFS queue, stated as laws."""

    def test_two_channels_three_requests_exact(self):
        # Service 0.05 + 5 x 0.01 = 0.1 s each, two channels: the
        # third request waits for the first channel to fall free.
        server, _ = make_server(channels=2)
        q = Point(5, 5)
        a, b, c = server.serve([(0.0, q, 5), (0.0, q, 5), (0.04, q, 5)])
        assert (a.queued_for, b.queued_for) == (0.0, 0.0)
        assert c.queued_for == pytest.approx(0.06)
        assert c.latency == pytest.approx(0.16)

    def test_idle_server_never_queues(self):
        server, _ = make_server(channels=1)
        q = Point(5, 5)
        answers = server.serve([(float(t), q, 5) for t in range(5)])
        assert [a.queued_for for a in answers] == [0.0] * 5

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS)
    def test_one_channel_is_the_lindley_recursion(self, stream):
        server, _ = make_server(n=20, channels=1)
        arrivals = stream_arrivals(stream)
        answers = server.serve(arrivals)
        wait = 0.0
        for n, answer in enumerate(answers):
            assert answer.queued_for == pytest.approx(wait, abs=1e-9)
            if n + 1 < len(arrivals):
                gap = arrivals[n + 1][0] - arrivals[n][0]
                wait = max(0.0, wait + answer.service_time - gap)

    @settings(max_examples=60, deadline=None)
    @given(stream=STREAMS, channels=st.integers(min_value=1, max_value=4))
    def test_fcfs_and_channel_bound(self, stream, channels):
        server, _ = make_server(n=20, channels=channels)
        arrivals = stream_arrivals(stream)
        answers = server.serve(arrivals)
        assert server.served == len(answers) == len(arrivals)
        starts = [t + a.queued_for for (t, _, _), a in zip(arrivals, answers)]
        ends = [s + a.service_time for s, a in zip(starts, answers)]
        # Requests start in arrival order and never before they arrive.
        assert starts == sorted(starts)
        assert all(a.queued_for >= 0.0 for a in answers)
        # The number in service only rises at a start: check each one
        # (``t + (start - t)`` can land an ulp short of ``start``, so a
        # request that starts as a channel falls free is not "during").
        for n, start in enumerate(starts):
            in_service = sum(
                1
                for s, e in zip(starts[: n + 1], ends)
                if s <= start < e - 1e-9
            )
            assert in_service <= channels
        # Work conserving: a request that queued started the moment a
        # channel fell free.
        for n, (start, answer) in enumerate(zip(starts, answers)):
            if answer.queued_for > 0:
                assert any(
                    e == pytest.approx(start, abs=1e-9) for e in ends[:n]
                )

    def test_below_saturation_matches_md1_and_stays_under_mm1(self):
        # Fixed k => deterministic service S: one channel is M/D/1,
        # whose mean wait rho*S / (2(1 - rho)) is half the M/M/1 value.
        server, _ = make_server(n=50, channels=1)
        service = server.service_time(5)
        rate = 0.6 / service
        answers = server.serve(poisson_arrivals(rate, 4000.0, seed=7))
        assert {a.service_time for a in answers} == {service}
        rho = rate * service
        md1 = rho * service / (2 * (1 - rho))
        measured = float(np.mean([a.queued_for for a in answers]))
        assert measured == pytest.approx(md1, rel=0.1)
        assert measured < mmc_wait_time(rate, 1.0 / service, 1)

    def test_past_saturation_the_wait_grows_without_bound(self):
        server, _ = make_server(n=50, channels=2)
        rate = 1.5 * server.channels / server.service_time(5)
        answers = server.serve(poisson_arrivals(rate, 60.0, seed=8))
        waits = [a.queued_for for a in answers]
        half = len(waits) // 2
        assert np.mean(waits[half:]) > 2 * np.mean(waits[:half]) > 0


class TestMMC:
    def test_validation(self):
        with pytest.raises(ExperimentError):
            mmc_wait_time(-1, 1, 1)
        with pytest.raises(ExperimentError):
            mmc_wait_time(1, 0, 1)
        with pytest.raises(ExperimentError):
            mmc_wait_time(1, 1, 0)
        with pytest.raises(ExperimentError):
            mmc_wait_time(math.nan, 1, 1)
        with pytest.raises(ExperimentError):
            mmc_wait_time(1, math.inf, 1)
        with pytest.raises(ExperimentError):
            mmc_wait_time(1, -2, 1)

    def test_zero_load(self):
        assert mmc_wait_time(0, 1, 3) == 0.0

    def test_unstable_system_raises(self):
        """An unstable queue has no stationary wait: admission control
        measuring live rates must see a typed error, not a silent
        non-answer it would compare against a wait budget."""
        with pytest.raises(ExperimentError, match="unstable"):
            mmc_wait_time(10, 1, 4)
        with pytest.raises(ExperimentError, match="unstable"):
            mmc_wait_time(4, 1, 4)  # rho == 1 exactly
        # Just inside the stable region still answers.
        assert math.isfinite(mmc_wait_time(3.999, 1, 4))

    def test_mm1_closed_form(self):
        # M/M/1: W_q = rho / (mu - lambda).
        lam, mu = 0.5, 1.0
        expected = (lam / mu) / (mu - lam)
        assert mmc_wait_time(lam, mu, 1) == pytest.approx(expected)

    def test_wait_grows_with_load(self):
        waits = [mmc_wait_time(lam, 1.0, 4) for lam in (0.5, 2.0, 3.5)]
        assert waits == sorted(waits)
        assert waits[-1] > 10 * waits[0]

    def test_wait_shrinks_with_servers(self):
        assert mmc_wait_time(3, 1, 8) < mmc_wait_time(3, 1, 4)

    def test_large_server_counts_no_overflow(self):
        """Regression: the a**c / c! formulation overflowed float for
        c beyond ~170 (OverflowError on a**servers), so sizing runs at
        data-center scale crashed.  The Erlang B recurrence stays in
        [0, 1] at every step."""
        wait = mmc_wait_time(900.0, 1.0, 1000)
        assert math.isfinite(wait)
        assert wait >= 0.0
        # Nearly idle huge pool: effectively no queueing.
        assert mmc_wait_time(1.0, 1.0, 1000) == pytest.approx(0.0, abs=1e-12)

    def test_matches_factorial_closed_form_small_c(self):
        """Property: the recurrence agrees with the textbook
        factorial formula wherever that formula is computable."""
        for servers in (1, 2, 3, 5, 8, 13, 21):
            for load_fraction in (0.1, 0.5, 0.9, 0.99):
                lam = servers * load_fraction
                a = lam  # mu = 1
                summation = sum(
                    a**n / math.factorial(n) for n in range(servers)
                )
                top = (
                    a**servers
                    / math.factorial(servers)
                    * (1 / (1 - a / servers))
                )
                p_wait = top / (summation + top)
                expected = p_wait / (servers - lam)
                assert mmc_wait_time(lam, 1.0, servers) == pytest.approx(
                    expected, rel=1e-10
                )

    def test_erlang_b_known_values(self):
        # B(a=1, c=1) = 1/2; B(a=2, c=2) = 2/5 (classic table values).
        assert erlang_b(1.0, 1) == pytest.approx(0.5)
        assert erlang_b(2.0, 2) == pytest.approx(0.4)
        assert erlang_b(0.0, 10) == 0.0

    def test_erlang_b_degenerate_inputs_raise(self):
        with pytest.raises(ExperimentError):
            erlang_b(5.0, 0)
        with pytest.raises(ExperimentError):
            erlang_b(-1.0, 4)
        with pytest.raises(ExperimentError):
            erlang_b(math.inf, 4)
        with pytest.raises(ExperimentError):
            erlang_b(math.nan, 4)

    def test_erlang_b_monotone_in_servers(self):
        blockings = [erlang_b(10.0, c) for c in range(1, 40)]
        assert blockings == sorted(blockings, reverse=True)
