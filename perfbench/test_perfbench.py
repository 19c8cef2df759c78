"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_perfbench.py -q

They need neither bidopt nor a solve: percentiles and their sample
counts, self time from nested spans, the root / fixing / node split
of one branch_and_bound call's LP solves, and the scaling of a time by
the speed samples taken around it.
"""

import statistics

import pytest

import speed
from spans import RecordingEngine, Span, Tracer, layer_metrics, self_time, split_solves
from stats import percentile, quartile_spread


def test_percentile_nearest_rank_and_count_beyond():
    xs = list(range(1, 1261))
    assert percentile(xs, 99) == (1248, 12)
    assert percentile(xs, 50) == (630, 630)
    assert percentile([5.0, 1.0, 3.0], 50) == (3.0, 1)
    assert percentile([5.0, 1.0, 3.0], 100) == (5.0, 0)
    assert percentile([7.0], 99) == (7.0, 0)


def test_percentile_rank_is_exact_where_floats_round_up():
    # 0.99 * 100 is 99.00000000000001 in floating point; the rank is 99.
    assert percentile(range(100), 99) == (98, 1)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_quartile_spread_matches_statistics_quantiles():
    xs = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.7]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert quartile_spread(xs) == pytest.approx((q3 - q1) / med)


def span(name, sid, parent, start, end, **attrs):
    return Span(name, sid, parent, None, start, end, attrs)


def test_self_time_subtracts_children_once():
    parent = span("p", 0, None, 0.0, 10.0)
    kids = [
        span("a", 1, 0, 1.0, 3.0),
        span("b", 2, 0, 2.0, 4.0),   # overlaps a: 1..4 counted once
        span("c", 3, 0, 6.0, 12.0),  # runs past the parent: clipped at 10
    ]
    assert self_time(parent, kids) == pytest.approx(10.0 - 3.0 - 4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def solves(n):
    return [span("simplex.solve", i, None, float(i), i + 0.5) for i in range(n)]


def test_split_solves_root_fixing_nodes():
    # root, two fixing resolves, then nodes 1..3 (node 0 is cached).
    root, fixing, node = split_solves(solves(6), nodes=4)
    assert [s.id for s in root] == [0]
    assert [s.id for s in fixing] == [1, 2]
    assert [s.id for s in node] == [3, 4, 5]


def test_split_solves_without_tree():
    root, fixing, node = split_solves(solves(3), nodes=0)
    assert len(root) == 1 and len(fixing) == 2 and node == []
    root, fixing, node = split_solves(solves(1), nodes=1)
    assert len(root) == 1 and fixing == [] and node == []


def test_split_solves_rejects_too_few_solves():
    with pytest.raises(ValueError):
        split_solves(solves(2), nodes=4)


class FakeSolution:
    def __init__(self, iterations, status):
        self.iterations = iterations
        self.status = status


class FakeEngine:
    def __init__(self, results):
        self.results = list(results)
        self.calls = []

    def solve(self, bounds=None, warm=None, max_iterations=None):
        self.calls.append((bounds, warm, max_iterations))
        return self.results.pop(0)


def test_recording_engine_spans_nest_under_the_search_span():
    tracer = Tracer()
    engine = RecordingEngine(
        FakeEngine([FakeSolution(100, "optimal"), FakeSolution(4, "infeasible"),
                    FakeSolution(6, "optimal")]),
        tracer,
    )
    with tracer.span("solve"):
        with tracer.span("model.build") as build:
            pass
        with tracer.span("search.branch_and_bound") as search:
            engine.solve()
            engine.solve(bounds={3: (0.0, 0.0)}, warm=(0, 1))
            engine.solve(bounds={4: (0.0, 0.0)}, warm=(0, 1))
    build.attrs.update(rows=2, columns=5, nnz=7)
    search.attrs["nodes"] = 3

    lp = [s for s in tracer.spans if s.name == "simplex.solve"]
    assert all(s.parent == search.id for s in lp)
    assert [s.attrs["warm"] for s in lp] == [False, True, True]
    assert [s.attrs["bounded"] for s in lp] == [False, True, True]

    m = layer_metrics(tracer.spans)
    assert m["simplex.solves"] == 3
    assert m["simplex.root_iters"] == 100
    assert m["simplex.iters"] == 110
    assert m["search.nodes"] == 3
    assert m["search.fixing_solves"] == 0
    assert m["simplex.infeasible_share"] == pytest.approx(0.5)
    assert m["simplex.warm_share"] == pytest.approx(2 / 3)
    assert m["model.nnz"] == 7
    assert m["simplex.root_s"] == pytest.approx(lp[0].seconds)
    assert m["search.self_s"] == pytest.approx(
        search.seconds - sum(s.seconds for s in lp)
    )


def test_layer_metrics_ratios_with_zero_base_read_zero():
    spans = [
        span("search.branch_and_bound", 0, None, 0.0, 2.0, nodes=0),
        span("simplex.solve", 1, 0, 0.0, 1.5, iterations=10, status="optimal", warm=False),
    ]
    m = layer_metrics(spans)
    assert m["search.self_ms_per_node"] == 0.0
    assert m["search.node_lp_ms"] == 0.0
    assert m["simplex.root_s"] == pytest.approx(1.5)
    assert m["search.self_s"] == pytest.approx(0.5)


def meter(samples):
    """A Speedometer holding the given (start, duration) samples."""
    m = speed.Speedometer()
    m.starts = [t for t, _ in samples]
    m.durations = [d for _, d in samples]
    return m


def test_paused_counts_samples_that_start_inside():
    m = meter([(0.9, 0.1), (1.0, 0.2), (1.5, 0.3), (2.0, 0.4)])
    assert m.paused(1.0, 2.0) == pytest.approx(0.5)
    assert m.paused(2.5, 3.0) == 0.0


def test_slowdown_is_the_mean_of_samples_near_the_interval():
    nominal = speed.NOMINAL_S
    w = speed.WINDOW_S
    m = meter([(1.0 - w - 0.01, 9 * nominal), (1.0 - w, nominal),
               (1.5, 2 * nominal), (2.0 + w, 3 * nominal), (2.0 + w + 0.01, 9 * nominal)])
    assert m.slowdown(1.0, 2.0) == pytest.approx(2.0)


def test_slowdown_widens_to_the_nearest_samples():
    nominal = speed.NOMINAL_S
    w = speed.WINDOW_S
    m = meter([(0.0, nominal), (5.0 - w, 2 * nominal), (5.1 - w, 3 * nominal),
               (9.0 + w, 7 * nominal), (20.0, 9 * nominal)])
    # Nothing within the window of [5.5, 5.6): the three nearest samples.
    assert m.slowdown(5.5, 5.6) == pytest.approx(4.0)
    assert meter([(0.0, nominal)]).slowdown(3.0, 4.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        meter([]).slowdown(0.0, 1.0)


def test_scaled_removes_samples_then_divides_by_the_slowdown():
    nominal = speed.NOMINAL_S
    m = meter([(1.2, 2 * nominal), (1.4, 2 * nominal), (1.6, 2 * nominal)])
    assert m.scaled(1.0, 2.0) == pytest.approx((1.0 - 6 * nominal) / 2.0)


@pytest.mark.parametrize("make_kernel", [lambda: speed.kernel, speed.make_solver_kernel])
def test_speedometer_samples_on_its_timer_and_stops(make_kernel):
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer(period_s=0.01, kernel=make_kernel()) as m:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            speed.kernel()
    assert len(m.durations) >= 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert m.scaled(m.starts[0], m.starts[-1]) > 0
