"""Tests for the telemetry span collector and timeline."""

import random
from typing import List, Optional, Tuple

import pytest

from repro.core.deployments import ml
from repro.core.parallel import CampaignSpec, execute_spec
from repro.sim import Environment
from repro.telemetry import Span, SpanKind, Telemetry, Timeline


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def telemetry(env):
    return Telemetry(clock=lambda: env.now)


def advance(env, seconds):
    def sleeper(env):
        yield env.timeout(seconds)
    env.run(until=env.process(sleeper(env)))


def test_span_lifecycle(env, telemetry):
    span = telemetry.start_span("invoke", SpanKind.EXECUTION, memory=512)
    assert not span.closed
    with pytest.raises(ValueError):
        span.duration
    advance(env, 3.0)
    telemetry.end_span(span, status="ok")
    assert span.closed
    assert span.duration == 3.0
    assert span.attributes == {"memory": 512, "status": "ok"}


def test_span_cannot_close_twice(env, telemetry):
    span = telemetry.start_span("x", SpanKind.EXECUTION)
    telemetry.end_span(span)
    with pytest.raises(ValueError, match="already closed"):
        telemetry.end_span(span)


def test_record_completed_interval(telemetry):
    span = telemetry.record("storage", SpanKind.STORAGE, start=1.0, end=2.5)
    assert span.duration == 1.5


def test_record_rejects_inverted_interval(telemetry):
    with pytest.raises(ValueError, match="before"):
        telemetry.record("x", SpanKind.STORAGE, start=2.0, end=1.0)


def test_find_filters_by_kind_name_attributes(env, telemetry):
    a = telemetry.start_span("f", SpanKind.EXECUTION, cold=True)
    b = telemetry.start_span("f", SpanKind.EXECUTION, cold=False)
    c = telemetry.start_span("g", SpanKind.COLD_START)
    for span in (a, b, c):
        telemetry.end_span(span)
    assert len(telemetry.find(kind=SpanKind.EXECUTION)) == 2
    assert len(telemetry.find(name="f", cold=True)) == 1
    assert len(telemetry.find(kind=SpanKind.COLD_START)) == 1


def test_find_excludes_open_spans(telemetry):
    telemetry.start_span("open", SpanKind.EXECUTION)
    assert telemetry.find(name="open") == []


def test_durations_and_total_time(env, telemetry):
    first = telemetry.start_span("q", SpanKind.QUEUE_WAIT)
    advance(env, 2.0)
    telemetry.end_span(first)
    second = telemetry.start_span("q", SpanKind.QUEUE_WAIT)
    advance(env, 3.0)
    telemetry.end_span(second)
    assert telemetry.durations(kind=SpanKind.QUEUE_WAIT) == [2.0, 3.0]
    assert telemetry.total_time(kind=SpanKind.QUEUE_WAIT) == 5.0


def test_parent_child_links(env, telemetry):
    parent = telemetry.start_span("workflow", SpanKind.WORKFLOW)
    child = telemetry.start_span("task", SpanKind.EXECUTION, parent=parent)
    telemetry.end_span(child)
    telemetry.end_span(parent)
    assert telemetry.children_of(parent) == [child]
    assert child.parent_id == parent.span_id


def test_merge_combines_and_sorts(env, telemetry):
    other = Telemetry(clock=lambda: env.now)
    late = telemetry.record("late", SpanKind.EXECUTION, 5.0, 6.0)
    early = other.record("early", SpanKind.EXECUTION, 1.0, 2.0)
    merged = telemetry.merge([other])
    assert [span.name for span in merged.spans] == ["early", "late"]
    assert len(telemetry) == 1  # originals untouched


def test_reset_clears(telemetry):
    telemetry.record("x", SpanKind.EXECUTION, 0.0, 1.0)
    telemetry.reset()
    assert len(telemetry) == 0


def test_spans_visited_counts_index_entries_read(telemetry):
    parent = telemetry.start_span("wf", SpanKind.WORKFLOW)
    for _ in range(3):
        telemetry.end_span(telemetry.start_span(
            "f", SpanKind.EXECUTION, parent=parent))
    assert telemetry.spans_visited == 0
    telemetry.first_start(SpanKind.EXECUTION, 0.0)
    assert telemetry.spans_visited == 1
    telemetry.first_start(SpanKind.EXECUTION, 1.0)   # nothing to read
    assert telemetry.spans_visited == 1
    telemetry.find(kind=SpanKind.EXECUTION)
    assert telemetry.spans_visited == 4
    telemetry.children_of(parent)
    assert telemetry.spans_visited == 7
    telemetry.reset()
    assert telemetry.spans_visited == 7   # a diagnostic, kept over reset


# -- the indexes against a linear scan ---------------------------------------

KINDS = (SpanKind.EXECUTION, SpanKind.COLD_START, SpanKind.QUEUE_WAIT)
NAMES = ("f", "g")


class Scan:
    """The linear-scan queries the indexes replaced, over a plain list of
    the spans a collector should hold."""

    def __init__(self, spans: Optional[List[Span]] = None):
        self.spans: List[Span] = spans or []

    def first_start(self, kind: str, since: float) -> Optional[float]:
        starts = [span.start for span in self.spans
                  if span.kind == kind and span.start >= since]
        return min(starts) if starts else None

    def find(self, kind=None, name=None, **attributes) -> List[Span]:
        return [span for span in self.spans
                if span.closed
                and (kind is None or span.kind == kind)
                and (name is None or span.name == name)
                and all(span.attributes.get(key) == value
                        for key, value in attributes.items())]

    def children_of(self, parent: Span) -> List[Span]:
        return [span for span in self.spans
                if span.parent_id == parent.span_id]


def assert_agrees(telemetry: Telemetry, scan: Scan, made: List[Span],
                  rng: random.Random) -> None:
    def same(found: List[Span], expected: List[Span]) -> None:
        assert [id(span) for span in found] == \
            [id(span) for span in expected]

    same(telemetry.spans, scan.spans)
    assert len(telemetry) == len(scan.spans)
    probes = [rng.choice(made).start for _ in range(3)] if made else []

    def first_starts():
        for kind in KINDS:
            for since in [-1.0, 0.0, 2.5, 1e9] + probes:
                assert telemetry.first_start(kind, since) == \
                    scan.first_start(kind, since)

    def finds():
        for kind in KINDS + (None,):
            for name in (None,) + NAMES:
                same(telemetry.find(kind=kind, name=name),
                     scan.find(kind=kind, name=name))
            same(telemetry.find(kind=kind, tag=1), scan.find(kind=kind, tag=1))

    def children():
        for parent in made[-8:]:
            same(telemetry.children_of(parent), scan.children_of(parent))

    # Each query must bring the indexes up to date itself.
    checks = [first_starts, finds, children]
    rng.shuffle(checks)
    for check in checks:
        check()


@pytest.mark.parametrize("seed", range(12))
def test_indexes_match_linear_scan(seed):
    rng = random.Random(seed)
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731 - a mutable test clock
    pair: List[Tuple[Telemetry, Scan]] = [(Telemetry(clock), Scan()),
                                          (Telemetry(clock), Scan())]
    made: List[Span] = []
    open_spans: List[Span] = []
    for _ in range(300):
        which = rng.randrange(2)
        telemetry, scan = pair[which]
        parent = rng.choice(made) if made and rng.random() < 0.5 else None
        name, kind = rng.choice(NAMES), rng.choice(KINDS)
        action = rng.random()
        span = None
        if action < 0.35:
            # Whole half-seconds give equal start times.
            now[0] += rng.randrange(3) * 0.5
            span = telemetry.start_span(name, kind, parent=parent,
                                        tag=rng.randrange(2))
            open_spans.append(span)
        elif action < 0.55 and open_spans:
            # Every collector reads the one clock, so any can close it.
            telemetry.end_span(open_spans.pop(rng.randrange(len(open_spans))))
        elif action < 0.85:
            # An explicit start, often before spans already retained.
            start = rng.randrange(int(now[0] * 2) + 3) * 0.5
            span = telemetry.record(name, kind, start, start + rng.random(),
                                    parent=parent, tag=rng.randrange(2))
        elif action < 0.9:
            telemetry.enabled = not telemetry.enabled
        elif action < 0.95:
            telemetry.reset()
            scan.spans.clear()
        else:
            other, other_scan = pair[1 - which]
            telemetry = telemetry.merge([other])
            scan = Scan(sorted(scan.spans + other_scan.spans,
                               key=lambda span: span.start))
            pair[which] = (telemetry, scan)
        if span is not None:
            made.append(span)
            if telemetry.enabled:
                scan.spans.append(span)
        # Not after every step: several changes may land between queries.
        if rng.random() < 0.5:
            assert_agrees(telemetry, scan, made, rng)
    for telemetry, scan in pair:
        assert_agrees(telemetry, scan, made, rng)


# -- the cold-start query scales with the calls, not the spans ---------------

def step_overload_spec(horizon_s: float) -> CampaignSpec:
    return CampaignSpec(deployment="AWS-Step", workload="ml-training",
                        campaign="overload", arrival="poisson",
                        arrival_rate_per_s=2.0, horizon_s=horizon_s,
                        seed=0, workload_seed=0, audit=True)


def span_work(monkeypatch, horizon_s: float) -> Tuple[int, int]:
    """Spans the campaign's collectors visited, and the spans the old
    full scan in ``_first_execution_delay`` would have read."""
    collectors = []
    full_scan = [0]
    init = Telemetry.__init__
    first_delay = ml._first_execution_delay

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        collectors.append(self)

    def scanning(telemetry, since):
        full_scan[0] += len(telemetry.spans)
        return first_delay(telemetry, since)

    with monkeypatch.context() as patch:
        patch.setattr(Telemetry, "__init__", tracking_init)
        patch.setattr(ml, "_first_execution_delay", scanning)
        outcome = execute_spec(step_overload_spec(horizon_s))
    assert outcome.audit is not None and outcome.audit.passed
    assert outcome.overload.succeeded > 0
    return (sum(telemetry.spans_visited for telemetry in collectors),
            full_scan[0])


@pytest.mark.overload
def test_cold_start_span_work_scales_linearly(monkeypatch):
    horizon_s = 50.0
    visited, scanned = span_work(monkeypatch, horizon_s)
    visited_2x, scanned_2x = span_work(monkeypatch, 2 * horizon_s)
    assert visited > 0
    assert visited_2x / visited <= 2.2
    # The gate can fail: the full span scan grows about 3.2x here.
    assert scanned_2x / scanned > 3.0


# -- timeline ------------------------------------------------------------------

def test_timeline_logs_with_clock(env):
    timeline = Timeline(clock=lambda: env.now)
    timeline.log("deploy", "registered function", name="f")
    advance(env, 10.0)
    timeline.log("invoke", "started")
    assert len(timeline) == 2
    assert timeline.events[1].time == 10.0


def test_timeline_filter_by_category_and_window(env):
    timeline = Timeline(clock=lambda: env.now)
    timeline.log("a", "first")
    advance(env, 5.0)
    timeline.log("b", "second")
    advance(env, 5.0)
    timeline.log("a", "third")
    assert len(timeline.filter(category="a")) == 2
    assert len(timeline.filter(since=4.0, until=9.0)) == 1
    assert timeline.last(category="a").message == "third"
    assert timeline.last(category="zzz") is None
