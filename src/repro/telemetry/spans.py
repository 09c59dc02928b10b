"""Span collection for simulated platform activity."""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field
from typing import (Any, Callable, DefaultDict, Dict, Iterable, List,
                    Optional)


class SpanKind:
    """Well-known span kinds emitted by the platform simulations."""

    COLD_START = "cold_start"        # container provisioning before first run
    QUEUE_WAIT = "queue_wait"        # time spent waiting in a dispatch queue
    SCHEDULING = "scheduling"        # trigger-to-start delay for a worker
    EXECUTION = "execution"          # billable function execution
    REPLAY = "replay"                # orchestrator replay execution
    TRANSITION = "transition"        # state-machine transition
    STORAGE = "storage"              # remote storage access from a handler
    WORKFLOW = "workflow"            # end-to-end workflow interval
    ENTITY_OP = "entity_op"          # durable entity operation


@dataclass
class Span:
    """A named interval of simulated time with attributes."""

    span_id: int
    name: str
    kind: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length; raises if the span is still open."""
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def __repr__(self) -> str:
        end = f"{self.end:.6g}" if self.end is not None else "open"
        return (f"Span({self.name!r}, kind={self.kind}, "
                f"start={self.start:.6g}, end={end})")


class Telemetry:
    """Collects spans against a simulated clock.

    ``spans`` holds every retained span in retention order (the order
    ``start_span``/``record`` produced them; start order after
    :meth:`merge`).  Treat it as append-only and read-only: queries go
    through three indexes over it instead of scanning it:

    * per kind, the retained spans in retention order (``find(kind=…)``
      walks only that kind's list);
    * per kind, the retained start times sorted ascending.
      ``start_span`` stamps the clock, so its start lands at the end;
      ``record`` takes an explicit, possibly earlier ``start``, which is
      inserted in order (``insort``).  The list is sorted whatever order
      spans arrive in, and :meth:`first_start` is one ``bisect``;
    * ``parent_id`` to the children in retention order
      (:meth:`children_of` is a dict lookup).

    Each query first indexes the spans retained since the previous one,
    so every span is indexed once, and a collector nothing queries (most
    of them) pays nothing for its indexes.  ``reset`` clears the indexes
    with the spans, ``merge`` gives the merged collector its own, and a
    disabled collector retains and indexes nothing.  Every query returns
    exactly what a linear scan of ``spans`` would.

    ``spans_visited`` counts the index entries the queries read (the
    entry ``first_start`` lands on, each span ``find`` and
    ``children_of`` examine); neither the ``bisect`` probes nor the
    one-time indexing of each span count.  It is a deterministic work
    counter for complexity gates, kept across ``reset``; diagnostic
    only, it never feeds outcomes, checksums or cache keys.

    >>> from repro.sim import Environment
    >>> env = Environment()
    >>> telemetry = Telemetry(clock=lambda: env.now)
    >>> span = telemetry.start_span('invoke', SpanKind.EXECUTION)
    >>> _ = telemetry.end_span(span)
    >>> span.duration
    0.0
    >>> telemetry.first_start(SpanKind.EXECUTION, since=0.0)
    0.0
    """

    _ids = itertools.count(1)

    def __init__(self, clock: Callable[[], float], enabled: bool = True):
        self._clock = clock
        self.enabled = enabled
        self.spans: List[Span] = []
        #: ``spans[:_indexed]`` are in the indexes below
        self._indexed = 0
        self._by_kind: DefaultDict[str, List[Span]] = defaultdict(list)
        self._starts: DefaultDict[str, List[float]] = defaultdict(list)
        self._children: DefaultDict[int, List[Span]] = defaultdict(list)
        self.spans_visited = 0

    def start_span(self, name: str, kind: str,
                   parent: Optional[Span] = None,
                   **attributes: Any) -> Span:
        """Open a span at the current simulated time.

        With collection disabled (``enabled=False``) the span object is
        still produced — platform code annotates and closes it — but it
        is not retained, so queries see nothing.
        """
        span = Span(
            span_id=next(self._ids), name=name, kind=kind,
            start=self._clock(),
            parent_id=parent.span_id if parent else None,
            attributes=dict(attributes))
        if self.enabled:
            self.spans.append(span)
        return span

    def end_span(self, span: Span, **attributes: Any) -> Span:
        """Close a span at the current simulated time."""
        if span.end is not None:
            raise ValueError(f"span {span.name!r} already closed")
        span.end = self._clock()
        span.attributes.update(attributes)
        return span

    def record(self, name: str, kind: str, start: float, end: float,
               parent: Optional[Span] = None, **attributes: Any) -> Span:
        """Record an already-completed interval."""
        if end < start:
            raise ValueError(f"span ends before it starts: {start} > {end}")
        span = Span(
            span_id=next(self._ids), name=name, kind=kind, start=start,
            end=end, parent_id=parent.span_id if parent else None,
            attributes=dict(attributes))
        if self.enabled:
            self.spans.append(span)
        return span

    # -- queries ---------------------------------------------------------------

    def _index(self) -> None:
        """Add the spans retained since the last query to the indexes."""
        by_kind, starts, children = \
            self._by_kind, self._starts, self._children
        for span in self.spans[self._indexed:]:
            by_kind[span.kind].append(span)
            insort(starts[span.kind], span.start)
            if span.parent_id is not None:
                children[span.parent_id].append(span)
        self._indexed = len(self.spans)

    def first_start(self, kind: str, since: float) -> Optional[float]:
        """The earliest start at or after ``since`` among the retained
        spans of ``kind``, open or closed; None if there is none."""
        self._index()
        starts = self._starts.get(kind, ())
        index = bisect_left(starts, since)
        if index == len(starts):
            return None
        self.spans_visited += 1
        return starts[index]

    def find(self, kind: Optional[str] = None, name: Optional[str] = None,
             **attributes: Any) -> List[Span]:
        """All closed spans matching the filters, in retention order."""
        self._index()
        candidates = (self.spans if kind is None
                      else self._by_kind.get(kind, ()))
        self.spans_visited += len(candidates)
        matches = []
        for span in candidates:
            if not span.closed:
                continue
            if name is not None and span.name != name:
                continue
            if any(span.attributes.get(key) != value
                   for key, value in attributes.items()):
                continue
            matches.append(span)
        return matches

    def durations(self, kind: Optional[str] = None,
                  name: Optional[str] = None, **attributes: Any) -> List[float]:
        """Durations of all matching closed spans."""
        return [span.duration
                for span in self.find(kind=kind, name=name, **attributes)]

    def total_time(self, kind: Optional[str] = None,
                   name: Optional[str] = None, **attributes: Any) -> float:
        """Summed duration of matching spans (e.g. total queue time)."""
        return sum(self.durations(kind=kind, name=name, **attributes))

    def children_of(self, parent: Span) -> List[Span]:
        """Direct children of ``parent``, in retention order."""
        self._index()
        children = self._children.get(parent.span_id, [])
        self.spans_visited += len(children)
        return list(children)

    def merge(self, others: Iterable["Telemetry"]) -> "Telemetry":
        """A new collector holding this one's spans plus others'."""
        merged = Telemetry(self._clock)
        merged.spans = list(self.spans)
        for other in others:
            merged.spans.extend(other.spans)
        merged.spans.sort(key=lambda span: span.start)
        return merged

    def reset(self) -> None:
        """Drop all spans (between experiment iterations)."""
        self.spans.clear()
        self._indexed = 0
        self._by_kind.clear()
        self._starts.clear()
        self._children.clear()

    def __len__(self) -> int:
        return len(self.spans)
