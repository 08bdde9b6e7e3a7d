"""Spans around the benchmark's calls into the library, and their roll-up.

Untraced runs pass ``plain_call`` to the request executors; traced runs
pass ``Tracer.call``.  Both have the signature ``call(layer, fn, *args)``,
so the request code is identical in the two modes and only the recorder
differs.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


def plain_call(layer: str, fn: Callable, *args):
    return fn(*args)


@dataclass
class Span:
    sid: int
    rid: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    # Name of the exception the call raised, or None when it returned.
    raised: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per request and one per library call inside it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._request: Optional[Span] = None

    def begin_request(self, rid: int, kind: str) -> None:
        self._request = Span(len(self.spans), rid, None, f"request.{kind}", time.perf_counter())
        self.spans.append(self._request)

    def end_request(self, raised: Optional[str] = None) -> None:
        self._request.end = time.perf_counter()
        self._request.raised = raised
        self._request = None

    def call(self, layer: str, fn: Callable, *args):
        req = self._request
        span = Span(len(self.spans), req.rid, req.sid, layer, time.perf_counter())
        self.spans.append(span)
        try:
            return fn(*args)
        except BaseException as exc:
            span.raised = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "sid": s.sid,
                            "rid": s.rid,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "raised": s.raised,
                        }
                    )
                    + "\n"
                )


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.seconds - covered
    return out


def layer_stats(
    spans: list[Span], own: dict[int, float], layer: str, refusal: Optional[str] = None
) -> dict[str, float]:
    """calls, busy_s, self_s, p50_ms and fails (plus refused) of one layer.

    ``own`` is ``self_times(spans)``.  A call that raised the layer's
    documented refusal counts as refused; any other exception counts as a
    failure of the layer.
    """
    mine = [s for s in spans if s.name == layer]
    refused = sum(1 for s in mine if refusal is not None and s.raised == refusal)
    out = {
        "calls": len(mine),
        "busy_s": sum(s.seconds for s in mine),
        "self_s": sum(own[s.sid] for s in mine),
        "p50_ms": statistics.median(s.seconds for s in mine) * 1e3 if mine else 0.0,
        "fails": sum(1 for s in mine if s.raised is not None) - refused,
    }
    if refusal is not None:
        out["refused"] = refused
    return out
