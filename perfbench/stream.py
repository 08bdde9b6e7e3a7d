"""Seeded request streams.

A workload module supplies ``make_round(rng, index)``, which returns the
requests of one round as ``(kind, args, expect, work, known_defect)``
tuples.  Rounds have a fixed composition of request kinds, each taking its
input shape from a pool of shapes of about the same cost, so every run of
whole rounds has nearly the same mix whatever the seed; the seed picks the
concrete inputs (scrambles, orders, spellings, multiplicities) and the
order inside each round.  Only ``args`` reaches
the library; ``expect`` and ``work`` stay with the benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Iterator, Optional

from fandec import Fan, IntegerMatrix, InvariantBundle


@dataclass(frozen=True)
class Request:
    rid: int
    kind: str
    args: tuple
    expect: Any
    # Work counts computed from the inputs, keyed by per-layer metric name.
    work: dict = field(default_factory=dict)
    # Set when a wrong answer on this request is an open, documented defect
    # of the library: it still counts as failed, but does not mark the run
    # as incorrect.
    known_defect: Optional[str] = None


def rounds(module: ModuleType, seed: int) -> Iterator[list[Request]]:
    """Endless stream of request rounds from one seed."""
    offset = random.Random(f"perfbench:{module.NAME}:{seed}").randrange(1 << 16)
    rid = 0
    index = 0
    while True:
        batch = []
        rng = random.Random(f"perfbench:{module.NAME}:{seed}:{index}")
        for kind, args, expect, work, known in module.make_round(rng, index + offset):
            batch.append(Request(rid, kind, args, expect, work, known))
            rid += 1
        yield batch
        index += 1


def _plain(x: Any) -> Any:
    if isinstance(x, Fan):
        return {
            "dim": x.dim,
            "rays": [list(r) for r in x.rays],
            "cones": [list(c.ray_indices) for c in x.maximal_cones],
        }
    if isinstance(x, IntegerMatrix):
        return [list(r) for r in x.entries]
    if isinstance(x, InvariantBundle):
        return x.as_dict()
    if isinstance(x, (tuple, list)):
        return [_plain(y) for y in x]
    return x


def describe(requests: list[Request]) -> bytes:
    """Canonical bytes of what the library receives for each request."""
    return json.dumps(
        [[r.rid, r.kind, _plain(r.args)] for r in requests], sort_keys=True
    ).encode()
