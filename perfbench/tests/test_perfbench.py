"""Tests of the benchmark itself: seeded inputs, answer checks, tracing."""

import itertools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from fandec import IntegerMatrix, MultiplicityVector, count_square_zero, parse_product, product_manifold_profile
from perfbench import counts, fans, harness
from perfbench.stream import describe, rounds
from perfbench.tracing import Span, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def first_requests(module, seed, n_rounds=2):
    return [r for batch in itertools.islice(rounds(module, seed), n_rounds) for r in batch]


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_seed_fixes_the_request_list(name):
    module = harness.WORKLOADS[name]
    first = describe(first_requests(module, 5))
    assert first == describe(first_requests(module, 5))
    assert first != describe(first_requests(module, 6))


def answered(module, kind):
    """The first request of a kind with its real answer, which must check out."""
    req = next(r for r in first_requests(module, 1) if r.kind == kind and r.known_defect is None)
    out = harness.execute(module, req)
    assert harness.judge(module, [out]) == []
    return out


def test_corrupted_answers_count_as_failures():
    lat = answered(fans, "lattice")
    snf, det, inv = lat.answer
    u_rows = list(snf.u.entries)
    swapped = snf._replace(u=IntegerMatrix([u_rows[1], u_rows[0]] + u_rows[2:]))
    iso = answered(fans, "iso_pos")
    flipped = IntegerMatrix([[-x if j == 0 else x for j, x in enumerate(row)] for row in iso.answer.entries])
    cnt = answered(counts, "count")
    kind, n, closed = cnt.answer
    corrupted = [
        harness.Outcome(lat.req, (swapped, det, inv), None, 0.0),
        harness.Outcome(lat.req, (snf, det + 1, inv), None, 0.0),
        harness.Outcome(iso.req, flipped, None, 0.0),
        harness.Outcome(cnt.req, (kind, n + 1, closed), None, 0.0),
        harness.Outcome(cnt.req, None, "RuntimeError: boom", 0.0),
    ]
    wrong = harness.judge(fans, corrupted[:3]) + harness.judge(counts, corrupted[3:])
    assert len(wrong) == len(corrupted)


def test_corrupted_bundle_round_trip_counts_as_failure():
    from perfbench import bundles

    rt = answered(bundles, "roundtrip")
    v, same = rt.answer
    bad = replace(v, m=v.m + 1)
    assert isinstance(bad, MultiplicityVector)
    assert len(harness.judge(bundles, [harness.Outcome(rt.req, (bad, same), None, 0.0)])) == 1
    assert len(harness.judge(bundles, [harness.Outcome(rt.req, (v, False), None, 0.0)])) == 1


def test_folded_non_fans_fail_as_a_known_defect():
    req = next(r for r in first_requests(fans, 1, 3) if r.kind == "gate" and r.known_defect)
    [(failed, reason)] = harness.judge(fans, [harness.execute(fans, req)])
    assert failed.known_defect == fans.FOLDED_DEFECT and "gate" in reason


@pytest.mark.parametrize("modulus", [3, 4])
@pytest.mark.parametrize(
    "shape",
    [[("CP1", 2)], [("PQ(2,1)", 1), ("CP1", 1)], [("DIAG(2)", 1), ("CP1", 1)], [("PQ(1,1)", 1), ("PQ(2,0)", 1)]],
)
def test_factorwise_counts_match_product_enumeration(modulus, shape):
    text = " * ".join(f"{t}^{k}" for t, k in shape)
    prof = product_manifold_profile(parse_product(text))
    brute = sum(
        1
        for vec in itertools.product(range(modulus), repeat=prof.b2)
        if any(vec) and all(x % modulus == 0 for x in prof.square_of(vec))
    )
    assert counts.expected_count(modulus, shape) == brute == count_square_zero(prof, modulus)


def test_cp1_squared_mod4_is_not_the_factor_sum():
    assert counts.expected_count(4, [("CP1", 2)]) == 7


def test_self_time_subtracts_children():
    spans = [
        Span(0, 1, None, "request.x", 0.0, 10.0),
        Span(1, 1, 0, "a", 1.0, 4.0),
        Span(2, 1, 0, "b", 5.0, 6.0),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(6.0)
    assert own[1] == pytest.approx(3.0)


def test_benchmark_json_lists_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fans", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
