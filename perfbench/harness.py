"""Closed-loop runner: one client, one request at a time, no extra threads.

A run executes whole rounds of seeded requests until at least ``seconds``
of request time and ``MIN_REQUESTS`` requests have accumulated, timing
each request alone.  Between rounds it times ``SETUP_REPEATS`` cold
``python -m fandec`` processes answering one small request of the
workload's family (``setup_s``).  Answers are checked after the timed loop.

Times are scaled to a fixed machine speed (see reference.py).  Reference
kernels run between consecutive requests; a request time t between kernel
times r0 and r1 is reported as t * nominal / ((r0 + r1) / 2), with the
kernel the workload names.  Cold starts are scaled by the nominal over the
median time of the Python kernel in the same run.  The unscaled values are
kept in the results file and the table.

A traced run executes each request twice, untraced and with one span per
library call, in alternating order; the ratio of the two busy times is the
tracing overhead, and the spans give the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from types import ModuleType
from typing import Optional

import numpy

from . import bundles, counts, fans, reference
from .stream import Request, rounds
from .tracing import Tracer, layer_stats, plain_call, self_times

WORKLOADS: dict[str, ModuleType] = {m.NAME: m for m in (fans, counts, bundles)}

# p90 needs at least ten samples beyond it.
MIN_REQUESTS = 100
SETUP_REPEATS = 9
# No new round starts after this much wall time, so that a run of a much
# slower program still ends well inside its three-minute limit.
WALL_CAP_S = 100.0

# (layer, exception that is a documented refusal, name of its count)
LAYERS = [
    ("lattice.smith_normal_form", None, None),
    ("lattice.unimodular_inverse", None, None),
    ("lattice.determinant", None, None),
    ("fankit.is_smooth_complete", None, None),
    ("fankit.validate", None, None),
    ("fankit.factorize", None, None),
    ("fankit.reassemble", None, None),
    ("fankit.isomorphic_pos", None, None),
    ("fankit.isomorphic_neg", None, None),
    ("squarezero.parse_product", None, None),
    ("squarezero.product_manifold_profile", None, None),
    ("squarezero.count_square_zero", "BudgetError", "refused"),
    ("squarezero.closed_count_mod2", None, None),
    ("squarezero.real_census", None, None),
    ("squarezero.poincare", None, None),
    ("recovery.bundle", None, None),
    ("recovery.recover", "InconsistentBundleError", "rejected"),
    ("recovery.realize", None, None),
    ("recovery.cancellation_check", None, None),
]
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms", "fails": "count"}
# Work counted from the inputs of requests whose call into that layer returned.
WORK = ["fankit.validate.cone_pairs", "fankit.isomorphic_neg.frames_bound", "squarezero.count_square_zero.states", "recovery.recover.factors"]

END_TO_END = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "req_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, _, refusal_key in LAYERS:
        for stat, unit in STAT_UNITS.items():
            out[f"{layer}.{stat}"] = unit
        if refusal_key:
            out[f"{layer}.{refusal_key}"] = "count"
    for name in WORK:
        out[name] = "count"
    out["squarezero.count_square_zero.states_per_s"] = "1/s"
    out["squarezero.count_square_zero.refused_ratio"] = "ratio"
    out["cli.interpreter_s"] = "s"
    out["cli.import_s"] = "s"
    out["cli.cold_request_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


# --- cold processes -------------------------------------------------------------


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed_process(root: str, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, env=_child_env(root), capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - t0, proc


class ColdStarts:
    """Fresh CLI processes answering the workload's small request.

    They are spread between the rounds of the timed loop, so that they see
    the same machine as the requests do.
    """

    def __init__(self, root: str, module: ModuleType, out_dir: str):
        self.root = root
        self.argv, self.ok = module.cli_request(out_dir)
        self.times: list[float] = []
        self.problems: list[str] = []

    def one(self) -> None:
        dt, proc = _timed_process(self.root, ["-m", "fandec", *self.argv])
        self.times.append(dt)
        try:
            good = proc.returncode == 0 and self.ok(proc.stdout)
        except (ValueError, KeyError) as exc:
            good = False
            proc.stderr += f"\nunreadable output: {exc}"
        if not good:
            self.problems.append(f"cold request exited {proc.returncode}: {proc.stderr.strip()[-200:]}")

    def top_up(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.one()


def cli_layers(root: str) -> dict[str, float]:
    """Median bare interpreter start and in-process ``import fandec.cli`` time."""
    bare = [_timed_process(root, ["-c", "pass"])[0] for _ in range(SETUP_REPEATS)]
    probe = "import time; t = time.perf_counter(); import fandec.cli; print(time.perf_counter() - t)"
    imports = [float(_timed_process(root, ["-c", probe])[1].stdout) for _ in range(SETUP_REPEATS)]
    return {"cli.interpreter_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


# --- the timed loop -------------------------------------------------------------


class Outcome:
    __slots__ = ("req", "answer", "error", "seconds", "scale")

    def __init__(self, req: Request, answer, error: Optional[str], seconds: float):
        self.req, self.answer, self.error, self.seconds = req, answer, error, seconds
        # Nominal over measured reference kernel time around this request.
        self.scale = 1.0


def execute(module: ModuleType, req: Request, tracer: Optional[Tracer] = None) -> Outcome:
    """Run one request and time it, tracing included when a tracer is given."""
    call = tracer.call if tracer else plain_call
    answer = error = None
    t0 = time.perf_counter()
    if tracer:
        tracer.begin_request(req.rid, req.kind)
    try:
        answer = module.EXECUTORS[req.kind](call, *req.args)
    except Exception as exc:  # an unexpected exception is a failed request
        error = f"{type(exc).__name__}: {exc}"
    if tracer:
        tracer.end_request(error and error.split(":")[0])
    return Outcome(req, answer, error, time.perf_counter() - t0)


def timed_loop(
    module: ModuleType,
    seed: int,
    seconds: float,
    started: float,
    cold: ColdStarts,
    tracer: Optional[Tracer] = None,
) -> tuple[list[Outcome], list[Outcome], list[float]]:
    """Whole rounds until ``seconds`` of untraced request time and enough requests.

    With a tracer, each request also runs traced, right before or right
    after its untraced run in alternation, so that both runs of a request
    see the same conditions.  One cold start follows each round until
    there are ``SETUP_REPEATS`` of them.  Returns the untraced and traced
    outcomes and the Python kernel times measured between requests.
    """
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    python_kernel: list[float] = []
    busy = 0.0
    ref = reference.seconds(module.REFERENCE)
    full_speed = 2 * reference.nominal(module.REFERENCE)
    for batch in rounds(module, seed):
        for req in batch:
            if tracer and req.rid % 2:
                traced.append(execute(module, req, tracer))
            out = execute(module, req)
            python_kernel.append(reference.seconds("python"))
            after = python_kernel[-1] if module.REFERENCE == "python" else reference.seconds(module.REFERENCE)
            out.scale = full_speed / (ref + after)
            ref = after
            untraced.append(out)
            busy += out.seconds
            if tracer and not req.rid % 2:
                traced.append(execute(module, req, tracer))
        if len(cold.times) < SETUP_REPEATS:
            cold.one()
            ref = reference.seconds(module.REFERENCE)
        enough = busy >= seconds and len(untraced) >= MIN_REQUESTS
        if enough or time.perf_counter() - started > WALL_CAP_S:
            return untraced, traced, python_kernel


def judge(module: ModuleType, outcomes: list[Outcome]) -> list[tuple[Request, str]]:
    """(request, reason) for every wrong answer or unexpected exception."""
    wrong = []
    for o in outcomes:
        if o.error is not None:
            reason: Optional[str] = f"raised {o.error}"
        else:
            try:
                reason = module.check(o.req, o.answer)
            except Exception as exc:  # a malformed answer is a wrong answer
                reason = f"check failed on the answer: {type(exc).__name__}: {exc}"
        if reason is not None:
            wrong.append((o.req, reason))
    return wrong


# --- metrics ---------------------------------------------------------------------


def end_to_end(
    untraced: list[Outcome], failed: int, cold: ColdStarts, python_kernel: list[float], scaled: bool = True
) -> dict[str, tuple[float, int]]:
    """name -> (value, samples); times scaled to the reference speed or raw.

    Cold starts run in other processes, so they are scaled by the run's
    median Python kernel time rather than by kernels next to them: a kernel
    timed right after a child exits is slowed by the switch itself.
    """
    lat = [o.seconds * (o.scale if scaled else 1.0) for o in untraced]
    setup_scale = reference.nominal("python") / statistics.median(python_kernel) if scaled else 1.0
    n = len(lat)
    return {
        "setup_s": (statistics.median(cold.times) * setup_scale, len(cold.times)),
        "req_p50_ms": (statistics.median(lat) * 1e3, n),
        "req_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, n),
        "req_per_s": (n / sum(lat), n),
        "ok_ratio": ((n - failed) / n, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(tracer: Tracer, traced: list[Outcome]) -> dict[str, float]:
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer, refusal, key in LAYERS:
        stats = layer_stats(spans, own, layer, refusal)
        for stat in STAT_UNITS:
            out[f"{layer}.{stat}"] = stats[stat]
        if key:
            out[f"{layer}.{key}"] = stats["refused"]
    raised = {(s.rid, s.name) for s in spans if s.raised}
    for name in WORK:
        layer = name.rsplit(".", 1)[0]
        out[name] = sum(o.req.work.get(name, 0) for o in traced if (o.req.rid, layer) not in raised)
    count = [s for s in spans if s.name == "squarezero.count_square_zero"]
    enumerated = sum(s.seconds for s in count if not s.raised)
    states = out["squarezero.count_square_zero.states"]
    out["squarezero.count_square_zero.states_per_s"] = states / enumerated if enumerated else 0.0
    calls = out["squarezero.count_square_zero.calls"]
    out["squarezero.count_square_zero.refused_ratio"] = (
        out["squarezero.count_square_zero.refused"] / calls if calls else 0.0
    )
    return out


# --- environment -------------------------------------------------------------------


def commit_of(root: str) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit_of(root),
    }


# --- one run -----------------------------------------------------------------------


def run(root: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    module = WORKLOADS[workload]
    started = time.perf_counter()
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    cold = ColdStarts(root, module, out_dir)
    tracer = Tracer() if trace else None
    # A traced run executes every request twice, so it covers half the time.
    untraced, traced, python_kernel = timed_loop(
        module, seed, seconds / 2 if trace else seconds, started, cold, tracer
    )
    cold.top_up()
    attempted = untraced + traced
    wrong = judge(module, attempted)
    raw = {}
    if not trace:
        values = end_to_end(untraced, len(wrong), cold, python_kernel)
        raw = end_to_end(untraced, len(wrong), cold, python_kernel, scaled=False)
        units = END_TO_END
    else:
        layers = per_layer(tracer, traced)
        layers.update(cli_layers(root))
        layers["cli.cold_request_s"] = statistics.median(cold.times)
        busy = sum(o.seconds for o in untraced)
        layers["trace.overhead_ratio"] = sum(o.seconds for o in traced) / busy - 1
        units = per_layer_units()
        values = {name: (layers[name], len(traced)) for name in units}
        tracer.write(os.path.join(out_dir, f"{workload}-seed{seed}-spans.jsonl"))

    unexpected = [(r, why) for r, why in wrong if r.known_defect is None]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(root),
        "correct": not cold.problems and not unexpected,
        "attempted": len(attempted),
        "failed": len(wrong),
        "problems": (cold.problems + [f"request {r.rid} ({r.kind}): {why}" for r, why in unexpected])[:20],
        "known_defects": sorted({f"{r.known_defect}: {why}" for r, why in wrong if r.known_defect}),
        "metrics": {
            name: {"value": values[name][0], "unit": units[name], "samples": values[name][1], "raw": raw.get(name, values[name])[0]}
            for name in units
        },
        "wall_s": time.perf_counter() - started,
    }


def report(result: dict) -> str:
    """Human-readable table of a run's metrics, with units and sample counts."""
    env = result["environment"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
        f"python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  commit {env['commit']}",
        f"attempted {result['attempted']}  failed {result['failed']}  correct {result['correct']}",
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:48s} {m['value']:>14.6g} {m['unit']:6s} n={m['samples']:<5d} raw {m['raw']:.6g}")
    if not result["trace"]:
        ratio = result["failed"] / result["attempted"]
        lines.append(f"  {'fail_ratio':48s} {ratio:>14.6g} {'ratio':6s} n={result['attempted']}")
    for p in result["problems"]:
        lines.append(f"  PROBLEM {p}")
    for k in result["known_defects"][:3]:
        lines.append(f"  known defect: {k}")
    return "\n".join(lines)


def result_line(result: dict) -> str:
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in result["metrics"].items()},
        }
    )
