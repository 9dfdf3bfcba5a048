"""Benchmark of the su2k command-line program.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a serial chain of real ``su2k`` CLI invocations, one fresh
interpreter per invocation, because users pay the cold caches (``get_model``,
``cyclotomic_polynomial``, the reduction tables, ``min_poly_2cos``) on every
run and an in-process loop would hide them.  Children run one at a time from
this process, so on a small shared machine the figures measure the program,
not the scheduler.  Each child is reaped with ``os.wait4``, which gives its
own CPU time and peak RSS; ``RUSAGE_CHILDREN`` would carry the largest RSS of
any earlier child into every later row.

``--trace 0`` repeats the chain for about ``--seconds`` (at least once; a
next chain starts only if it would end within half a chain of that target,
so a slow host runs fewer chains, not longer runs) and reports the medians
over chains of the end-to-end
metrics, plus ``setup_s``, the median over several fresh interpreters of
importing ``su2k.cli`` and building its parser.  ``--trace 1`` runs the chain
once untraced and once under ``bench/tracer.py``, runs the kernel probes of
``bench/probes.py``, and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  Every output is checked
(``bench/workloads.py``); the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run
CHAIN_BUDGET_S = 150.0  # no further chain starts if it could end past this point
SETUP_RUNS = 8
SETUP_CODE = "import su2k.cli as cli; cli.build_parser()"
# Kernel probes: (metric suffix, level); N = 4(k+2) is the field order.
CYC_PROBE_LEVELS = (("N24", 4), ("N28", 5), ("N128", 30))
LAYERS = ("cli", "cyclotomic", "radicals", "model", "braids", "universality", "synth")


@dataclass
class Child:
    """One reaped child process."""

    ok: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    detail: str = ""


@dataclass
class Chain:
    """One pass over a workload's invocations."""

    children: list[Child] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.children)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


class Runner:
    """Starts children serially under one run deadline and keeps the failure tally."""

    def __init__(self, started: float):
        self.deadline = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = {key: value for key, value in os.environ.items() if key != "SU2K_PRECISION"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, cmd: list[str], stdout_path: Path) -> Child:
        """Run ``cmd`` with stdout to ``stdout_path``; counts it as attempted."""
        self.attempted += 1
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            self.failed += 1
            return Child(False, 0.0, 0.0, 0.0, "run deadline passed before start")
        stderr_path = stdout_path.with_suffix(".err")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = Child(proc.returncode == 0, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
        if not result.ok:
            self.failed += 1
            tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
            result.detail = f"exit {proc.returncode}: {' | '.join(tail)}"
        return result

    def chain(self, invocations, work_dir: Path, traced: bool) -> Chain:
        chain = Chain()
        for index, inv in enumerate(invocations):
            out_path = work_dir / f"{index}-{inv.label}.json"
            spans_path = work_dir / f"{index}-{inv.label}.spans.json"
            if traced:
                cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path), *inv.argv]
            else:
                cmd = [sys.executable, "-m", "su2k.cli", *inv.argv]
            child = self.child(cmd, out_path)
            chain.children.append(child)
            if not child.ok:
                chain.problems.append(f"{inv.label}: {child.detail}")
                continue
            try:
                payload = json.loads(out_path.read_text(encoding="utf-8"))
                problems = inv.check(payload)
                chain.quality.update(inv.quality(payload))
                if traced:
                    chain.spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"{inv.label}: unreadable output ({type(exc).__name__}: {exc})"]
            if problems:
                self.failed += 1
                chain.problems.extend(problems)
        return chain

    def probe(self, kind: str, k: int, work_dir: Path) -> dict | None:
        out_path = work_dir / f"probe-{kind}-{k}.json"
        child = self.child([sys.executable, str(BENCH / "probes.py"), kind, str(k)], out_path)
        if not child.ok:
            return None
        return json.loads(out_path.read_text(encoding="utf-8"))


# -- environment --------------------------------------------------------------------


def environment() -> dict:
    import mpmath
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# -- per-layer metrics ----------------------------------------------------------------


def layer_metrics(chain: Chain) -> tuple[dict[str, float], float]:
    """Per-layer metrics of a traced chain, and the summed self time of all its spans."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    rss_kb: dict[str, int] = defaultdict(int)
    instances = fallbacks = exact_checked = 0
    pentagon_s = 0.0
    certificate_s: dict[int, float] = {}
    explored = distinct = 0
    peak_frontier = 0
    for spans in chain.spans:
        names, name_of, parent = spans["names"], spans["name"], spans["parent"]
        duration = [end - start for start, end in zip(spans["start"], spans["end"])]
        covered = [0.0] * len(duration)
        for index, up in enumerate(parent):
            if up >= 0:
                covered[up] += duration[index]
        for index, name_id in enumerate(name_of):
            name = names[name_id]
            calls[name] += 1
            self_s[name] += duration[index] - covered[index]
            total_s[name] += duration[index]
            layer = name.split(".", 1)[0]
            rss_kb[layer] = max(rss_kb[layer], spans["rss_kb"][index])
        facts = spans["facts"]
        for name, mode, checked, numeric_fallbacks, index in facts["reports"]:
            if mode == "exact":
                exact_checked += checked
                fallbacks += numeric_fallbacks
            if name == "pentagon":
                instances += checked
                pentagon_s += duration[index]
        for k, index in facts["certificates"]:
            certificate_s[k] = duration[index]
        if facts["profile"]:
            counts = [row[2] for row in facts["profile"]]
            peak_frontier = max([peak_frontier] + [b - a for a, b in zip(counts, counts[1:])])
            explored += facts["profile"][-1][1]
            distinct += counts[-1]
        for run_explored, run_distinct, _ in facts["synth"]:
            explored += run_explored
            distinct += run_distinct
    search_s = total_s["synth.error_profile"] + total_s["synth.synthesize"]
    metrics = {
        "cli.import_s": statistics.median(s["import_s"] for s in chain.spans),
        "cyclotomic.mul.calls": calls["cyclotomic.mul"],
        "cyclotomic.inverse.calls": calls["cyclotomic.inverse"],
        "radicals.mul.calls": calls["radicals.mul"],
        "radicals.exact_settle_ratio": 1 - fallbacks / exact_checked if exact_checked else 0.0,
        "model.pentagon.instances": instances,
        "model.pentagon.instances_per_s": instances / pentagon_s if pentagon_s else 0.0,
        "universality.certificate_s.k30": certificate_s.get(30, 0.0),
        "universality.certificate_s.max": max(certificate_s.values(), default=0.0),
        "synth.explored": explored,
        "synth.distinct": distinct,
        "synth.dedup_ratio": distinct / explored if explored else 0.0,
        "synth.states_per_s": explored / search_s if search_s else 0.0,
        "synth.peak_frontier": peak_frontier,
        "synth.profile_mean_error": chain.quality.get("profile_mean_error", 0.0),
        "synth.beam_best_error": chain.quality.get("beam_best_error", 0.0),
    }
    for span in (
        "cyclotomic.mul", "cyclotomic.inverse", "cyclotomic.minimal_polynomial",
        "radicals.from_terms", "radicals.is_zero",
        "model.verify_pentagon", "model.verify_hexagon", "model.verify_unitarity",
        "model.f_matrix_float", "model.f_symbol", "model.spins_dims_smatrix",
        "braids.qubit_rep_exact", "braids.normalized_qubit_rep",
        "universality.witnesses", "universality.decide_projective_order_from_trace",
        "universality.trace_cosine_identity",
        "synth.error_profile", "synth.synthesize",
    ):
        metrics[f"{span}.self_s"] = self_s[span]
    for layer in LAYERS:
        metrics[f"{layer}.rss_high_mb"] = rss_kb[layer] / 1024
    return metrics, sum(self_s.values())


def probe_metrics(runner: Runner, work_dir: Path) -> tuple[dict[str, float], list[str]]:
    metrics: dict[str, float] = {}
    problems = []
    for suffix, k in CYC_PROBE_LEVELS:
        result = runner.probe("cyclotomic", k, work_dir)
        if result is None:
            problems.append(f"cyclotomic probe k={k} failed")
            continue
        metrics[f"cyclotomic.mul_us.{suffix}"] = result["mul_us"]
        metrics[f"cyclotomic.inverse_us.{suffix}"] = result["inverse_us"]
    for kind, k, name in (("f-table-float", 12, "model.f_table_float_s.k12"),
                          ("f-table-exact", 5, "model.f_table_exact_s.k5")):
        result = runner.probe(kind, k, work_dir)
        if result is None:
            problems.append(f"{kind} probe k={k} failed")
            continue
        metrics[name] = result["seconds"]
    return metrics, problems


# -- main ---------------------------------------------------------------------------


def run_untraced(runner: Runner, invocations, work_dir: Path, seconds: float, started: float):
    def setup_starts(count: int) -> list[Child]:
        return [runner.child([sys.executable, "-c", SETUP_CODE], work_dir / "setup.out") for _ in range(count)]

    # The first start compiles bytecode into the checkout and is not counted.
    # The host's speed drifts over seconds, so half the counted starts run
    # before the chains and half after them.
    warmup = setup_starts(1)
    setup = setup_starts(SETUP_RUNS // 2)
    chains = []
    measure_start = time.perf_counter()
    while True:
        chain_start = time.perf_counter()
        chains.append(runner.chain(invocations, work_dir, traced=False))
        now = time.perf_counter()
        took = now - chain_start
        # another chain only if it would end within half a chain of the target
        if now + took / 2 > measure_start + seconds or now + took > started + CHAIN_BUDGET_S:
            break
    setup += setup_starts(SETUP_RUNS - SETUP_RUNS // 2)
    problems = [f"setup: {c.detail}" for c in warmup + setup if not c.ok]
    for chain in chains:
        problems.extend(chain.problems)
    metrics = {
        "wall_s": statistics.median(c.wall_s for c in chains),
        "cpu_s": statistics.median(c.cpu_s for c in chains),
        "peak_rss_mb": statistics.median(c.rss_mb for c in chains),
        "setup_s": statistics.median(c.wall_s for c in setup),
    }
    lines = [f"{len(chains)} chain(s) of {len(invocations)} invocation(s), wall "
             + ", ".join(f"{c.wall_s:.3f}" for c in chains) + f" s; setup from {SETUP_RUNS} starts"]
    for key, values in chains[0].quality.items():
        lines.append(f"{key} {values!r}  (quality guard; checked against its ceiling)")
    return metrics, problems, lines


def run_traced(runner: Runner, invocations, work_dir: Path):
    plain = runner.chain(invocations, work_dir, traced=False)
    traced = runner.chain(invocations, work_dir, traced=True)
    problems = plain.problems + traced.problems
    metrics: dict[str, float] = {}
    lines = []
    if len(traced.spans) == len(invocations):
        metrics, self_sum = layer_metrics(traced)
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
        lines.append(f"traced wall {traced.wall_s:.3f} s, untraced {plain.wall_s:.3f} s, "
                     f"summed span self time {self_sum:.3f} s")
        if self_sum > traced.wall_s:
            problems.append(f"trace: summed self time {self_sum} exceeds traced wall {traced.wall_s}")
    probes, probe_problems = probe_metrics(runner, work_dir)
    metrics.update(probes)
    return metrics, problems + probe_problems, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (SRC / "su2k" / "cli.py").is_file():
        print(f"error: no su2k source under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = WORK / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    runner = Runner(started)
    invocations = workloads.build(args.workload, args.seed, work_dir)
    if args.trace:
        metrics, problems, lines = run_traced(runner, invocations, work_dir)
    else:
        metrics, problems, lines = run_untraced(runner, invocations, work_dir, args.seconds, started)

    result = {}
    for entry in wanted:
        if entry["name"] in metrics:
            result[entry["name"]] = {"value": metrics[entry["name"]], "unit": entry["unit"]}
        else:
            problems.append(f"metric {entry['name']} was not measured")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    for problem in problems:
        print(f"FAILED CHECK {problem}")
    print(f"fail_ratio {runner.failed / runner.attempted!r} ratio ({runner.failed} of {runner.attempted} runs)")
    for name, metric in result.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": not problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
