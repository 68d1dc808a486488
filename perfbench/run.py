"""Benchmark for sllift: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload lift --seed 1 --seconds 27 --trace 0

Workloads (see perfbench/README.md): lift, roots, count, search.  Each is a
closed loop with one caller: a fixed op list, made from the seed, runs op by
op in a fresh interpreter (one "pass").  Passes run one process at a time,
interleaved with short spawns, until --seconds have been spent.

Times are in refs: each measured duration divided by the duration of a
fixed reference loop timed around it (perfbench/reference.py), which
cancels most of the host's speed drift.  --trace 0 prints the end-to-end
metrics, measured with no tracing:
  setup_s       median over fresh spawns that import sllift, in refs, times
                REF_S = 1 ms per ref: seconds at the reference speed
  wall_ref      median over passes of the op list's total time
  op_p50_ref    median over ops of each op's median time over the passes
  op_p90_ref    p90 over ops of the same per-op times
  cli_cold_ref  median over fresh spawns of the workload's `sllift` command
  peak_rss_mb   median over passes of the pass process's peak RSS (MiB)
  ok_frac       ops whose result passed its check / ops attempted
and, on the lines above the result, the same timings in raw ms and s.
--trace 1 prints the per-layer metrics: passes alternate untraced and
traced (spans recorded by perfbench/spans.py), interleaved with
`-X importtime` spawns and in-process runs of the workload's command.

Every result is checked (perfbench/workloads.py); the last stdout line is
{"correct", "attempted", "failed", "metrics"}.  `failed` counts ops that
raised an error or failed their check, except an op's documented expected
error (the roots op at q = 1000003 raises PrimeTooLarge at the seed); such
an op still lowers ok_frac.  A run whose passes disagree, whose digest
differs from perfbench/digests.json, or whose command output fails its
check reports "correct": false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS_PATH = HERE / "digests.json"

WORKLOADS = ("lift", "roots", "count", "search")
MIN_PASSES = 2
MIN_SPAWNS = 3
SPAWN_SHARE = 0.3
RUN_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark could not measure (missing program, crashed child)."""


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run time limit reached")
        return left

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        """Run a fresh interpreter to completion; return (wall seconds, process)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], capture_output=True, text=True,
                env=self.env, cwd=ROOT, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {argv}") from exc
        return time.perf_counter() - start, proc

    def job(self, job: dict) -> dict:
        """Run perfbench/worker.py on one job and parse its JSON reply."""
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{job['mode']} job timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{job['mode']} job failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def import_breakdown(stderr: str) -> tuple[float, float]:
    """(numpy cumulative ms, sum of sllift modules' self ms) from -X importtime."""
    numpy_us = None
    sllift_us = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(3)
        if name == "numpy" and numpy_us is None:
            numpy_us = cumulative_us
        if name == "sllift" or name.startswith("sllift."):
            sllift_us += self_us
    return (numpy_us or 0) / 1000, sllift_us / 1000


def quantiles(values: list[float]) -> tuple[float, float]:
    """(p50, p90) by statistics.quantiles with n=10."""
    cuts = statistics.quantiles(values, n=10)
    return cuts[4], cuts[8]


class Tally:
    """Op outcomes, pass digests and command records across a run."""

    def __init__(self):
        self.attempted = self.ok = self.known = self.failed = 0
        self.digests: set[str] = set()
        self.cli_records: list[str] = []
        self.problems: list[str] = []

    def add_pass(self, result: dict) -> None:
        status = result["status"]
        self.attempted += len(status)
        self.ok += status.count("ok")
        self.known += status.count("known")
        self.failed += status.count("failed")
        self.digests.add(result["digest"])
        self.problems += result["problems"]

    def add_cli(self, code: int, stdout: str, workload: str, context: dict, goldens: dict) -> None:
        if code != 0:
            self.problems.append(f"command exited {code}")
            self.cli_records.append(f"exit {code}")
            return
        try:
            records = workloads.check_cli(workload, stdout, context, goldens)
        except (workloads.CheckFailed, ValueError, KeyError) as exc:
            self.problems.append(f"command output: {exc}")
            records = [stdout]
        self.cli_records.append(json.dumps(records, sort_keys=True, separators=(",", ":")))

    def digest(self) -> str:
        payload = json.dumps([sorted(self.digests), sorted(set(self.cli_records))], separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    def consistent(self) -> bool:
        return len(self.digests) == 1 and len(set(self.cli_records)) == 1


class Schedule:
    """Interleave passes with short spawns across the --seconds window.

    The host's speed drifts by tens of percent over seconds to minutes (a
    shared 2-vCPU VM), so every kind of sample is spread over the whole
    window instead of taken in one block.  After each pass, spawns run
    until they have taken SPAWN_SHARE of the elapsed time.  A pass starts
    only if a typical pass still fits in the window, once MIN_PASSES ran.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.start = time.monotonic()
        self.pass_times: list[float] = []
        self.spawn_time = 0.0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def more_passes(self) -> bool:
        if len(self.pass_times) < MIN_PASSES:
            return True
        return self.elapsed() + statistics.median(self.pass_times) <= self.seconds

    def run_pass(self, fn):
        begin = time.monotonic()
        result = fn()
        self.pass_times.append(time.monotonic() - begin)
        return result

    def spawns_due(self, done: int) -> bool:
        return done < MIN_SPAWNS or self.spawn_time < SPAWN_SHARE * self.elapsed()

    def run_spawn(self, fn):
        begin = time.monotonic()
        result = fn()
        self.spawn_time += time.monotonic() - begin
        return result


def per_op_median(passes: list[dict], key: str) -> list[float]:
    """Each op's median over the passes (every pass runs the same op list)."""
    return [statistics.median(column) for column in zip(*(p[key] for p in passes))]


BOOT = f"import sys; sys.path.insert(0, {str(HERE)!r}); import reference; "
SETUP_BOOT = BOOT + "reference.run_import()"
CLI_BOOT = BOOT + "reference.run_cli(sys.argv[1:])"
REF_S = 0.001  # seconds per ref in setup_s: the reference unit's duration on an idle core


def spawn_in_refs(runner: Runner, argv: list[str]) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run a `reference.run_import` or `run_cli` spawn; return (seconds, refs, process).

    The time is the spawn's wall time minus the reference units it ran,
    and the refs divide it by their median.
    """
    wall, proc = runner.spawn(argv)
    units = reference.parse_stderr(proc.stderr)
    took = wall - sum(units)
    return took, took / statistics.median(units), proc


def measure_end_to_end(runner: Runner, ops, cli_argv, context, goldens, workload, seconds, tally):
    schedule = Schedule(seconds)
    setup_s, setup_ref, cli_s, cli_ref, passes = [], [], [], [], []

    def setup_spawn():
        took, refs, proc = spawn_in_refs(runner, ["-c", SETUP_BOOT])
        if proc.returncode != 0:
            raise BenchError(f"import sllift failed:\n{proc.stderr.strip()}")
        setup_s.append(took)
        setup_ref.append(refs)

    def cli_spawn():
        took, refs, proc = spawn_in_refs(runner, ["-c", CLI_BOOT, *cli_argv])
        tally.add_cli(proc.returncode, proc.stdout, workload, context, goldens)
        cli_s.append(took)
        cli_ref.append(refs)

    while schedule.more_passes():
        result = schedule.run_pass(lambda: runner.job({"mode": "pass", "workload": workload, "ops": ops, "trace": False}))
        tally.add_pass(result)
        passes.append(result)
        while schedule.spawns_due(len(cli_s)):
            schedule.run_spawn(setup_spawn)
            schedule.run_spawn(cli_spawn)
    p50_ref, p90_ref = quantiles(per_op_median(passes, "latencies_ref"))
    p50_ms, p90_ms = quantiles(per_op_median(passes, "latencies_ms"))
    metrics = {
        "setup_s": (REF_S * statistics.median(setup_ref), "s"),
        "wall_ref": (statistics.median(sum(p["latencies_ref"]) for p in passes), "ref"),
        "op_p50_ref": (p50_ref, "ref"),
        "op_p90_ref": (p90_ref, "ref"),
        "cli_cold_ref": (statistics.median(cli_ref), "ref"),
        "peak_rss_mb": (statistics.median(p["rss_kib"] for p in passes) / 1024, "MiB"),
        "ok_frac": (tally.ok / tally.attempted, "ratio"),
    }
    raw = {
        "setup_raw_s": (statistics.median(setup_s), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_p90_ms": (p90_ms, "ms"),
        "cli_cold_ms": (1000 * statistics.median(cli_s), "ms"),
        "ref_unit_ms": (statistics.median(p["ref_unit_ms"] for p in passes), "ms"),
    }
    return metrics, raw, f"{len(passes)} passes, {len(setup_s)} setup spawns, {len(cli_s)} command spawns"


def measure_layers(runner: Runner, ops, cli_argv, context, goldens, workload, seed, seconds, tally):
    schedule = Schedule(seconds)
    numpy_ms, sllift_ms, cli_ms = [], [], []
    cli_traced = runner.job({"mode": "cli", "argv": cli_argv, "trace": True})
    tally.add_cli(cli_traced["code"], cli_traced["stdout"], workload, context, goldens)

    def importtime_spawn():
        _, proc = runner.spawn(["-X", "importtime", "-c", "import sllift"])
        if proc.returncode != 0:
            raise BenchError(f"import sllift failed:\n{proc.stderr.strip()}")
        numpy, own = import_breakdown(proc.stderr)
        numpy_ms.append(numpy)
        sllift_ms.append(own)

    def cli_inprocess():
        result = runner.job({"mode": "cli", "argv": cli_argv, "trace": False})
        tally.add_cli(result["code"], result["stdout"], workload, context, goldens)
        cli_ms.append(result["ms"])

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.json"
    plain, traced = [], []
    while schedule.more_passes() or not traced:
        is_traced = len(traced) < len(plain)
        job = {"mode": "pass", "workload": workload, "ops": ops, "trace": is_traced}
        if is_traced:
            job["spans_path"] = str(spans_path)
        result = schedule.run_pass(lambda: runner.job(job))
        tally.add_pass(result)
        (traced if is_traced else plain).append(result)
        while schedule.spawns_due(len(cli_ms)):
            schedule.run_spawn(importtime_spawn)
            schedule.run_spawn(cli_inprocess)

    names = traced[0]["layers"].keys()
    metrics = {name: (statistics.median(p["layers"][name] for p in traced), _unit(name)) for name in names}
    metrics["import.numpy_ms"] = (statistics.median(numpy_ms), "ms")
    metrics["import.sllift_self_ms"] = (statistics.median(sllift_ms), "ms")
    metrics["cli.main_ms"] = (statistics.median(cli_ms), "ms")
    metrics["intmat.norm_report.ms"] = (cli_traced["layers"]["intmat.norm_report.ms"], "ms")
    overhead = statistics.median(sum(p["latencies_ref"]) for p in traced) / statistics.median(sum(p["latencies_ref"]) for p in plain) - 1
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    metrics["bench.ref_unit_ms"] = (statistics.median(p["ref_unit_ms"] for p in plain + traced), "ms")
    return metrics, {}, f"{len(plain)} untraced and {len(traced)} traced passes, {len(cli_ms)} in-process command runs"


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith(".calls") or name in ("hardness.alphas_skipped", "oracle.candidates", "oracle.iter_sl.yielded", "actions.shell_builds"):
        return "count"
    if name == "oracle.candidates_per_s":
        return "1/s"
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "sllift" / "__init__.py").is_file():
        print(f"perfbench: no sllift package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sllift

    goldens = workloads.load_goldens()
    ops = workloads.make_ops(args.workload, args.seed, sllift)
    cli_argv, context = workloads.cli_command(args.workload, args.seed, sllift)
    runner = Runner(deadline)
    tally = Tally()
    try:
        if args.trace:
            metrics, raw, samples = measure_layers(runner, ops, cli_argv, context, goldens, args.workload, args.seed, args.seconds, tally)
        else:
            metrics, raw, samples = measure_end_to_end(runner, ops, cli_argv, context, goldens, args.workload, args.seconds, tally)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    digest = tally.digest()
    known = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.is_file() else {}
    expected = known.get(args.workload, {}).get(str(args.seed))
    if not tally.consistent():
        tally.problems.append("passes or command runs disagree on results")
    if expected is not None and expected != digest:
        tally.problems.append(f"digest {digest} differs from the recorded {expected}")
    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)

    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass; {samples}; "
          f"{tally.attempted} ops attempted, {tally.known} expected failures, {tally.failed} failed")
    print(f"digest {digest}" + ("" if expected is None else f" (recorded {expected})"))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  {name:36s} {value:14.6g} {unit}  (raw time, unbounded)")
    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
