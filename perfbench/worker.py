"""One measurement in a fresh interpreter, driven by perfbench/run.py.

Reads a JSON job on stdin and prints one JSON object on stdout.  A fresh
process per pass keeps sllift's module caches (the ``lru_cache`` on
``residue._prime_power_roots``, ``actions._SHELL_CACHE``) cold, as every
``sllift`` command finds them.  Import happens before timing starts;
``setup_s`` measures it separately.

Jobs:
  {"mode": "pass", "workload", "ops", "trace", "spans_path"}
      run the op list once, timing each call and, between calls, the
      reference loop (perfbench/reference.py); verify every result after
      the timed loop.
  {"mode": "cli", "argv", "trace"}
      run ``sllift.cli.main(argv)`` in-process with stdout captured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import warnings

import reference
import spans
import workloads


def _run_pass(job: dict) -> dict:
    import sllift

    goldens = workloads.load_goldens()
    tracer = spans.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install("sllift")
    ops = job["ops"]
    outcomes, starts = [], []
    sampler = reference.Sampler()
    clock = time.perf_counter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for op in ops:
            sampler.sample_if_due()
            start = clock()
            try:
                outcome = (workloads.run_op(op, sllift), None)
            except Exception as exc:  # recorded and classified after the timed loop
                outcome = (None, exc)
            outcomes.append((outcome, clock() - start))
            starts.append(start)
        sampler.sample_if_due()
    refs = [duration / sampler.local(at) for (_, duration), at in zip(outcomes, starts)]
    skipped = sum(1 for w in caught if str(w.message).startswith("skipping alpha"))

    status, canonical, problems = [], [], []
    for op, ((result, error), _) in zip(ops, outcomes):
        expected = op.get("expect")
        if error is not None:
            if type(error).__name__ == expected:
                status.append("known")
                continue
            status.append("failed")
            problems.append(f"{op['kind']} {_brief(op)}: {type(error).__name__}: {error}")
            continue
        try:
            value = workloads.check_op(op, result, goldens)
        except workloads.CheckFailed as exc:
            status.append("failed")
            problems.append(f"{op['kind']} {_brief(op)}: check failed: {exc}")
            continue
        status.append("ok")
        if expected is None:
            canonical.append(value)
    digest = hashlib.sha256(json.dumps(canonical, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    out = {
        "wall_s": sum(t for _, t in outcomes),
        "latencies_ms": [1000 * t for _, t in outcomes],
        "latencies_ref": refs,
        "ref_unit_ms": 1000 * statistics.median(sampler.durations),
        "status": status,
        "problems": problems[:10],
        "digest": digest,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.summary(), skipped)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    return out


def _run_cli(job: dict) -> dict:
    import sllift.cli

    tracer = spans.Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install("sllift")
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        code = sllift.cli.main(job["argv"])
        ms = 1000 * (time.perf_counter() - start)
    out = {"ms": ms, "code": code, "stdout": buffer.getvalue()}
    if tracer is not None:
        out["layers"] = spans.layer_metrics(tracer.summary(), 0)
    return out


def _brief(op: dict) -> str:
    return json.dumps({k: v for k, v in op.items() if k in ("n", "q", "t", "t_max", "caps", "space", "seed")})


def main() -> int:
    job = json.load(sys.stdin)
    out = _run_pass(job) if job["mode"] == "pass" else _run_cli(job)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
