"""A fixed reference loop that tracks how fast the host runs right now.

The benchmark runs on a shared VM whose per-instruction speed drifts by
tens of percent over seconds to minutes (steal time stays near zero; the
same loop simply takes longer).  A raw time therefore moves with the host,
not with the code.  The benchmark times this loop, one "ref" of about 1 ms
on an unloaded core, between the measured calls, and divides each measured
duration by the reference time taken around it.  The result, in refs,
largely cancels the drift, so two commits can be compared on this host.
Raw times are printed beside the ref metrics.

The loop runs in the measured interpreter, because the drift is per vCPU
and flips within 100 ms: units timed in another process, or only before
and after a pass, track it far worse.  A slowdown that sllift imposed on
the whole interpreter would then slow the loop too and cancel.  Two kinds
are kept out of the loop.  ``unit`` suspends the thread's trace and
profile functions while it runs, so a ``sys.settrace`` or
``sys.setprofile`` hook slows the ops but not the reference.  A thread
contending for the GIL interrupts a 1 ms unit only when its 5 ms switch
interval ends inside it, so the median of neighbouring units stays at the
uncontended speed while the ops pay.

This module imports only ``sys`` and ``time`` at the top, so the import
and command spawns (``run_import``, ``run_cli``) load nothing before
sllift that sllift would not load itself.
"""

import sys
import time

# Squaring modulo a 127-bit Mersenne prime, like the multi-word integer
# arithmetic sllift does.  Over a minute of each workload's ops, it tracked
# their times through the host's drift about twice as closely as a loop of
# small-integer arithmetic.
MODULUS = (1 << 127) - 1
LOOP = 2_000
EVERY_S = 0.02  # between ops, sample again once this long has passed
NEIGHBOURS = 3  # samples on each side that give an op its local reference
SPAWN_UNITS = 5  # reference units timed before and after each fresh-process spawn
STDERR_TAG = "perfbench-ref "


def unit() -> float:
    """Seconds taken by one reference unit, with trace and profile hooks suspended."""
    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(None)
    sys.setprofile(None)
    start = time.perf_counter()
    x = 3
    for _ in range(LOOP):
        x = x * x % MODULUS + 1
    duration = time.perf_counter() - start
    sys.settrace(trace)
    sys.setprofile(profile)
    return duration


class Sampler:
    """Reference samples taken between ops, once EVERY_S has passed since the last."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample_if_due(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= EVERY_S:
            self.durations.append(unit())
            self.times.append(time.perf_counter())

    def local(self, at: float) -> float:
        """Median duration of the samples nearest in time to `at`."""
        import bisect
        import statistics

        i = bisect.bisect_left(self.times, at)
        return statistics.median(self.durations[max(0, i - NEIGHBOURS) : i + NEIGHBOURS])


def run_import() -> None:
    """Import sllift between two sets of SPAWN_UNITS reference units.

    Used as the body of a fresh `python -c` process, for setup_s.
    """
    _bracket()
    import sllift  # noqa: F401


def run_cli(argv: list[str]) -> None:
    """Run the CLI between two sets of SPAWN_UNITS reference units.

    Used as the body of a fresh `python -c` process, so the command runs as
    `python -m sllift.cli ...` would.
    """
    _bracket()
    import runpy

    sys.argv = ["sllift", *argv]
    runpy.run_module("sllift.cli", run_name="__main__", alter_sys=True)


def _bracket() -> None:
    """Report reference units on stderr now and again at interpreter exit."""
    import atexit

    _report_units()
    atexit.register(_report_units)


def _report_units() -> None:
    print(STDERR_TAG + repr([unit() for _ in range(SPAWN_UNITS)]), file=sys.stderr, flush=True)


def parse_stderr(stderr: str) -> list[float]:
    """All reference durations a `run_import` or `run_cli` spawn reported."""
    durations = []
    for line in stderr.splitlines():
        if line.startswith(STDERR_TAG):
            durations += [float(x) for x in line[len(STDERR_TAG) :].strip("[]").split(",")]
    if not durations:
        raise ValueError("spawn reported no reference timing")
    return durations
