"""Span recorder that wraps sllift's layer boundaries from outside the package.

Each wrapped call records a span ``[name, start_ns, end_ns, parent, busy_ns]``
in memory; ``parent`` is the index of the enclosing span (-1 at top level).
For ordinary calls ``busy_ns = end_ns - start_ns``.  ``iter_sl`` returns a
generator, so its span is timed by consumption: ``busy_ns`` sums the time
spent inside ``next()`` and child spans opened there get it as parent.
Self time is busy time minus the union of the child spans' intervals.

Alongside the spans the recorder keeps exact counters that the wrappers read
from arguments and results (trials per lift, candidate spaces, solutions).
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Layer boundaries, by defining module.  Every module of the package that
# imported one of these by name gets its copy replaced as well, so calls
# such as ``hardness.nth_roots`` or ``cli.norm_report`` are seen.
BOUNDARIES = {
    "residue": ("factorize", "nth_roots", "is_nth_power_residue"),
    "intmat": ("det", "maximal_minors", "size_reduce", "solve_mod", "adjugate_mod", "norm_report"),
    "lifting": ("lift", "is_extendable", "complete_rows"),
    "hardness": ("find_large_root", "small_p_factor_root", "hard_instance"),
    "oracle": ("count_sl", "exists_sl", "iter_sl", "min_lift_norm", "norm_count_table"),
    "actions": ("canonical_rep", "dist_projective", "diameter_profile"),
}

# ``actions`` reaches the enumeration only through its own copy of
# ``iter_sl``, called once per shell-cache miss; that copy gets its own name.
SHELL_BUILD = "actions.shell_build"


def candidate_space(spec) -> int:
    """Free-entry candidate count of an EnumSpec, by the seed's formula.

    Every entry except the last one of the last row ranges over
    [-cap_i, cap_i], or over its residue ladder x_ij + qZ when q > 0.
    Kept here so the count keeps its meaning if the kernel changes.
    """
    n = spec.n
    total = 1
    for i in range(n):
        cap = spec.caps[i]
        for j in range(n):
            if (i, j) == (n - 1, n - 1):
                continue
            if spec.q:
                first = -cap + ((spec.x[i][j] + cap) % spec.q)
                total *= len(range(first, cap + 1, spec.q))
            else:
                total *= 2 * cap + 1
    return total


class Tracer:
    """In-memory spans plus exact counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counters = self.counters

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[4] = span[2] - span[1]
            if note is not None:
                note(counters, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name, fn):
        """Span over the call, then extended by every ``next()`` on the result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        counters = self.counters

        def traced(*args, **kwargs):
            spec = args[0] if args else kwargs["spec"]
            counters["oracle.candidates"] += candidate_space(spec)
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            index = len(spans)
            stack.append(index)
            spans.append(span)
            try:
                it = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                span[4] = span[2] - span[1]
            return _Consumed(it, span, index, stack, clock, counters)

        return traced

    def install(self, package) -> None:
        """Replace every boundary function, and each by-name copy of it."""
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        actions = sys.modules[f"{package}.actions"]
        oracle = sys.modules[f"{package}.oracle"]
        actions.iter_sl = self.wrap_generator(SHELL_BUILD, oracle.iter_sl)
        for mod_name, names in BOUNDARIES.items():
            module = sys.modules[f"{package}.{mod_name}"]
            for fname in names:
                original = getattr(module, fname)
                full = f"{mod_name}.{fname}"
                if fname == "iter_sl":
                    wrapped = self.wrap_generator(full, original)
                else:
                    wrapped = self.wrap(full, original, _NOTES.get(full))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    # ------------------------------------------------------------ analysis

    def self_times(self) -> list[int]:
        """busy_ns minus the union of child intervals, per span."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for index, span in enumerate(self.spans):
            covered = 0
            last_end = None
            for start, end in sorted(children.get(index, ())):
                if last_end is not None and start < last_end:
                    start = last_end
                if end > start:
                    covered += end - start
                    last_end = end
            out.append(span[4] - covered)
        return out

    def summary(self) -> dict:
        """Per-name calls, busy ms and self ms, plus parent-name call counts."""
        selfs = self.self_times()
        per = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        under = defaultdict(int)
        for span, self_ns in zip(self.spans, selfs):
            row = per[span[0]]
            row["calls"] += 1
            row["ms"] += span[4] / 1e6
            row["self_ms"] += self_ns / 1e6
            parent = span[3]
            if parent >= 0:
                under[(span[0], self.spans[parent][0])] += 1
        lift_descendant_minors = 0
        for span in self.spans:
            if span[0] == "intmat.maximal_minors" and self._has_ancestor(span, "lifting.lift"):
                lift_descendant_minors += 1
        return {
            "per": dict(per),
            "under": {f"{a}<{b}": c for (a, b), c in under.items()},
            "minors_in_lift": lift_descendant_minors,
            "counters": dict(self.counters),
        }

    def _has_ancestor(self, span, name) -> bool:
        parent = span[3]
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == name:
                return True
            parent = span[3]
        return False

    def write(self, path) -> None:
        """Spans as a name table plus rows [name_id, start_ns, end_ns, parent, busy_ns]."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3], s[4]] for s in self.spans]
        with open(path, "w") as handle:
            json.dump({"names": list(names), "spans": rows}, handle, separators=(",", ":"))


class _Consumed:
    """Iterator proxy that charges each ``next()`` to the generator's span."""

    __slots__ = ("_it", "_span", "_index", "_stack", "_clock", "_counters")

    def __init__(self, it, span, index, stack, clock, counters):
        self._it, self._span, self._index = it, span, index
        self._stack, self._clock, self._counters = stack, clock, counters

    def __iter__(self):
        return self

    def __next__(self):
        span = self._span
        self._stack.append(self._index)
        start = self._clock()
        try:
            item = next(self._it)
        finally:
            self._stack.pop()
            end = self._clock()
            span[2] = end
            span[4] += end - start
        self._counters[f"{span[0]}.yielded"] += 1
        return item


def _note_lift(counters, args, kwargs, result):
    counters["lifting.trials"] += result.trials_used


def _note_count(counters, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counters["oracle.candidates"] += candidate_space(spec)
    counters["oracle.solutions"] += result


def _note_exists(counters, args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    counters["oracle.candidates"] += candidate_space(spec)
    counters["oracle.solutions"] += int(result)


def _note_root(counters, args, kwargs, result):
    counters["hardness.flagged"] += int(result.flagged)


_NOTES = {
    "lifting.lift": _note_lift,
    "oracle.count_sl": _note_count,
    "oracle.exists_sl": _note_exists,
    "hardness.find_large_root": _note_root,
}


def layer_metrics(summary: dict, skipped_alphas: int) -> dict:
    """Per-layer metrics of one traced pass, named as in BENCHMARK.json."""
    per, under, counters = summary["per"], summary["under"], summary["counters"]

    def get(name, field):
        return per.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    lifts = get("lifting.lift", "calls")
    roots_calls = get("hardness.find_large_root", "calls")
    min_lifts = get("oracle.min_lift_norm", "calls")
    enum_ms = get("oracle.count_sl", "ms") + get("oracle.exists_sl", "ms") + get("oracle.iter_sl", "ms") + get(SHELL_BUILD, "ms")
    candidates = counters.get("oracle.candidates", 0)
    yielded = counters.get("oracle.iter_sl.yielded", 0) + counters.get(f"{SHELL_BUILD}.yielded", 0)
    return {
        "lifting.lift.calls": lifts,
        "lifting.lift.ms": get("lifting.lift", "ms"),
        "lifting.lift.self_ms": get("lifting.lift", "self_ms"),
        "lifting.is_extendable.calls": get("lifting.is_extendable", "calls"),
        "lifting.is_extendable.ms": get("lifting.is_extendable", "ms"),
        "lifting.complete_rows.ms": get("lifting.complete_rows", "ms"),
        "lifting.trials_per_lift": ratio(counters.get("lifting.trials", 0), lifts),
        "intmat.maximal_minors.calls": get("intmat.maximal_minors", "calls"),
        "intmat.maximal_minors.ms": get("intmat.maximal_minors", "ms"),
        "intmat.minors_per_lift": ratio(summary["minors_in_lift"], lifts),
        "intmat.size_reduce.ms": get("intmat.size_reduce", "ms"),
        "intmat.solve_mod.ms": get("intmat.solve_mod", "ms"),
        "intmat.adjugate_mod.ms": get("intmat.adjugate_mod", "ms"),
        "intmat.det.calls": get("intmat.det", "calls"),
        "intmat.det.ms": get("intmat.det", "ms"),
        "intmat.norm_report.ms": get("intmat.norm_report", "ms"),
        "residue.factorize.calls": get("residue.factorize", "calls"),
        "residue.factorize.ms": get("residue.factorize", "ms"),
        "residue.nth_roots.calls": get("residue.nth_roots", "calls"),
        "residue.nth_roots.ms": get("residue.nth_roots", "ms"),
        "residue.is_nth_power_residue.ms": get("residue.is_nth_power_residue", "ms"),
        "hardness.find_large_root.calls": roots_calls,
        "hardness.find_large_root.self_ms": get("hardness.find_large_root", "self_ms"),
        "hardness.small_p_factor_root.ms": get("hardness.small_p_factor_root", "ms"),
        "hardness.hard_instance.ms": get("hardness.hard_instance", "ms"),
        "hardness.alphas_per_point": ratio(under.get("residue.nth_roots<hardness.find_large_root", 0), roots_calls),
        "hardness.alphas_skipped": skipped_alphas,
        "hardness.flagged_frac": ratio(counters.get("hardness.flagged", 0), roots_calls),
        "oracle.count_sl.calls": get("oracle.count_sl", "calls"),
        "oracle.count_sl.ms": get("oracle.count_sl", "ms"),
        "oracle.norm_count_table.ms": get("oracle.norm_count_table", "ms"),
        "oracle.candidates": candidates,
        "oracle.candidates_per_s": ratio(candidates, enum_ms / 1000),
        "oracle.solutions_per_candidate": ratio(counters.get("oracle.solutions", 0) + yielded, candidates),
        "oracle.exists_sl.calls": get("oracle.exists_sl", "calls"),
        "oracle.exists_sl.ms": get("oracle.exists_sl", "ms"),
        "oracle.probes_per_min_lift": ratio(under.get("oracle.exists_sl<oracle.min_lift_norm", 0), min_lifts),
        "oracle.min_lift_norm.self_ms": get("oracle.min_lift_norm", "self_ms"),
        "oracle.iter_sl.ms": get("oracle.iter_sl", "ms") + get(SHELL_BUILD, "ms"),
        "oracle.iter_sl.yielded": yielded,
        "actions.diameter_profile.self_ms": get("actions.diameter_profile", "self_ms"),
        "actions.dist_projective.calls": get("actions.dist_projective", "calls"),
        "actions.canonical_rep.calls": get("actions.canonical_rep", "calls"),
        "actions.canonical_rep.ms": get("actions.canonical_rep", "ms"),
        "actions.shell_builds": get(SHELL_BUILD, "calls"),
        "actions.shell_build.ms": get(SHELL_BUILD, "ms"),
    }
