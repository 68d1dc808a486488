"""Regenerate perfbench/goldens.json and perfbench/digests.json.

    python3 perfbench/capture.py goldens
    python3 perfbench/capture.py digests

Goldens are the exact answers the workloads are checked against, computed
by the sllift code at the commit that introduced the benchmark and
cross-checked here by independent brute force where that is cheap.
Digests fingerprint every checked result of a (workload, seed) run, for
every workload and seeds 0-15, so a later change that alters any result is
caught.  Rerun either only when a change is meant to alter results, and
record why.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from pathlib import Path

import workloads
from run import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Values stated independently of this script: the README and acceptance suite.
STATED = {
    "f2:1": 20,
    "skewed": [20, 100, 324, 692, 1412, 2196, 3700, 5300],
    "n3:2": 67704,
    "P": {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 4},
    "trace:1": 13,
}
F2_MAX = 160
F2_BRUTE_MAX = 20
DIGEST_SEEDS = range(16)


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"golden cross-check failed: {what}")


def _brute_count(n: int, caps) -> int:
    """|{gamma in SL_n(Z): max|row_i| <= caps[i]}| by enumerating every matrix."""
    rows = [list(itertools.product(range(-c, c + 1), repeat=n)) for c in caps]
    return sum(1 for m in itertools.product(*rows) if workloads.exact_det(m) == 1)


def _brute_f2(t_max: int) -> list[int]:
    """|F_t| for n = 2 and t <= t_max, by solving d from a*d - b*c = 1."""
    counts = [0] * (t_max + 1)
    r = range(-t_max, t_max + 1)
    for a, b, c in itertools.product(r, r, r):
        if a == 0:
            if b * c == -1:
                for d in r:
                    counts[max(abs(b), abs(c), abs(d))] += 1
        elif (1 + b * c) % a == 0:
            d = (1 + b * c) // a
            if abs(d) <= t_max:
                counts[max(abs(a), abs(b), abs(c), abs(d))] += 1
    return list(itertools.accumulate(counts))


def capture_goldens(sllift) -> dict:
    oracle, hardness, actions = sllift.oracle, sllift.hardness, sllift.actions
    f2 = [0] + [row[1] for row in oracle.norm_count_table(2, range(1, F2_MAX + 1))]
    _expect(f2[: F2_BRUTE_MAX + 1] == _brute_f2(F2_BRUTE_MAX), "|F_t| by brute force")
    _expect(f2[1] == STATED["f2:1"], "|F_1|")

    count = {}
    for t in workloads.COUNT_SKEWED_T:
        count[f"{t},{t * t}"] = oracle.count_sl(oracle.EnumSpec(n=2, caps=(t, t * t)))
    _expect([count[f"{t},{t * t}"] for t in range(1, 9)] == STATED["skewed"], "skewed counts")
    _expect(all(count[f"{t},{t * t}"] == _brute_count(2, (t, t * t)) for t in range(1, 4)), "skewed by brute force")
    for caps in workloads.COUNT_N3_CAPS:
        count[",".join(map(str, caps))] = oracle.count_sl(oracle.EnumSpec(n=3, caps=caps))
    _expect(count["2,2,2"] == STATED["n3:2"], "n=3 T=2")
    _expect(count["1,1,1"] == _brute_count(3, (1, 1, 1)), "n=3 T=1 by brute force")

    min_lift = {}
    for q in workloads.SEARCH_HARD_Q:
        inst = hardness.hard_instance(q, 2)
        min_lift[f"hard:{q}"] = oracle.min_lift_norm(inst.x, q, 4 * q * q)
    for m in workloads.SEARCH_TRACE_M:
        inst = hardness.trace_family_instance(m)
        min_lift[f"trace:{m}"] = oracle.min_lift_norm(inst.x, inst.q, 2 * inst.q**2)
    _expect(min_lift["trace:1"] == STATED["trace:1"], "trace family q=8")

    diameter = {}
    for space, q_range in workloads.SEARCH_DIAMETER:
        for q in q_range:
            diameter[f"{space}:{q}"] = actions.diameter_profile(space, 2, q, 8 * q)["diameter_norm"]
    _expect(all(diameter[f"P:{q}"] == d for q, d in STATED["P"].items()), "projective diameters")
    return {"f2": f2, "count": count, "min_lift": min_lift, "diameter": diameter}


def capture_digests() -> dict:
    path = HERE / "digests.json"
    path.unlink(missing_ok=True)  # runs must not check the values being replaced
    out = {}
    for workload in WORKLOADS:
        out[workload] = {}
        for seed in DIGEST_SEEDS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", "0.001", "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} is not correct:\n{proc.stderr}")
            line = next(x for x in proc.stdout.splitlines() if x.startswith("digest "))
            out[workload][str(seed)] = line.split()[1]
            print(workload, seed, out[workload][str(seed)], flush=True)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("goldens", "digests"))
    args = parser.parse_args()
    if args.what == "goldens":
        sys.path.insert(0, str(SRC))
        import sllift

        data = capture_goldens(sllift)
        (HERE / "goldens.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
    else:
        data = capture_digests()
        (HERE / "digests.json").write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
