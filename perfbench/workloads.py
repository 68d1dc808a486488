"""The four workloads: seeded op lists, the calls they make, and output checks.

``make_ops`` runs in the benchmark process and turns a seed into a JSON op
list; it may call sllift to build inputs (``random_sl_matrix``,
``hard_instance``), which is never timed.  ``run_op`` is the timed call into
sllift's public API.  ``check_op`` verifies a result with the benchmark's own
arithmetic or against goldens captured from the seed code, and returns the
canonical form of the result that goes into the run's digest.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

GOLDENS_PATH = Path(__file__).with_name("goldens.json")

BIG_Q = 10**9 + 7
LIFT_SMALL_Q = (16, 101, 1024, 9973, 65536, 30030)
LIFT_SMALL_REPS = 20
LIFT_LARGE = ((8, 60), (16, 7))  # (n, ops): n >= 8 is 67 of 427 ops; p90 (rank 385) is an n = 8 lift

ROOTS_POINTS = 2000
ROOTS_START = (10_000, 10_200)
# Primes = 11 (mod 12) have a unique cube root and no square root of -1, so
# hard_instance costs the same within a band and the seed moves it little.
ROOTS_HARD_BAND = (10_000, 10_600)
ROOTS_HARD_PRIMES = 2
ROOTS_KNOWN_FAILURE_Q = 1_000_003  # prime above the residue scan bound
ROOTS_POWER_PAIRS = (10, 4)  # (moduli from the sweep range, pairs per modulus)

COUNT_POINTS = 100
COUNT_TABLE_T = (140, 160)
COUNT_SKEWED_T = range(1, 13)  # t <= 6 below the numpy cutover, t >= 7 above
COUNT_N3_CAPS = ((1, 1, 1), (2, 2, 2), (1, 1, 2), (1, 2, 2))

SEARCH_HARD_Q = range(8, 61)
SEARCH_TRACE_M = (1, 2, 3, 4)
SEARCH_DIAMETER = (("P", range(2, 13)), ("A", range(2, 12)))
SEARCH_BAD_PAIR_Q = range(4, 45, 2)
SEARCH_DIST = (10, (5, 16))  # (pairs per space, q band); shells needed are built by then

CLI_SWEEP_COUNTS_N3_T = 1  # n = 3 runs the pure-Python kernel; n = 2 sweeps are numpy
CLI_SWEEP_DIAMETER_Q = "2..10"


class CheckFailed(Exception):
    """A result that disagrees with the benchmark's own verification."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)


# ------------------------------------------------------ independent arithmetic


def exact_det(rows) -> int:
    """Fraction-free Bareiss determinant over Python integers."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def signed_rep(value: int, modulus: int) -> int:
    r = value % modulus
    return r - modulus if 2 * r > modulus else r


def apply_mod(gamma, vec, q: int) -> tuple[int, ...]:
    return tuple(sum(g * v for g, v in zip(row, vec)) % q for row in gamma)


def max_abs(rows) -> int:
    return max(abs(e) for r in rows for e in r)


def _primes_in(lo: int, hi: int, residue_mod_12: int | None = None) -> list[int]:
    out = []
    for p in range(lo, hi):
        if p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1)):
            if residue_mod_12 is None or p % 12 == residue_mod_12:
                out.append(p)
    return out


# ------------------------------------------------------------------ op lists


def make_ops(workload: str, seed: int, sllift) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, sllift)


def _lift_ops(rng, sllift) -> list[dict]:
    cells = [(n, q) for n in (2, 3, 4) for q in LIFT_SMALL_Q for _ in range(LIFT_SMALL_REPS)]
    cells += [(n, BIG_Q) for n, count in LIFT_LARGE for _ in range(count)]
    rng.shuffle(cells)
    ops = []
    for n, q in cells:
        x = sllift.lifting.random_sl_matrix(n, q, rng.randrange(2**63))
        ops.append({"kind": "lift", "n": n, "q": q, "x": [list(r) for r in x.rows], "seed": rng.randrange(2**63)})
    return ops


def _roots_ops(rng, sllift) -> list[dict]:
    start = rng.randrange(*ROOTS_START)
    ops = [{"kind": "point", "q": q} for q in range(start, start + ROOTS_POINTS)]
    moduli, count = ROOTS_POWER_PAIRS
    for q in rng.sample(range(start, start + ROOTS_POINTS), moduli):
        ops += [{"kind": "powers", "q": q, "n": n, "count": count} for n in (2, 3)]
    for p in rng.sample(_primes_in(*ROOTS_HARD_BAND, 11), ROOTS_HARD_PRIMES):
        ops += [{"kind": "hard", "q": p, "n": n} for n in (2, 3)]
    ops.append({"kind": "point", "q": ROOTS_KNOWN_FAILURE_Q, "expect": "PrimeTooLarge"})
    return ops


def _count_ops(rng, sllift) -> list[dict]:
    ops = [{"kind": "sweep_count", "t": t} for t in range(1, COUNT_POINTS + 1)]
    rng.shuffle(ops)
    ops.append({"kind": "table", "t_max": rng.randrange(*COUNT_TABLE_T)})
    ops += [{"kind": "count", "caps": [t, t * t]} for t in COUNT_SKEWED_T]
    ops += [{"kind": "count", "caps": list(caps)} for caps in COUNT_N3_CAPS]
    return ops


def _search_ops(rng, sllift) -> list[dict]:
    ops = []
    for q in SEARCH_HARD_Q:
        inst = sllift.hardness.hard_instance(q, 2)
        bound = inst.lower_bound
        ops.append({
            "kind": "min_lift", "q": q, "x": [list(r) for r in inst.x.rows],
            "t_max": 4 * q * q, "bound": [bound.numerator, bound.denominator], "golden": f"hard:{q}",
        })
    for m in SEARCH_TRACE_M:
        inst = sllift.hardness.trace_family_instance(m)
        q = inst.q
        ops.append({
            "kind": "min_lift", "q": q, "x": [list(r) for r in inst.x.rows],
            "t_max": 2 * q * q, "bound": [q * q, 8], "golden": f"trace:{m}",
        })
    for space, q_range in SEARCH_DIAMETER:
        ops += [{"kind": "diameter", "space": space, "q": q} for q in q_range]
    ops += [{"kind": "bad_pair", "q": q} for q in SEARCH_BAD_PAIR_Q]
    pairs, (q_lo, q_hi) = SEARCH_DIST
    for space in ("A", "P"):
        for _ in range(pairs):
            q = rng.randrange(q_lo, q_hi + 1)
            ops.append({"kind": "dist", "space": space, "q": q, "x": _primitive(rng, q), "y": _primitive(rng, q)})
    return ops


def _primitive(rng, q: int) -> list[int]:
    while True:
        v = [rng.randrange(q), rng.randrange(q)]
        if math.gcd(q, *v) == 1:
            return v


_MAKERS = {"lift": _lift_ops, "roots": _roots_ops, "count": _count_ops, "search": _search_ops}


# --------------------------------------------------------------- timed calls


def run_op(op: dict, sllift):
    kind = op["kind"]
    if kind == "lift":
        return sllift.lifting.lift(sllift.intmat.IntMatrix(op["x"]), op["q"], seed=op["seed"])
    if kind == "point":  # one `sllift sweep roots --n 2 --k 2 --budget 16` point
        q = op["q"]
        target = math.ceil(q ** (1 - 1 / 2))
        found = sllift.hardness.find_large_root(q, 2, 16, target=target)
        return found, sllift.hardness.small_p_factor_root(q, 2, 2), target
    if kind == "hard":
        return sllift.hardness.hard_instance(op["q"], op["n"])
    if kind == "powers":
        return sllift.hardness.small_nth_powers(op["q"], op["n"], op["count"])
    if kind == "sweep_count":  # one `sllift sweep counts --n 2` point
        return sllift.oracle.norm_count_table(2, [op["t"]])
    if kind == "table":
        return sllift.oracle.norm_count_table(2, list(range(1, op["t_max"] + 1)))
    if kind == "count":
        caps = op["caps"]
        return sllift.oracle.count_sl(sllift.oracle.EnumSpec(n=len(caps), caps=tuple(caps)))
    if kind == "min_lift":
        return sllift.oracle.min_lift_norm(sllift.intmat.IntMatrix(op["x"]), op["q"], op["t_max"])
    if kind == "diameter":
        return sllift.actions.diameter_profile(op["space"], 2, op["q"], 8 * op["q"])
    if kind == "bad_pair":
        return sllift.actions.projective_bad_pair(op["q"])
    if kind == "dist":
        q = op["q"]
        if op["space"] == "A":
            point = sllift.actions.PointA
            return sllift.actions.dist_affine(point(q, tuple(op["x"])), point(q, tuple(op["y"])), 8 * q)
        point = sllift.actions.PointP
        return sllift.actions.dist_projective(point(q, tuple(op["x"])), point(q, tuple(op["y"])), 8 * q)
    raise ValueError(f"unknown op kind {kind!r}")


# ------------------------------------------------------------------- checks


def check_op(op: dict, result, goldens: dict):
    """Verify one result; return its canonical JSON-able form."""
    return _CHECKS[op["kind"]](op, result, goldens)


def _check_lift(op, cert, goldens):
    q, x = op["q"], op["x"]
    gamma = [list(r) for r in cert.gamma.rows]
    n = len(x)
    require(len(gamma) == n and all(len(r) == n for r in gamma), "gamma has the wrong shape")
    require(exact_det(gamma) == 1, "det(gamma) != 1")
    require(all((g - e) % q == 0 for gr, xr in zip(gamma, x) for g, e in zip(gr, xr)), "gamma != x mod q")
    require(cert.first_rows_max == max_abs(gamma[:-1]), "first_rows_max disagrees with gamma")
    require(cert.last_row_max == max_abs(gamma[-1:]), "last_row_max disagrees with gamma")
    return {"gamma": gamma, "trials": cert.trials_used}


def _check_witness(w, modulus: int, n: int) -> None:
    require(w.modulus == modulus and w.n == n, "witness for the wrong modulus")
    beta, alpha = w.beta.value, w.alpha.value
    require(pow(beta, n, modulus) == alpha % modulus, "beta^n != alpha")
    require(math.gcd(beta, modulus) == 1, "beta is not a unit")
    require(w.abs_alpha == abs(signed_rep(alpha, modulus)), "abs_alpha disagrees with alpha")
    require(w.abs_n_beta == abs(signed_rep(n * beta, modulus)), "abs_n_beta disagrees with beta")


def _check_point(op, result, goldens):
    found, other, target = result
    q = op["q"]
    _check_witness(found, q, 2)
    require(found.abs_alpha <= 16, "alpha outside the budget")
    require(found.flagged == (found.abs_n_beta < target), "flag disagrees with the target")
    if other is not None:
        _check_witness(other, q, 2)
        require(other.alpha.value == 1 % q, "small-factor witness is not a root of unity")
    w = other if other is not None and other.abs_n_beta > found.abs_n_beta else found
    return [w.method, w.alpha.value, w.beta.value, w.abs_alpha, w.abs_n_beta, target, w.flagged]


def _check_hard(op, inst, goldens):
    q, n = op["q"], op["n"]
    w = inst.witness
    _check_witness(w, q * q, n)
    x = [list(r) for r in inst.x.rows]
    require(exact_det(x) % q == 1 % q, "det(x) != 1 mod q")
    first = w.beta.value * pow(w.alpha.value, -1, q * q) % (q * q) % q
    diagonal = [first] + [w.beta.value % q] * (n - 1)
    require(all(x[i][j] == (diagonal[i] if i == j else 0) for i in range(n) for j in range(n)), "x is not diag(beta/alpha, beta, ...)")
    require(inst.lower_bound == Fraction(w.abs_n_beta, n * w.abs_alpha), "bound disagrees with the witness")
    return [w.method, w.alpha.value, w.beta.value, w.abs_n_beta, x]


def _check_powers(op, pairs, goldens):
    q, n = op["q"], op["n"]
    require(len(pairs) == op["count"], "wrong number of pairs")
    for alpha, beta, alpha_int in pairs:
        require(alpha.modulus == q and alpha.value == alpha_int % q, "alpha disagrees with its integer")
        require(pow(beta.value, n, q) == alpha.value, "beta^n != alpha")
    return [[alpha.value, beta.value, alpha_int] for alpha, beta, alpha_int in pairs]


def _check_sweep_count(op, rows, goldens):
    ((t, count, _),) = rows
    require(t == op["t"] and count == goldens["f2"][t], f"|F_{t}| = {count}")
    return count


def _check_table(op, rows, goldens):
    counts = [row[1] for row in rows]
    require([row[0] for row in rows] == list(range(1, op["t_max"] + 1)), "table thresholds")
    require(counts == goldens["f2"][1 : op["t_max"] + 1], "growth table disagrees with goldens")
    return counts[-1]


def _check_count(op, count, goldens):
    key = ",".join(map(str, op["caps"]))
    require(count == goldens["count"][key], f"count for caps {key} = {count}")
    return count


def _check_min_lift(op, value, goldens):
    bound = Fraction(*op["bound"])
    require(value is not None and value >= math.ceil(bound), "min lift norm below the proven bound")
    require(value == goldens["min_lift"][op["golden"]], f"min lift norm {value}")
    return value


def _check_diameter(op, profile, goldens):
    q = op["q"]
    require(profile["diameter_norm"] == goldens["diameter"][f"{op['space']}:{q}"], "diameter")
    require(profile["pairs"] == profile["size"] ** 2, "pair count")
    require(all(v <= profile["diameter_norm"] for v in profile["quantile_norms"].values()), "quantile above diameter")
    return [profile["size"], profile["diameter_norm"], profile["quantile_norms"]]


def _check_witness_map(gamma, x, y, q: int, projective: bool) -> None:
    require(exact_det(gamma) == 1, "witness det != 1")
    image = apply_mod(gamma, x, q)
    if projective:
        ok = any(image == tuple(u * c % q for c in y) for u in range(1, q) if math.gcd(u, q) == 1)
    else:
        ok = image == tuple(c % q for c in y)
    require(ok, "witness does not carry x to y")


def _check_bad_pair(op, record, goldens):
    q = op["q"]
    require(record.min_max_norm == q // 2, "bad-pair norm != q/2")
    _check_witness_map(record.witness, (1, 0), (1, q // 2), q, True)
    require(max_abs(record.witness) == record.min_max_norm, "witness norm")
    return [record.min_max_norm, [list(r) for r in record.witness]]


def _check_dist(op, record, goldens):
    q = op["q"]
    require(record.min_max_norm is not None, "no witness within 8q")
    _check_witness_map(record.witness, op["x"], op["y"], q, op["space"] == "P")
    require(max_abs(record.witness) == record.min_max_norm, "witness norm")
    return [record.min_max_norm, [list(r) for r in record.witness]]


_CHECKS = {
    "lift": _check_lift,
    "point": _check_point,
    "hard": _check_hard,
    "powers": _check_powers,
    "sweep_count": _check_sweep_count,
    "table": _check_table,
    "count": _check_count,
    "min_lift": _check_min_lift,
    "diameter": _check_diameter,
    "bad_pair": _check_bad_pair,
    "dist": _check_dist,
}


# ------------------------------------------------------------- CLI commands


def cli_command(workload: str, seed: int, sllift) -> tuple[list[str], dict]:
    """argv for the workload's representative `sllift` command, and its check context."""
    rng = random.Random(f"{workload}:cli:{seed}")
    if workload == "lift":
        s = rng.randrange(2**31)
        x = sllift.lifting.random_sl_matrix(3, 101, s)
        argv = ["lift", "--n", "3", "--q", "101", "--matrix", "random", "--seed", str(s), "--json"]
        return argv, {"x": [list(r) for r in x.rows]}
    if workload == "roots":
        p = rng.choice(_primes_in(1000, 1100))
        return ["hard", "--n", "2", "--q", str(p), "--json"], {"q": p}
    if workload == "count":
        return ["sweep", "counts", "--n", "3", "--T", str(CLI_SWEEP_COUNTS_N3_T)], {}
    if workload == "search":
        return ["sweep", "diameter", "--space", "P", "--n", "2", "--q", CLI_SWEEP_DIAMETER_Q], {}
    raise ValueError(f"unknown workload {workload!r}")


def check_cli(workload: str, stdout: str, context: dict, goldens: dict) -> list:
    """Verify the command's JSON records; return them without wall_time_ms."""
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    require(bool(records), "command printed no record")
    for record in records:
        record.pop("wall_time_ms", None)
    results = [r["results"] for r in records]
    if workload == "lift":
        (res,) = results
        q, gamma = 101, res["gamma"]
        require(exact_det(gamma) == 1, "CLI gamma det != 1")
        require(all((g - e) % q == 0 for gr, xr in zip(gamma, context["x"]) for g, e in zip(gr, xr)), "CLI gamma != x mod q")
    elif workload == "roots":
        (res,) = results
        q, w = context["q"], res["witness"]
        require(pow(w["beta"], 2, q * q) == w["alpha"], "CLI witness beta^2 != alpha")
        require(exact_det(res["x"]) % q == 1, "CLI det(x) != 1 mod q")
    elif workload == "count":
        caps = ",".join([str(CLI_SWEEP_COUNTS_N3_T)] * 3)
        require([r["count"] for r in results] == [goldens["count"][caps]], "CLI counts")
    elif workload == "search":
        got = [r["diameter_norm"] for r in results]
        want = [goldens["diameter"][f"P:{q}"] for q in range(2, 2 + len(results))]
        require(got == want, "CLI diameters")
    return records
