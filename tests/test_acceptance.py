"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Payload builders are pure functions of the pinned seed so that criterion 9
can re-run them and compare canonical JSON byte for byte.

Regression pins hold each logged constant within a factor of two of the
value measured on the first complete run of this suite (recorded in
FIRST_RUN): an upper constant to at most twice it, a lower constant to at
least half of it.
"""

import json
import math

from sllift.hardness import find_large_root, hard_instance, small_p_factor_root, trace_family_instance
from sllift.intmat import IntMatrix, det, maximal_minors
from sllift.lifting import complete_rows, is_extendable, lift, random_sl_matrix
from sllift.oracle import EnumSpec, count_sl, iter_sl, min_lift_norm, norm_count_table
from sllift.actions import diameter_profile, projective_bad_pair
from sllift.cli import _mix
from sllift.intmat import solve_mod

SEED = 20260810

# constants measured on the first complete run; tests pin within 2x of these
FIRST_RUN = {
    "lift_first_ratio": 0.3750,
    "lift_last_ratio": 0.2510,
    "root_score_from_q3": 0.5774,
    "skewed_c": 20.0,
    "bad_pair_ratio_low": 0.5,
    "bad_pair_ratio_high": 0.5,
}

# exact projective diameter norms measured on the first run (golden)
P_DIAMETERS = {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 2, 8: 4}


def _line(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------- builders


def build_1():
    worst_first = 0.0
    worst_last = 0.0
    successes = 0
    per_cell = {}
    for n in (2, 3, 4):
        for q in (16, 101, 1024, 9973):
            cell_first = cell_last = 0.0
            for s in range(100):
                x = random_sl_matrix(n, q, _mix(SEED, n, q, s))
                cert = lift(x, q, seed=_mix(SEED, n, q, s, 1))
                assert det(cert.gamma) == 1
                assert cert.gamma.reduce_mod(q) == x.reduce_mod(q)
                successes += 1
                cell_first = max(cell_first, cert.first_rows_max / (q * math.log2(q)))
                cell_last = max(cell_last, cert.last_row_max / (q * q * math.log2(q)))
            per_cell[f"n{n}_q{q}"] = [cell_first, cell_last]
            worst_first = max(worst_first, cell_first)
            worst_last = max(worst_last, cell_last)
    return {
        "successes": successes,
        "max_first_ratio": worst_first,
        "max_last_ratio": worst_last,
        "per_cell": per_cell,
    }


def build_2():
    out = {}
    for m in (1, 2, 3):
        inst = trace_family_instance(m)
        q = inst.q
        minimum = min_lift_norm(inst.x, q, 2 * q * q)
        out[str(q)] = {"m": m, "min_lift_norm": minimum, "bound": q * q // 8}
    return out


def build_3():
    rows = []
    violations = 0
    for q in range(8, 49):
        inst = hard_instance(q, 2)
        m2 = q * q
        alpha = inst.witness.alpha.value
        n_beta = (2 * inst.witness.beta.value) % m2
        bound = math.ceil(inst.lower_bound)
        minimum = min_lift_norm(inst.x, q, 4 * q * q)
        checked = 0
        for g in iter_sl(EnumSpec(n=2, caps=(minimum + q,) * 2, q=q, x=inst.x.rows)):
            a1, a2 = g[0][0], g[1][1]
            if (alpha * a1 + a2) % m2 != n_beta:
                violations += 1
            if max(abs(e) for r in g for e in r) < bound:
                violations += 1
            checked += 1
        rows.append(
            {
                "q": q,
                "alpha": alpha,
                "n_beta": n_beta,
                "bound": bound,
                "oracle_min": minimum,
                "lifts_checked": checked,
            }
        )
    return {"rows": rows, "violations": violations}


def build_4():
    min_score = None
    min_score_q = None
    min_score_from_3 = None
    invalid = 0
    flagged = 0
    for q in range(2, 10001):
        target = math.isqrt(q - 1) + 1
        witness = find_large_root(q, 2, 16, target=target)
        other = small_p_factor_root(q, 2, 2)
        if other is not None and other.abs_n_beta > witness.abs_n_beta:
            witness = other
        if pow(witness.beta.value, 2, q) != witness.alpha.value:
            invalid += 1
        if witness.flagged:
            flagged += 1
        score = witness.abs_n_beta * witness.abs_alpha / math.sqrt(q)
        if min_score is None or score < min_score:
            min_score, min_score_q = score, q
        if q >= 3 and (min_score_from_3 is None or score < min_score_from_3):
            min_score_from_3 = score
    return {
        "q_range": [2, 10000],
        "invalid_witnesses": invalid,
        "flagged_points": flagged,
        "min_score": min_score,
        "min_score_q": min_score_q,
        "min_score_from_q3": min_score_from_3,
    }


def build_5():
    table = norm_count_table(2, list(range(1, 201)))
    band = [count / (t * t) for t, count, _ in table if 50 <= t <= 200]
    skewed = []
    for t in range(1, 9):
        count = count_sl(EnumSpec(n=2, caps=(t, t * t)))
        skewed.append({"T": t, "count": count, "ratio": count / (t**3 * math.log2(t + 1))})
    return {
        "f1": table[0][1],
        "band_max_over_min": max(band) / min(band),
        "skewed": skewed,
        "skewed_c": max(row["ratio"] for row in skewed),
    }


def build_6():
    failures = 0
    checked = 0
    cramer_zero_cases = 0
    idx = 0
    while checked < 1000:
        q = (12, 360, 1024)[(idx // 3) % 3]
        n = (2, 3, 4)[idx % 3]
        a = random_sl_matrix(n, q, _mix(SEED, 6, idx))
        rng_val = _mix(SEED, 6, idx, 1)
        if idx % 2 == 0:
            w = tuple((rng_val >> (7 * j)) % q for j in range(n))
        else:
            coeffs = [(rng_val >> (9 * i)) % q for i in range(n - 1)]
            w = tuple(
                sum(coeffs[i] * a.rows[i][j] for i in range(n - 1)) % q for j in range(n)
            )
        alpha = solve_mod(a, w, q)
        for j in range(n):
            if sum(alpha[i] * a.rows[i][j] for i in range(n)) % q != w[j]:
                failures += 1
        cramer = det(IntMatrix(a.rows[: n - 1]).with_row(w)) % q
        if cramer == 0:
            cramer_zero_cases += 1
            if alpha[n - 1] % q != 0:
                failures += 1
        checked += 1
        idx += 1
    return {"checked": checked, "cramer_zero_cases": cramer_zero_cases, "failures": failures}


def build_7():
    done = 0
    idx = 0
    violations = 0
    while done < 1000:
        state = _mix(SEED, 7, idx)
        idx += 1
        n = 2 + state % 4
        entries = []
        s = state
        for _ in range((n - 1) * n):
            s = _mix(s, 1)
            entries.append(s % 2001 - 1000)
        b = IntMatrix([entries[i * n : (i + 1) * n] for i in range(n - 1)])
        if not is_extendable(b):
            continue
        v = complete_rows(b, maximal_minors(b))
        if det(b.with_row(v)) != 1:
            violations += 1
        if 2 * max(abs(e) for e in v) > n * b.max_norm() + 2:
            violations += 1
        done += 1
    return {"instances": done, "violations": violations}


def build_8():
    bad = {}
    for q in (4, 6, 8, 10, 12, 14, 16):
        record = projective_bad_pair(q)
        bad[str(q)] = {"min_norm": record.min_max_norm, "ratio": record.min_max_norm / q}
    profiles = {str(q): diameter_profile("P", 2, q, 8 * q) for q in range(2, 9)}
    ratios = [v["ratio"] for v in bad.values()]
    return {
        "bad_pairs": bad,
        "band": [min(ratios), max(ratios)],
        "p_diameters": {k: v["diameter_norm"] for k, v in profiles.items()},
        "profiles": profiles,
    }


_BUILDERS = {1: build_1, 2: build_2, 3: build_3, 4: build_4, 5: build_5, 6: build_6, 7: build_7, 8: build_8}
_CACHE = {}


def payload(num: int):
    if num not in _CACHE:
        _CACHE[num] = _BUILDERS[num]()
    return _CACHE[num]


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


# ------------------------------------------------------------------- tests


def test_criterion_1_lift_soundness_and_bounds():
    data = payload(1)
    ok = (
        data["successes"] == 1200
        and data["max_first_ratio"] <= 2 * FIRST_RUN["lift_first_ratio"]
        and data["max_last_ratio"] <= 2 * FIRST_RUN["lift_last_ratio"]
    )
    assert _line(
        1,
        ok,
        f"1200/1200 lifts sound; first ratio {data['max_first_ratio']:.4f} "
        f"(pin {2 * FIRST_RUN['lift_first_ratio']}), last ratio "
        f"{data['max_last_ratio']:.4f} (pin {2 * FIRST_RUN['lift_last_ratio']})",
    )


def test_criterion_2_dyadic_trace_family():
    data = payload(2)
    ok = all(row["min_lift_norm"] >= row["bound"] for row in data.values())
    ok = ok and data["8"]["min_lift_norm"] == 13
    assert _line(
        2,
        ok,
        "oracle minima "
        + ", ".join(f"q={q}: {row['min_lift_norm']} >= {row['bound']}" for q, row in data.items())
        + " (q=8 golden 13)",
    )


def test_criterion_3_hard_instance_congruences():
    data = payload(3)
    checked = sum(row["lifts_checked"] for row in data["rows"])
    ok = data["violations"] == 0 and all(row["lifts_checked"] > 0 for row in data["rows"])
    assert _line(
        3,
        ok,
        f"q in 8..48: {checked} enumerated lifts, {data['violations']} violations",
    )


def test_criterion_4_root_search_sweep():
    data = payload(4)
    detail = (
        f"witness valid for all q ({data['invalid_witnesses']} invalid); "
        f"min score {data['min_score']} at q={data['min_score_q']} "
        f"(from q>=3: {data['min_score_from_q3']:.4f})"
    )
    n = 2  # build_4 searches square roots
    valid_ok = data["invalid_witnesses"] == 0
    # When q divides n, n*beta = 0 mod q for every unit beta, so the score
    # is exactly 0 there (for n = 2: q = 2, whose only unit is 1).  The
    # minimum over q not dividing n (for n = 2: q >= 3) is pinned to at
    # least half its first-run value, and a zero minimum may only sit at a
    # q dividing n; see docs/decisions.md.
    pin = FIRST_RUN["root_score_from_q3"] / 2
    positive_ok = data["min_score_from_q3"] >= pin and (
        data["min_score"] > 0 or n % data["min_score_q"] == 0
    )
    _line(4, valid_ok and positive_ok, f"{detail}, pin {pin}")
    assert valid_ok
    assert positive_ok


def test_criterion_5_counting():
    data = payload(5)
    ok = (
        data["f1"] == 20
        and data["band_max_over_min"] <= 1.5
        and data["skewed_c"] <= 2 * FIRST_RUN["skewed_c"]
    )
    assert _line(
        5,
        ok,
        f"|F_1| = {data['f1']}, band max/min = {data['band_max_over_min']:.4f} <= 1.5, "
        f"skewed C = {data['skewed_c']:.2f} (pin {2 * FIRST_RUN['skewed_c']})",
    )


def test_criterion_6_mod_q_solver():
    data = payload(6)
    ok = data["failures"] == 0 and data["checked"] == 1000 and data["cramer_zero_cases"] >= 300
    assert _line(
        6,
        ok,
        f"{data['checked']} instances over q in (12, 360, 1024), "
        f"{data['cramer_zero_cases']} with vanishing Cramer determinant, "
        f"{data['failures']} failures",
    )


def test_criterion_7_completion_bound():
    data = payload(7)
    ok = data["violations"] == 0 and data["instances"] == 1000
    assert _line(
        7,
        ok,
        f"{data['instances']} completions, {data['violations']} violations of det or (n/2)T+1",
    )


def test_criterion_8_projective_bad_pairs():
    data = payload(8)
    low, high = data["band"]
    pin_low = FIRST_RUN["bad_pair_ratio_low"] / 2
    pin_high = FIRST_RUN["bad_pair_ratio_high"] * 2
    ok = (
        low > 0
        and pin_low <= low
        and high <= pin_high
        and data["p_diameters"] == {str(q): d for q, d in P_DIAMETERS.items()}
    )
    assert _line(
        8,
        ok,
        f"bad-pair ratio band [{low}, {high}] within pinned [{pin_low}, {pin_high}]; "
        f"projective diameters q<=8 match goldens {data['p_diameters']}",
    )


def test_criterion_9_determinism():
    reference = {num: canon(payload(num)) for num in _BUILDERS}
    fresh = {num: canon(_BUILDERS[num]()) for num in _BUILDERS}
    mismatched = [num for num in _BUILDERS if reference[num] != fresh[num]]
    assert _line(
        9,
        not mismatched,
        "criteria 1-8 payloads byte-identical on re-run"
        if not mismatched
        else f"criteria {mismatched} differ between runs",
    )
