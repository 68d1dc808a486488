"""Command-line surface: lift, hard, and sweep subcommands.

Every record is timed and built by _timed_record from its own params and seed.
Each sweep kind is one row of _SWEEPS, run by the one loop in _cmd_sweep;
bounded integer flags are checked once, at parse time.

Exit codes: 0 success, 1 usage or parse error (or an unwritable output path,
or stdout closed by its reader), 2 verified-infeasible input, 3 search or
enumeration budget exhausted, 130 interrupted (SIGINT; "interrupted" on stderr,
no traceback; a sweep's --csv and --jsonl hold exactly the records it printed).
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys
import time

from . import actions, hardness, lifting, oracle, records, residue
from .errors import BudgetExceeded, InvalidInput, SlliftError
from .intmat import IntMatrix, norm_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_BUDGET = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bounded(flag: str, symbol: str, low: int, high: int | None = None):
    """argparse type= for an integer flag that must lie in [low, high]."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise _UsageError(f"{flag} needs {symbol} >= {low}, got {value}")
        if high is not None and value > high:
            raise _UsageError(f"{flag} needs {symbol} <= {high}, got {value}")
        return value

    parse.__name__ = "int"  # so a ValueError above reads "invalid int value", as with type=int
    return parse


# a record's seed is a bare JSON integer, so it stays within the exact range of a double
_SEED = _bounded("--seed", "S", -(2**53), 2**53)


def _mix(*parts: int) -> int:
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (p & (2**64 - 1))) * 0xBF58476D1CE4E5B9 % 2**64
    return h % 2**63


def parse_matrix(text: str, n: int | None = None) -> IntMatrix:
    """Parse 'a,b;c,d' (rows by ';', entries by ',', decimal integers)."""
    rows = []
    for row_text in text.split(";"):
        row = []
        for token in row_text.split(","):
            token = token.strip()
            try:
                row.append(int(token, 10))
            except ValueError:
                raise _UsageError(f"bad matrix entry {token!r}") from None
        rows.append(row)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _UsageError("matrix rows have unequal lengths")
    if n is not None and (len(rows) != n or width != n):
        raise _UsageError(f"matrix is {len(rows)}x{width}, expected {n}x{n}")
    return IntMatrix(rows)


def parse_range(text: str) -> range | list[int]:
    """Either 'a..b' (inclusive, a lazy range), a comma list, or a single integer."""
    text = text.strip()
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise _UsageError(f"bad range {text!r}") from None
        if hi < lo:
            raise _UsageError(f"empty range {text!r}")
        return range(lo, hi + 1)
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError(f"bad range {text!r}") from None


def _timed_record(command: str, params: dict, seed: int, results_of, catch=()) -> tuple[dict, dict]:
    """Time results_of(params, seed); an exception in `catch` becomes flagged error results."""
    start = time.monotonic()
    try:
        results = results_of(params, seed)
    except catch as exc:
        results = {"error": str(exc), "flagged": True}
    wall = int(1000 * (time.monotonic() - start))
    return results, records.make_record(command, params, seed, results, wall)


def _print_run(args, params: dict, seed: int, results_of, text) -> dict:
    """Run lift or hard once; print its record as JSON, or text(results, seed)."""
    results, record = _timed_record(args.command, params, seed, results_of)
    print(records.dumps(record) if args.json else text(results, seed))
    return results


def _lift_results(params: dict, seed: int) -> dict:
    n, q = params["n"], params["q"]
    try:
        if params["matrix"] == "random":
            x = lifting.random_sl_matrix(n, q, seed)
        else:
            x = parse_matrix(params["matrix"], n)
    except InvalidInput as exc:
        raise _UsageError(str(exc)) from None
    cert = lifting.lift(x, q, seed=seed)
    fields = ("gamma", "n", "q", "first_rows_max", "last_row_max", "trials_used")
    results = {k: getattr(cert, k) for k in fields}
    report = norm_report(cert.gamma)
    return {**results, "max_norm": report.max_norm, "op_norm_estimate": report.op_norm_estimate}


def _lift_text(r: dict, seed: int) -> str:
    head = f"lift n={r['n']} q={r['q']} seed={seed} trials={r['trials_used']}"
    rows = ["  " + " ".join(str(v) for v in row) for row in r["gamma"].rows]
    return "\n".join([head, *rows, f"first_rows_max={r['first_rows_max']} last_row_max={r['last_row_max']}"])


def _cmd_lift(args) -> int:
    params = {k: getattr(args, k) for k in ("n", "q", "matrix")}
    _print_run(args, params, args.seed, _lift_results, _lift_text)
    return EXIT_OK


def _root_pair(w: hardness.RootWitness) -> dict:
    """A witness's unit alpha and its n-th root beta, with their signed sizes."""
    return {"alpha": w.alpha.value, "beta": w.beta.value, "abs_alpha": w.abs_alpha, "abs_n_beta": w.abs_n_beta}


def _hard_results(params: dict, seed: int) -> dict:
    if params["trace_family_m"] is not None:
        instance = hardness.trace_family_instance(params["trace_family_m"])
    else:
        instance = hardness.hard_instance(params["q"], params["n"], params["budget"])
    w = instance.witness
    results = {
        "q": instance.q,
        "n": instance.n,
        "x": instance.x,
        "lower_bound": instance.lower_bound,
        "vacuous": instance.lower_bound < 1,
        "trace_mod_q2": instance.trace_mod_q2,
        "witness": {
            "modulus": w.modulus,
            **_root_pair(w),
            "flagged": w.flagged,
            "degenerate": w.degenerate,
            "method": w.method,
        },
    }
    t_max = params["verify_oracle"]
    if t_max is not None:
        try:
            minimum = oracle.min_lift_norm(instance.x, instance.q, t_max)
        except BudgetExceeded as exc:
            results["oracle"] = {"error": str(exc), "flagged": True}
        else:
            bound = math.ceil(instance.lower_bound)
            results["oracle"] = {
                "t_max": t_max,
                "min_lift_norm": minimum,
                "bound": bound,
                # no lift of norm <= t_max proves L >= t_max + 1
                "verified": (minimum if minimum is not None else t_max + 1) >= bound,
            }
    return results


def _hard_text(r: dict, seed: int) -> str:
    w = r["witness"]
    text = (
        f"hard n={r['n']} q={r['q']} alpha={w['alpha']} beta={w['beta']} "
        f"|n*beta|={w['abs_n_beta']} bound={r['lower_bound']}"
    )
    return text + f"\noracle: {r['oracle']}" if "oracle" in r else text


def _cmd_hard(args) -> int:
    if args.trace_family_m is None and (args.n is None or args.q is None):
        raise _UsageError("hard needs --n and --q (or --trace-family-m)")
    if args.trace_family_m is not None and (args.n is not None or args.q is not None):
        raise _UsageError("hard --trace-family-m takes no --n or --q")
    if args.trace_family_m is not None and args.budget is not None:
        raise _UsageError("hard --trace-family-m takes no --budget")
    params = {k: getattr(args, k) for k in ("n", "q", "budget", "trace_family_m", "verify_oracle")}
    if params["budget"] is None:
        params["budget"] = hardness.DEFAULT_ALPHA_BUDGET
    # hard has no randomness; the schema still wants a seed
    checked = _print_run(args, params, 0, _hard_results, _hard_text).get("oracle", {})
    if "error" in checked:
        print(f"budget exhausted: {checked['error']}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _roots_point(params: dict, seed: int) -> dict:
    q, k = params["q"], params["k"]
    # exact ceil(q^((k-1)/k)): the least t with t^k >= q^(k-1)
    target = residue.int_nth_root(q ** (k - 1) - 1, k) + 1
    witness = hardness.find_large_root(q, params["n"], params["budget"], target=target)
    other = hardness.small_p_factor_root(q, params["n"], k)
    if other is not None and other.abs_n_beta > witness.abs_n_beta:
        witness = other
    return {
        "q": q,
        "method": witness.method,
        **_root_pair(witness),
        "target": target,
        "ratio_to_target": witness.abs_n_beta / target if target else None,
        "flagged": witness.flagged,
    }


def _counts_point(params: dict, seed: int) -> dict:
    ((t, count, ratio),) = oracle.norm_count_table(params["n"], [params["T"]])
    return {"T": t, "count": count, "ratio": ratio}


def _skewed_point(params: dict, seed: int) -> dict:
    t = params["T"]
    count = oracle.count_sl(oracle.EnumSpec(n=2, caps=(t, t * t))) if t else 0  # T = 0: an empty box
    norm = count / (t**3 * math.log2(t + 1)) if t else None
    return {"T": t, "count": count, "normalized": norm}


def _lift_bounds_point(params: dict, seed: int) -> dict:
    q, n = params["q"], params["n"]
    worst_first, worst_last, worst_trials = 0.0, 0.0, 0
    for s in range(params["samples"]):
        x = lifting.random_sl_matrix(n, q, _mix(seed, q, s))  # refuses q < 1 before log2 sees it
        cert = lifting.lift(x, q, seed=_mix(seed, q, s, 1))
        worst_first = max(worst_first, cert.first_rows_max / (q * math.log2(q + 2)))
        worst_last = max(worst_last, cert.last_row_max / (q * q * math.log2(q + 2)))
        worst_trials = max(worst_trials, cert.trials_used)
    ratios = {"max_first_ratio": worst_first, "max_last_ratio": worst_last, "max_trials": worst_trials}
    return {**params, **ratios}  # the results lead with the point's params: q, n, samples


# kind -> (its range flag, (args, value) -> one point's params, (params, seed) -> its results)
_SWEEPS = {
    "roots": ("q", lambda a, q: {"q": q, "n": a.n, "k": a.k, "budget": a.budget}, _roots_point),
    "counts": ("T", lambda a, t: {"T": t, "n": a.n}, _counts_point),
    "skewed": ("T", lambda a, t: {"T": t, "n": 2}, _skewed_point),
    "diameter": (
        "q",
        lambda a, q: {"q": q, "n": a.n, "space": a.space, "t_max": 8 * q},
        lambda p, seed: actions.diameter_profile(p["space"], p["n"], p["q"], p["t_max"]),
    ),
    "lift-bounds": ("q", lambda a, q: {"q": q, "n": a.n, "samples": a.samples}, _lift_bounds_point),
}


def _cmd_sweep(args) -> int:
    needed, params_of, results_of = _SWEEPS[args.kind]
    if getattr(args, needed) is None:
        raise _UsageError(f"sweep {args.kind} needs --{needed}")
    outputs = [(flag, path) for flag, path in (("csv", args.csv), ("jsonl", args.jsonl)) if path]
    for flag, path in outputs:  # refuse before the sweep runs, not after
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise _UsageError(f"--{flag} {path} is not a file in an existing directory")
        if os.path.exists(path) and not os.path.isfile(path):  # a FIFO or device: the rename would replace it
            raise _UsageError(f"--{flag} {path} is not a regular file")
    if len(outputs) == 2 and os.path.realpath(args.csv) == os.path.realpath(args.jsonl):
        raise _UsageError(f"--csv and --jsonl name the same file {args.csv}")
    if args.kind == "skewed" and args.n != 2:
        raise _UsageError("skewed sweep supports n=2")
    if args.kind == "lift-bounds" and args.n < 2:
        raise _UsageError(f"lift-bounds sweep needs n >= 2, got {args.n}")
    all_records: list[dict] = []
    failures = 0
    points = 0
    caught = (SlliftError, OverflowError)  # OverflowError: a q or T beyond float or index range

    def save():
        for flag, path in outputs:
            if flag == "csv":
                text = records.to_csv(all_records)
            else:
                text = "".join(records.dumps(r) + "\n" for r in all_records)
            try:
                records.write_atomic(path, text)
            except OSError as exc:
                raise _UsageError(f"cannot write --{flag} {path}: {exc.strerror or exc}") from None

    try:
        for value in parse_range(getattr(args, needed)):
            points += 1
            params = params_of(args, value)
            results, record = _timed_record(f"sweep-{args.kind}", params, args.seed, results_of, caught)
            failures += "error" in results
            # a SIGINT waits until the record is both printed and kept for the files
            masked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                print(records.dumps(record))
                if outputs:  # kept only for the files, so a long sweep's memory stays flat
                    all_records.append(record)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, masked)
    except KeyboardInterrupt:
        save()  # an interrupted sweep keeps the points it printed
        raise
    save()
    if points and failures == points:
        return EXIT_BUDGET
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sllift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="lift a matrix mod q to SL_n(Z)")
    p_lift.add_argument("--n", type=_bounded("--n", "n", 2), required=True)
    p_lift.add_argument("--q", type=_bounded("--q", "q", 1), required=True)
    p_lift.add_argument("--matrix", required=True, help="'a,b;c,d' or 'random'")
    p_lift.add_argument("--seed", type=_SEED, default=0)
    p_lift.add_argument("--json", action="store_true")
    p_lift.set_defaults(func=_cmd_lift)

    p_hard = sub.add_parser("hard", help="emit a hard-to-lift congruence class")
    p_hard.add_argument("--n", type=_bounded("--n", "n", 2))
    p_hard.add_argument("--q", type=_bounded("--q", "q", 2))
    # default None, so a --budget beside --trace-family-m shows; records get DEFAULT_ALPHA_BUDGET
    p_hard.add_argument("--budget", type=_bounded("--budget", "B", 1))
    p_hard.add_argument("--verify-oracle", type=_bounded("--verify-oracle", "T_MAX", 1), metavar="T_MAX")
    p_hard.add_argument("--trace-family-m", type=_bounded("--trace-family-m", "M", 1), metavar="M")
    p_hard.add_argument("--json", action="store_true")
    p_hard.set_defaults(func=_cmd_hard)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    p_sweep.add_argument("kind", choices=sorted(_SWEEPS))
    p_sweep.add_argument("--q", help="modulus range 'a..b' or comma list")
    p_sweep.add_argument("--T", help="threshold range 'a..b' or comma list")
    p_sweep.add_argument("--n", type=_bounded("--n", "n", 1), default=2)
    # k <= 64: the exact roots target builds q^(k-1), and for q < 2^64 no
    # prime power lies below q^(1/k) once k >= 64
    p_sweep.add_argument("--k", type=_bounded("--k", "K", 1, 64), default=2)
    p_sweep.add_argument("--budget", type=_bounded("--budget", "B", 1), default=16)
    p_sweep.add_argument("--samples", type=_bounded("--samples", "S", 1), default=100)
    p_sweep.add_argument("--space", choices=("A", "P"), default="P")
    p_sweep.add_argument("--seed", type=_SEED, default=0)
    p_sweep.add_argument("--csv", metavar="PATH")
    p_sweep.add_argument("--jsonl", metavar="PATH")
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def _fuse_matrix_values(argv):
    """Join '--matrix -3,0;0,5' into '--matrix=...' so a leading minus in
    the first entry is not mistaken for an option flag."""
    out = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token == "--matrix" and i + 1 < len(argv):
            out.append(f"--matrix={argv[i + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _fuse_matrix_values(list(argv))
    try:
        args = parser.parse_args(argv)
        try:
            oracle.current_budget()
        except InvalidInput as exc:
            raise _UsageError(str(exc)) from None
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # reader gone (`| head`): send the exit-time flush to devnull too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except SlliftError as exc:
        if isinstance(exc, InvalidInput):
            code, prefix = EXIT_INFEASIBLE, "infeasible"
        else:
            code, prefix = EXIT_BUDGET, "budget exhausted"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
