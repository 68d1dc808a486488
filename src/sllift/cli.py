"""Command-line surface: lift, hard, and sweep subcommands.

Exit codes: 0 success, 1 usage or parse error (or an unwritable output path,
or stdout closed by its reader), 2 verified-infeasible input, 3 search or
enumeration budget exhausted, 130 interrupted (SIGINT; "interrupted" on stderr,
no traceback; a sweep still writes --csv and --jsonl with the points it completed).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import actions, hardness, lifting, oracle, records, residue
from .errors import BudgetExceeded, InvalidInput, NotExtendableModQ, SlliftError
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


def _certificate_results(cert: lifting.LiftCertificate) -> dict:
    report = norm_report(cert.gamma)
    return {
        "gamma": cert.gamma,
        "n": cert.n,
        "q": cert.q,
        "first_rows_max": cert.first_rows_max,
        "last_row_max": cert.last_row_max,
        "trials_used": cert.trials_used,
        "max_norm": report.max_norm,
        "op_norm_estimate": report.op_norm_estimate,
    }


def _cmd_lift(args) -> int:
    if args.n < 2:
        raise _UsageError(f"--n needs n >= 2, got {args.n}")
    if args.q < 1:
        raise _UsageError(f"--q needs q >= 1, got {args.q}")
    start = time.monotonic()
    try:
        if args.matrix == "random":
            x = lifting.random_sl_matrix(args.n, args.q, args.seed)
        else:
            x = parse_matrix(args.matrix, args.n)
    except InvalidInput as exc:
        raise _UsageError(str(exc)) from None
    cert = lifting.lift(x, args.q, seed=args.seed)
    wall = int(1000 * (time.monotonic() - start))
    record = records.make_record(
        "lift",
        {"n": args.n, "q": args.q, "matrix": args.matrix},
        args.seed,
        _certificate_results(cert),
        wall,
    )
    if args.json:
        print(records.dumps(record))
    else:
        print(f"lift n={cert.n} q={cert.q} seed={cert.seed} trials={cert.trials_used}")
        for row in cert.gamma.rows:
            print("  " + " ".join(str(v) for v in row))
        print(
            f"first_rows_max={cert.first_rows_max} last_row_max={cert.last_row_max}"
        )
    return EXIT_OK


def _hard_results(instance: hardness.HardInstance) -> dict:
    w = instance.witness
    return {
        "q": instance.q,
        "n": instance.n,
        "x": instance.x,
        "lower_bound": instance.lower_bound,
        "vacuous": instance.lower_bound < 1,
        "trace_mod_q2": instance.trace_mod_q2,
        "witness": {
            "modulus": w.modulus,
            "alpha": w.alpha.value,
            "beta": w.beta.value,
            "abs_alpha": w.abs_alpha,
            "abs_n_beta": w.abs_n_beta,
            "flagged": w.flagged,
            "degenerate": w.degenerate,
            "method": w.method,
        },
    }


def _cmd_hard(args) -> int:
    start = time.monotonic()
    if args.budget < 1:
        raise _UsageError(f"--budget needs B >= 1, got {args.budget}")
    if args.verify_oracle is not None and args.verify_oracle < 1:
        raise _UsageError(f"--verify-oracle needs T_MAX >= 1, got {args.verify_oracle}")
    if args.trace_family_m is not None:
        instance = hardness.trace_family_instance(args.trace_family_m)
    else:
        if args.n is None or args.q is None:
            raise _UsageError("hard needs --n and --q (or --trace-family-m)")
        instance = hardness.hard_instance(args.q, args.n, args.budget)
    results = _hard_results(instance)
    code = EXIT_OK
    if args.verify_oracle is not None:
        try:
            minimum = oracle.min_lift_norm(instance.x, instance.q, args.verify_oracle)
        except BudgetExceeded as exc:
            print(f"budget exhausted: {exc}", file=sys.stderr)
            results["oracle"] = {"error": str(exc), "flagged": True}
            code = EXIT_BUDGET
        else:
            bound = math.ceil(instance.lower_bound)
            results["oracle"] = {
                "t_max": args.verify_oracle,
                "min_lift_norm": minimum,
                "bound": bound,
                "verified": minimum is not None and minimum >= bound,
            }
    wall = int(1000 * (time.monotonic() - start))
    record = records.make_record(
        "hard",
        {
            "n": args.n,
            "q": args.q,
            "budget": args.budget,
            "trace_family_m": args.trace_family_m,
            "verify_oracle": args.verify_oracle,
        },
        args.seed,
        results,
        wall,
    )
    if args.json:
        print(records.dumps(record))
    else:
        w = results["witness"]
        print(
            f"hard n={instance.n} q={instance.q} alpha={w['alpha']} beta={w['beta']} "
            f"|n*beta|={w['abs_n_beta']} bound={instance.lower_bound}"
        )
        if "oracle" in results:
            print(f"oracle: {results['oracle']}")
    return code


def _sweep_roots(args):
    if args.k < 1:
        raise _UsageError(f"--k needs K >= 1, got {args.k}")
    if args.budget < 1:
        raise _UsageError(f"--budget needs B >= 1, got {args.budget}")

    def point(q):
        # exact ceil(q^((k-1)/k)): the least t with t^k >= q^(k-1)
        target = residue.int_nth_root(q ** (args.k - 1) - 1, args.k) + 1
        witness = hardness.find_large_root(q, args.n, args.budget, target=target)
        other = hardness.small_p_factor_root(q, args.n, args.k)
        if other is not None and other.abs_n_beta > witness.abs_n_beta:
            witness = other
        return {
            "q": q,
            "method": witness.method,
            "alpha": witness.alpha.value,
            "beta": witness.beta.value,
            "abs_alpha": witness.abs_alpha,
            "abs_n_beta": witness.abs_n_beta,
            "target": target,
            "ratio_to_target": witness.abs_n_beta / target if target else None,
            "flagged": witness.flagged,
        }

    for q in parse_range(args.q):
        yield {"q": q, "n": args.n, "k": args.k, "budget": args.budget}, lambda q=q: point(q)


def _sweep_counts(args):
    thresholds = parse_range(args.T)

    def point(t):
        (row,) = oracle.norm_count_table(args.n, [t])
        return {"T": row[0], "count": row[1], "ratio": row[2]}

    for t in thresholds:
        yield {"T": t, "n": args.n}, lambda t=t: point(t)


def _sweep_skewed(args):
    if args.n != 2:
        raise _UsageError("skewed sweep supports n=2")

    def point(t):
        spec = oracle.EnumSpec(n=2, caps=(t, t * t))
        count = oracle.count_sl(spec)
        norm = count / (t**3 * math.log2(t + 1)) if t >= 1 else None
        return {"T": t, "count": count, "normalized": norm}

    for t in parse_range(args.T):
        yield {"T": t, "n": 2}, lambda t=t: point(t)


def _sweep_diameter(args):
    for q in parse_range(args.q):
        t_max = args.t_max if args.t_max is not None else 8 * q
        yield (
            {"q": q, "n": args.n, "space": args.space, "t_max": t_max},
            lambda q=q, t=t_max: actions.diameter_profile(args.space, args.n, q, t),
        )


def _sweep_lift_bounds(args):
    if args.samples < 1:
        raise _UsageError(f"--samples needs S >= 1, got {args.samples}")

    def point(q):
        scale_first = q * math.log2(q + 2)
        scale_last = q * q * math.log2(q + 2)
        worst_first = 0.0
        worst_last = 0.0
        worst_trials = 0
        for s in range(args.samples):
            x = lifting.random_sl_matrix(args.n, q, _mix(args.seed, q, s))
            cert = lifting.lift(x, q, seed=_mix(args.seed, q, s, 1))
            worst_first = max(worst_first, cert.first_rows_max / scale_first)
            worst_last = max(worst_last, cert.last_row_max / scale_last)
            worst_trials = max(worst_trials, cert.trials_used)
        return {
            "q": q,
            "n": args.n,
            "samples": args.samples,
            "max_first_ratio": worst_first,
            "max_last_ratio": worst_last,
            "max_trials": worst_trials,
        }

    for q in parse_range(args.q):
        yield {"q": q, "n": args.n, "samples": args.samples}, lambda q=q: point(q)


_SWEEPS = {  # kind -> (runner, the range flag it needs)
    "roots": (_sweep_roots, "q"),
    "counts": (_sweep_counts, "T"),
    "skewed": (_sweep_skewed, "T"),
    "diameter": (_sweep_diameter, "q"),
    "lift-bounds": (_sweep_lift_bounds, "q"),
}


def _cmd_sweep(args) -> int:
    runner, needed = _SWEEPS[args.kind]
    if getattr(args, needed) is None:
        raise _UsageError(f"sweep {args.kind} needs --{needed}")
    outputs = [(flag, path) for flag, path in (("csv", args.csv), ("jsonl", args.jsonl)) if path]
    for flag, path in outputs:  # refuse before the sweep runs, not after
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise _UsageError(f"--{flag} {path} is not a file in an existing directory")
    all_records: list[dict] = []
    failures = 0
    points = 0

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
        for params, thunk in runner(args):
            points += 1
            start = time.monotonic()
            try:
                results = thunk()
            except (SlliftError, OverflowError) as exc:  # a q or T beyond float or index range
                results = {"error": str(exc), "flagged": True}
                failures += 1
            wall = int(1000 * (time.monotonic() - start))
            record = records.make_record(f"sweep-{args.kind}", params, args.seed, results, wall)
            print(records.dumps(record))
            if outputs:  # kept only for the files, so a long sweep's memory stays flat
                all_records.append(record)
    except KeyboardInterrupt:
        save()  # an interrupted sweep keeps the points it completed
        raise
    save()
    if points and failures == points:
        return EXIT_BUDGET
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sllift", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lift = sub.add_parser("lift", help="lift a matrix mod q to SL_n(Z)")
    p_lift.add_argument("--n", type=int, required=True)
    p_lift.add_argument("--q", type=int, required=True)
    p_lift.add_argument("--matrix", required=True, help="'a,b;c,d' or 'random'")
    p_lift.add_argument("--seed", type=int, default=0)
    p_lift.add_argument("--json", action="store_true")
    p_lift.set_defaults(func=_cmd_lift)

    p_hard = sub.add_parser("hard", help="emit a hard-to-lift congruence class")
    p_hard.add_argument("--n", type=int)
    p_hard.add_argument("--q", type=int)
    p_hard.add_argument("--budget", type=int, default=hardness.DEFAULT_ALPHA_BUDGET)
    p_hard.add_argument("--verify-oracle", type=int, metavar="T_MAX")
    p_hard.add_argument("--trace-family-m", type=int, metavar="M")
    p_hard.add_argument("--seed", type=int, default=0)
    p_hard.add_argument("--json", action="store_true")
    p_hard.set_defaults(func=_cmd_hard)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    p_sweep.add_argument("kind", choices=sorted(_SWEEPS))
    p_sweep.add_argument("--q", help="modulus range 'a..b' or comma list")
    p_sweep.add_argument("--T", help="threshold range 'a..b' or comma list")
    p_sweep.add_argument("--n", type=int, default=2)
    p_sweep.add_argument("--k", type=int, default=2)
    p_sweep.add_argument("--budget", type=int, default=16)
    p_sweep.add_argument("--samples", type=int, default=100)
    p_sweep.add_argument("--space", choices=("A", "P"), default="P")
    p_sweep.add_argument("--t-max", type=int)
    p_sweep.add_argument("--seed", type=int, default=0)
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
        if isinstance(exc, (InvalidInput, NotExtendableModQ)):
            code, prefix = EXIT_INFEASIBLE, "infeasible"
        else:
            code, prefix = EXIT_BUDGET, "budget exhausted"
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
