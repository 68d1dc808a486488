import csv
import errno
import hashlib
import io
import itertools
import json
import math
import os
import signal
import stat
import subprocess
import sys

import jsonschema
import pytest

from sllift import cli, lifting, oracle, records
from sllift.errors import DependentRows, NotExtendableModQ, NotSquare, SearchExhausted, SlliftError
from sllift.intmat import IntMatrix, det

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "docs", "record.schema.json")
SRC_PATH = os.path.join(os.path.dirname(__file__), "..", "src")


with open(SCHEMA_PATH) as fh:
    SCHEMA = json.load(fh)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records_from(out):
    return [json.loads(line) for line in out.strip().splitlines() if line.startswith("{")]


def strip_time(record):
    return {k: v for k, v in record.items() if k != "wall_time_ms"}


def process_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC_PATH, env.get("PYTHONPATH")]))
    return env


def run_process(argv, stdout=subprocess.PIPE):
    """Run the sllift CLI in a fresh interpreter, as a shell would."""
    return subprocess.run(
        [sys.executable, "-m", "sllift.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=process_env(),
        timeout=120,
    )


class TestParsing:
    def test_matrix_round_trip(self):
        assert cli.parse_matrix("5,0;0,5") == IntMatrix([[5, 0], [0, 5]])
        assert cli.parse_matrix(" -1 , 2 ; 3 , 4 ") == IntMatrix([[-1, 2], [3, 4]])

    def test_matrix_diagnostic_names_token(self, capsys):
        code, _, err = run(["lift", "--n", "2", "--q", "8", "--matrix", "5,zz;0,5"], capsys)
        assert code == 1
        assert "'zz'" in err

    def test_ragged_matrix(self, capsys):
        code, _, err = run(["lift", "--n", "2", "--q", "8", "--matrix", "5,0;5"], capsys)
        assert code == 1

    def test_wrong_shape(self, capsys):
        code, _, err = run(["lift", "--n", "3", "--q", "8", "--matrix", "5,0;0,5"], capsys)
        assert code == 1
        assert "expected 3x3" in err

    def test_range_forms(self):
        assert list(cli.parse_range("2..5")) == [2, 3, 4, 5]
        assert cli.parse_range("16,101,1024") == [16, 101, 1024]
        assert cli.parse_range("7") == [7]

    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run(["lift", "--bogus"], capsys)
        assert code == 1


class TestLiftCommand:
    @pytest.mark.parametrize("matrix", ["1,0;0,1", "random"])
    @pytest.mark.parametrize("n, q, flag", [("2", "0", "--q"), ("2", "-3", "--q"), ("1", "5", "--n")])
    def test_range_checks_are_usage_errors(self, capsys, n, q, flag, matrix):
        if n == "1" and matrix != "random":
            matrix = "1"
        code, out, err = run(["lift", "--n", n, "--q", q, "--matrix", matrix], capsys)
        assert code == cli.EXIT_USAGE == 1
        assert out == ""
        assert err.startswith(f"usage error: {flag} needs")

    def test_success(self, capsys):
        code, out, _ = run(
            ["lift", "--n", "2", "--q", "8", "--matrix", "5,0;0,5", "--json"], capsys
        )
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        gamma = record["results"]["gamma"]
        assert (gamma[0][0] * gamma[1][1] - gamma[0][1] * gamma[1][0]) == 1
        assert all((gamma[i][i] - 5) % 8 == 0 for i in range(2))

    def test_infeasible_det(self, capsys):
        code, _, err = run(["lift", "--n", "2", "--q", "8", "--matrix", "1,0;0,2"], capsys)
        assert code == 2
        assert "det" in err
        # the text of intmat.sl_class, the one check of a class mod q
        code, out, err = run(["lift", "--n", "2", "--q", "5", "--matrix", "2,0;0,2"], capsys)
        assert (code, out, err) == (2, "", "infeasible: det is 4 mod 5, need 1\n")

    def test_random_matrix(self, capsys):
        code, out, _ = run(
            ["lift", "--n", "3", "--q", "101", "--matrix", "random", "--seed", "5", "--json"],
            capsys,
        )
        assert code == 0

    def test_modulus_one(self, capsys):
        code, out, _ = run(["lift", "--n", "2", "--q", "1", "--matrix", "0,0;0,0"], capsys)
        assert code == 0

    def test_signed_residues_accepted(self, capsys):
        code, out, _ = run(
            ["lift", "--n", "2", "--q", "8", "--matrix", "-3,0;0,-3", "--json"], capsys
        )
        assert code == 0
        gamma = json.loads(out)["results"]["gamma"]
        assert all((gamma[i][i] + 3) % 8 == 0 for i in range(2))

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                ["--n", "2", "--q", "8", "--matrix", "5,0;0,5"],
                "lift n=2 q=8 seed=0 trials=2\n  5 8\n  8 13\nfirst_rows_max=8 last_row_max=13\n",
            ),
            (
                ["--n", "3", "--q", "101", "--matrix", "random", "--seed", "7"],
                "lift n=3 q=101 seed=7 trials=1\n  14 17 31\n  26 -50 39\n  -597 1080 -911\n"
                "first_rows_max=50 last_row_max=1080\n",
            ),
        ],
    )
    def test_text_output_is_pinned(self, capsys, argv, text):
        code, out, err = run(["lift", *argv], capsys)
        assert (code, out, err) == (0, text, "")

    @pytest.mark.parametrize("seed", [str(2**53 + 1), str(-(2**53) - 1)])
    def test_seed_beyond_two_to_the_53_is_usage_error(self, capsys, seed):
        code, out, err = run(["lift", "--n", "2", "--q", "5", "--matrix", "random", "--seed", seed], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: --seed needs S ") and err.endswith(f", got {seed}\n")

    @pytest.mark.parametrize("seed", [2**53, -(2**53)])
    def test_seed_at_two_to_the_53_is_a_bare_integer(self, capsys, seed):
        argv = ["lift", "--n", "2", "--q", "5", "--matrix", "random", "--seed", str(seed), "--json"]
        code, out, _ = run(argv, capsys)
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert record["seed"] == seed

    class _Unlisted(SlliftError):
        pass

    @pytest.mark.parametrize(
        "error, code, prefix",
        [
            (NotExtendableModQ, 2, "infeasible: "),
            (NotSquare, 2, "infeasible: "),
            (DependentRows, 2, "infeasible: "),
            (SearchExhausted, 3, "budget exhausted: "),
            (_Unlisted, 3, "budget exhausted: "),
        ],
    )
    def test_error_type_sets_exit_code(self, capsys, monkeypatch, error, code, prefix):
        def fail(*args, **kwargs):
            raise error("stub failure")

        monkeypatch.setattr(lifting, "lift", fail)
        got, out, err = run(["lift", "--n", "2", "--q", "8", "--matrix", "5,0;0,5"], capsys)
        assert got == code
        assert out == ""
        assert err == f"{prefix}stub failure\n"


class TestHardCommand:
    def test_verify_oracle(self, capsys):
        code, out, _ = run(
            ["hard", "--n", "2", "--q", "8", "--budget", "17", "--verify-oracle", "30", "--json"],
            capsys,
        )
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert record["results"]["oracle"]["verified"] is True

    @pytest.mark.parametrize("t_max, verified", [(7, True), (6, False)])
    def test_verify_oracle_without_a_lift_by_t_max(self, capsys, t_max, verified):
        # no lift of norm <= t_max proves L >= t_max + 1 (here L = 13): that
        # verifies bound 8 at t_max = 7, not at t_max = 6
        code, out, _ = run(["hard", "--trace-family-m", "1", "--verify-oracle", str(t_max), "--json"], capsys)
        assert code == 0
        oracle_record = json.loads(out)["results"]["oracle"]
        assert oracle_record == {"t_max": t_max, "min_lift_norm": None, "bound": 8, "verified": verified}

    def test_trace_family(self, capsys):
        code, out, _ = run(["hard", "--trace-family-m", "1", "--json"], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["trace_mod_q2"] == 18
        assert res["x"] == [[5, 0], [0, 5]]

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["--n", "2", "--q", "8"], "hard n=2 q=8 alpha=33 beta=15 |n*beta|=30 bound=15/31\n"),
            (
                ["--n", "2", "--q", "8", "--budget", "17", "--verify-oracle", "30"],
                "hard n=2 q=8 alpha=57 beta=11 |n*beta|=22 bound=11/7\n"
                "oracle: {'t_max': 30, 'min_lift_norm': 13, 'bound': 2, 'verified': True}\n",
            ),
            (
                ["--trace-family-m", "2", "--verify-oracle", "512"],
                "hard n=2 q=16 alpha=81 beta=9 |n*beta|=18 bound=32\n"
                "oracle: {'t_max': 512, 'min_lift_norm': 41, 'bound': 32, 'verified': True}\n",
            ),
        ],
    )
    def test_text_output_is_pinned(self, capsys, argv, text):
        code, out, err = run(["hard", *argv], capsys)
        assert (code, out, err) == (0, text, "")

    def test_text_output_when_the_oracle_runs_out_of_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "10")
        code, out, err = run(["hard", "--n", "2", "--q", "101", "--verify-oracle", "3000"], capsys)
        assert code == cli.EXIT_BUDGET
        assert out == (
            "hard n=2 q=101 alpha=10176 beta=2575 |n*beta|=5051 bound=5051/50\n"
            "oracle: {'error': 'candidate space 12 exceeds budget 10', 'flagged': True}\n"
        )
        assert err == "budget exhausted: candidate space 12 exceeds budget 10\n"

    @pytest.mark.parametrize(
        "argv",
        [["--n", "3", "--q", "5"], ["--n", "3"], ["--q", "5"]],
    )
    def test_trace_family_takes_no_n_or_q(self, capsys, argv):
        code, out, err = run(["hard", *argv, "--trace-family-m", "1", "--json"], capsys)
        assert code == cli.EXIT_USAGE == 1
        assert out == ""
        assert err == "usage error: hard --trace-family-m takes no --n or --q\n"

    def test_trace_family_takes_no_budget(self, capsys):
        code, out, err = run(["hard", "--trace-family-m", "2", "--budget", "3", "--json"], capsys)
        assert (code, out, err) == (1, "", "usage error: hard --trace-family-m takes no --budget\n")
        # without --budget the record still carries the default, as before
        code, out, _ = run(["hard", "--trace-family-m", "2", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["params"] == {
            "n": None,
            "q": None,
            "budget": 64,
            "trace_family_m": 2,
            "verify_oracle": None,
        }

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["--n", "1", "--q", "5"], "--n needs n >= 2, got 1"),
            (["--n", "2", "--q", "0"], "--q needs q >= 2, got 0"),
            (["--n", "2", "--q", "1"], "--q needs q >= 2, got 1"),
            (["--trace-family-m", "0"], "--trace-family-m needs M >= 1, got 0"),
            (["--trace-family-m", "-2"], "--trace-family-m needs M >= 1, got -2"),
        ],
    )
    def test_out_of_range_is_usage_error(self, capsys, argv, err):
        code, out, got = run(["hard", *argv, "--json"], capsys)
        assert (code, out, got) == (1, "", f"usage error: {err}\n")

    def test_large_fraction_parts_take_the_str_suffix(self, capsys):
        code, out, _ = run(["hard", "--n", "2", "--q", "1000000007", "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        assert record["results"]["lower_bound"] == {"numerator_str": "498950634803414467", "denominator": 78}

    def test_vacuous_flagged(self, capsys):
        code, out, _ = run(["hard", "--n", "2", "--q", "3", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["vacuous"] in (True, False)

    def test_needs_q(self, capsys):
        code, _, err = run(["hard", "--n", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize("t_max", ["0", "-3"])
    def test_verify_oracle_below_one_is_usage_error(self, capsys, t_max):
        code, out, err = run(["hard", "--n", "2", "--q", "8", "--verify-oracle", t_max], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "--verify-oracle" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(["hard", "--n", "2", "--q", "8", "--budget", budget], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --budget needs B >= 1, got {budget}\n"

    def test_seed_is_not_a_flag(self, capsys):
        # hard has no randomness; its records keep "seed": 0
        code, out, err = run(["hard", "--n", "2", "--q", "8", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "--seed" in err
        code, out, _ = run(["hard", "--n", "2", "--q", "8", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 0

    def test_prime_too_large_is_budget_exit(self, capsys):
        # 1000003 is a prime above the residue scan bound, and 3 | 1000002,
        # so cube roots mod it go through the unit scan (PrimeTooLarge)
        code, out, err = run(["hard", "--n", "3", "--q", "1000003"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("budget exhausted: ")
        assert len(err.strip().splitlines()) == 1

    @staticmethod
    def check_square_root_witness(q, capsys):
        code, out, _ = run(["hard", "--n", "2", "--q", str(q), "--json"], capsys)
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, SCHEMA)
        res = record["results"]
        w = {k.removesuffix("_str"): int(v) for k, v in res["witness"].items() if k != "method"}
        assert w["modulus"] == q * q
        assert pow(w["beta"], 2, q * q) == w["alpha"]
        x = IntMatrix([[int(v) for v in row] for row in res["x"]])
        assert det(x) % q == 1

    def test_square_roots_beyond_the_scan_bound(self, capsys):
        self.check_square_root_witness(1000003, capsys)

    def test_modulus_square_of_a_large_prime(self, capsys):
        # q^2 = (2^61 - 1)^2 has no factor rho finds within its step budget;
        # factorize splits it as a perfect square instead
        self.check_square_root_witness(2**61 - 1, capsys)


class TestSweeps:
    def test_counts_first_row(self, capsys):
        code, out, _ = run(["sweep", "counts", "--n", "2", "--T", "1..3"], capsys)
        assert code == 0
        rows = records_from(out)
        assert rows[0]["results"] == {"T": 1, "count": 20, "ratio": 20.0}
        for row in rows:
            jsonschema.validate(row, SCHEMA)

    def test_n2_counts_sweep_reuses_one_prefix(self, capsys):
        # each threshold reads the cached sieve at the power of two above it
        # (at least 256), so T = 1..512 sieves at most ceil(log2 512) + 1
        # times, and every point reads the known count
        oracle._n2_sieve.cache_clear()
        code, out, _ = run(["sweep", "counts", "--n", "2", "--T", "1..512"], capsys)
        assert code == 0
        assert oracle._n2_sieve.cache_info().misses <= math.ceil(math.log2(512)) + 1
        counts = [r["results"]["count"] for r in records_from(out)]
        assert counts == [oracle.count_sl(oracle.EnumSpec(n=2, caps=(t, t))) for t in range(1, 513)]

    def test_skewed_sweep_reuses_one_sieve(self, capsys, monkeypatch):
        # mu comes from the same cached sieve, not one sieve per point
        oracle._n2_sieve.cache_clear()
        calls = []
        real = oracle.small_primes
        monkeypatch.setattr(oracle, "small_primes", lambda limit: calls.append(limit) or real(limit))
        code, _, _ = run(["sweep", "skewed", "--n", "2", "--T", "1..200"], capsys)
        assert code == 0
        assert len(calls) <= math.ceil(math.log2(200)) + 1

    def test_skewed_sweep_at_t0_counts_the_empty_box(self, capsys):
        # as sweep counts does at T = 0; a negative T stays a flagged point
        code, out, _ = run(["sweep", "skewed", "--n", "2", "--T=-1..1"], capsys)
        assert code == 0
        negative, zero, one = (r["results"] for r in records_from(out))
        assert negative["flagged"] and "positive caps" in negative["error"]
        assert zero == {"T": 0, "count": 0, "normalized": None}
        assert one == {"T": 1, "count": 20, "normalized": 20.0}
        code, out, _ = run(["sweep", "counts", "--n", "2", "--T", "0"], capsys)
        assert records_from(out)[0]["results"] == {"T": 0, "count": 0, "ratio": None}

    def test_each_record_times_its_own_point(self, capsys, monkeypatch):
        # a clock that advances 0.25 s per read: each point takes one step
        ticks = itertools.count()
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(ticks) / 4)
        code, out, _ = run(["sweep", "counts", "--n", "3", "--T", "3,1,3"], capsys)
        assert code == 0
        assert [r["wall_time_ms"] for r in records_from(out)] == [250, 250, 250]

    def test_roots_sweep(self, capsys):
        code, out, _ = run(["sweep", "roots", "--q", "2..20", "--n", "2", "--k", "2"], capsys)
        assert code == 0
        rows = records_from(out)
        assert len(rows) == 19
        for row in rows:
            res = row["results"]
            assert pow(res["beta"], 2, row["params"]["q"]) == res["alpha"] % row["params"]["q"]

    def test_roots_target_is_exact_at_perfect_powers(self, capsys):
        # ceil(8^(2/3)) = 4; the float form 8 ** (1 - 1/3) rounds above 4
        code, out, _ = run(["sweep", "roots", "--q", "8,9,27", "--k", "3"], capsys)
        assert code == 0
        assert [r["results"]["target"] for r in records_from(out)] == [4, 5, 9]

    def test_roots_target_beyond_float_range(self, capsys):
        q = 10**320
        code, out, _ = run(["sweep", "roots", "--q", str(q)], capsys)
        assert code == 0
        (row,) = records_from(out)
        assert row["results"]["target_str"] == str(10**160)
        assert not row["results"]["flagged"]
        jsonschema.validate(row, SCHEMA)

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_roots_k_below_one_is_usage_error(self, capsys, k):
        code, out, err = run(["sweep", "roots", "--q", "5", "--k", k], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --k needs K >= 1, got {k}\n"

    def test_roots_k_above_64_is_usage_error_before_any_point(self, capsys):
        code, out, err = run(["sweep", "roots", "--q", "2..5", "--k", "65"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: --k needs K <= 64, got 65\n"

    def test_roots_k_64_beyond_float_range(self, capsys):
        code, out, _ = run(["sweep", "roots", "--q", str(10**320), "--k", "64"], capsys)
        assert code == 0
        (row,) = records_from(out)
        assert row["params"]["k"] == 64
        jsonschema.validate(row, SCHEMA)

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("counts --T 1..3 --k 0", "--k needs K >= 1, got 0"),
            ("diameter --q 2..4 --samples 0", "--samples needs S >= 1, got 0"),
            ("counts --T 1..3 --budget 0", "--budget needs B >= 1, got 0"),
        ],
        ids=["counts-k", "diameter-samples", "counts-budget"],
    )
    def test_bounds_hold_for_every_sweep_kind(self, capsys, argv, message):
        # bounds are checked at parse time, whether or not the kind reads the flag
        code, out, err = run(["sweep", *argv.split()], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {message}\n"

    def test_non_integer_flag_keeps_the_argparse_message(self, capsys):
        code, out, err = run(["sweep", "roots", "--q", "5", "--k", "2.5"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: argument --k: invalid int value: '2.5'\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_roots_budget_below_one_is_usage_error(self, capsys, budget):
        code, out, err = run(["sweep", "roots", "--q", "2..20", "--budget", budget], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --budget needs B >= 1, got {budget}\n"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_lift_bounds_samples_below_one_is_usage_error(self, capsys, samples):
        code, out, err = run(["sweep", "lift-bounds", "--q", "5", "--samples", samples], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --samples needs S >= 1, got {samples}\n"

    def test_missing_range_is_usage_error(self, capsys):
        code, _, err = run(["sweep", "roots"], capsys)
        assert code == 1
        assert "--q" in err

    @pytest.mark.parametrize(
        "kind, flag",
        [("counts", "--T"), ("skewed", "--T"), ("diameter", "--q"), ("lift-bounds", "--q")],
    )
    def test_each_sweep_names_its_missing_range(self, capsys, kind, flag):
        code, out, err = run(["sweep", kind], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: sweep {kind} needs {flag}\n"

    def test_non_integer_env_budget_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "abc")
        code, out, err = run(["sweep", "counts", "--n", "2", "--T", "3"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")
        assert "SLLIFT_BUDGET" in err and "'abc'" in err

    def test_negative_env_budget_is_usage_error(self, capsys, monkeypatch):
        # not a budget every point exceeds (exit 3); 0 stays a valid budget
        monkeypatch.setenv("SLLIFT_BUDGET", "-5")
        code, out, err = run(["sweep", "counts", "--n", "3", "--T", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ")
        assert "SLLIFT_BUDGET" in err and "'-5'" in err

    def test_csv_and_jsonl_outputs(self, tmp_path, capsys):
        csv_path = str(tmp_path / "out.csv")
        jsonl_path = str(tmp_path / "out.jsonl")
        code, out, _ = run(
            ["sweep", "skewed", "--n", "2", "--T", "1..3", "--csv", csv_path, "--jsonl", jsonl_path],
            capsys,
        )
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[0]["results.T"] == "1"
        with open(jsonl_path) as fh:
            lines = [json.loads(line) for line in fh]
        assert [strip_time(r) for r in lines] == [strip_time(r) for r in records_from(out)]

    def test_outputs_take_the_umask_mode(self, tmp_path, capsys):
        # as a plain open() would create them, not mkstemp's private 0600
        jsonl_path = tmp_path / "out.jsonl"
        saved = os.umask(0o022)
        try:
            code, _, _ = run(["sweep", "counts", "--n", "2", "--T", "1..2", "--jsonl", str(jsonl_path)], capsys)
        finally:
            os.umask(saved)
        assert code == 0
        assert jsonl_path.stat().st_mode & 0o777 == 0o644

    def test_diameter_sweep(self, capsys):
        code, out, _ = run(["sweep", "diameter", "--space", "P", "--n", "2", "--q", "2..4"], capsys)
        assert code == 0
        rows = records_from(out)
        assert [r["results"]["diameter_norm"] for r in rows] == [1, 1, 2]

    def test_n1_affine_diameter_sweep_flags_invalid_input_not_budget(self, capsys):
        # q = 2 has one point; above it SL_1(Z) = {1} joins no two points
        code, out, _ = run(["sweep", "diameter", "--space", "A", "--n", "1", "--q", "2..4"], capsys)
        assert code == 0
        two, *rest = (r["results"] for r in records_from(out))
        assert two["diameter_norm"] == 1
        for q, results in zip((3, 4), rest):
            assert results == {
                "error": f"SL_1(Z) = {{1}} fixes every point, so the affine line mod {q} has no diameter",
                "flagged": True,
            }
        code, out, _ = run(["sweep", "diameter", "--space", "P", "--n", "1", "--q", "3"], capsys)
        assert records_from(out)[0]["results"]["diameter_norm"] == 1

    def test_diameter_sweep_n_below_one_is_flagged(self, capsys):
        code, out, err = run(["sweep", "diameter", "--space", "A", "--n", "0", "--q", "2"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: --n needs n >= 1, got 0\n"

    @pytest.mark.parametrize(
        "argv",
        [["counts", "--T", "1"], ["roots", "--q", "5"], ["diameter", "--q", "3"], ["lift-bounds", "--q", "3"]],
    )
    def test_sweep_n_below_one_is_usage_error(self, capsys, argv):
        code, out, err = run(["sweep", *argv, "--n", "0"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: --n needs n >= 1, got 0\n"

    def test_lift_bounds_sweep_n_one_is_usage_error(self, capsys):
        code, out, err = run(["sweep", "lift-bounds", "--n", "1", "--q", "3"], capsys)
        assert code == 1
        assert out == ""
        assert err == "usage error: lift-bounds sweep needs n >= 2, got 1\n"

    def test_diameter_t_max_is_8q_and_not_a_flag(self, capsys):
        code, out, _ = run(["sweep", "diameter", "--n", "2", "--q", "3,5"], capsys)
        assert code == 0
        assert [r["params"]["t_max"] for r in records_from(out)] == [24, 40]
        code, out, err = run(["sweep", "diameter", "--n", "2", "--q", "3", "--t-max", "7"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error: ") and "--t-max" in err

    def test_seed_is_bounded_by_two_to_the_53(self, capsys):
        argv = ["sweep", "lift-bounds", "--n", "2", "--q", "5", "--samples", "2", "--seed"]
        code, out, err = run([*argv, str(2**53 + 1)], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --seed needs S <= {2**53}, got {2**53 + 1}\n"
        for seed in (2**53, -(2**53)):
            code, out, _ = run([*argv, str(seed)], capsys)
            assert code == 0
            (record,) = records_from(out)
            jsonschema.validate(record, SCHEMA)
            assert record["seed"] == seed

    def test_lift_bounds_sweep(self, capsys):
        code, out, _ = run(
            ["sweep", "lift-bounds", "--n", "2", "--q", "16", "--samples", "5", "--seed", "3"],
            capsys,
        )
        assert code == 0
        res = records_from(out)[0]["results"]
        assert res["max_first_ratio"] > 0
        assert res["max_last_ratio"] > 0

    def test_all_points_fail_exit_code(self, capsys, monkeypatch):
        monkeypatch.setenv("SLLIFT_BUDGET", "10")
        code, out, _ = run(["sweep", "counts", "--n", "2", "--T", "50..52"], capsys)
        assert code == 3
        for row in records_from(out):
            assert row["results"]["flagged"] is True

    def test_determinism_byte_identical(self, capsys):
        argv = ["sweep", "roots", "--q", "2..12", "--n", "2", "--seed", "9"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        a = [strip_time(r) for r in records_from(out1)]
        b = [strip_time(r) for r in records_from(out2)]
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    @pytest.mark.parametrize(
        "n,q,digest",
        [
            (2, "2..2000", "8fa6daa4e316ab9f490d22999b5504510ddca4cf9516c49dd320bca41cd9384e"),
            (3, "2..1000", "daf5cd65896bceb600d564f48ec3a25285597ba148d5ad4463996ba59207f0e6"),
        ],
        ids=["n2", "n3"],
    )
    def test_roots_records_match_pinned_digest(self, capsys, n, q, digest):
        # sha256 of the records (wall_time_ms dropped) as the exhaustive
        # unit scan produced them for every n; square roots now come from
        # Tonelli-Shanks and must not change a byte
        _, out, _ = run(["sweep", "roots", "--q", q, "--n", str(n)], capsys)
        rows = [strip_time(r) for r in records_from(out)]
        assert hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest() == digest


class TestNoTracebackEscapes:
    def test_lift_beyond_float_range_emits_null_estimate(self):
        q = 10**160 + 7
        proc = run_process(["lift", "--n", "2", "--q", str(q), "--matrix", "random", "--json"])
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        record = json.loads(proc.stdout)
        assert record["results"]["op_norm_estimate"] is None
        jsonschema.validate(record, SCHEMA)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "roots", "--q", str(10**320), "--k", "1"],
            ["sweep", "lift-bounds", "--q", str(10**320), "--samples", "1"],
            ["sweep", "skewed", "--T", str(10**110)],
        ],
        ids=["roots", "lift-bounds", "skewed"],
    )
    def test_sweep_point_beyond_float_range_is_flagged(self, argv):
        proc = run_process(argv)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        (record,) = records_from(proc.stdout)
        assert record["results"]["flagged"] is True
        assert record["results"]["error"]
        jsonschema.validate(record, SCHEMA)

    def test_lift_bounds_negative_q_is_flagged(self):
        # random_sl_matrix refuses every q < 1 before log2(q + 2) can fail at q <= -2
        proc = run_process(["sweep", "lift-bounds", "--n", "2", "--q=-3..0", "--samples", "1"])
        assert proc.returncode == 3
        assert proc.stderr == ""
        rows = records_from(proc.stdout)
        assert [r["params"]["q"] for r in rows] == [-3, -2, -1, 0]
        for row in rows:
            q = row["params"]["q"]
            error = f"need q >= 1, got {q}"
            assert row["results"] == {"error": error, "flagged": True}
            jsonschema.validate(row, SCHEMA)

    def test_skewed_point_beyond_index_range_reports_budget(self, capsys):
        code, out, _ = run(["sweep", "skewed", "--T", str(10**110)], capsys)
        assert code == 3
        (record,) = records_from(out)
        space = (2 * 10**110 + 1) ** 2
        error = f"candidate space {space} exceeds budget {10**9}"
        assert record["results"] == {"error": error, "flagged": True}

    def test_csv_in_missing_directory_is_refused_before_the_sweep(self, tmp_path):
        path = str(tmp_path / "missing" / "out.csv")
        proc = run_process(["sweep", "counts", "--n", "2", "--T", "1..2", "--csv", path])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"usage error: --csv {path} is not a file in an existing directory\n"

    def test_jsonl_at_a_directory_is_refused_before_the_sweep(self, tmp_path):
        proc = run_process(["sweep", "counts", "--n", "2", "--T", "1..2", "--jsonl", str(tmp_path)])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"usage error: --jsonl {tmp_path} is not a file in an existing directory\n"

    @pytest.mark.parametrize("flag", ["--csv", "--jsonl"])
    def test_output_at_a_fifo_is_refused_before_the_sweep(self, tmp_path, capsys, flag):
        # the final rename would replace the FIFO with a regular file
        path = str(tmp_path / "out")
        os.mkfifo(path)
        code, out, err = run(["sweep", "counts", "--n", "2", "--T", "1..2", flag, path], capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: {flag} {path} is not a regular file\n"
        assert stat.S_ISFIFO(os.stat(path).st_mode)

    def test_output_at_a_symlink_is_written_through_the_link(self, tmp_path, capsys):
        # a rename onto the link itself would replace it with a regular file and leave the target as it was
        (tmp_path / "sub").mkdir()
        target, link = tmp_path / "sub" / "target", tmp_path / "link"
        target.write_text("old")
        link.symlink_to(target)
        code, out, _ = run(["sweep", "counts", "--n", "2", "--T", "1..2", "--jsonl", str(link)], capsys)
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == out
        assert [r["results"]["count"] for r in records_from(out)] == [20, 52]
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["link", "sub", "target"]

    def test_csv_and_jsonl_at_one_file_are_refused_before_the_sweep(self, tmp_path, capsys):
        # the second write would silently replace the first
        (tmp_path / "sub").mkdir()
        path = str(tmp_path / "out")
        alias = str(tmp_path / "sub" / ".." / "out")
        argv = ["sweep", "counts", "--n", "2", "--T", "1..3", "--csv", path, "--jsonl", alias]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == f"usage error: --csv and --jsonl name the same file {path}\n"
        assert not os.path.exists(path)

    def test_failed_final_write_is_one_line(self, tmp_path, capsys, monkeypatch):
        def no_space(path, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(records, "write_atomic", no_space)
        path = str(tmp_path / "out.csv")
        code, out, err = run(["sweep", "counts", "--n", "2", "--T", "1..2", "--csv", path], capsys)
        assert code == 1
        assert len(records_from(out)) == 2
        assert err == f"usage error: cannot write --csv {path}: {os.strerror(errno.ENOSPC)}\n"

    def test_closed_stdout_exits_one_quietly(self):
        # stdout is a pipe whose reader is already gone, as in `| head -1`
        # once head has exited
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_process(["sweep", "diameter", "--q", "2..4"], stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    def test_sigint_exits_130_with_one_line(self, tmp_path):
        # the n = 3 points at T = 8 and 9 take seconds each, so the sweep is
        # still running when the signal arrives after the first record.
        # Unbuffered pipes: readline then takes exactly one line, and any
        # later record written before the signal is left for communicate.
        jsonl = tmp_path / "points.jsonl"
        argv = [*"sweep counts --n 3 --T 1..9 --jsonl".split(), str(jsonl)]
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "sllift.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            bufsize=0,
            env=process_env(),
        )
        try:
            first = proc.stdout.readline().decode()
            proc.send_signal(signal.SIGINT)
            rest, err = (out.decode() for out in proc.communicate(timeout=60))
        finally:
            proc.kill()
            proc.wait()
        assert json.loads(first)["params"] == {"T": 1, "n": 3}
        assert proc.returncode == cli.EXIT_INTERRUPTED == 130
        assert err == "interrupted\n"
        assert all(json.loads(line)["command"] == "sweep-counts" for line in rest.splitlines())
        # the file keeps exactly the records printed before the signal
        assert jsonl.read_text() == first + rest

    def test_sigint_right_after_a_print_keeps_that_record(self, tmp_path, capsys, monkeypatch):
        # the signal lands between a point's print and its keeping for the
        # files; the sweep must still save exactly what it printed
        jsonl = tmp_path / "points.jsonl"
        sent = []

        def print_then_interrupt(*args, **kwargs):
            print(*args, **kwargs)
            if not sent:
                sent.append(True)
                os.kill(os.getpid(), signal.SIGINT)

        monkeypatch.setattr(cli, "print", print_then_interrupt, raising=False)
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            code, out, err = run(["sweep", "counts", "--n", "2", "--T", "1..3", "--jsonl", str(jsonl)], capsys)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert code == cli.EXIT_INTERRUPTED == 130
        assert err == "interrupted\n"
        assert len(out.splitlines()) == 1
        assert jsonl.read_text() == out
        assert signal.SIGINT not in signal.pthread_sigmask(signal.SIG_BLOCK, [])

    def test_huge_range_streams_and_exits_130(self):
        # 10^12 points: the range stays lazy, so the first record comes at once
        argv = "sweep counts --n 2 --T 1..1000000000000".split()
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "sllift.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=process_env(),
        )
        try:
            first = proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert json.loads(first)["results"]["count"] == 20
        assert proc.returncode == cli.EXIT_INTERRUPTED == 130
        assert err == "interrupted\n"


class TestRecords:
    def test_non_finite_floats_become_null(self):
        rec = records.make_record("t", {}, 0, {"v": math.inf, "w": [-math.inf, math.nan]}, 0)
        assert rec["results"] == {"v": None, "w": [None, None]}
        assert records.dumps(rec).endswith('"results":{"v":null,"w":[null,null]},"wall_time_ms":0}')

    def test_big_int_becomes_str_suffix(self):
        rec = records.make_record("t", {"big": 2**60}, 0, {"v": [2**60, 1]}, 3)
        assert rec["params"]["big_str"] == str(2**60)
        assert rec["results"]["v"] == [str(2**60), 1]
        jsonschema.validate(rec, SCHEMA)

    def test_fraction_and_matrix_encoding(self):
        from fractions import Fraction

        rec = records.make_record(
            "t", {}, 0, {"bound": Fraction(11, 7), "x": IntMatrix([[1, 0], [0, 1]])}, 0
        )
        assert rec["results"]["bound"] == {"numerator": 11, "denominator": 7}
        assert rec["results"]["x"] == [[1, 0], [0, 1]]

    def test_large_fraction_parts_take_the_str_suffix(self):
        from fractions import Fraction

        rec = records.make_record("t", {}, 0, {"bound": Fraction(-(2**60), 2**61 - 1)}, 0)
        assert rec["results"]["bound"] == {"numerator_str": str(-(2**60)), "denominator_str": str(2**61 - 1)}
        jsonschema.validate(rec, SCHEMA)

    def test_atomic_write(self, tmp_path):
        path = str(tmp_path / "f.txt")
        records.write_atomic(path, "hello")
        assert open(path).read() == "hello"
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert not leftovers

    def test_csv_quoting(self):
        rec = records.make_record("t", {"s": 'a,"b"'}, 0, {"v": 1}, 0)
        text = records.to_csv([rec])
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1][parsed[0].index("params.s")] == 'a,"b"'
