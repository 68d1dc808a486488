"""The one reader of integer arguments (errors.as_int, errors.as_ints), the
one reader of matrices (intmat.as_matrix), every public call that reads its
integers or matrices through them, and the one base class of input faults."""

import re

import pytest

from sllift import actions, errors, hardness, intmat, lifting, oracle, residue
from sllift.errors import BadShape, InvalidInput, NotSquare, SlliftError, as_int, as_ints
from sllift.intmat import IntMatrix
from sllift.residue import Residue

I2 = IntMatrix.identity(2)
UNIT = Residue(4, 7)
A5, B5 = actions.PointA(5, (1, 0)), actions.PointA(5, (0, 1))
P5, Q5 = actions.PointP(5, (1, 0)), actions.PointP(5, (0, 1))

# (function, argument, its least value or None, a valid value, the call with
# that argument set to v and every other argument valid)
CASES = [
    ("actions.canonical_rep", "q", 1, 5, lambda v: actions.canonical_rep((1, 2), v)),
    ("actions.PointA", "q", 1, 5, lambda v: actions.PointA(v, (1, 0))),  # actions._primitive
    ("actions.PointP", "q", 1, 5, lambda v: actions.PointP(v, (1, 0))),
    ("actions.dist_affine", "t_max", 0, 4, lambda v: actions.dist_affine(A5, B5, v)),
    ("actions.dist_projective", "t_max", 0, 4, lambda v: actions.dist_projective(P5, Q5, v)),
    ("actions.diameter_profile", "n", 1, 2, lambda v: actions.diameter_profile("A", v, 3, 4)),
    ("actions.diameter_profile", "q", 2, 3, lambda v: actions.diameter_profile("P", 2, v, 4)),
    ("actions.diameter_profile", "t_max", 0, 4, lambda v: actions.diameter_profile("A", 2, 3, v)),
    ("actions.projective_bad_pair", "q", 2, 4, lambda v: actions.projective_bad_pair(v)),
    ("hardness.find_large_root", "modulus", 2, 11, lambda v: hardness.find_large_root(v, 2, 4)),
    ("hardness.find_large_root", "n", 1, 2, lambda v: hardness.find_large_root(11, v, 4)),
    ("hardness.find_large_root", "alpha_budget", 1, 4, lambda v: hardness.find_large_root(11, 2, v)),
    ("hardness.find_large_root", "target", None, 5, lambda v: hardness.find_large_root(11, 2, 4, target=v)),
    ("hardness.small_p_factor_root", "q", 2, 15, lambda v: hardness.small_p_factor_root(v, 2, 2)),
    ("hardness.small_p_factor_root", "n", 1, 2, lambda v: hardness.small_p_factor_root(15, v, 2)),
    ("hardness.small_p_factor_root", "k", 1, 2, lambda v: hardness.small_p_factor_root(15, 2, v)),
    ("hardness.small_nth_powers", "q", 2, 11, lambda v: hardness.small_nth_powers(v, 2, 2)),
    ("hardness.small_nth_powers", "n", 1, 2, lambda v: hardness.small_nth_powers(11, v, 2)),
    ("hardness.small_nth_powers", "count", 1, 2, lambda v: hardness.small_nth_powers(11, 2, v)),
    ("hardness.hard_instance", "q", 2, 11, lambda v: hardness.hard_instance(v, 2, 4)),
    ("hardness.hard_instance", "n", 1, 2, lambda v: hardness.hard_instance(11, v, 4)),
    ("hardness.hard_instance", "alpha_budget", 1, 4, lambda v: hardness.hard_instance(11, 2, v)),
    ("hardness.trace_family_instance", "m", 1, 1, lambda v: hardness.trace_family_instance(v)),
    ("hardness.RootWitness", "modulus", 1, 15, lambda v: hardness.RootWitness(v, 2, Residue(4, 15), Residue(2, 15))),
    ("hardness.RootWitness", "n", 1, 2, lambda v: hardness.RootWitness(15, v, Residue(4, 15), Residue(2, 15))),
    ("intmat.IntMatrix.identity", "n", 1, 2, lambda v: IntMatrix.identity(v)),
    ("intmat.IntMatrix.reduce_mod", "q", 1, 5, lambda v: I2.reduce_mod(v)),
    ("intmat.sl_class", "q", 1, 5, lambda v: intmat.sl_class([[1, 0], [0, 1]], v)),
    ("intmat.solve_mod", "q", 1, 5, lambda v: intmat.solve_mod(I2, (1, 1), v)),
    ("intmat.adjugate_mod", "q", 1, 5, lambda v: intmat.adjugate_mod(I2, v)),
    ("lifting.lift_rows", "q", 1, 5, lambda v: lifting.lift_rows(IntMatrix([[1, 2]]), v, 0)),
    ("lifting.random_sl_matrix", "n", 2, 2, lambda v: lifting.random_sl_matrix(v, 5, 0)),
    ("lifting.random_sl_matrix", "q", 1, 5, lambda v: lifting.random_sl_matrix(2, v, 0)),
    ("oracle.EnumSpec", "n", 1, 2, lambda v: oracle.EnumSpec(n=v, caps=(1, 1))),
    ("oracle.iter_shell", "n", 1, 2, lambda v: oracle.iter_shell(v, 1)),
    ("oracle.iter_shell", "m", 1, 1, lambda v: oracle.iter_shell(2, v)),
    # q < 0 without a target keeps the congruence text (test below)
    ("oracle.EnumSpec", "q", None, 0, lambda v: oracle.EnumSpec(n=2, caps=(1, 1), q=v)),
    ("oracle.min_lift_norm", "q", 1, 5, lambda v: oracle.min_lift_norm(I2, v, 4)),
    ("oracle.min_lift_norm", "t_max", 1, 4, lambda v: oracle.min_lift_norm(I2, 5, v)),
    ("oracle.norm_count_table", "n", 1, 2, lambda v: oracle.norm_count_table(v, [1, 2])),
    ("oracle.norm_count_table", "T", 0, 2, lambda v: oracle.norm_count_table(2, [1, v])),
    ("oracle.sl_order", "n", 1, 2, lambda v: oracle.sl_order(v, 5)),
    ("oracle.sl_order", "q", 1, 5, lambda v: oracle.sl_order(2, v)),
    ("residue.Residue", "value", None, 3, lambda v: Residue(v, 7)),
    ("residue.Residue", "modulus", 1, 7, lambda v: Residue(3, v)),
    # the valid call runs first, so 12.0 meets 12's lru_cache entry
    ("residue.factorize", "m", 1, 12, lambda v: residue.factorize(v)),
    ("residue.crt", "modulus", 1, 2, lambda v: residue.crt([(1, v), (1, 3)])),
    ("residue.crt", "residue", None, 1, lambda v: residue.crt([(v, 2), (1, 3)])),
    ("residue.int_nth_root", "x", 0, 8, lambda v: residue.int_nth_root(v, 3)),
    ("residue.int_nth_root", "n", 1, 3, lambda v: residue.int_nth_root(8, v)),
    ("residue.nth_roots", "n", 1, 2, lambda v: residue.nth_roots(UNIT, v)),
    ("residue.nth_roots", "limit", None, 5, lambda v: residue.nth_roots(UNIT, 2, limit=v)),
    ("residue.is_nth_power_residue", "n", 1, 2, lambda v: residue.is_nth_power_residue(UNIT, v)),
]


@pytest.mark.parametrize("name, low, good, call", [c[1:] for c in CASES], ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_integer_arguments_are_read_by_one_reader(name, low, good, call):
    call(good)
    for bad in (float(good), str(good)):
        with pytest.raises(InvalidInput, match=f"^need integers, got {re.escape(repr(bad))}$"):
            call(bad)
    if low is not None:
        with pytest.raises(InvalidInput, match=f"^need {name} >= {low}, got {low - 1}$"):
            call(low - 1)


def test_invalid_input_is_a_package_error_and_a_value_error():
    # factorize(0) and Residue(3, 0) raised a bare ValueError, which callers
    # that catch SlliftError missed; old `except ValueError` callers still catch it
    for call in (lambda: residue.factorize(0), lambda: Residue(3, 0), lambda: residue.nth_roots(UNIT, 0)):
        with pytest.raises(InvalidInput) as exc:
            call()
        assert isinstance(exc.value, SlliftError) and isinstance(exc.value, ValueError)


def test_root_witness_checks_raise_invalid_input():
    with pytest.raises(InvalidInput, match="^beta\\^n != alpha$"):
        hardness.RootWitness(15, 2, Residue(4, 15), Residue(3, 15))
    with pytest.raises(InvalidInput, match="^beta is not a unit$"):
        hardness.RootWitness(15, 2, Residue(0, 15), Residue(0, 15))


def test_root_witness_needs_its_residues_mod_its_modulus():
    # Residue(4, 7) and Residue(2, 7) were accepted under modulus 15
    with pytest.raises(InvalidInput, match="^need alpha, beta mod 15, got mod 7, 7$"):
        hardness.RootWitness(15, 2, Residue(4, 7), Residue(2, 7))
    with pytest.raises(InvalidInput, match="^need alpha, beta mod 15, got mod 15, 7$"):
        hardness.RootWitness(15, 2, Residue(4, 15), Residue(2, 7))


NOT_READ = [
    ("IntMatrix", lambda: IntMatrix(5), 5),
    ("IntMatrix-row", lambda: IntMatrix([5]), 5),
    ("sl_class", lambda: intmat.sl_class(5, 5), 5),
    ("norm_count_table", lambda: oracle.norm_count_table(2, 5), 5),
    ("EnumSpec", lambda: oracle.EnumSpec(n=2, caps=5), 5),
    ("PointA", lambda: actions.PointA(5, 3), 3),
    ("crt", lambda: residue.crt(5), 5),
    ("crt-pair", lambda: residue.crt([(1, 2), 3]), 3),
    ("size_reduce-c", lambda: intmat.size_reduce((7, 1), [[3, 5]], 5), 5),
    ("complete_rows-c", lambda: lifting.complete_rows([[3, 5]], 5), 5),
    # the minors were never read: size_reduce returned (4.0, -4.0)
    ("size_reduce-float-c", lambda: intmat.size_reduce((7, 1), [[3, 5]], (-5, 3.0)), 3.0),
    ("complete_rows-float-c", lambda: lifting.complete_rows([[3, 5]], (-5, 3.0)), 3.0),
]


@pytest.mark.parametrize("call, bad", [c[1:] for c in NOT_READ], ids=[c[0] for c in NOT_READ])
def test_an_argument_is_read_before_use(call, bad):
    # each raised a bare TypeError ("'int' object is not iterable"), or read a float
    with pytest.raises(InvalidInput, match=f"^need integers, got {bad}$"):
        call()


def test_crt_reads_each_congruence_as_a_pair():
    assert residue.crt([[True, 2], (2, 3)]) == Residue(5, 6)
    with pytest.raises(InvalidInput, match=r"^need \(residue, modulus\) pairs, got \(\(1, 2\), \(1, 3, 5\)\)$"):
        residue.crt([(1, 2), (1, 3, 5)])


SQUARE, SHORT = ("a square matrix", NotSquare), ("an (n-1) x n matrix", BadShape)
# (function, the shape it needs or None for any, a valid matrix, the call with
# that matrix set to m and every other argument valid)
MATRIX_CASES = [
    ("intmat.det", SQUARE, [[2, 1], [1, 1]], lambda m: intmat.det(m)),
    ("intmat.sl_class", SQUARE, [[2, 1], [1, 1]], lambda m: intmat.sl_class(m, 5)),
    ("intmat.adjugate_mod", SQUARE, [[2, 1], [1, 1]], lambda m: intmat.adjugate_mod(m, 5)),
    ("intmat.solve_mod", SQUARE, [[2, 1], [1, 1]], lambda m: intmat.solve_mod(m, (1, 2), 5)),
    ("intmat.maximal_minors", SHORT, [[3, 5]], lambda m: intmat.maximal_minors(m)),
    ("intmat.size_reduce", SHORT, [[3, 5]], lambda m: intmat.size_reduce((7, 1), m, (-5, 3))),
    ("lifting.lift_rows", SHORT, [[3, 5]], lambda m: lifting.lift_rows(m, 7, 0)),
    ("lifting.complete_rows", SHORT, [[3, 5]], lambda m: lifting.complete_rows(m, (-5, 3))),
    ("intmat.op_norm_estimate", None, [[3, -9]], lambda m: intmat.op_norm_estimate(m)),
    ("intmat.norm_report", None, [[3, -9]], lambda m: intmat.norm_report(m)),
]
# a shape each needed shape refuses
WRONG = {SQUARE: [[1, 2]], SHORT: [[1, 2], [3, 4]]}


@pytest.mark.parametrize("shape, good, call", [c[1:] for c in MATRIX_CASES], ids=[c[0] for c in MATRIX_CASES])
def test_matrix_arguments_are_read_by_one_reader(shape, good, call):
    # integer rows gave a bare AttributeError everywhere but sl_class
    assert call(good) == call(IntMatrix(good))
    with pytest.raises(InvalidInput, match="^need integers, got 5$"):
        call(5)
    with pytest.raises(InvalidInput, match="^need integers, got 2.5$"):
        call([[1, 2.5], [0, 1]])
    with pytest.raises(BadShape, match=r"^need rows of one positive length, got rows of lengths \(2, 1\)$"):
        call([[1, 2], [3]])
    if shape is not None:
        text, error = shape
        wrong = WRONG[shape]
        lengths = re.escape(str(tuple(map(len, wrong))))
        for m in (wrong, IntMatrix(wrong)):
            with pytest.raises(error, match=f"^need {re.escape(text)}, got rows of lengths {lengths}$"):
                call(m)


INPUT_FAULTS = [
    "BadShape", "NotSquare", "NotInvertible", "DependentRows", "NotExtendable", "NotExtendableModQ", "NotUnit", "NotCoprime",
]
LIMITS = [
    "BudgetExceeded", "FactorLimitExceeded", "PrimeTooLarge", "TooManyRoots", "SearchExhausted", "SieveExhausted", "NoUnitAlpha",
]


def test_every_input_fault_is_an_invalid_input_and_no_limit_is():
    # NotSquare, BadShape, ... derived from SlliftError alone, so `except
    # InvalidInput` (and the CLI's exit 2) missed them
    classes = {n: c for n, c in vars(errors).items() if isinstance(c, type) and issubclass(c, SlliftError)}
    assert set(classes) == {"SlliftError", "InvalidInput", *INPUT_FAULTS, *LIMITS}
    assert issubclass(errors.NotSquare, BadShape)
    assert [n for n in INPUT_FAULTS if not issubclass(classes[n], InvalidInput)] == []
    assert [n for n in LIMITS if issubclass(classes[n], InvalidInput)] == []


def test_enum_spec_keeps_the_congruence_text_below_zero():
    with pytest.raises(InvalidInput, match="^congruence needs both q > 0 and a target x$"):
        oracle.EnumSpec(n=2, caps=(1, 1), q=-1)


def test_readers_convert_and_name_the_value():
    assert as_ints([True, 2]) == (1, 2) and as_int(False, 0, "x") == 0
    value = as_int(True)
    assert value == 1 and type(value) is int
    with pytest.raises(InvalidInput, match=r"^need integers, got \(1, 2\.5\)$"):
        as_ints([(1, 2.5)])
    with pytest.raises(InvalidInput, match="^need integers, got 2.5$"):
        as_ints([1, 2.5])
    with pytest.raises(InvalidInput, match="^need q >= 2, got 1$"):
        as_int(1, 2, "q")
