"""The one reader of integer arguments (errors.as_int, errors.as_ints) and
every public call that reads its integers through it."""

import re

import pytest

from sllift import actions, hardness, intmat, lifting, oracle, residue
from sllift.errors import InvalidInput, SlliftError, as_int, as_ints
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
    ("intmat.sl_class", "q", 1, 5, lambda v: intmat.sl_class([[1, 0], [0, 1]], v)),
    ("intmat.solve_mod", "q", 1, 5, lambda v: intmat.solve_mod(I2, (1, 1), v)),
    ("intmat.adjugate_mod", "q", 1, 5, lambda v: intmat.adjugate_mod(I2, v)),
    ("lifting.lift_rows", "q", 1, 5, lambda v: lifting.lift_rows(IntMatrix([[1, 2]]), v, 0)),
    ("lifting.random_sl_matrix", "n", 2, 2, lambda v: lifting.random_sl_matrix(v, 5, 0)),
    ("lifting.random_sl_matrix", "q", 1, 5, lambda v: lifting.random_sl_matrix(2, v, 0)),
    ("oracle.EnumSpec", "n", 1, 2, lambda v: oracle.EnumSpec(n=v, caps=(1, 1))),
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
