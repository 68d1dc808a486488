"""Lifting SL_n(Z/qZ) to SL_n(Z): constructive lifts with norm control,
worst-case congruence classes, and exact brute-force oracles.
"""

from . import actions, errors, hardness, intmat, lifting, oracle, records, residue
from .actions import (
    DistanceRecord,
    PointA,
    PointP,
    diameter_profile,
    dist_affine,
    dist_projective,
    projective_bad_pair,
)
from .hardness import (
    HardInstance,
    RootWitness,
    find_large_root,
    hard_instance,
    small_nth_powers,
    small_p_factor_root,
    trace_family_instance,
)
from .intmat import IntMatrix, NormReport, adjugate_mod, det, maximal_minors, norm_report, size_reduce, solve_mod
from .lifting import LiftCertificate, complete_rows, is_extendable, lift, lift_rows, random_sl_matrix
from .oracle import EnumSpec, count_sl, iter_sl, min_lift_norm, norm_count_table
from .residue import Residue, crt, factorize, is_nth_power_residue, nth_roots

__version__ = "0.1.0"
