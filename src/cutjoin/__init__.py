"""Exact-arithmetic combinatorics of cut-and-join identities.

The package computes and cross-verifies, in exact rational arithmetic:
symmetric-group characters and Schur expansions, the sine amplitude attached
to a partition in both its defining and hook-product forms, the generating
series whose tau-evolution is governed by the cut-and-join operator, the
per-genus Hodge polynomials extracted from it, and branched-cover counts with
their closed-form and recursive descriptions.
"""

from .exact import (
    GaussianRational,
    LaurentSeries,
    QHalfLaurent,
    RealTauPolynomial,
    TauPolynomial,
    series_exp,
    series_log,
    sin_half_series,
)
from .partitions import Partition, enumerate_partitions
from .characters import (
    central_character_transposition,
    character,
    character_table,
    dimension,
    dimension_hook,
    schur_in_p,
    schur_principal_specialization,
)
from .genfun import (
    PartitionSeries,
    character_cutjoin_identity,
    cut_join_linear,
    cut_join_nonlinear,
    ps_exp,
    ps_log,
)
from .hodge import (
    CgmuPolynomial,
    MVSeries,
    extract_C_gmu,
    hodge_polynomial,
    initial_condition_check,
    lambda_g_coefficients,
    transfer_system_kernel,
    v_forms_agree,
    v_hook_form,
    v_series,
    v_sine_product,
)
from .hurwitz import (
    BudgetExceededError,
    elsv_check,
    elsv_value,
    hurwitz_bruteforce,
    hurwitz_connected,
    hurwitz_cutjoin_check,
    hurwitz_disconnected,
    solve_hodge_from_hurwitz,
)

__version__ = "0.1.0"
