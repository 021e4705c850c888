"""Root numbers of the elliptic fibres y^2 = x^3 + 3t x^2 + 3s x + s t
(and their quadratic-twist relatives w y^2 = ... with t^2 replaced by
t^2 + v): exact local sign tables, the global root number, constancy of the
sign on arithmetic progressions, and conditional rank-jump predictions.
"""

from rootno.arith import (
    as_minus_3_square,
    as_minus_12_fourth,
    factorize,
    is_prime,
    jacobi,
    legendre,
    modified_jacobi,
    valuation,
    valuation_or_inf,
)
from rootno.audit import (
    FeatureDisabled,
    classical_local_root_number,
    falsify_constancy,
    ledger_json,
    probe_set,
    run_paper_examples,
)
from rootno.constancy import (
    Sufficiency,
    Verdict,
    check_f,
    check_f_p,
    check_f_table1,
    check_l_corollary,
    check_l_lemma,
)
from rootno.local_signs import w_star, w_star_hit
from rootno.rank_jump import (
    forced_sign,
    forced_sign_kq,
    generic_rank,
    rank_jump_report,
)
from rootno.root_number import (
    Breakdown,
    average_root_number_window,
    breakdown_f,
    breakdown_l,
    root_number_f,
    root_number_l,
    window_breakdowns,
    window_signs,
)

__all__ = [
    "Breakdown",
    "FeatureDisabled",
    "Sufficiency",
    "Verdict",
    "as_minus_3_square",
    "as_minus_12_fourth",
    "average_root_number_window",
    "breakdown_f",
    "breakdown_l",
    "check_f",
    "check_f_p",
    "check_f_table1",
    "check_l_corollary",
    "check_l_lemma",
    "classical_local_root_number",
    "factorize",
    "falsify_constancy",
    "forced_sign",
    "forced_sign_kq",
    "generic_rank",
    "is_prime",
    "jacobi",
    "ledger_json",
    "legendre",
    "modified_jacobi",
    "probe_set",
    "rank_jump_report",
    "root_number_f",
    "root_number_l",
    "run_paper_examples",
    "valuation",
    "valuation_or_inf",
    "w_star",
    "w_star_hit",
    "window_breakdowns",
    "window_signs",
]

__version__ = "0.1.0"
