"""Arndt-type integer compositions: exact enumeration, generating functions,
closed forms, and cross-verification.

The package keeps three mutually independent routes to every counting
statement: brute-force enumeration (counting), exact expansion of rational
generating functions (series/catalog), and closed forms or recurrences
(formulas).  The verify module ties them together; the arndt CLI exposes the
lot.
"""

from .asymptotics import (GOLDEN_RATIO, PoleSpec, dominant_asymptotic,
                          expected_last, expected_parts,
                          last_count_asymptotic, parts_count_asymptotic)
from .bijection import arndt_to_reduced_ap, reduced_ap_to_arndt
from .catalog import (gf_antipalindromic, gf_arndt, gf_compositions,
                      gf_distinct_parts, gf_k_arndt, gf_k_arndt_total,
                      gf_k_block, gf_last_part, gf_reduced_ap, gf_total_last,
                      gf_total_parts)
from .compositions import (ALL_COMPOSITIONS, ANTIPALINDROMIC, ARNDT,
                           REDUCED_AP, Family, flip_class, is_antipalindromic,
                           is_arndt, is_k_arndt, is_k_block_arndt,
                           is_reduced_ap_representative)
from .counting import (BRUTE_FORCE_CAP, BruteForceCapExceeded, CountTriangle,
                       compositions_of, count_by_last, count_by_parts,
                       reduced_antipalindromic, total_last, total_parts)
from .formulas import (fibonacci, fibonacci_from_alternating_sum,
                       fibonacci_from_positive_sum, gen_binomial, last_count,
                       last_count_at_least, last_count_at_most, lucas,
                       parts_count_alternating, parts_count_positive,
                       parts_triangle_by_recurrence, total_last_closed,
                       total_parts_closed, wz_residual)
from .series import (DEFAULT_ORDER, BivariatePolynomial, RationalGF,
                     TruncatedSeries)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "ALL_COMPOSITIONS", "ANTIPALINDROMIC", "ARNDT", "BRUTE_FORCE_CAP",
    "BivariatePolynomial", "BruteForceCapExceeded", "CountTriangle",
    "DEFAULT_ORDER", "Family", "GOLDEN_RATIO", "PoleSpec", "RationalGF",
    "REDUCED_AP", "TruncatedSeries", "arndt_to_reduced_ap", "compositions_of",
    "count_by_last", "count_by_parts", "dominant_asymptotic", "expected_last",
    "expected_parts", "fibonacci", "fibonacci_from_alternating_sum",
    "fibonacci_from_positive_sum", "flip_class", "gen_binomial",
    "gf_antipalindromic", "gf_arndt", "gf_compositions", "gf_distinct_parts",
    "gf_k_arndt", "gf_k_arndt_total", "gf_k_block", "gf_last_part",
    "gf_reduced_ap", "gf_total_last", "gf_total_parts", "is_antipalindromic",
    "is_arndt", "is_k_arndt", "is_k_block_arndt",
    "is_reduced_ap_representative", "last_count", "last_count_asymptotic",
    "last_count_at_least", "last_count_at_most", "lucas",
    "parts_count_alternating", "parts_count_asymptotic",
    "parts_count_positive", "parts_triangle_by_recurrence",
    "reduced_antipalindromic", "reduced_ap_to_arndt", "run_checks",
    "total_last", "total_last_closed", "total_parts", "total_parts_closed",
    "wz_residual",
]
