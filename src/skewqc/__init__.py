"""Skew polynomial arithmetic over small finite fields and 1-generator
skew quasi-cyclic codes: construction, minimum distance, similarity,
seeded search campaigns, and a verified catalog of good codes over GF(4).
"""

from .codes import (
    CodeSpec,
    CodeStructure,
    build_code,
    build_degenerate_code,
    degenerate_tuple,
    skew_shift,
)
from .distance import (
    DistanceReport,
    WeightEnumerator,
    min_distance,
    min_distance_sampled,
    weight_enumerator,
)
from .errors import BudgetExceededError, ConsistencyError
from .factorization import (
    all_linear_factorizations,
    is_central,
    linear_right_roots,
    modulus_right_divisors,
    verify_factorization,
)
from .field import FieldSpec, gf4, make_field
from .notation import parse_coeff_string, poly_coeff_string, poly_to_terms
from .search import (
    RowReport,
    SearchConfig,
    SearchRecord,
    classify,
    export_records,
    load_bounds,
    load_config,
    records_from_json,
    records_to_json,
    records_to_tsv,
    run_search,
    table_ok,
    verify_entry,
    verify_table,
)
from .similarity import are_similar, norm_to_fixed
from .skewpoly import (
    ExtendedGcdResult,
    SkewPoly,
    gcld,
    gcld_many,
    gcrd,
    lclm,
    lcrm,
    left_divmod,
    right_divmod,
    x_pow_minus_one,
)
from .tables import FLAGSHIP_ENUMERATOR, CatalogEntry, catalog, entries, families, get

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CatalogEntry",
    "CodeSpec",
    "CodeStructure",
    "ConsistencyError",
    "DistanceReport",
    "ExtendedGcdResult",
    "FLAGSHIP_ENUMERATOR",
    "FieldSpec",
    "RowReport",
    "SearchConfig",
    "SearchRecord",
    "SkewPoly",
    "WeightEnumerator",
    "all_linear_factorizations",
    "are_similar",
    "build_code",
    "build_degenerate_code",
    "catalog",
    "classify",
    "degenerate_tuple",
    "entries",
    "export_records",
    "families",
    "gcld",
    "gcld_many",
    "gcrd",
    "get",
    "gf4",
    "is_central",
    "lclm",
    "lcrm",
    "left_divmod",
    "linear_right_roots",
    "load_bounds",
    "load_config",
    "make_field",
    "min_distance",
    "min_distance_sampled",
    "modulus_right_divisors",
    "norm_to_fixed",
    "parse_coeff_string",
    "poly_coeff_string",
    "poly_to_terms",
    "records_from_json",
    "records_to_json",
    "records_to_tsv",
    "right_divmod",
    "run_search",
    "skew_shift",
    "table_ok",
    "verify_entry",
    "verify_factorization",
    "verify_table",
    "weight_enumerator",
    "x_pow_minus_one",
]
