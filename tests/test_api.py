"""The public surface of the package: adding or removing a name from
``skewqc.__all__`` is a deliberate change to this list."""

import os
import subprocess
import sys
from pathlib import Path

import skewqc

PUBLIC_NAMES = [
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
    "gcrd_many",
    "get",
    "gf4",
    "interleave_permutation",
    "is_central",
    "lclm",
    "lcrm",
    "left_divmod",
    "linear_right_roots",
    "linear_similar",
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
    "split_linear",
    "table_ok",
    "verify_entry",
    "verify_factorization",
    "verify_table",
    "weight_enumerator",
    "x_pow_minus_one",
]


def test_all_is_pinned():
    assert sorted(skewqc.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in skewqc.__all__:
        assert getattr(skewqc, name) is not None, name


def test_import_loads_no_process_machinery():
    """Enumeration runs in-process, so importing the package pulls in neither
    multiprocessing nor concurrent.futures."""
    src = str(Path(skewqc.__file__).resolve().parent.parent)
    code = (
        "import sys; import skewqc; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
