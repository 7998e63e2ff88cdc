"""Tests for the command-line interface: one suite per subcommand."""

import inspect

import pytest

from skewqc import cli
from skewqc.cli import main
from skewqc.errors import DEFAULT_BUDGET, DEFAULT_OPEN_BUDGET
from skewqc.field import make_field
from skewqc.notation import poly_coeff_string
from skewqc.search import DEFAULT_SAMPLE_TRIALS
from skewqc.skewpoly import SkewPoly


# ---------------------------------------------------------------------------
# factor
# ---------------------------------------------------------------------------


def test_factor_complete_factorizations(capsys):
    assert main(["factor", "--s", "4"]) == 0
    out = capsys.readouterr().out
    assert "complete factorizations into monic linear factors: 15" in out


def test_factor_divisors_of_degree(capsys):
    assert main(["factor", "--s", "20", "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "monic right divisors of degree 1: 3" in out
    assert "x + a^2" in out


def test_factor_modulus_without_linear_split(capsys):
    assert main(["factor", "--s", "6"]) == 0
    out = capsys.readouterr().out
    assert "complete factorizations into monic linear factors: 0" in out


@pytest.mark.parametrize(
    "args",
    [["--s", "12", "--degree", "6", "--budget", "10"], ["--s", "8", "--budget", "100"]],
    ids=["divisor-scan", "factorization-tree"],
)
def test_factor_budget_exceeded_is_an_error(args, capsys):
    assert main(["factor"] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err
    assert "hint: raise --budget" in err


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def test_build_from_catalog_name(capsys):
    assert main(["build", "--name", "index2-l2-40-9-21"]) == 0
    out = capsys.readouterr().out
    assert "[40,9]" in out
    assert "generator polynomial g" in out
    assert "shift-module closed: True" in out


def test_build_from_explicit_tuple(capsys):
    assert main(["build", "--s", "10", "--tuple", "a1a^2011,10aa1"]) == 0
    out = capsys.readouterr().out
    assert "[20,9]" in out


def test_build_matrix_output(capsys):
    assert main(["build", "--name", "index2-l2-40-9-21", "--matrix"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") >= 9  # nine spanning rows printed


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------


def test_distance_exact_with_witness(capsys):
    assert main(["distance", "--name", "index2-l2-40-9-21", "--witness"]) == 0
    out = capsys.readouterr().out
    assert "[40,9,21]" in out and "exact" in out
    assert "witness:" in out


def test_distance_sampled(capsys):
    assert main(
        ["distance", "--name", "index2-l2-40-9-21", "--sampled", "2000", "--seed", "5"]
    ) == 0
    out = capsys.readouterr().out
    assert "sampled upper bound" in out


def test_distance_sampled_over_gf9(capsys):
    F9 = make_field(3, 1, 2)
    tup = (SkewPoly(F9, [1, 2, 0, 1, 3, 0, 5, 1]), SkewPoly(F9, [4, 0, 7, 1, 2, 8, 3]))
    args = ["distance", "--field", "3,1,2", "--s", "8",
            "--tuple", ",".join(poly_coeff_string(f) for f in tup)]
    assert main(args + ["--sampled", "2000", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[16,8,") and "sampled upper bound over 2000" in out


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_distance_sampled_rejects_nonpositive_trials(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["distance", "--name", "new-l2-48-12-24", "--sampled", trials])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_distance_budget_exceeded_is_an_error(capsys):
    rc = main(["distance", "--name", "new-l3-72-21-29", "--budget", "65536"])
    assert rc == 1
    assert "budget" in capsys.readouterr().err.lower()


# ---------------------------------------------------------------------------
# similar
# ---------------------------------------------------------------------------


def test_similar_with_witness(capsys):
    assert main(["similar", "--f", "a1", "--g", "a^21"]) == 0
    out = capsys.readouterr().out
    assert "similar" in out and "witness" in out


def test_similar_dissimilar_pair(capsys):
    assert main(["similar", "--f", "01", "--g", "a1"]) == 0
    assert "dissimilar" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# budgets shared by several subcommands
# ---------------------------------------------------------------------------


BUDGET_COMMANDS = {
    "factor": ["factor", "--s", "4"],
    "distance": ["distance", "--name", "index2-l2-40-9-21"],
    "similar": ["similar", "--f", "a1", "--g", "a^21"],
    "verify-table": ["verify-table", "--name", "index2-l2-40-9-21"],
}


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("command", sorted(BUDGET_COMMANDS))
def test_budget_flags_reject_nonpositive(command, budget, capsys):
    with pytest.raises(SystemExit) as exc:
        main(BUDGET_COMMANDS[command] + ["--budget", budget])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name, expected",
    [
        (BUDGET_COMMANDS["factor"], "all_linear_factorizations", DEFAULT_OPEN_BUDGET),
        (["factor", "--s", "20", "--degree", "1"], "modulus_right_divisors", DEFAULT_BUDGET),
        (BUDGET_COMMANDS["distance"], "min_distance", DEFAULT_BUDGET),
        (BUDGET_COMMANDS["similar"], "are_similar", DEFAULT_OPEN_BUDGET),
        (BUDGET_COMMANDS["verify-table"], "verify_table", DEFAULT_BUDGET),
    ],
    ids=["factor", "factor-degree", "distance", "similar", "verify-table"],
)
def test_budget_defaults_are_the_library_defaults(argv, name, expected, monkeypatch):
    """With no --budget, each command passes the default of the library call
    it makes (and verify-table passes the library's sample count)."""
    fn = getattr(cli, name)
    defaults = inspect.signature(fn).parameters
    seen = {}

    def recorder(*args, **kwargs):
        seen.update(kwargs)
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, recorder)
    assert main(argv) == 0
    assert seen["budget"] == defaults["budget"].default == expected
    if name == "verify_table":
        assert seen["sample_trials"] == defaults["sample_trials"].default
        assert seen["sample_trials"] == DEFAULT_SAMPLE_TRIALS


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_writes_deterministic_file(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("s = 8\nl = 2\ntrials = 10\nseed = 2\n")
    out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert main(["search", "--config", str(cfg), "--output", str(out1)]) == 0
    assert main(["search", "--config", str(cfg), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_text().startswith("n\tk\td\texact\tcomparison")


def test_search_stdout_json_and_overrides(capsys):
    assert main(
        ["search", "--s", "8", "--trials", "3", "--seed", "1", "--format", "json"]
    ) == 0
    out = capsys.readouterr().out
    assert out.lstrip().startswith("[")
    assert '"comparison": "new"' in out


def test_search_set_overrides(capsys):
    assert main(["search", "--s", "8", "--set", "trials=2", "--set", "seed=4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("n\tk\td")


def test_search_rejects_unknown_key(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--s", "8", "--set", "mystery=1"])


# ---------------------------------------------------------------------------
# verify-table
# ---------------------------------------------------------------------------


def test_verify_table_rows_and_exit_code(capsys):
    assert main(
        ["verify-table", "--name", "index2-l2-40-9-21", "--name",
         "nondegenerate-l3-30-10-14"]
    ) == 0
    out = capsys.readouterr().out
    assert "2 ok, 0 failed, 0 reported unverified (2 rows)" in out


def test_verify_table_family_filter(capsys):
    assert main(["verify-table", "--family", "index2", "--max-k", "10"]) == 0
    out = capsys.readouterr().out
    assert "ok   index2-l2-40-9-21" in out
    assert "failed" in out.splitlines()[-1]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_table_rejects_nonpositive_trials(trials, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify-table", "--family", "new", "--trials", trials])
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_verify_table_unverified_rows_do_not_fail(capsys):
    assert main(
        ["verify-table", "--name", "large-index-l5-100-20-46", "--trials", "10"]
    ) == 0
    out = capsys.readouterr().out
    assert "1 reported unverified" in out


# ---------------------------------------------------------------------------
# flags shared by several commands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["build", "distance", "verify-table"])
def test_unknown_catalog_name_is_an_error(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--name", "nope"])
    assert isinstance(exc.value.code, str)  # printed to stderr, exit status 1
    assert "unknown catalog entry 'nope'" in exc.value.code


SEED_COMMANDS = {
    "distance": ["distance", "--name", "index2-l2-40-9-21", "--sampled", "10"],
    "search": ["search", "--s", "8", "--trials", "2"],
    "verify-table": ["verify-table", "--name", "index2-l2-40-9-21"],
}


@pytest.mark.parametrize("seed", ["-1", "x"])
@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_seed_flags_reject_negative(command, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(SEED_COMMANDS[command] + ["--seed", seed])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_workers_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main(SEED_COMMANDS[command] + ["--workers", "1"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
