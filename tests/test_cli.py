"""Tests for the command-line interface: one suite per subcommand."""

import hashlib
import inspect
import re
import shlex
from pathlib import Path

import pytest

from skewqc import cli, distance
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


def test_factor_rejects_negative_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor", "--s", "4", "--degree", "-1"])
    assert exc.value.code == 2
    assert "non-negative integer" in capsys.readouterr().err


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


ENUMERATOR_WITNESS_STDOUT = """\
[40,9,21]  d is exact  (87381 rows in X.XXs)
witness: 1 0 0 a^2 1 0 0 0 0 a^2 0 a^2 0 0 1 a^2 1 1 0 1 1 0 1 1 0 a^2 1 0 0 0 0 a 1 0 0 1 1 1 1 0
0	1
21	480
22	870
23	1440
24	4590
25	7500
26	12690
27	19140
28	26505
29	35220
30	37500
31	37140
32	33390
33	21780
34	12810
35	6540
36	2775
37	1260
38	450
39	60
40	3
"""


def test_distance_enumerator_with_witness_stdout(capsys):
    """d, the row count, the witness and every enumerator line, pinned with
    only the elapsed time masked."""
    argv = ["distance", "--name", "index2-l2-40-9-21", "--enumerator", "--witness"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.sub(r"in \d+\.\d\ds\)", "in X.XXs)", out) == ENUMERATOR_WITNESS_STDOUT


def test_distance_enumerator_scans_once(monkeypatch, capsys):
    """The enumerator, d, the witness and the row count come from one scan."""
    scans = []

    def counted(*args, **kwargs):
        scans.append(1)
        return enumerate_blocks(*args, **kwargs)

    enumerate_blocks = distance._enumerate_blocks
    monkeypatch.setattr(distance, "_enumerate_blocks", counted)
    argv = ["distance", "--name", "index2-l2-40-9-21", "--enumerator", "--witness"]
    assert main(argv) == 0
    assert len(scans) == 1
    out = capsys.readouterr().out
    assert "[40,9,21]  d is exact  (87381 rows in" in out and "\n21\t480\n" in out


def test_distance_enumerator_takes_d_from_its_scan_not_from_sampling(monkeypatch, capsys):
    """With --enumerator, --sampled is not run: d, the witness and the row
    count are the exact scan's, as without --sampled."""
    def sampled(*args, **kwargs):
        raise AssertionError("the sampled scan ran")

    monkeypatch.setattr(cli, "min_distance_sampled", sampled)
    argv = ["distance", "--name", "index2-l2-40-9-21", "--sampled", "10", "--enumerator",
            "--witness"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.sub(r"in \d+\.\d\ds\)", "in X.XXs)", out) == ENUMERATOR_WITNESS_STDOUT


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


@pytest.mark.parametrize("extra", [[], ["--sampled", "10"], ["--witness"]],
                         ids=["exact", "sampled", "witness"])
def test_distance_of_zero_code_says_so(extra, capsys):
    assert main(["distance", "--s", "4", "--tuple", "0"] + extra) == 0
    out = capsys.readouterr().out
    assert out == ("[4,0]  zero code: it has no nonzero codeword, "
                   "so its minimum distance is undefined\n")
    assert "None" not in out


def test_sampled_run_without_a_nonzero_message_is_not_a_zero_code(capsys):
    """The one message drawn for this [2,1,2] code is zero: the sample
    bounds nothing, and the code is still not a zero code."""
    args = ["distance", "--field", "2,1,1", "--s", "2", "--tuple", "11"]
    assert main(args + ["--sampled", "1", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out == "[2,1]  no upper bound: none of the 1 sampled messages was nonzero\n"


def test_enumerator_budget_is_checked_before_the_sampled_scan(monkeypatch, capsys):
    """--enumerator needs an exact scan that --sampled cannot replace, so it
    is refused before any sampling and the hint offers only the budget."""
    def sampled(*args, **kwargs):
        raise AssertionError("the sampled scan ran")

    monkeypatch.setattr(cli, "min_distance_sampled", sampled)
    argv = ["distance", "--name", "new-l5-100-20-47", "--sampled", "10", "--enumerator"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: weight enumeration too large (needs ~1099511627776, budget 67108864)",
        "hint: raise --budget",
    ]


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


@pytest.mark.parametrize(
    "flag, value, kind",
    [("--s", "0", "positive"), ("--s", "-4", "positive"), ("--s", "x", "positive"),
     ("--l", "0", "positive"), ("--l", "-1", "positive"),
     ("--trials", "-1", "non-negative"), ("--trials", "2.5", "non-negative")],
)
def test_search_flags_rejected_at_argparse(flag, value, kind, capsys):
    argv = {"--s": "8", "--l": "2", "--trials": "2"}
    argv[flag] = value
    with pytest.raises(SystemExit) as exc:
        main(["search"] + [tok for item in argv.items() for tok in item])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected a {kind} integer, got '{value}'" in err


def test_search_zero_trials_is_an_empty_campaign(capsys):
    assert main(["search", "--s", "8", "--trials", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n\tk\td\texact\tcomparison\tgenerators\ttimestamp"
    ]


def test_search_rejects_unknown_key(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--s", "8", "--set", "mystery=1"])


def test_search_rejects_fs_without_g(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--set", "fs=a1", "--s", "8", "--trials", "2"])
    assert "fs requires g" in str(exc.value.code)
    assert capsys.readouterr().out == ""


def test_search_values_take_their_field_type(tmp_path, monkeypatch, capsys):
    """--set g=101 keeps the coefficient string, bounds=7 names a file (not
    file descriptor 7), and int fields refuse text int() refuses."""
    monkeypatch.chdir(tmp_path)
    assert main(["search", "--s", "8", "--trials", "1", "--set", "g=101",
                 "--set", "fs=1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith("\t101,101\t")
    for argv, message in [
        (["--s", "8", "--trials", "1", "--set", "bounds=7"],
         "error: cannot read 7: No such file or directory"),
        (["--set", "s=abc"], "error: s must be an integer, got 'abc'"),
        (["--s", "8", "--set", "trials=true"], "error: trials must be an integer, got 'true'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["search"] + argv)
        assert exc.value.code == message


SEARCH_FILE_ERRORS = {
    "missing-config": (["--config", "missing.cfg"],
                       "error: cannot read missing.cfg: No such file or directory"),
    "missing-bounds": (["--set", "bounds=missing.txt"],
                       "error: cannot read missing.txt: No such file or directory"),
    "malformed-bounds": (["--set", "bounds=bad.txt"],
                         "error: bad.txt:2: expected 'n k best_d', got '40 9\\n'"),
    "output-directory": (["--output", "missing/out.tsv"],
                         "error: cannot write missing/out.tsv: no directory missing"),
    "output-is-directory": (["--output", "out"], "error: cannot write out: is a directory"),
}


@pytest.mark.parametrize("case", sorted(SEARCH_FILE_ERRORS))
def test_search_file_errors_exit_1_before_the_campaign(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.txt").write_text("n k d\n40 9\n")
    (tmp_path / "out").mkdir()
    argv, message = SEARCH_FILE_ERRORS[case]
    base = [] if case == "missing-config" else ["--s", "8", "--trials", "2"]
    with pytest.raises(SystemExit) as exc:
        main(["search", "--progress"] + base + argv)
    assert exc.value.code == message
    out, err = capsys.readouterr()
    assert out == "" and "candidate" not in err


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


def test_full_verify_table_stdout_is_byte_identical(capsys):
    """The whole catalog at the default budget, trials and seed: exit 1 for
    the one failing row, and every stdout line pinned by digest."""
    assert main(["verify-table"]) == 1
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 73
    assert lines[-1] == "69 ok, 1 failed, 2 reported unverified (72 rows)"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c010df6ab391e1360eda2d7a58954ac4e3ac99460c7252e2e82dd7526d59f119")


def test_verify_table_family_filter(capsys):
    assert main(["verify-table", "--family", "index2", "--max-k", "10"]) == 0
    out = capsys.readouterr().out
    assert "ok   index2-l2-40-9-21" in out
    assert "failed" in out.splitlines()[-1]


@pytest.mark.parametrize("flags", [["--name", "index2-l2-40-9-21", "--family", "new"],
                                   ["--family", "new", "--name", "index2-l2-40-9-21"]])
def test_verify_table_refuses_name_with_family(flags, capsys):
    """--name picks rows by name and would drop --family unread; argparse
    refuses the pair before any row is checked."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-table"] + flags)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


@pytest.mark.parametrize("max_k", ["5", "-3"])
def test_verify_table_empty_selection_is_an_error(max_k, capsys):
    """A selection with no row checks nothing, so it must not pass."""
    with pytest.raises(SystemExit) as exc:
        main(["verify-table", "--max-k", max_k])
    assert exc.value.code == "error: no catalog row matches the selection"
    assert capsys.readouterr().out == ""


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "--s", "4", "--tuple", "0", "--generator", "11"],
         "first 3 shift images have rank 0"),
        (["build", "--s", "4", "--tuple", "1", "--generator", "a01"],
         "does not divide x^s - 1"),
        (["build", "--s", "4", "--tuple", "zz"], "invalid character 'z'"),
        (["build", "--s", "3", "--tuple", "11"], "not central"),
        (["distance", "--s", "4", "--tuple", "1", "--generator", "a01"],
         "does not divide x^s - 1"),
        (["similar", "--f", "zz", "--g", "11"], "invalid character 'z'"),
        (["factor", "--s", "0"], "expected a positive integer"),
        (["build", "--s", "0", "--tuple", "1"], "expected a positive integer"),
    ],
    ids=["dependent-images", "nondivisor", "bad-tuple", "noncentral",
         "distance-nondivisor", "similar-bad-poly", "factor-s0", "build-s0"],
)
def test_bad_input_is_an_error_not_a_traceback(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    code = exc.value.code
    # a str code is printed to stderr with exit status 1; argparse exits 2
    err = code if isinstance(code, str) else capsys.readouterr().err
    assert code == 2 or err.startswith("error: ")
    assert "error: " in err and message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["search", "--s", "8", "--set", "s12"], "--set expects key=value, got 's12'"),
        (["search", "--s", "8", "--set", "mystery=1"], "unknown config key 'mystery'"),
        (["build", "--tuple", "11"], "either --name or --s with a tuple is required"),
        (["build", "--s", "4", "--multipliers", "a1"], "--multipliers requires --generator"),
        (["distance", "--s", "4"],
         "provide --tuple components or --generator with --multipliers"),
        (["verify-table", "--family", "nope"], "unknown families: ['nope']"),
        (["distance", "--name", "nope"], "unknown catalog entry 'nope'"),
    ],
    ids=["set-without-equals", "config-error", "no-code", "multipliers-alone",
         "no-tuple", "unknown-family", "unknown-name"],
)
def test_input_errors_exit_1_with_error_prefix(argv, message, capsys):
    """Errors argparse cannot see print "error: ..." and exit with status 1
    (a str SystemExit code), before any output."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    code = exc.value.code
    assert isinstance(code, str) and code.startswith("error: ")
    assert message in code
    assert capsys.readouterr().out == ""


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


# ---------------------------------------------------------------------------
# README
# ---------------------------------------------------------------------------


def test_readme_command_lines_parse():
    """Every ``skewqc ...`` line of the README's "Command line" block is
    accepted by the parser, so the documented flags cannot drift."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0] for line in block.splitlines()
             if line.startswith("skewqc ")]
    assert lines
    parser = cli._build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        args = parser.parse_args(argv)
        assert args.command == argv[0]
