import io
import json
import os
import random
import sqlite3
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from contextlib import closing, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starconfig import cli, hilbert, matroid
from starconfig.cli import (EXIT_CAP, EXIT_INPUT, EXIT_INTERNAL, InputError,
                            TutteCache, example_b3, example_e0, json_text,
                            main, parse_input, poly_text)
from starconfig.fields import GF, QQ, ExactArithError
from starconfig.matroid import VectorMatroid
from starconfig.tutte import (BivarPoly, canonical_matrix_key,
                              poly_matches_key, tutte_deletion_contraction)

from conftest import DictCache, random_code

E0_TEXT = """\
# a [3,2] example
field gf 2
size 2 3
1 0 1
0 1 1
labels x1 x2 x1+x2
"""


def write_input(tmp_path, text, name="code.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_input_basic():
    code = parse_input(E0_TEXT)
    assert code.spec.kind == "gf" and code.spec.modulus == 2
    assert (code.k, code.n) == (2, 3)
    assert code.matrix.entries == ((1, 0, 1), (0, 1, 1))
    assert code.labels == ("x1", "x2", "x1+x2")


def test_parse_input_rationals():
    code = parse_input("field q\nsize 1 2\n1/2 -3\n")
    assert code.spec.kind == "q"
    assert code.matrix.entries == ((Fraction(1, 2), Fraction(-3)),)
    assert all(type(x) is Fraction for x in code.matrix.entries[0])
    # with no labels line, each form is labelled by its coefficients
    assert code.labels == ("1/2*x1", "-3*x1")


def test_parse_input_errors():
    for bad in ("", "field gf 2\n", "size 1 1\nfield gf 2\n1\n",
                "field gf 2\nsize 2 2\n1 0\n",
                "field gf 2\nsize 1 2\n1 0 1\n",
                "field gf 2\nsize 1 2\n1 0\nlabels a\n",
                "field gf 2\nsize 1 2\n1 0\nbogus line\n",
                "field gf 4\nsize 1 1\n1\n",
                "field gf x\nsize 1 1\n1\n",
                "field gf 2\nsize 1 2\n1 x\n",
                "field gf 2\nsize 2 2\n1 1\n1 1\n",
                "field gf 2\nsize 1 2\n1 0\n",
                "field gf 2\nsize 1 2\n1 1\nlabels a#1 b#2\n"):
        with pytest.raises(InputError):
            parse_input(bad)


def test_readme_input_example_parses():
    # a '#' starts a comment on any line, as the README's example has
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Input file format", 1)[1]
    block = section.split("```", 2)[1].partition("\n")[2]
    code = parse_input(block)
    assert code.spec.kind == "gf" and code.spec.modulus == 5
    assert (code.k, code.n) == (3, 9)
    assert code.labels == ("x1", "x2", "x3", "x1+x2", "x1-x2", "x1+x3",
                           "x1-x3", "x2+x3", "x2-x3")
    assert code.matrix == example_b3().matrix


def test_second_labels_line_is_input_error(capsys, tmp_path):
    path = write_input(tmp_path, "field gf 2\nsize 1 3\n1 1 1\n"
                       "labels a b c\nlabels d e f\n")
    rc, out, err = run_cli(capsys, "primes", path)
    assert rc == EXIT_INPUT and out == ""
    assert err == "error: more than one labels line\n"


def test_builtin_examples_match_fixtures(e0, b3):
    assert example_e0().matrix == e0.matrix
    assert example_e0().labels == e0.labels
    assert example_b3().matrix == b3.matrix
    assert example_b3().labels == b3.labels


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_tutte_table(capsys):
    rc, out, _ = run_cli(capsys, "tutte", "--example", "e0")
    assert rc == 0
    assert "x^2 + x + y" in out
    assert "engines agree: yes" in out


def test_tutte_json_matches_table_values(capsys):
    rc, out, _ = run_cli(capsys, "tutte", "--example", "e0", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert BivarPoly.from_json(doc["tutte"]) == \
        BivarPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert doc["engines_agree"] is True


def test_profile_json_b3(capsys):
    rc, out, _ = run_cli(capsys, "profile", "--example", "b3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["hierarchy"] == [0, 5, 8, 9]
    degrees = [int(p["degree"]) for p in doc["profiles"]]
    assert degrees == [1, 4, 10, 20, 35, 3, 13, 36, 9]
    mus = [int(p["mu"]) for p in doc["profiles"]]
    assert mus == [3, 6, 10, 15, 21, 25, 23, 9, 1]


def test_ghw_routes_and_duality(capsys):
    rc, out, _ = run_cli(capsys, "ghw", "--example", "b3", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["hierarchy"] == [0, 5, 8, 9]
    for row in doc["routes"]:
        assert row["bruteforce"] == row["tutte"] == row["dual_rank"]
    assert doc["wei_duality"]["holds"] is True


def test_ghw_low_dimension_code_with_n_21(capsys, tmp_path):
    # the dual of a [21,3] binary code has too many flats for a span-join
    # pass (matroid.FLAT_CAP); Wei duality reads the dual's hierarchy
    # from its deletion-contraction Tutte polynomial instead
    code = random_code(random.Random(21), 3, 21, GF(2))
    rows = "\n".join(" ".join(map(str, row)) for row in code.matrix.entries)
    path = write_input(tmp_path, f"field gf 2\nsize 3 21\n{rows}\n")
    rc, out, _ = run_cli(capsys, "ghw", path, "--json", "--no-cache")
    assert rc == 0
    doc = json.loads(out)
    assert doc["wei_duality"]["holds"] is True
    assert len(doc["dual_hierarchy"]) == 18
    for row in doc["routes"]:
        assert row["bruteforce"] == row["tutte"] == row["dual_rank"]


def test_primes_table(capsys):
    rc, out, _ = run_cli(capsys, "primes", "--example", "e0")
    assert rc == 0
    assert "irrelevant ideal power" in out
    assert "nu=1" in out


def test_mu_command_file_input(capsys, tmp_path):
    path = write_input(tmp_path, E0_TEXT)
    rc, out, _ = run_cli(capsys, "mu", path, "--json")
    assert rc == 0
    doc = json.loads(out)
    assert [int(row["mu"]) for row in doc["mu"]] == [2, 3, 1]


def test_verify_ok(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--example", "e0", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["all_ok"] is True
    assert all(c["status"] == "ok" for c in doc["oracle"])


def test_verify_builds_one_ideal_engine_per_a(capsys, monkeypatch):
    built = []
    init = hilbert.GradedIdealEngine.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(hilbert.GradedIdealEngine, "__init__", counted_init)
    rc, out, _ = run_cli(capsys, "verify", "--example", "b3", "--json")
    assert rc == 0 and json.loads(out)["all_ok"] is True
    assert len(built) == 9


def test_verify_over_q_matches_recorded_output(capsys, tmp_path):
    # recorded with the Fraction eliminator: a reference independent of
    # the integer kernel
    data = Path(__file__).parent / "data" / "verify_q_3x5.json"
    recorded = json.loads(data.read_text())
    path = write_input(tmp_path, recorded["input"])
    rc, out, _ = run_cli(capsys, "verify", path, "--json")
    assert rc == 0
    doc = json.loads(out)
    doc.pop("timings")
    assert doc == recorded["verify"]


def test_conjecture_json(capsys):
    rc, out, _ = run_cli(capsys, "conjecture", "--example", "e0", "--json",
                         "--window", "1:6")
    assert rc == 0
    doc = json.loads(out)
    assert doc["t_max"] == 6
    assert {e["a"] for e in doc["entries"]} == {2, 3}


def test_identity_command(capsys):
    rc, out, _ = run_cli(capsys, "identity", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["checked"] > 0


def test_missing_input_is_input_error(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "tutte")
    assert rc == EXIT_INPUT
    assert "input file" in err
    rc, _, err = run_cli(capsys, "tutte", "/nonexistent/file.txt")
    assert rc == EXIT_INPUT
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"field gf 2\nsize 1 1\n1\nlabels \xe9\n")
    rc, out, err = run_cli(capsys, "tutte", str(path))
    assert rc == EXIT_INPUT and out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9")


def test_zero_column_is_input_error(capsys, tmp_path):
    path = write_input(tmp_path, "field gf 2\nsize 2 3\n1 0 0\n0 1 0\n")
    rc, _, err = run_cli(capsys, "profile", path)
    assert rc == EXIT_INPUT
    assert "column 3" in err


def test_cap_exceeded_exit_code(capsys):
    rc, _, err = run_cli(capsys, "tutte", "--example", "b3", "--max-n", "4")
    assert rc == EXIT_CAP
    assert "exceeds" in err


def test_max_n_zero_is_a_legal_cap(capsys):
    rc, out, err = run_cli(capsys, "tutte", "--example", "e0", "--max-n=0")
    assert rc == EXIT_CAP and out == ""
    assert "exceeds exhaustive cap 0" in err


def forty_column_code(tmp_path):
    """A [40,2] code over GF(3) with four parallel classes of ten."""
    rows = " ".join(["1 0 1 1"] * 10), " ".join(["0 1 1 2"] * 10)
    return write_input(tmp_path, "field gf 3\nsize 2 40\n"
                       + "\n".join(rows) + "\n")


def test_max_n_above_the_exhaustive_cap_runs_both_engines(capsys,
                                                         tmp_path):
    # the span-join pass keys six subspaces and keeps nothing per subset
    rc, out, err = run_cli(capsys, "tutte", forty_column_code(tmp_path),
                           "--max-n", "40", "--no-cache", "--json")
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["engines_agree"] is True


@pytest.mark.parametrize("command", ["tutte", "ghw", "profile", "primes",
                                     "mu", "verify", "conjecture"])
def test_max_n_is_checked_once_at_load(capsys, monkeypatch, command):
    # every code command checks the cap where it loads the code, before
    # any engine runs
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran on a code over the cap")

    monkeypatch.setattr(matroid, "_span_join", refuse)
    monkeypatch.setattr(cli, "tutte_deletion_contraction", refuse)
    monkeypatch.setattr(hilbert, "_afold_from_columns", refuse)
    for extra in ([], ["--json"]):
        rc, out, err = run_cli(capsys, command, "--example", "b3",
                               "--max-n", "8", *extra)
        assert rc == EXIT_CAP and out == ""
        assert err == "error: ground set of size 9 exceeds exhaustive cap 8\n"


@pytest.mark.parametrize("command", ["verify", "conjecture"])
def test_hilbert_oracle_is_capped_by_its_products(capsys, monkeypatch,
                                                  tmp_path, command):
    # the Tutte routes take the [40,2] code and a random [17,2] code, but
    # the oracle would expand C(n, a) products for each a: the first a over
    # the cap (a = 4 and a = 7) stops the run before any Tutte or Hilbert
    # work, not after the oracle has run every smaller a
    code = random_code(random.Random(1), 2, 17, GF(3))
    rows = "\n".join(" ".join(map(str, row)) for row in code.matrix.entries)
    seventeen = write_input(tmp_path, f"field gf 3\nsize 2 17\n{rows}\n",
                            name="seventeen.txt")

    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran on a code over the product cap")

    monkeypatch.setattr(matroid, "_span_join", refuse)
    monkeypatch.setattr(cli, "tutte_deletion_contraction", refuse)
    monkeypatch.setattr(hilbert, "_product_coeffs", refuse)
    for path, line in ((forty_column_code(tmp_path),
                        "91390 4-fold products of 40 forms"),
                       (seventeen, "19448 7-fold products of 17 forms")):
        for extra in ([], ["--json"]):
            rc, out, err = run_cli(capsys, command, path, "--max-n", "40",
                                   "--no-cache", *extra)
            assert rc == EXIT_CAP and out == ""
            assert err == f"error: {line} exceed product cap 16384\n"


def test_verify_checks_the_window_width_at_load(capsys, monkeypatch,
                                               tmp_path):
    # a window narrower than k + 1 degrees is an input error, reported
    # before the product cap of the [40,2] code and before any engine runs
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran on a window too narrow to fit")

    monkeypatch.setattr(matroid, "_span_join", refuse)
    monkeypatch.setattr(cli, "tutte_deletion_contraction", refuse)
    monkeypatch.setattr(hilbert, "_afold_from_columns", refuse)
    for source in (["--example", "b3"], [forty_column_code(tmp_path)]):
        for extra in ([], ["--json"]):
            rc, out, err = run_cli(capsys, "verify", *source, "--window",
                                   "0:1", "--max-n", "40", "--no-cache",
                                   *extra)
            assert rc == EXIT_INPUT and out == ""
            assert err == "error: window must span at least k+1 degrees\n"


def test_conjecture_honours_max_n(capsys):
    rc, _, err = run_cli(capsys, "conjecture", "--example", "b3",
                         "--max-n", "3")
    assert rc == EXIT_CAP
    assert "exceeds exhaustive cap 3" in err


@pytest.mark.parametrize("argv, message", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["profile", "--bogus"], "unrecognized arguments: --bogus"),
    (["profile", "--example", "e0", "--max-n", "x"], "--max-n"),
    ([], "required"),
    (["tutte", "--example", "e0", "--max-n=-1"], "at least 0"),
])
def test_usage_error_is_input_error(capsys, argv, message):
    # argparse's own exit code, 2, is the cap-exceeded code here
    rc, out, err = run_cli(capsys, *argv)
    assert rc == EXIT_INPUT
    assert out == "" and message in err and err.startswith("usage:")


@pytest.mark.parametrize("argv", [["-h"], ["profile", "-h"]])
def test_help_exits_zero(capsys, argv):
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert out.startswith("usage: starconfig")
    assert all(name in out for name in cli.COMMANDS)


@pytest.mark.parametrize("command", ["verify", "conjecture"])
@pytest.mark.parametrize("window", ["5", "1:x", ":3", "1:2:3"])
def test_malformed_window_is_input_error(capsys, command, window):
    rc, out, err = run_cli(capsys, command, "--example", "e0",
                           "--window", window)
    assert rc == EXIT_INPUT and out == ""
    assert f"expected lo:hi with integer bounds, got {window!r}" in err


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_window_with_lo_above_hi_is_a_usage_error(capsys, command):
    rc, out, err = run_cli(capsys, command, "--example", "e0",
                           "--window", "9:2")
    assert rc == EXIT_INPUT and out == "" and err.startswith("usage:")
    assert "expected lo:hi with lo <= hi, got '9:2'" in err


def test_negative_window_lo_needs_the_equals_form(capsys):
    """argparse reads a negative LO after a space as an option, so only
    --window=-3:5 parses."""
    args = cli.parse_args(["verify", "--example", "e0", "--window=-3:5"])
    assert args.window == (-3, 5)
    rc, out, err = run_cli(capsys, "verify", "--example", "e0",
                           "--window", "-3:5")
    assert rc == EXIT_INPUT and out == "" and err.startswith("usage:")
    assert "argument --window: expected one argument" in err


def test_options_may_come_before_the_command(capsys):
    rc, out, _ = run_cli(capsys, "--json", "--example", "e0", "tutte")
    assert rc == 0
    assert json.loads(out)["engines_agree"] is True


def test_conjecture_table_on_a_code_with_no_entries(capsys, tmp_path):
    # n = 1: no a in [2, n], so the matrix is its header alone
    path = write_input(tmp_path, "field gf 2\nsize 1 1\n1\n")
    rc, out, _ = run_cli(capsys, "conjecture", path, "--window", "1:2")
    assert rc == 0
    assert out.splitlines()[1:] == ["      t=1  t=2"]


@pytest.mark.parametrize("size", ["0 3", "0 0", "-1 3"])
def test_size_below_one_is_input_error(capsys, tmp_path, size):
    path = write_input(tmp_path, f"field gf 2\nsize {size}\n")
    rc, out, err = run_cli(capsys, "profile", path)
    assert rc == EXIT_INPUT
    assert out == "" and "at least 1" in err


def test_denominator_divisible_by_p_is_input_error(capsys, tmp_path):
    text = "field gf 5\nsize 1 2\n1 1/5\n"
    with pytest.raises(ExactArithError, match="denominator"):
        parse_input(text)
    rc, out, err = run_cli(capsys, "profile", write_input(tmp_path, text))
    assert rc == EXIT_INPUT and out == ""
    assert err.startswith("error:") and "divisible by 5" in err


FUZZ_BASES = [
    "field gf 5\nsize 2 4\n1 0 1 2\n0 1 1 3\nlabels a b c d\n",
    "field q\nsize 2 4\n1 0 1/2 -3\n0 1 2/3 1\n",
]
FUZZ_TOKENS = ["0", "1", "-1", "2", "3", "5", "7", "1/5", "2/10", "1/0",
               "-3/7", "1/", "/", "1.5", "x", "#", "field", "gf", "q",
               "size", "labels", "4", "7919", "18446744073709551629"]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FUZZ_BASES), st.data())
def test_mutated_input_never_raises(base, data):
    """Replace, delete or insert tokens of a valid input file: the CLI
    answers with exit 0, 1 or 2, never with an exception or an internal
    error (exit 3)."""
    lines = [ln.split() for ln in base.splitlines()]
    token = st.one_of(st.sampled_from(FUZZ_TOKENS),
                      st.text("0123456789-/#q", min_size=1, max_size=5))
    for _ in range(data.draw(st.integers(1, 3))):
        line = lines[data.draw(st.integers(0, len(lines) - 1))]
        at = data.draw(st.integers(0, len(line)))
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "insert" or at == len(line):
            line.insert(at, data.draw(token))
        elif op == "replace":
            line[at] = data.draw(token)
        else:
            del line[at]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(" ".join(line) for line in lines))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(["profile", path, "--no-cache"])
    assert rc in (0, EXIT_INPUT, EXIT_CAP)
    assert rc == 0 or err.getvalue().startswith("error:")


def test_internal_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "tutte_subset_sum",
                        lambda m: BivarPoly({(0, 0): 1}))
    rc, _, err = run_cli(capsys, "tutte", "--example", "e0")
    assert rc == EXIT_INTERNAL
    assert "disagree" in err


def test_internal_arithmetic_error_exits_3(capsys, monkeypatch):
    # an ExactArithError that the input did not cause is a bug: exit 3,
    # not the input-error exit 1
    def broken(code):
        raise ExactArithError("hierarchy must increase strictly")

    monkeypatch.setattr(cli, "weight_hierarchy", broken)
    for extra in ([], ["--json"]):
        rc, out, err = run_cli(capsys, "profile", "--example", "b3", *extra)
        assert rc == EXIT_INTERNAL and out == ""
        assert err == ("internal invariant violated: hierarchy must "
                       "increase strictly\n")


def test_whitney_shift_invariant_is_internal(capsys, monkeypatch):
    # both engines agree on a polynomial with no x^1 term, which no rank-2
    # Tutte polynomial lacks: a bug, not an input error
    monkeypatch.setattr(cli, "tutte_subset_sum",
                        lambda m: BivarPoly.one())
    monkeypatch.setattr(cli, "tutte_deletion_contraction",
                        lambda m, cache=None: BivarPoly.one())
    rc, _, err = run_cli(capsys, "tutte", "--example", "e0")
    assert rc == EXIT_INTERNAL
    assert "no nonzero shifted coefficient at x^1" in err


def test_tutte_cache_roundtrip(tmp_path):
    cache = TutteCache(str(tmp_path / "cache"))
    assert cache.get("missing") is None
    poly = BivarPoly({(2, 0): 1, (0, 1): 3})
    cache.put("some-key", poly)
    assert cache.get("some-key") == poly
    assert cache.get("other-key") is None


E0_TUTTE = BivarPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})


def e0_cache_key() -> str:
    return json.dumps(canonical_matrix_key(example_e0().matrix))


def write_entry(cache: TutteCache, key: str, text: str):
    """Store text as key's entry, through a connection of its own."""
    with closing(sqlite3.connect(cache.path)) as db:
        db.execute("INSERT OR REPLACE INTO entry VALUES (?, ?)", (key, text))
        db.commit()


def cache_rows(cache_dir: str) -> dict:
    with closing(sqlite3.connect(os.path.join(cache_dir,
                                              "tutte.sqlite3"))) as db:
        return dict(db.execute("SELECT key, poly FROM entry"))


def without_timings(out: str) -> dict:
    doc = json.loads(out)
    doc.pop("timings")
    return doc


@pytest.mark.parametrize("text", [
    "[1, 2]",
    json.dumps(BivarPoly({(0, 0): 7}).to_json()),
], ids=["not-an-object", "wrong-poly"])
def test_poisoned_cache_entry_is_a_miss_and_rewritten(capsys, tmp_path,
                                                      text):
    cache = TutteCache(str(tmp_path / "cache"))
    key = e0_cache_key()
    write_entry(cache, key, text)
    assert cache.get(key) is None
    rc, out, err = run_cli(capsys, "tutte", "--example", "e0", "--json",
                           "--cache-dir", cache.directory)
    assert rc == 0 and err == ""
    assert BivarPoly.from_json(json.loads(out)["tutte"]) == E0_TUTTE
    assert cache.get(key) == E0_TUTTE


def test_tutte_cache_rejects_malformed_entries(tmp_path):
    cache = TutteCache(str(tmp_path / "cache"))
    key = e0_cache_key()
    good = E0_TUTTE

    def term(**t):
        return json.dumps({"terms": [t]})

    bad = [
        "text", "null", json.dumps("text"), json.dumps([good.to_json()]),
        "{}",
        "[" * 100000,
        json.dumps({"terms": "x^2"}),
        term(x="2", y=0, coeff="1"),
        term(x=-1, y=0, coeff="1"),
        term(x=2, y=0, coeff=1.5),
        term(x=2, y=0, coeff="one"),
        term(x=2, y=0),
        json.dumps(BivarPoly({(0, 0): 7}).to_json()),  # T(2, 2) != 2^3
    ]
    for text in bad:
        write_entry(cache, key, text)
        assert cache.get(key) is None, text
    cache.put(key, good)
    assert cache.get(key) == good
    assert cache_rows(cache.directory) == {key: json.dumps(good.to_json())}


@pytest.mark.parametrize("x, y", [(10**9, 10**9), (10**9, 0), (0, 4)])
def test_tutte_cache_rejects_high_degrees_unevaluated(tmp_path, monkeypatch,
                                                      x, y):
    """A term with x + y above the key's n is a miss before T(2, 2) is
    evaluated, however large its exponents."""
    cache = TutteCache(str(tmp_path / "cache"))
    key = e0_cache_key()
    assert poly_matches_key(BivarPoly({(3, 0): 1}), key)
    assert poly_matches_key(BivarPoly({(0, 3): 1}), key)

    def evaluate(poly, x, y):
        raise AssertionError("evaluated a poly of too high a degree")

    monkeypatch.setattr(BivarPoly, "evaluate", evaluate)
    write_entry(cache, key, json.dumps(
        {"terms": [{"x": x, "y": y, "coeff": "3"}]}))
    assert cache.get(key) is None


def test_tutte_cache_skips_a_locked_or_closed_database(tmp_path):
    cache = TutteCache(str(tmp_path / "cache"))
    cache._db.execute("PRAGMA busy_timeout = 0")
    key, good = e0_cache_key(), E0_TUTTE
    with closing(sqlite3.connect(cache.path, isolation_level=None)) as other:
        other.execute("BEGIN IMMEDIATE")
        cache.put(key, good)  # database is locked: the entry is skipped
        assert cache.get(key) is None
        other.execute("COMMIT")
    cache.put(key, good)
    assert cache.get(key) == good
    cache.close()
    cache.put(key, good)
    assert cache.get(key) is None


def test_cache_open_waits_for_a_database_being_created(tmp_path):
    """Switching a new database to WAL fails at once, without SQLite's
    busy wait, while another connection holds the write lock; opening the
    cache retries until that lock is released."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    other = sqlite3.connect(cache_dir / "tutte.sqlite3", isolation_level=None,
                            check_same_thread=False)
    other.execute("BEGIN IMMEDIATE")
    release = threading.Timer(0.2, other.execute, ("COMMIT",))
    release.start()
    try:
        with TutteCache(str(cache_dir)) as cache:
            cache.put("key", E0_TUTTE)
            assert cache.get("key") == E0_TUTTE
    finally:
        release.join(timeout=10)
        other.close()
    assert not release.is_alive()


@pytest.mark.parametrize("command", ["profile", "tutte"])
@pytest.mark.parametrize("damage", ["garbage", "directory"])
def test_unusable_cache_database_is_a_warning(capsys, tmp_path, command,
                                              damage):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    db = cache_dir / "tutte.sqlite3"
    if damage == "garbage":
        db.write_bytes(bytes(range(256)) * 16)
    else:
        db.mkdir()
    assert_uncached_with_a_warning(capsys, command, "--cache-dir",
                                   str(cache_dir))
    if damage == "garbage":
        assert db.read_bytes() == bytes(range(256)) * 16


@pytest.mark.parametrize("command", ["profile", "tutte"])
@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("where", ["file", "under-file"])
def test_unusable_cache_directory_is_a_warning(capsys, tmp_path, monkeypatch,
                                               command, source, where):
    """A cache directory that cannot be made (a regular file, or a path
    under one) is a warning, as an unusable database is."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    directory = str(blocker if where == "file" else blocker / "cache")
    if source == "flag":
        assert_uncached_with_a_warning(capsys, command, "--cache-dir",
                                       directory)
    else:
        monkeypatch.setenv(cli.CACHE_ENV, directory)
        assert_uncached_with_a_warning(capsys, command)
    assert blocker.read_text() == "not a directory"


def assert_uncached_with_a_warning(capsys, command, *cache_args):
    """command on b3 exits 0 with one warning line and the output of an
    uncached run."""
    rc, out, err = run_cli(capsys, command, "--example", "b3", "--json",
                           *cache_args)
    assert rc == 0
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning:"), err
    _, plain, _ = run_cli(capsys, command, "--example", "b3", "--json",
                          "--no-cache")
    assert without_timings(out) == without_timings(plain)


def test_cache_flag_creates_entries_and_identical_output(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    rc1, out1, _ = run_cli(capsys, "profile", "--example", "b3",
                           "--json", "--cache-dir", cache_dir)
    # the run closed the database, which folds the WAL file into it
    assert os.listdir(cache_dir) == ["tutte.sqlite3"]
    rows = cache_rows(cache_dir)
    assert rows
    for key, text in rows.items():
        assert text == json.dumps(BivarPoly.from_json(
            json.loads(text)).to_json())
    # second run hits the cache and must emit byte-identical values
    rc2, out2, _ = run_cli(capsys, "profile", "--example", "b3",
                           "--json", "--cache-dir", cache_dir)
    assert rc1 == rc2 == 0
    assert without_timings(out1) == without_timings(out2)
    assert cache_rows(cache_dir) == rows
    # uncached run agrees as well
    _, out3, _ = run_cli(capsys, "profile", "--example", "b3",
                         "--json", "--no-cache")
    assert without_timings(out3) == without_timings(out1)


class LoggingTutteCache(TutteCache):
    """A TutteCache that logs its gets and puts as conftest.DictCache
    does."""

    def __init__(self, directory):
        super().__init__(directory)
        self.log = []

    def get(self, key):
        self.log.append(("get", key))
        return super().get(key)

    def put(self, key, poly):
        self.log.append(("put", key, json.dumps(poly.to_json())))
        super().put(key, poly)


@pytest.mark.parametrize("spec", [GF(2), GF(3), QQ], ids=["gf2", "gf3", "q"])
def test_disk_cache_traffic_and_persistence(tmp_path, spec):
    """Cold, DC makes the same gets and puts through the database as
    through a dict, and stores each put's text; a second cache on the
    directory answers a warm run with no put."""
    m = VectorMatroid(random_code(random.Random(5), 4, 11, spec).matrix)
    reference = DictCache()
    poly = tutte_deletion_contraction(m, cache=reference)
    cache_dir = str(tmp_path / "cache")
    with LoggingTutteCache(cache_dir) as cold:
        assert tutte_deletion_contraction(m, cache=cold) == poly
        puts = [entry for entry in cold.log if entry[0] == "put"]
        # committed when the call returns, before the cache is closed
        assert cache_rows(cache_dir) == {key: text for _, key, text in puts}
    assert cold.log == reference.log
    assert cache_rows(cache_dir) == {key: text for _, key, text in puts}
    with LoggingTutteCache(cache_dir) as warm:
        assert tutte_deletion_contraction(m, cache=warm) == poly
    assert warm.log == reference.log[:1]  # the root's entry answers it


def put_rows(cache: LoggingTutteCache) -> dict:
    """The rows the logged puts should have written."""
    return {entry[1]: entry[2] for entry in cache.log if entry[0] == "put"}


def test_dc_call_writes_in_batches_before_it_returns(tmp_path):
    """Puts are held back and written FLUSH_ROWS at a time while DC runs,
    and the rest when the call returns, the cache still open.  The [22,6]
    GF(2) code makes 629 puts, so two batches are written mid-call."""
    m = VectorMatroid(random_code(random.Random(1), 6, 22, GF(2)).matrix)
    cache_dir = str(tmp_path / "cache")
    committed = []

    class Watched(LoggingTutteCache):
        def put(self, key, poly):
            super().put(key, poly)
            committed.append(len(cache_rows(cache_dir)))

    cache = Watched(cache_dir)
    tutte_deletion_contraction(m, cache=cache)
    flush = TutteCache.FLUSH_ROWS
    assert len(committed) == 629 > 2 * flush
    assert committed == [(i + 1) // flush * flush
                         for i in range(len(committed))]
    assert cache_rows(cache_dir) == put_rows(cache)
    cache.close()


def test_puts_before_an_exception_are_written(tmp_path):
    m = VectorMatroid(random_code(random.Random(1), 4, 18, GF(2)).matrix)
    cache_dir = str(tmp_path / "cache")

    class Failing(LoggingTutteCache):
        def put(self, key, poly):
            super().put(key, poly)
            if len(put_rows(self)) == 10:
                raise RuntimeError("stop")

    with Failing(cache_dir) as cache:
        with pytest.raises(RuntimeError, match="stop"):
            tutte_deletion_contraction(m, cache=cache)
        assert len(put_rows(cache)) == 10
        assert cache_rows(cache_dir) == put_rows(cache)


def test_nested_batches_write_at_the_outer_exit(tmp_path):
    cache_dir = str(tmp_path / "cache")
    key = e0_cache_key()
    with TutteCache(cache_dir) as cache:
        with cache.batch():
            with cache.batch():
                cache.put(key, E0_TUTTE)
            assert cache_rows(cache_dir) == {}
            assert cache.get(key) is E0_TUTTE  # the held poly itself
        assert cache_rows(cache_dir) == {key: json.dumps(E0_TUTTE.to_json())}
        poly = BivarPoly({(0, 3): 1})
        cache.put("other", poly)  # outside a batch: written at once
        assert cache_rows(cache_dir)["other"] == json.dumps(poly.to_json())


def trace_selects(cache: TutteCache, log: list):
    """Append ("select",) to log at each SELECT the cache runs from now
    on, as SQLite traces them."""
    def trace(sql):
        if sql.startswith("SELECT"):
            log.append(("select",))
    cache._db.set_trace_callback(trace)


def test_tutte_cache_answers_a_row_it_wrote_from_memory(tmp_path):
    key = e0_cache_key()
    with TutteCache(str(tmp_path / "cache")) as cache:
        selects = []
        trace_selects(cache, selects)
        cache.put(key, E0_TUTTE)
        with cache.batch():
            cache.put("other", BivarPoly({(0, 3): 1}))
        assert cache.get(key) is E0_TUTTE
        assert cache.get("other") == BivarPoly({(0, 3): 1})
        assert selects == []


def test_tutte_cache_reads_a_valid_row_once(tmp_path):
    """A row another connection wrote is read and checked once; the cache
    then answers it from memory, even after the row is deleted, while a
    fresh cache on the directory misses."""
    key = e0_cache_key()
    cache_dir = str(tmp_path / "cache")
    with TutteCache(cache_dir) as cache:
        selects = []
        trace_selects(cache, selects)
        write_entry(cache, key, poly_text(E0_TUTTE))
        poly = cache.get(key)
        assert poly == E0_TUTTE
        assert cache.get(key) is poly
        assert len(selects) == 1
        with closing(sqlite3.connect(cache.path)) as db:
            db.execute("DELETE FROM entry")
            db.commit()
        assert cache.get(key) is poly
        assert len(selects) == 1
        with TutteCache(cache_dir) as fresh:
            assert fresh.get(key) is None


def test_tutte_cache_reads_a_poisoned_row_on_every_get(tmp_path):
    key = e0_cache_key()
    with TutteCache(str(tmp_path / "cache")) as cache:
        selects = []
        trace_selects(cache, selects)
        write_entry(cache, key, poly_text(BivarPoly({(0, 0): 7})))
        assert cache.get(key) is None
        assert cache.get(key) is None
        assert len(selects) == 2
        write_entry(cache, key, poly_text(E0_TUTTE))
        assert cache.get(key) == E0_TUTTE
        assert cache.get(key) == E0_TUTTE
        assert len(selects) == 3


def test_one_cache_through_dc_and_every_deletion(tmp_path):
    """DC on a code and then on each of its deletions, all through one
    cache, as the dc_cache benchmark runs it: the polynomials and the gets
    and puts are those of a dict, and no key the cache wrote is looked up
    in the database again."""
    m = VectorMatroid(random_code(random.Random(3), 4, 12, GF(2)).matrix)
    minors = [m] + [m.delete(ell) for ell in range(m.n)]
    reference = DictCache()
    polys = [tutte_deletion_contraction(minor, cache=reference)
             for minor in minors]
    with LoggingTutteCache(str(tmp_path / "cache")) as cache:
        trace_selects(cache, cache.log)
        assert [tutte_deletion_contraction(minor, cache=cache)
                for minor in minors] == polys
    log = [entry for entry in cache.log if entry[0] != "select"]
    assert log == reference.log
    written, selects, hits = set(), 0, 0
    for entry, after in zip(cache.log, cache.log[1:] + [("end",)]):
        if entry[0] == "put":
            written.add(entry[1])
        elif entry[0] == "get":
            assert (after == ("select",)) == (entry[1] not in written)
            selects += after == ("select",)
            hits += entry[1] in written
    assert selects and hits

@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 10**12),
                                 st.integers(0, 10**12)),
                       st.integers(-10**100, 10**100), max_size=12))
@example({})
@example({(0, 0): -10**99 - 1, (10**30, 7): 10**99, (7, 10**30): -1})
def test_poly_text_is_json_dumps_of_to_json(terms):
    poly = BivarPoly(terms)
    assert poly_text(poly) == json.dumps(poly.to_json())


JSON_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
JSON_SCALARS = (st.none() | st.booleans() | JSON_TEXT | st.integers()
                | st.floats(allow_nan=False, allow_infinity=False))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_TEXT | st.integers(), inner,
                                     max_size=4)),
    max_leaves=30)


@settings(max_examples=500, deadline=None)
@given(JSON_DOCS)
@example({})
@example([[], {}, ()])
@example({"a": {}, 3: [], -7: "\ud800", "\udfff": '"\\\x00\x1f\x7f'})
@example({"é\"\\": [1.5, -0.0, 1e300, 5e-324, True, False, None]})
@example({-10**100: 10**100, 0: -1})
@example([float("nan"), float("inf"), float("-inf")])
def test_json_text_is_json_dumps_with_indent_2(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {1, 2}, Fraction(1, 2), b"x", {(1, 2): 3}, [1, object()],
    {"a": {"b": Fraction(1, 3)}}])
def test_json_text_rejects_other_types(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        json_text(doc)


QUOTED_LABELS = """\
field q
size 2 4
1 0 1/2 -3
0 1 2/3 1
labels \u00e9"\\1 \u00e9"\\2 \u00e9"\\3 \u00e9"\\4
"""


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_json_output_is_json_dumps_with_indent_2(capsys, tmp_path,
                                                 command):
    sources = [["--example", "e0"], ["--example", "b3"],
               [write_input(tmp_path, QUOTED_LABELS)]]
    for source in sources:
        rc, out, err = run_cli(capsys, command, *source, "--json",
                               "--no-cache")
        assert rc == 0 and err == ""
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
    if command == "conjecture":
        labels = [cell["label"] for cell in
                  json.loads(out)["entries"][0]["columns"]]
        assert labels == [f'\u00e9"\\{i}' for i in range(1, 5)]


def fresh_parser():
    """A parser built as build_parser builds one, with argparse's own
    usage text."""
    parser = cli.build_parser.__wrapped__()
    parser.usage = None
    return parser


def fresh_parse(capsys, argv):
    """(namespace or exit code, stdout, stderr) of a fresh parser."""
    try:
        result = fresh_parser().parse_intermixed_args(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_main_reuses_one_parser_as_a_fresh_one_would_parse(capsys):
    assert cli.build_parser() is cli.build_parser()
    for argv in (["profile", "--bogus"], ["-h"],
                 ["conjecture", "--example", "e0", "--window", "0:4",
                  "--json"],
                 ["conjecture", "--example", "e0", "--json"]):
        expected, out, err = fresh_parse(capsys, argv)
        if isinstance(expected, int):  # -h or a usage error
            assert run_cli(capsys, *argv) == (expected, out, err)
        else:
            assert cli.parse_args(argv) == expected
            rc, main_out, _ = run_cli(capsys, *argv)
            assert rc == 0
    # the earlier --window 0:4 does not leak: t runs up to n + 2
    assert json.loads(main_out)["t_max"] == 5


def test_threads_share_the_one_parser():
    # parse_intermixed_args edits the parser's actions while it runs
    argvs = [["--json", "--example", "e0", "tutte"],
             ["profile", "code.txt", "--window", "1:4", "--max-n", "9"]]
    expected = [fresh_parser().parse_intermixed_args(argv)
                for argv in argvs]
    failures = []

    def parse_repeatedly(i):
        for _ in range(300):
            try:
                ok = cli.parse_args(argvs[i % 2]) == expected[i % 2]
            except SystemExit:
                ok = False
            if not ok:
                failures.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=parse_repeatedly, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []


def test_two_processes_share_one_cache(tmp_path):
    code = random_code(random.Random(7), 4, 14, GF(3))
    rows = "\n".join(" ".join(map(str, row)) for row in code.matrix.entries)
    path = write_input(tmp_path, f"field gf 3\nsize 4 14\n{rows}\n")
    cache_dir = str(tmp_path / "cache")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "starconfig.cli", "tutte", path, "--json",
            "--cache-dir", cache_dir]
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env=env, text=True)
             for _ in range(2)]
    results = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], results
    assert [err for _, err in results] == ["", ""]
    first, second = (without_timings(out) for out, _ in results)
    assert first == second
    with closing(sqlite3.connect(os.path.join(cache_dir,
                                              "tutte.sqlite3"))) as db:
        assert db.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
    assert cache_rows(cache_dir)


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", [["verify", "--example", "e0"],
                                     ["identity", "--json"]])
def test_closed_stdout_ends_quietly(command, unbuffered):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:  # each print then writes at once, inside main
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "starconfig.cli", *command,
             "--no-cache"], stdout=write_end, stderr=subprocess.PIPE,
            env=env, text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_PIPE, "")


def test_stdout_that_cannot_encode_a_label_is_exit_1(tmp_path):
    # an error of the output stream, as an OSError is, not a bug
    path = write_input(tmp_path, QUOTED_LABELS)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "starconfig.cli", "primes", path,
         "--no-cache"], capture_output=True, env=env, text=True,
        timeout=300)
    assert proc.returncode == EXIT_INPUT
    assert proc.stderr.startswith("error: 'ascii' codec can't encode")


PLANTED_COLOOP = """\
field gf 3
size 3 5
1 0 1 2 0
0 1 1 2 0
0 0 0 0 1
"""


def test_one_span_join_pass_per_cli_call(capsys, tmp_path, monkeypatch):
    callers, tallies = [], Counter()
    span_join = matroid._span_join

    def counted(*args):
        callers.append(sys._getframe(1).f_globals["__name__"])
        tallies[args[1].modulus] += 1
        return span_join(*args)

    monkeypatch.setattr(matroid, "_span_join", counted)
    path = write_input(tmp_path, PLANTED_COLOOP)
    for source in (["--example", "b3"], [path]):
        for command in ("profile", "ghw", "primes", "conjecture"):
            rc, out, _ = run_cli(capsys, command, *source, "--json",
                                 "--no-cache")
            assert rc == 0
    assert set(callers) == {"starconfig.matroid"}
    # one pass over the code's field per CLI call, b3's over GF(5)
    assert tallies == {5: 4, 3: 4}
    # the last report is the planted code's: only column 5 is a coloop
    coloops = [cell["coloop"] for cell in json.loads(out)["entries"][0]
               ["columns"]]
    assert coloops == [False, False, False, False, True]


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    env_dir = str(tmp_path / "envcache")
    monkeypatch.setenv(cli.CACHE_ENV, env_dir)
    rc, _, _ = run_cli(capsys, "tutte", "--example", "e0", "--json")
    assert rc == 0
    assert os.listdir(env_dir)
    # --no-cache wins over the environment variable
    other = str(tmp_path / "othercache")
    monkeypatch.setenv(cli.CACHE_ENV, other)
    rc, _, _ = run_cli(capsys, "tutte", "--example", "e0", "--json",
                       "--no-cache")
    assert rc == 0
    assert not os.path.exists(other)


def test_console_script_installed():
    import shutil
    exe = shutil.which("starconfig")
    assert exe is not None
