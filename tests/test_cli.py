import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starconfig import cli, hilbert
from starconfig.cli import (EXIT_CAP, EXIT_INPUT, EXIT_INTERNAL, TutteCache,
                            example_b3, example_e0, main, parse_input)
from starconfig.fields import GF, ExactArithError
from starconfig.tutte import BivarPoly, canonical_matrix_key

from conftest import random_code

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
    doc = parse_input(E0_TEXT)
    assert doc.spec.kind == "gf" and doc.spec.modulus == 2
    assert (doc.k, doc.n) == (2, 3)
    assert doc.rows == [[1, 0, 1], [0, 1, 1]]
    assert doc.labels == ["x1", "x2", "x1+x2"]
    code = doc.code()
    assert code.labels == ("x1", "x2", "x1+x2")


def test_parse_input_rationals():
    doc = parse_input("field q\nsize 1 2\n1/2 -3\n")
    assert doc.spec.kind == "q"
    assert doc.rows == [[Fraction(1, 2), Fraction(-3)]]
    assert doc.labels is None


def test_parse_input_errors():
    for bad in ("", "field gf 2\n", "size 1 1\nfield gf 2\n1\n",
                "field gf 2\nsize 2 2\n1 0\n",
                "field gf 2\nsize 1 2\n1 0 1\n",
                "field gf 2\nsize 1 2\n1 0\nlabels a\n",
                "field gf 2\nsize 1 2\n1 0\nbogus line\n",
                "field gf 4\nsize 1 1\n1\n"):
        with pytest.raises((ExactArithError, ValueError)):
            parse_input(bad)


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
    # the dual of a [21,3] binary code has too many flats for a rank
    # table (matroid.FLAT_CAP); Wei duality reads the dual's hierarchy
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


def test_missing_input_is_input_error(capsys):
    rc, _, err = run_cli(capsys, "tutte")
    assert rc == EXIT_INPUT
    assert "input file" in err
    rc, _, err = run_cli(capsys, "tutte", "/nonexistent/file.txt")
    assert rc == EXIT_INPUT


def test_zero_column_is_input_error(capsys, tmp_path):
    path = write_input(tmp_path, "field gf 2\nsize 2 3\n1 0 0\n0 1 0\n")
    rc, _, err = run_cli(capsys, "profile", path)
    assert rc == EXIT_INPUT
    assert "column 3" in err


def test_cap_exceeded_exit_code(capsys):
    rc, _, err = run_cli(capsys, "tutte", "--example", "b3", "--max-n", "4")
    assert rc == EXIT_CAP
    assert "exceeds" in err


def test_conjecture_honours_max_n(capsys):
    rc, _, err = run_cli(capsys, "conjecture", "--example", "b3",
                         "--max-n", "3")
    assert rc == EXIT_CAP
    assert "exceeds exhaustive cap 3" in err


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
    answers with exit 0, 1 or 2, never with an exception."""
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
                        lambda m, cap=24: BivarPoly({(0, 0): 1}))
    rc, _, err = run_cli(capsys, "tutte", "--example", "e0")
    assert rc == EXIT_INTERNAL
    assert "disagree" in err


def test_tutte_cache_roundtrip(tmp_path):
    cache = TutteCache(str(tmp_path / "cache"))
    assert cache.get("missing") is None
    poly = BivarPoly({(2, 0): 1, (0, 1): 3})
    cache.put("some-key", poly.to_json())
    assert BivarPoly.from_json(cache.get("some-key")) == poly
    assert cache.get("other-key") is None


E0_TUTTE = BivarPoly({(2, 0): 1, (1, 0): 1, (0, 1): 1})


def e0_cache_key() -> str:
    return json.dumps(canonical_matrix_key(example_e0().matrix))


@pytest.mark.parametrize("entry", [
    lambda key: [1, 2],
    lambda key: {"key": key, "poly": BivarPoly({(0, 0): 7}).to_json()},
], ids=["not-an-object", "wrong-poly"])
def test_poisoned_cache_entry_is_a_miss_and_rewritten(capsys, tmp_path,
                                                      entry):
    cache = TutteCache(str(tmp_path / "cache"))
    key = e0_cache_key()
    with open(cache._path(key), "w", encoding="utf-8") as fh:
        json.dump(entry(key), fh)
    rc, out, err = run_cli(capsys, "tutte", "--example", "e0", "--json",
                           "--cache-dir", cache.directory)
    assert rc == 0, err
    assert BivarPoly.from_json(json.loads(out)["tutte"]) == E0_TUTTE
    assert BivarPoly.from_json(cache.get(key)) == E0_TUTTE


def test_tutte_cache_rejects_malformed_entries(tmp_path):
    cache = TutteCache(str(tmp_path / "cache"))
    key = e0_cache_key()
    good = E0_TUTTE.to_json()
    bad = [
        "text", None, {"key": key}, {"key": "other", "poly": good},
        {"key": key, "poly": good, "extra": 1},
        {"key": key, "poly": [good]},
        {"key": key, "poly": {"terms": "x^2"}},
        {"key": key, "poly": {"terms": [{"x": "2", "y": 0, "coeff": "1"}]}},
        {"key": key, "poly": {"terms": [{"x": -1, "y": 0, "coeff": "1"}]}},
        {"key": key, "poly": {"terms": [{"x": 2, "y": 0, "coeff": 1.5}]}},
        {"key": key, "poly": {"terms": [{"x": 2, "y": 0, "coeff": "one"}]}},
        {"key": key, "poly": {"terms": [{"x": 2, "y": 0}]}},
    ]
    for doc in bad:
        with open(cache._path(key), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert cache.get(key) is None, doc
    cache.put(key, good)
    assert cache.get(key) == good


def test_cache_flag_creates_entries_and_identical_output(capsys, tmp_path):
    cache_dir = str(tmp_path / "cache")
    rc1, out1, _ = run_cli(capsys, "profile", "--example", "b3",
                           "--json", "--cache-dir", cache_dir)
    files = os.listdir(cache_dir)
    assert files and all(f.endswith(".json") for f in files)
    # second run hits the cache and must emit byte-identical values
    rc2, out2, _ = run_cli(capsys, "profile", "--example", "b3",
                           "--json", "--cache-dir", cache_dir)
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timings"), doc2.pop("timings")
    assert rc1 == rc2 == 0 and doc1 == doc2
    # uncached run agrees as well
    _, out3, _ = run_cli(capsys, "profile", "--example", "b3",
                         "--json", "--no-cache")
    doc3 = json.loads(out3)
    doc3.pop("timings")
    assert doc3 == doc1


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
