import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "random_crosscheck.py"


@pytest.fixture(scope="module")
def crosscheck():
    spec = importlib.util.spec_from_file_location("random_crosscheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, message", [
    (["--primes", "4"], "--primes: modulus 4 is not prime"),
    (["--primes", "2", "1"], "--primes: prime field needs a modulus >= 2"),
    (["--max-k", "0"], "--max-k must be at least 1, got 0"),
    (["--max-k", "5", "--max-n", "3"], "--max-n 3 is below --max-k 5"),
    (["--num-codes", "-3"], "--num-codes must be at least 1, got -3"),
], ids=["composite", "below-2", "max-k-0", "max-n-below-max-k",
        "num-codes-negative"])
def test_bad_arguments_are_usage_errors(crosscheck, capsys, argv, message):
    # each of these used to end in a traceback from the sampler, or in a
    # run of no codes; argv comes last, so that a row's own --num-codes wins
    with pytest.raises(SystemExit) as exc:
        crosscheck.main(["--num-codes", "1"] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_one_code_runs(crosscheck, capsys):
    # a seeded draw over GF(2), GF(3), GF(5) and Q, so that every check of
    # the crosscheck module runs over both kinds of field
    assert crosscheck.main(["--num-codes", "12", "--max-k", "3",
                            "--max-n", "7", "--primes", "2", "3", "5",
                            "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13
    assert any(" over Q  ok" in line for line in lines)
    assert any(" over GF(" in line for line in lines)
    assert lines[-1].startswith("all 12 codes consistent; 0 over Q with "
                                "k >= 4 skipped the Hilbert and colon checks")
