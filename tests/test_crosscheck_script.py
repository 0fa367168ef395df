import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "random_crosscheck.py"


@pytest.fixture(scope="module")
def crosscheck():
    spec = importlib.util.spec_from_file_location("random_crosscheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("argv, message", [
    (["--primes", "4"], "--primes: modulus 4 is not prime"),
    (["--primes", "2", "1"], "--primes: prime field needs a modulus >= 2"),
    (["--max-k", "0"], "--max-k must be at least 1, got 0"),
    (["--max-k", "5", "--max-n", "3"], "--max-n 3 is below --max-k 5"),
], ids=["composite", "below-2", "max-k-0", "max-n-below-max-k"])
def test_bad_arguments_are_usage_errors(crosscheck, capsys, argv, message):
    # each of these used to end in a traceback from the sampler
    with pytest.raises(SystemExit) as exc:
        crosscheck.main(argv + ["--num-codes", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_one_code_runs(crosscheck, capsys):
    assert crosscheck.main(["--num-codes", "1", "--max-k", "2",
                            "--max-n", "3", "--primes", "2"]) == 0
    assert "all 1 codes consistent" in capsys.readouterr().out
