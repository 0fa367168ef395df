"""Command-line front end.

Subcommands: tutte, ghw, profile, primes, mu, verify, conjecture, identity.
Input is either a matrix file (see parse_input) or a built-in example
(--example e0|b3).  Default output is a human table; --json emits the same
values as JSON, written by json_text.  One argument parser serves every
call of main in a process (build_parser).  Exit codes: 1 input error
(InputError, OSError or a usage error), 2 cap exceeded, 3 internal error
(InternalInvariantError, or any other ValueError that escapes a
subcommand), 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import threading
import time
import weakref
from contextlib import contextmanager, nullcontext
from json.encoder import encode_basestring_ascii

from .codes import (LinearCode, weight_hierarchy, ghw_bruteforce,
                    ghw_from_dual_rank, ghw_from_tutte, wei_duality_check)
from .fields import (GF, QQ, CapExceeded, ExactArithError, ExactMatrix,
                     InternalInvariantError)
from .hilbert import (WindowError, check_product_cap, check_window,
                      conjecture_report, fit_hilbert_polynomial, ideal_engine,
                      mu_oracle, render_conjecture_matrix)
from .star import binomial_identity_check, full_profile
from .tutte import (BivarPoly, poly_matches_key, tutte_deletion_contraction,
                    tutte_subset_sum, whitney_shift)

EXIT_INPUT = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports for `yes | head`

CACHE_ENV = "STARCONFIG_CACHE_DIR"

# default --max-n: the largest ground set a code command accepts
EXHAUSTIVE_CAP = 24


class InputError(ExactArithError):
    """A fault in what the CLI reads: the input file, the example or an
    option checked against the code.  Raised only by the CLI's input
    layer, so that main can tell it from an internal error."""


def parse_input(text: str) -> LinearCode:
    """Parse the matrix file format:

        field gf <p>   |   field q
        size <k> <n>
        <k rows of n whitespace-separated entries; rationals as a/b>
        labels <n names>            (optional, at most once)

    A '#' starts a comment that runs to the end of its line, on any line,
    so labels cannot contain '#'.  Every fault in the text, including a
    LinearCode check, raises InputError; a CapExceeded passes through.
    """
    try:
        return _parse_lines(text)
    except (InputError, CapExceeded):
        raise
    except ValueError as exc:  # int(), a scalar token or a LinearCode check
        raise InputError(str(exc)) from exc


def _parse_lines(text: str) -> LinearCode:
    lines = [ln for ln in (raw.partition("#")[0].strip()
                           for raw in text.splitlines()) if ln]
    if len(lines) < 2:
        raise InputError("input needs a field line and a size line")
    field_parts = lines[0].split()
    if field_parts[0] != "field":
        raise InputError("first line must start with 'field'")
    if field_parts[1:] == ["q"]:
        spec = QQ
    elif len(field_parts) == 3 and field_parts[1] == "gf":
        spec = GF(int(field_parts[2]))
    else:
        raise InputError(f"bad field line {lines[0]!r}")
    size_parts = lines[1].split()
    if size_parts[0] != "size" or len(size_parts) != 3:
        raise InputError("second line must be 'size <k> <n>'")
    k, n = int(size_parts[1]), int(size_parts[2])
    if k < 1 or n < 1:
        raise InputError(f"size {k} {n}: k and n must be at least 1")
    if len(lines) < 2 + k:
        raise InputError(f"expected {k} matrix rows")
    rows = []
    for ln in lines[2:2 + k]:
        entries = [spec.parse(tok) for tok in ln.split()]
        if len(entries) != n:
            raise InputError(
                f"row has {len(entries)} entries, expected {n}")
        rows.append(entries)
    labels = None
    for ln in lines[2 + k:]:
        parts = ln.split()
        if parts[0] != "labels":
            raise InputError(f"unexpected line {ln!r}")
        if labels is not None:
            raise InputError("more than one labels line")
        labels = parts[1:]
        if len(labels) != n:
            raise InputError(f"expected {n} labels")
    return LinearCode(ExactMatrix.from_rows(spec, rows), labels)


# -- built-in examples -------------------------------------------------------

def example_e0() -> LinearCode:
    """[3,2] code on x1, x2, x1+x2 over GF(2)."""
    matrix = ExactMatrix.from_rows(GF(2), [[1, 0, 1], [0, 1, 1]])
    return LinearCode(matrix, ["x1", "x2", "x1+x2"])


def example_b3() -> LinearCode:
    """[9,3] code of the B3 root system over GF(5) (characteristic != 2)."""
    rows = [[1, 0, 0, 1, 1, 1, 1, 0, 0],
            [0, 1, 0, 1, -1, 0, 0, 1, 1],
            [0, 0, 1, 0, 0, 1, -1, 1, -1]]
    labels = ["x1", "x2", "x3", "x1+x2", "x1-x2", "x1+x3", "x1-x3",
              "x2+x3", "x2-x3"]
    return LinearCode(ExactMatrix.from_rows(GF(5), rows), labels)


EXAMPLES = {"e0": example_e0, "b3": example_b3}


# -- persistent Tutte cache --------------------------------------------------

class TutteCache:
    """Persistent Tutte polynomial cache: one SQLite database,
    tutte.sqlite3, in the cache directory, with one row per key holding
    the text json.dumps(BivarPoly.to_json()) gives (written by
    poly_text).

    get and put take and return BivarPoly.  Inside batch(), put only
    records the entry in memory, and get answers recorded keys first; the
    recorded rows are written in one short transaction once FLUSH_ROWS are
    recorded and when the outermost batch exits, with or without an
    exception.  Outside a batch, put writes its row at once.  So the write
    lock is held only while rows are written, never while a caller
    computes, and a run killed inside a batch loses at most the
    FLUSH_ROWS - 1 rows not yet written.

    The cache also holds in memory every row it knows the database has:
    the rows of each transaction it committed, and each row get read that
    passed every check below.  get answers held keys before any SQL runs,
    with the BivarPoly held, so a row is read and parsed at most once per
    cache.  A skipped batch, a miss and a rejected row are not held, so a
    row another process writes later is still read.  The held rows cost
    one BivarPoly per key the cache wrote or read, as a
    deletion-contraction memo does per call; close() drops them.

    The database runs in WAL mode with synchronous=NORMAL, so concurrent
    runs on one directory read while another writes and queue their
    writes behind SQLite's lock; rows still locked out after the busy
    timeout are skipped.  WAL needs shared memory, so the directory must
    be on a local file system.  An entry whose text does not parse, or
    whose polynomial is malformed or cannot belong to its key, is a miss,
    and the next put overwrites it.  A sqlite3.Error in get is a miss and
    in a write skips its rows."""

    FLUSH_ROWS = 256

    def __init__(self, directory: str):
        import sqlite3  # here, so that runs without a cache never load it
        self.directory = directory
        self.path = os.path.join(directory, "tutte.sqlite3")
        self._error = sqlite3.Error
        os.makedirs(directory, exist_ok=True)
        db = sqlite3.connect(self.path, isolation_level=None)
        try:
            _switch_to_wal(db)
            db.execute("PRAGMA synchronous=NORMAL")
            db.execute("CREATE TABLE IF NOT EXISTS entry "
                       "(key TEXT PRIMARY KEY, poly TEXT NOT NULL)")
        except BaseException:
            db.close()
            raise
        self._db = db
        # a Connection waits for the cyclic GC; close it with the cache
        self._finalizer = weakref.finalize(self, db.close)
        self._pending = {}
        self._held = {}
        self._depth = 0

    def _path(self, key: str) -> str:
        """The file that holds key's entry: the database, for every key.
        perfbench/tracer.py reads its size after each put."""
        return self.path

    def close(self):
        self._held = {}
        self._finalizer()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    @contextmanager
    def batch(self):
        """Hold puts back until FLUSH_ROWS are held or the outermost
        batch exits."""
        self._depth += 1
        try:
            yield self
        finally:
            self._depth -= 1
            if not self._depth:
                self._flush()

    def get(self, key: str) -> BivarPoly | None:
        """The polynomial stored under key, or None on a miss."""
        poly = self._pending.get(key)
        if poly is None:
            poly = self._held.get(key)
        if poly is not None:
            return poly
        try:
            row = self._db.execute("SELECT poly FROM entry WHERE key = ?",
                                   (key,)).fetchone()
        except self._error:
            return None
        if row is None:
            return None
        try:
            poly = BivarPoly.from_json(json.loads(row[0]))
        except (TypeError, ValueError, RecursionError):
            return None  # ValueError covers from_json's ExactArithError
        if not poly_matches_key(poly, key):
            return None
        self._held[key] = poly
        return poly

    def put(self, key: str, poly: BivarPoly):
        self._pending[key] = poly
        if not self._depth or len(self._pending) >= self.FLUSH_ROWS:
            self._flush()

    def _flush(self):
        """Write the held rows in one transaction, or skip them all."""
        pending, self._pending = self._pending, {}
        if not pending:
            return
        rows = [(key, poly_text(poly)) for key, poly in pending.items()]
        try:
            with self._db:  # commits, or rolls back on an error
                self._db.execute("BEGIN IMMEDIATE")
                self._db.executemany(
                    "INSERT OR REPLACE INTO entry VALUES (?, ?)", rows)
        except self._error:
            return
        self._held.update(pending)


def _switch_to_wal(db):
    """PRAGMA journal_mode=WAL, retried while SQLite answers SQLITE_BUSY,
    for up to 5 s, the busy timeout.

    Switching a new database to WAL takes the write lock while holding a
    read lock, so SQLite fails the switch at once, without waiting, while
    another connection holds the write lock: two runs that create one
    cache at the same moment would otherwise leave one of them uncached.
    Once the database is in WAL, the pragma writes nothing."""
    import sqlite3
    deadline = time.monotonic() + 5.0
    while True:
        try:
            db.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if (exc.sqlite_errorcode & 0xFF != sqlite3.SQLITE_BUSY
                    or time.monotonic() > deadline):
                raise
        time.sleep(0.01)


def poly_text(poly: BivarPoly) -> str:
    """json.dumps(poly.to_json()), byte for byte, without building the
    doc: coefficients are ints, whose str needs no escaping."""
    return '{"terms": [' + ", ".join(
        f'{{"x": {i}, "y": {j}, "coeff": "{c}"}}'
        for (i, j), c in sorted(poly.terms.items())) + "]}"


def cache_from_args(args) -> TutteCache | None:
    """The cache the arguments name, or None.  A cache directory that
    cannot be made, or a database that SQLite cannot open, is a warning,
    and the run goes on without it."""
    if args.no_cache:
        return None
    directory = args.cache_dir or os.environ.get(CACHE_ENV)
    if directory is None:
        return None
    import sqlite3
    try:
        return TutteCache(directory)
    except (OSError, sqlite3.Error) as exc:
        print(f"warning: cache {directory} not used: {exc}", file=sys.stderr)
        return None


# -- shared computation ------------------------------------------------------

def load_code(args) -> LinearCode:
    """The code the arguments name; the one check of --max-n, made before
    any engine runs.  A file that cannot be opened raises OSError, and one
    that is not UTF-8, or does not parse, InputError."""
    if args.example:
        code = EXAMPLES[args.example]()
    elif args.input:
        with open(args.input, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise InputError(str(exc)) from exc
        code = parse_input(text)
    else:
        raise InputError("provide an input file or --example")
    if code.n > args.max_n:
        raise CapExceeded(f"ground set of size {code.n} exceeds "
                          f"exhaustive cap {args.max_n}")
    return code


def check_oracle_products(code: LinearCode):
    """The Hilbert oracle's product cap, checked for every a <= n before
    any engine runs, as verify and conjecture take every a."""
    for a in range(1, code.n + 1):
        check_product_cap(code.n, a)


def compute_tutte(code: LinearCode, args):
    t0 = time.monotonic()
    by_subsets = tutte_subset_sum(code.matroid)
    t1 = time.monotonic()
    with cache_from_args(args) or nullcontext() as cache:
        by_dc = tutte_deletion_contraction(code.matroid, cache=cache)
    t2 = time.monotonic()
    if by_subsets != by_dc:
        raise InternalInvariantError(
            "subset-sum and deletion-contraction engines disagree")
    timings = {"subset_sum_s": t1 - t0, "deletion_contraction_s": t2 - t1}
    return by_subsets, timings


def emit(args, doc: dict, table: str):
    print(json_text(doc) if args.json else table)


def _float_text(x: float) -> str:
    """x as json writes it: NaN and the infinities as JavaScript names."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the text of each scalar type, by exact type, as json writes it
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,
                float: _float_text,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _int_key_text(key) -> str:
    """An int key quoted, as json writes it; TypeError for a key of any
    type but str or int."""
    if type(key) is not int:
        raise TypeError(f"keys must be str or int, not {type(key).__name__}")
    return f'"{int.__repr__(key)}"'


def json_text(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2), byte for byte, for the shapes the
    commands emit: dicts with str or int keys, lists and tuples, and str,
    int, float, bool and None, each of that exact type.  Any other type
    raises TypeError.  indent is the line break and indentation of the
    line doc starts on.

    With indent set, json.dumps always runs the stdlib's pure-Python
    encoder; this writer does the same work in one call per container,
    and strings still go through json's C escaper."""
    scalar = _SCALAR_TEXT.get
    kind = type(doc)
    if kind is dict:
        if not doc:
            return "{}"
        inner = indent + "  "
        items = [(encode_basestring_ascii(key) if type(key) is str
                  else _int_key_text(key)) + ": "
                 + (text(value) if (text := scalar(type(value)))
                    else json_text(value, inner))
                 for key, value in doc.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not doc:
            return "[]"
        inner = indent + "  "
        items = [text(value) if (text := scalar(type(value)))
                 else json_text(value, inner) for value in doc]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    text = scalar(kind)
    if text is None:
        raise TypeError(
            f"Object of type {kind.__name__} is not JSON serializable")
    return text(doc)


# -- subcommands -------------------------------------------------------------

def cmd_tutte(args) -> int:
    code = load_code(args)
    poly, timings = compute_tutte(code, args)
    shifted = whitney_shift(poly, code.k)
    doc = {"tutte": poly.to_json(), "shifted": shifted.to_json(),
           "engines_agree": True, "timings": timings}
    table = (f"T(x, y)     = {poly}\n"
             f"engines agree: yes\n"
             f"p_r          = {list(shifted.p)}")
    emit(args, doc, table)
    return 0


def cmd_ghw(args) -> int:
    code = load_code(args)
    poly, _ = compute_tutte(code, args)
    shifted = whitney_shift(poly, code.k)
    rows = []
    for r in range(code.k + 1):
        rows.append((r, ghw_bruteforce(code, r),
                     ghw_from_tutte(shifted, code, r),
                     ghw_from_dual_rank(code, r)))
    holds, lhs, rhs, dual_d = wei_duality_check(code)
    doc = {
        "hierarchy": [row[1] for row in rows],
        "routes": [{"r": r, "bruteforce": b, "tutte": t, "dual_rank": d}
                   for r, b, t, d in rows],
        "dual_hierarchy": dual_d,
        "wei_duality": {"holds": holds, "primal": lhs, "complement": rhs},
    }
    lines = ["r  brute  tutte  dual-rank"]
    for r, b, t, d in rows:
        lines.append(f"{r}  {b:5}  {t:5}  {d:9}")
    lines.append(f"Wei duality: {'holds' if holds else 'VIOLATED'} "
                 f"({lhs} vs {rhs})")
    emit(args, doc, "\n".join(lines))
    return 0 if holds else EXIT_INTERNAL


def _profiles(code, args):
    poly, timings = compute_tutte(code, args)
    shifted = whitney_shift(poly, code.k)
    hierarchy = weight_hierarchy(code)
    return poly, shifted, hierarchy, full_profile(code, shifted,
                                                  hierarchy), timings


def cmd_profile(args) -> int:
    code = load_code(args)
    poly, shifted, hierarchy, profiles, timings = _profiles(code, args)
    doc = {
        "tutte": poly.to_json(),
        "shifted": shifted.to_json(),
        "hierarchy": hierarchy.to_json(),
        "profiles": [p.to_json() for p in profiles],
        "timings": timings,
    }
    lines = [f"T(x, y) = {poly}",
             f"weights d_0..d_k = {list(hierarchy.d)}",
             "",
             "a   height  degree      mu          #min-primes(low height)"]
    for p in profiles:
        lines.append(f"{p.a:<3} {p.height:<7} {str(p.degree):<11} "
                     f"{str(p.mu):<11} {len(p.primes)}")
    emit(args, doc, "\n".join(lines))
    return 0


def cmd_primes(args) -> int:
    code = load_code(args)
    _, _, hierarchy, profiles, _ = _profiles(code, args)
    doc = {"primes": [{"a": p.a,
                       "irrelevant_power": p.irrelevant_power,
                       "list": [q.to_json() for q in p.primes]}
                      for p in profiles]}
    lines = []
    for p in profiles:
        if p.irrelevant_power:
            lines.append(f"a={p.a}: <x1..xk>^{p.a} (irrelevant ideal power)")
            continue
        lines.append(f"a={p.a}: height {p.height}, {len(p.primes)} minimal "
                     "primes + K (unknown)")
        for q in p.primes:
            forms = ", ".join(code.labels[i] for i in q.flat.indices())
            lines.append(f"    ({forms})  nu={q.nu}  exponent={q.exponent}")
    emit(args, doc, "\n".join(lines))
    return 0


def cmd_mu(args) -> int:
    code = load_code(args)
    _, _, _, profiles, _ = _profiles(code, args)
    doc = {"mu": [{"a": p.a, "mu": str(p.mu)} for p in profiles]}
    lines = ["a   mu"] + [f"{p.a:<3} {p.mu}" for p in profiles]
    emit(args, doc, "\n".join(lines))
    return 0


def cmd_verify(args) -> int:
    code = load_code(args)
    if args.window is not None:
        try:
            check_window(args.window, code.k)
        except ExactArithError as exc:
            raise InputError(str(exc)) from exc
    check_oracle_products(code)
    _, shifted, hierarchy, profiles, timings = _profiles(code, args)
    checks = []
    all_ok = True
    for p in profiles:
        engine = ideal_engine(code, p.a)
        try:
            fit = fit_hilbert_polynomial(code, p.a, window=args.window,
                                         engine=engine)
        except WindowError as exc:
            checks.append({"a": p.a, "status": "inconclusive",
                           "reason": str(exc)})
            all_ok = False
            continue
        mu_o = mu_oracle(code, p.a, engine=engine)
        ok = (fit.degree_invariant == p.degree
              and fit.implied_height == p.height
              and mu_o == p.mu)
        all_ok &= ok
        checks.append({
            "a": p.a, "status": "ok" if ok else "MISMATCH",
            "tutte_degree": str(p.degree),
            "oracle_degree": str(fit.degree_invariant),
            "height": p.height, "oracle_height": fit.implied_height,
            "mu": str(p.mu), "oracle_mu": str(mu_o),
            "hilbert": fit.to_json(),
        })
    doc = {"oracle": checks, "all_ok": all_ok, "timings": timings}
    lines = ["a   status  degree(tutte=oracle)  height  mu"]
    for c in checks:
        if c["status"] == "inconclusive":
            lines.append(f"{c['a']:<3} inconclusive ({c['reason']})")
        else:
            lines.append(f"{c['a']:<3} {c['status']:<7} "
                         f"{c['tutte_degree']}={c['oracle_degree']:<12} "
                         f"{c['height']}={c['oracle_height']:<5} "
                         f"{c['mu']}={c['oracle_mu']}")
    emit(args, doc, "\n".join(lines))
    return 0 if all_ok else EXIT_INTERNAL


def cmd_conjecture(args) -> int:
    code = load_code(args)
    check_oracle_products(code)
    t_max = args.window[1] if args.window else code.n + 2
    report = conjecture_report(code, t_max)
    table = render_conjecture_matrix(report)
    if report["note"]:
        table = f"note: {report['note']}\n{table}"
    emit(args, report, table)
    return 0


def cmd_identity(args) -> int:
    failures = []
    cap = 14
    total = 0
    for alpha in range(2, cap + 1):
        for beta in range(1, alpha):
            for gamma in range(1, beta + 1):
                total += 1
                if not binomial_identity_check(alpha, beta, gamma):
                    failures.append((alpha, beta, gamma))
    doc = {"checked": total, "failures": failures}
    emit(args, doc, f"binomial identity: {total} triples checked, "
         f"{len(failures)} failures")
    return 0 if not failures else EXIT_INTERNAL


COMMANDS = {
    "tutte": cmd_tutte,
    "ghw": cmd_ghw,
    "profile": cmd_profile,
    "primes": cmd_primes,
    "mu": cmd_mu,
    "verify": cmd_verify,
    "conjecture": cmd_conjecture,
    "identity": cmd_identity,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit EXIT_INPUT, not
    argparse's 2, which is EXIT_CAP here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def window_arg(text: str) -> tuple:
    """--window lo:hi as the pair (lo, hi) of ints, with lo <= hi."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with integer bounds, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi with lo <= hi, got {text!r}")
    return lo, hi


def cap_arg(text: str) -> int:
    """--max-n as an int of at least 0."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected an integer of at least 0, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One parser for every command, built once per process: each command
    takes the same options.

    Its usage text is set once, to what argparse would format, because
    parse_intermixed_args formats it again on every call when it is
    unset.  parse_intermixed_args also edits the parser's actions while it
    runs and restores them, so parse_args holds a lock around it."""
    parser = _Parser(
        prog="starconfig",
        description="Exact Tutte / star-configuration invariant tool")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("input", nargs="?", help="matrix file")
    parser.add_argument("--example", choices=sorted(EXAMPLES))
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--window", type=window_arg, metavar="LO:HI",
                        help="degree window")
    parser.add_argument("--cache-dir")
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--max-n", type=cap_arg, default=EXHAUSTIVE_CAP)
    parser.usage = parser.format_usage().removeprefix("usage: ")
    return parser


_PARSER_LOCK = threading.Lock()


def parse_args(argv) -> argparse.Namespace:
    """argv parsed by the one parser; SystemExit on -h or a usage error."""
    with _PARSER_LOCK:
        return build_parser().parse_intermixed_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:  # -h exits 0, a usage error EXIT_INPUT
        return exc.code
    try:
        status = COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed stdout fails here
        return status
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except BrokenPipeError:
        # the reader of stdout went away: end quietly, and point stdout at
        # devnull so that its flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except (InputError, OSError, UnicodeEncodeError) as exc:
        # UnicodeEncodeError: stdout's encoding cannot write a label
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # an ExactArithError the input did not cause
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
