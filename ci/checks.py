"""The checks that hold latin3's routes together past tier-1, with asserts
stripped.  Run from anywhere in a checkout, with no arguments:

    python -O ci/checks.py

It prints one "PASS|FAIL <name> <seconds>" line per row of CHECKS, a
failure's detail indented under its line, and exits 1 if any check failed.
Without -O it refuses to start.  A row is a name and its parts, each
(kind, *args); a kind is a function below that raises Failed naming what
differs.  A `command` is a latin3 command line: cli.main runs it in
process, or `python -O -m latin3` as a subprocess where a timeout bounds it.
"""

import contextlib
import functools
import hashlib
import io
import math
import shlex
import subprocess
import sys
import tempfile
import textwrap
import time
import traceback
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from latin3 import cli, verify  # noqa: E402
from latin3.chromatic import chromatic_poly, eval_poly  # noqa: E402
from latin3.combinatorics import falling  # noqa: E402
from latin3.formulas import aps_g, g_npq_closed, riordan_l3, thm3_g  # noqa: E402
from latin3.graphs import build_gnpq  # noqa: E402
from latin3.oracle import count_latin  # noqa: E402


class Failed(Exception):
    """A check found a difference; the message names the cell and values."""


def run_cli(command):
    """cli.main on the command in process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(shlex.split(command))
        except SystemExit as exc:  # argparse refuses bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def table(args):
    """The rows (n, lambda, value) of `table --formula <args> --format csv`."""
    code, out, err = run_cli(f"table --formula {args} --format csv")
    if code:
        raise Failed(f"table --formula {args}: exit {code}: {err.strip()}")
    rows = []
    for line in out.splitlines()[1:]:
        n, lam, _, value = line.split(",")
        rows.append((n, lam, value))
    return rows


def surgered(ns, lams):
    """The cells (n, p, q, lambda) of every G(n,p,q) with n in ns, lambda in lams(n)."""
    return [(n, p, q, lam) for n in ns for p in range(n + 1)
            for q in range(n - p + 1) for lam in lams(n)]


def riordan_rectangles(n, lam):
    """n! * riordan_l3(n): the rectangles on n symbols, at lambda = n."""
    return math.factorial(n) * riordan_l3(n)


def pinned_rectangles(n, lam):
    """falling(lambda, n) * count_latin with the first row pinned to 1..n."""
    return falling(lam, n) * count_latin(n, lam, True)


@functools.cache
def gnpq_poly(n, p, q):
    return chromatic_poly(build_gnpq(n, p, q), max_vertices=3 * n)


def agree(cells, routes):
    """Every route, a function of the cell, gives the same value on each cell."""
    for cell in cells:
        values = {name: route(*cell) for name, route in routes.items()}
        if len(set(values.values())) > 1:
            raise Failed(f"at {cell}: " + ", ".join(f"{k} {v}" for k, v in values.items()))


def same_rows(rows, printed):
    """Each route's printed rows number `rows` and equal the first route's."""
    for name, lines in printed.items():
        if len(lines) != rows:
            raise Failed(f"{name}: {len(lines)} rows, want {rows}")
    agree([(i,) for i in range(rows)], {name: lines.__getitem__ for name, lines in printed.items()})


def tables(rows, flags, *routes):
    """`table` of each route (a formula and its flags) on the shared flags: same_rows."""
    same_rows(rows, {route: table(f"{route} {flags}") for route in routes})


def riordan_times_n_factorial(rows, flags):
    """riordan prints `rows` rows, and n! times each equals thm3 at lambda = n."""
    scaled = [(n, lam, str(math.factorial(int(n)) * int(v))) for n, lam, v in table(f"riordan {flags}")]
    same_rows(rows, {"n! * riordan": scaled, "thm3": table(f"thm3 {flags} --lambda-offset 0")})


def digest(pin, *streams):
    """One sha256 over the lines "<cell> <value>" of each (cells, route) stream equals pin."""
    h = hashlib.sha256()
    for cells, route in streams:
        for cell in cells:
            h.update(f"{' '.join(map(str, cell))} {route(*cell)}\n".encode())
    if h.hexdigest() != pin:
        raise Failed(f"sha256 {h.hexdigest()}, pinned {pin}")


def output(command, want):
    """The command exits 0 and prints exactly want on stdout."""
    code, out, err = run_cli(command)
    if code or out != want:
        raise Failed(f"{command}: exit {code}, stdout {out!r}, want {want!r}; {err.strip()}")


def counters(command, pin, want=None):
    """The command with --stats exits 0 and prints exactly the pinned counters
    on stderr, and exactly want, if given, on stdout."""
    code, out, err = run_cli(f"{command} --stats")
    if code or err != pin + "\n":
        raise Failed(f"{command} --stats: exit {code}, stderr {err.strip()!r}, pinned {pin!r}")
    if want is not None and out != want:
        raise Failed(f"{command} --stats: stdout {out!r}, want {want!r}")


def budget(command, nodes, completed, value):
    """A node budget one short of `nodes` exits 3 at the nodes-th, having
    completed `completed`; a budget of exactly `nodes` prints value."""
    code, _, err = run_cli(f"{command} --node-budget {nodes - 1}")
    want = f"visited {nodes} nodes, completed {completed}"
    if code != 3 or want not in err:
        raise Failed(f"budget {nodes - 1}: exit {code}, stderr {err.strip()!r}, want exit 3 and {want!r}")
    output(f"{command} --node-budget {nodes}", value + "\n")


def on_graph(text, stats, coefficients):
    """chromatic on the graph `text` prints the pinned counters and coefficients."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "graph")
        path.write_text(text)
        counters(f"chromatic {shlex.quote(str(path))}", stats)
        output(f"chromatic {shlex.quote(str(path))}", coefficients)


def gnpq_equal(rows, cells):
    """gnpq exits 0 and ends in EQUAL on each of `rows` cells."""
    if len(cells) != rows:
        raise Failed(f"{len(cells)} cells, want {rows}")
    for cell in cells:
        code, out, err = run_cli("gnpq " + " ".join(map(str, cell)))
        if code or out.splitlines()[-1:] != ["EQUAL"]:
            raise Failed(f"gnpq {cell}: exit {code}, stdout {out!r}; {err.strip()}")


def refused(command):
    """`python -O -m latin3 <command>` exits 3 within 2 s."""
    try:
        code = subprocess.run([sys.executable, "-O", "-m", "latin3", *shlex.split(command)],
                              cwd=SRC, capture_output=True, timeout=2).returncode
    except subprocess.TimeoutExpired:
        raise Failed(f"{command}: still running after 2 s") from None
    if code != 3:
        raise Failed(f"{command}: exit {code}, want 3")


def memory(kib, *names):
    """verify's named checks, or every check if none is named, pass on a
    fresh run at n_max = 4, their traced peak under kib KiB."""
    checks = [check for check in verify._CHECKS if not names or check.name in names]
    tracemalloc.start()
    try:
        run = verify._Run(4, verify.DEFAULT_SEED)
        results = [verify._run_check(check, run) for check in checks]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise Failed(f"verify failed: {failed}")
    if peak >= kib << 10:
        raise Failed(f"{' and '.join(names) or 'the whole run'} peaked at {peak >> 10} KiB, not under {kib} KiB")


CHECKS = [
    ("Oracle exactness past tier-1",
     # count_latin against thm3_g: no tier-1 test reaches (5,6) or (6,7).
     # (6,7) is compared under "Oracle counters unchanged", which pins its
     # 102,992-state search, so that search runs once.
     (tables, 2, "--n 5 --lambda-offset 0..1", "latin-oracle", "thm3"),
     (tables, 1, "--n 6 --lambda 6", "latin-oracle", "thm3")),
    ("Closed forms agree past the benchmark",
     # n = 1..80: the square benchmark stops at n = 51.
     (tables, 240, "--n 1..80 --lambda-offset 0..2", "thm3", "aps")),
    ("Every table route agrees under python -O",
     # The formulas come from the CLI's route table, so a route added later is
     # checked here unchanged.  riordan has no lambda: n! times its rows must
     # equal thm3 at lambda = n.
     (tables, 9, "--n 1..3 --lambda-offset 0..2", *(f for f in cli.FORMULA_CHOICES if f != "riordan")),
     (riordan_times_n_factorial, 3, "--n 1..3")),
    ("Oracle state budget",
     # count_latin charges one node per state searched, and (4,6) searches
     # 10,761; the rectangles it completed count memo hits.
     (budget, "table --formula latin-oracle --n 4 --lambda 6", 10761, "5069400 rectangles",
      "4 6 latin-oracle 5112000")),
    ("Engine exactness past tier-1",
     # G(5) has 15 vertices, past the engine's default limit.
     (tables, 4, "--n 5 --lambda-offset 0..3", "engine --max-vertices 15", "thm3")),
    ("Engine exactness on every G(5,p,q)",
     # 16 points fix a polynomial of degree <= 15 on lambda >= 5; verify's
     # surgery-closed-form stops at n = 4.
     (agree, surgered([5], lambda n: range(5, 21)),
      {"engine": lambda n, p, q, lam: eval_poly(gnpq_poly(n, p, q), lam), "g_npq_closed": g_npq_closed})),
    ("Engine counters unchanged",
     # The engine's search is pinned node for node.
     (counters, "table --formula engine --n 4 --lambda 4",
      '{"nodes": 119, "memo_hits": 30, "memo_misses": 59, "simplicial": 243, "deletion": 4, "addition": 55}'),
     (counters, "table --formula engine --n 5 --lambda 5 --max-vertices 15",
      '{"nodes": 275, "memo_hits": 96, "memo_misses": 137, "simplicial": 459, "deletion": 9, "addition": 128}')),
    ("Surgered-graph engine counters unchanged",
     # The same pin on the surgered graphs; G(4,1,1)'s p + q < n leaves plain columns.
     (counters, "gnpq 4 2 2 4",
      '{"nodes": 27, "memo_hits": 3, "memo_misses": 13, "simplicial": 79, "deletion": 0, "addition": 13}'),
     (counters, "gnpq 4 1 1 4",
      '{"nodes": 37, "memo_hits": 6, "memo_misses": 18, "simplicial": 101, "deletion": 0, "addition": 18}')),
    ("Surgered closed form on every cell",
     # g_npq_closed covers every G(n,p,q) with p + q <= n.  A graph past the
     # engine's vertex limit is checked by "Over-limit graphs refused unbuilt".
     (gnpq_equal, 34, surgered(range(1, 5), lambda n: [n + 1]))),
    ("Closed forms unchanged",
     # Pinned from the window-sum evaluation that the closed-form derangement
     # tables replaced.
     (digest, "2da4d3cfe234307b56c4b2c4e42e4cb7f6131bba15d85a1c702925f17d5d1c49",
      (surgered(range(1, 11), lambda n: range(3 * n + 2)), g_npq_closed),
      ([(n, lam) for n in range(1, 7) for lam in (10**3, 10**6)], thm3_g))),
    ("Surgered closed form past n = 10",
     # The band g_npq_closed reads grows with n, and the digest above stops at
     # n = 10; this one is pinned from the per-split evaluation over the full
     # derangement table that the band replaced.
     (digest, "f91924de81b759e24c46b5a7273276374c1d8de8115b3da43747bbbc6cbd2818",
      (surgered(range(11, 25), lambda n: (n, n + 1, n + 2, 1000)), g_npq_closed))),
    ("APS and Riordan values unchanged",
     # Pinned from the term-by-term evaluation that the inner-sum recurrences
     # replaced.  n <= 150 against thm3_g: the square benchmark stops at n = 51.
     (digest, "3a1b1ee2550f04ec2b9f4c4b5fca912dd4f53cd183e060cbddcbd3c2219705dc",
      ([(n, lam) for n in range(1, 41) for lam in (*range(3 * n + 2), 10**3, 10**6)], aps_g),
      ([(n,) for n in range(1, 301)], riordan_l3)),
     (agree, [(n, n) for n in range(1, 151)], {"n! * riordan_l3(n)": riordan_rectangles, "thm3_g": thm3_g})),
    ("APS recurrence at scale",
     # aps_g steps one recurrence in n, so past verify's n <= 20 a wrong step
     # shows only at scale; riordan_l3 comes from a different generating function.
     (agree, [(n, n) for n in range(1, 601)], {"aps_g": aps_g, "n! * riordan_l3(n)": riordan_rectangles}),
     (agree, [(n, lam) for n in (100, 150, 200) for lam in (n + 1, 2 * n, 10**5)],
      {"aps_g": aps_g, "thm3_g": thm3_g})),
    ("Theorem 3's paired sum equals the split sum",
     # thm3_g pairs each split with its mirror inside a band column, and
     # g_npq_closed(n, 0, 0, lambda) sums the same splits unpaired; verify
     # compares them only to n = 6.
     (agree, [(n, lam) for n in range(1, 151) for lam in (n, n + 1, 2 * n, 10**5)],
      {"thm3_g": thm3_g, "g_npq_closed(n, 0, 0, lambda)": lambda n, lam: g_npq_closed(n, 0, 0, lam)})),
    ("Theorem 3 at n in the hundreds",
     # thm3_g reads the reduced band, whose columns shrink most against the
     # unreduced one at large n; the checks above compare thm3_g with
     # another route only up to n = 200.
     (agree, [(n, lam) for n in (300, 400, 500) for lam in (n, n + 1)], {"thm3_g": thm3_g, "aps_g": aps_g})),
    ("Over-limit graphs refused unbuilt",
     # Both check G(n,p,q)'s 3n - q vertices against --max-vertices before
     # building it, so G(3000), 9000 vertices, is refused within 2 s.
     (refused, "gnpq 3000 0 0 4"),
     (refused, "table --formula engine --n 3000")),
    ("Engine on disconnected graphs unchanged",
     # No rule splits components, so the branchings alone must multiply them
     # out: two copies of K_{3,4} minus one edge, bridged between the 4-side
     # vertices 0 and 7 that lost it (every vertex misses at least as many
     # pairs among its neighbours as its degree, so the root deletes the
     # bridge and its deletion child is disconnected), and a 4-cycle beside a
     # 5-cycle, disconnected from the root on, with every degree 2.
     # Coefficients are printed lowest first.
     (on_graph,
      "14\n0 2\n0 3\n1 4\n1 5\n1 6\n2 4\n2 5\n2 6\n3 4\n3 5\n3 6\n"
      "7 9\n7 10\n8 11\n8 12\n8 13\n9 11\n9 12\n9 13\n10 11\n10 12\n10 13\n0 7\n",
      '{"nodes": 33, "memo_hits": 12, "memo_misses": 16, "simplicial": 92, "deletion": 2, "addition": 14}',
      "degree=14\n0\n-4761\n32913\n-103302\n195408\n-249321\n227379\n-153081\n"
      "77349\n-29461\n8393\n-1747\n253\n-23\n1\n"),
     (on_graph,
      "9\n0 1\n1 2\n2 3\n0 3\n4 5\n5 6\n6 7\n7 8\n4 8\n",
      '{"nodes": 7, "memo_hits": 1, "memo_misses": 3, "simplicial": 19, "deletion": 0, "addition": 3}',
      "degree=9\n0\n0\n-12\n54\n-106\n119\n-83\n36\n-9\n1\n")),
    ("Engine grounds G(n) to n = 9",
     # "Engine exactness past tier-1" stops at G(5).  3n + 2 points fix a
     # polynomial of degree 3n on lambda >= n; G(9), 27 vertices, takes most
     # of this row's 3 s.
     (agree, [(n, lam) for n in range(6, 10) for lam in range(n, 4 * n + 2)],
      {"engine": lambda n, lam: eval_poly(gnpq_poly(n, 0, 0), lam), "thm3_g": thm3_g, "aps_g": aps_g})),
    ("Pinned oracle past brute force's reach",
     # Pinning the first row to 1..n divides the count by falling(lambda, n),
     # and the search reaches n = 10 in about 1 s; in this module the
     # unpinned search stops at (6, 7) and brute force at (3, 5).  At lambda = n,
     # falling(n, n) = n! ties the pinned count to riordan_l3(n).
     (agree, [(n, n) for n in range(7, 11)],
      {"falling(lambda, n) * pinned": pinned_rectangles, "thm3_g": thm3_g,
       "n! * riordan_l3(n)": riordan_rectangles}),
     (agree, [(7, 8), (8, 9)], {"falling(lambda, n) * pinned": pinned_rectangles, "thm3_g": thm3_g})),
    ("Oracle counters unchanged",
     # count_latin's search is pinned state for state: states searched, and
     # memo hits looked up in the loop.  The value at (6,7) must equal thm3_g.
     (counters, "table --formula latin-oracle --n 4 --lambda 6", '{"nodes": 10761, "memo_hits": 95200}'),
     (counters, "table --formula latin-oracle --n 6 --lambda 7", '{"nodes": 102992, "memo_hits": 2919119}',
      f"6 7 latin-oracle {thm3_g(6, 7)}\n")),
    ("Brute-force counters unchanged",
     # count_colorings_bruteforce charges one node per colour attempt.
     (counters, "table --formula brute --n 3 --lambda 4", '{"nodes": 7748}'),
     (counters, "table --formula brute --n 3 --lambda 5", '{"nodes": 115330}'),
     (budget, "table --formula brute --n 3 --lambda 5", 115330, "27480 colorings", "3 5 brute 27480")),
    ("Verify with asserts stripped",
     # The whole report: every check passes, in registry order, so a dropped
     # or renamed check fails as a failed one does.
     (output, "verify --n-max 6",
      "PASS gnpq-structure\n"
      "PASS identify-symmetry\n"
      "PASS formula-equivalence\n"
      "PASS surgery-closed-form\n"
      "PASS theorem2-m-invariance\n"
      "PASS reduction-identity\n"
      "PASS engine-vs-brute\n"
      "PASS multiplicativity\n"
      "PASS chromatic-shape\n"
      "PASS derangement-oracle\n"
      "PASS latin-bridge\n"
      "11 checks, all passed\n")),
    ("Oracle memory under python -O",
     # latin-bridge streams its rectangle walks and derangement-oracle reads
     # the injections as one bytes object per chunk of 512: about 0.35 MiB,
     # and 2.0 MiB if verify listed every rectangle of a walk.  The whole run
     # peaks at about 0.48 MiB, since it keeps only the engine polynomials a
     # later check reads again; keeping reduction-identity's children too
     # took it to 0.9 MiB.
     (memory, 1024, "derangement-oracle", "latin-bridge"),
     (memory, 640)),
]


def run(checks):
    """Run each check and print its PASS|FAIL line; return the names that failed."""
    failed = []
    for name, *parts in checks:
        start = time.perf_counter()
        detail = None
        try:
            for kind, *args in parts:
                kind(*args)
        except Failed as exc:
            detail = str(exc)
        except Exception:  # a check that crashes fails; the rest still run
            detail = traceback.format_exc()
        print(f"{'FAIL' if detail else 'PASS'} {name} {time.perf_counter() - start:.2f}", flush=True)
        if detail:
            print(textwrap.indent(detail, "    "), flush=True)
            failed.append(name)
    return failed


def main():
    if __debug__:
        sys.exit("ci/checks.py runs every check with asserts stripped: run it as python -O ci/checks.py")
    sys.exit(1 if run(CHECKS) else 0)


if __name__ == "__main__":
    main()
