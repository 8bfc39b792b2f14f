"""The programs of .github/workflows/tier1.yml, and grade; standard library
only, but for the benchmark oracle that grade loads.

    python tests/ci.py reruns OUT        # RERUNS twice each, into a new or empty OUT
    python tests/ci.py report OUT BASE   # RERUNS at the checkout BASE against OUT
    python tests/ci.py grade OUT         # the family workloads' lambda_err on OUT
    python tests/ci.py junit REPORT [ALLOWED_TEST_NAME ...]

reruns fails unless each row's two runs exit with its code and write the same
CSV bytes and metadata ENTRIES, and each REFUSED run exits 2 and leaves no
output directory.  report prints BASE's exit codes and ENTRIES that differ,
each CSV's verdict (same, differs, new or gone) with its moved cells, and
each src/tmb module's line count and their total at BASE and here.  grade
prints the benchmark's family lambda_err, graded as perfbench/run.py grades
it, from the reruns of the two family presets in OUT; it needs scipy (the
bench extra) and exits 2 without it.  junit fails on a JUnit report with no
test case, or with a failure or error of a test not named ALLOWED.
"""

import csv
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the metadata entries a rerun must repeat
ENTRIES = ("failures", "formula_notes", "branches", "verify_skipped")

# label, expected exit code, tmb command and config: a preset, or "@name",
# the text CONFIGS[name] that reruns writes into OUT
RERUNS = (
    ("conjectured_updown", 0, "verify", "configs/conjectured_updown.cfg"),
    ("reference_family", 0, "verify", "configs/reference_family.cfg"),
    ("reference_family_deep", 0, "verify", "configs/reference_family_deep.cfg"),
    ("two_bubble_deep", 0, "verify", "configs/two_bubble_deep.cfg"),
    ("two_bubble_reachable", 0, "verify", "configs/two_bubble_reachable.cfg"),
    # its beta = 1.03 member fails where the trace stops
    ("weak_limit_preset", 1, "verify", "configs/weak_limit_preset.cfg"),
    # k = 2: the one run that writes the three-domain rows aa3[2] and aa8[2]
    ("three_domain_reachable", 0, "verify", "configs/three_domain_reachable.cfg"),
    # root s ~ 8.8
    ("solve_k1_beta1.3_lambda3", 0, "solve", "@solve.cfg"),
    # root s ~ 0.49 lies below s = 1, where the integrator's quiet level
    # -60 + min(0, ln s) is lowered
    ("solve_below_one", 0, "solve", "@solve_below_one.cfg"),
    # two solutions (s ~ 12.2 and 17.4), so that branches = 2 and the n = 1
    # rows and profile are compared
    ("solve_two_branches", 0, "solve", "@solve_two_branches.cfg"),
    # three solutions (s ~ 3.56, 4.76 and 7.83): the target lies between a
    # minimum and a maximum of lambda_1(s) that the trace sees only when it
    # retries a step that hides them
    ("solve_three_branches", 0, "solve", "@solve_three_branches.cfg"),
    # root s ~ 14.723, polished only because no scan-tolerance first-bubble
    # step there may leap past the first zero
    ("solve_alpha3", 0, "solve", "@solve_alpha3.cfg"),
    ("bessel_k5", 0, "bessel", "@bessel.cfg"),
    # two members solve (lambda = 7 and 8 lie above lambda_1): the run writes
    # them and sets verify_skipped, which no preset sets
    ("verify_skipped", 1, "verify", "@skipped.cfg"),
)
# label, tmb command and config of a run that must be refused
REFUSED = (
    # the eigenpair count k is 0
    ("bessel_k0", "bessel", "@bessel_k0.cfg"),
    # a family lists its lambda_schedule; lambda_geometric is no key
    ("retired_lambda_geometric", "verify", "@retired_lambda_geometric.cfg"),
    # no config sets a tolerance: at rel_tol = 1e-3 the polish turned 3 of
    # the weak preset's 6 solutions into NoSolutionInRangeError
    ("retired_tolerances", "verify", "@retired_tolerances.cfg"),
)
CONFIGS = {
    "solve.cfg": "[problem]\nk = 1\nalpha = 1.0\nbeta = 1.3\nlambda = 3\n",
    "solve_below_one.cfg": "[problem]\nk = 1\nalpha = 1.0\nbeta = 1.3\nlambda = 24\n",
    "solve_two_branches.cfg": "[problem]\nk = 1\nalpha = 1.0\nbeta = 1.0\nlambda = 3.2245\n",
    "solve_three_branches.cfg": "[problem]\nk = 1\nalpha = 0.1\nbeta = 1.8\nlambda = 7.86\n",
    "solve_alpha3.cfg": "[problem]\nk = 0\nalpha = 3.0\nbeta = 1.0\nlambda = 1.81736e-12\n",
    "bessel.cfg": "[problem]\nk = 5\n",
    "skipped.cfg": "[problem]\nk = 0\nalpha = 1.0\nbeta = 1.0\n\n[family]\n"
                   "lambda_schedule = 0.5 0.125 7 8\n",
    "bessel_k0.cfg": "[problem]\nk = 0\n",
    "retired_lambda_geometric.cfg": "[problem]\nk = 0\n\n[family]\nlambda_schedule = "
                                    "1e-2 1e-3 1e-4 1e-5\nlambda_geometric = 0.5 0.5 4\n",
    "retired_tolerances.cfg": "[problem]\nk = 0\n\n[family]\nlambda_schedule = "
                              "1e-2 1e-3 1e-4 1e-5\n\n[tolerances]\nrel_tol = 1e-3\n",
}


def tmb(checkout: Path, out: Path, command: str, config: str, run_dir: Path) -> int:
    """The exit code of `python -m tmb.cli command` run in checkout."""
    config = str(out / config[1:]) if config.startswith("@") else config
    return subprocess.run(
        [sys.executable, "-m", "tmb.cli", command, "--config", config, "--out", str(run_dir)],
        cwd=checkout, env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def entries(run_dir: Path) -> dict:
    """ENTRIES of run_dir's metadata.json; {} where there is none."""
    try:
        meta = json.loads((run_dir / "metadata.json").read_text())
    except (OSError, ValueError):
        return {}
    return {key: meta.get(key) for key in ENTRIES}


def read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def moved_cells(base_csv: bytes, head_csv: bytes) -> None:
    """Print each moved cell; rows pair by position and are keyed by column 1."""
    base, head = (list(csv.DictReader(io.StringIO(data.decode(), newline="")))
                  for data in (base_csv, head_csv))
    for old, new in itertools.zip_longest(base, head, fillvalue={}):
        columns = list(new) + [c for c in old if c not in new]
        key = f"{columns[0]}={new.get(columns[0], old.get(columns[0]))}"
        for c in columns:
            if old.get(c) != new.get(c):
                print(f"  {key} {c}: {old.get(c, '-')} -> {new.get(c, '-')}")


def reruns(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    if any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    for name, text in CONFIGS.items():
        (out / name).write_text(text)
    ok = True
    for label, code, command, config in RERUNS:
        first, second = out / label / "1", out / label / "2"
        codes = [tmb(ROOT, out, command, config, run_dir) for run_dir in (first, second)]
        names = sorted({p.name for run_dir in (first, second) for p in run_dir.glob("*.csv")})
        faults = [f"{name} differs" for name in names if read(first / name) != read(second / name)]
        if not names:
            faults.append("no CSV")
        if not entries(first) or entries(first) != entries(second):
            faults.append("metadata entries differ")
        ok &= codes == [code, code] and not faults
        print(f"{label}: exit codes {codes[0]} {codes[1]} (expected {code}), "
              + (", ".join(faults) or "CSVs and metadata entries identical"))
    for label, command, config in REFUSED:
        code = tmb(ROOT, out, command, config, out / label)
        left = out / label if (out / label).exists() else "none"
        ok &= code == 2 and left == "none"
        print(f"{label}: exit code {code} (expected 2), output directory left: {left}")
    return 0 if ok else 1


def report(out: Path, base: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        base_out = Path(tmp)
        for label, code, command, config in RERUNS:
            if (base_code := tmb(base, out, command, config, base_out / label / "1")) != code:
                print(f"{label}: exit code base {base_code}, head {code}")
            old, new = entries(base_out / label / "1"), entries(out / label / "1")
            for key in ENTRIES:
                if old.get(key) != new.get(key):
                    print(f"{label}: {key} differs\n  base: {old.get(key)}\n  head: {new.get(key)}")
        for name in sorted({p.relative_to(run_dir).as_posix() for run_dir in (base_out, out)
                            for p in run_dir.glob("*/1/*.csv")}):
            old, new = read(base_out / name), read(out / name)
            verdict = ("new" if old is None else "gone" if new is None
                       else "same" if old == new else "differs")
            print(verdict, name.replace("/1/", "/", 1))
            if verdict == "differs":
                moved_cells(old, new)
    line_counts(base, ROOT)
    return 0


def line_counts(base: Path, head: Path) -> None:
    """Print each src/tmb module's line count at base and head ("-" where it
    is missing), then their totals."""
    counts = [{p.name: p.read_bytes().count(b"\n") for p in (checkout / "src" / "tmb").glob("*.py")}
              for checkout in (base, head)]
    for name in sorted(counts[0].keys() | counts[1].keys()):
        base_n, head_n = (lines.get(name, "-") for lines in counts)
        print(f"src/tmb/{name} lines: base {base_n}, head {head_n}")
    print(f"src/tmb lines: base {sum(counts[0].values())}, head {sum(counts[1].values())}")


def grade(out: Path) -> int:
    """Print each family workload's lambda_err: the largest |lambda(s) -
    lambda| / lambda over its rerun's solutions.csv rows that match the
    preset's schedule, lambda(s) the oracle's at rtol 1e-13."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    graded = []
    for name in ("family_k0", "family_k1_weak"):
        config = WORKLOADS[name].config
        path = out / Path(config).stem / "1" / "solutions.csv"
        if not path.is_file():
            print(f"{name}: no {path}; run `reruns OUT` first")
            return 1
        graded.append((name, WORKLOADS[name].schedule(ROOT), path))
    try:
        from oracle import lambda_reference
    except ImportError as exc:
        print(f"grade needs scipy and numpy (the bench extra): {exc}")
        return 2
    for name, (k, alpha, schedule), path in graded:
        with open(path, newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if int(r["n"]) < len(schedule) and (
                float(r["lambda"]), float(r["beta"]), int(r["k"])) == (*schedule[int(r["n"])], k)]
        errs = [abs(lambda_reference(float(r["amplitude"]), k, alpha, float(r["beta"]),
                                     rtol=1e-13) - float(r["lambda"])) / float(r["lambda"])
                for r in rows]
        print(f"{name}: lambda_err {max(errs, default=0.0):.4e} over {len(errs)} member(s)")
    return 0


def junit(report: str, allowed: set) -> int:
    cases = list(ET.parse(report).iter("testcase"))
    failed = [case for case in cases if any(c.tag in ("failure", "error") for c in case)]
    unexpected = [f"{case.get('classname')}::{case.get('name')}" for case in failed
                  if case.get("name") not in allowed]
    print(f"{len(cases)} tests, {len(failed)} failed, {len(unexpected)} unexpected")
    for name in unexpected:
        print(f"unexpected failure: {name}")
    return 1 if unexpected or not cases else 0


if __name__ == "__main__":
    command, *args = sys.argv[1:] or [""]
    if command == "junit" and args:
        sys.exit(junit(args[0], set(args[1:])))
    paths = [Path(arg).resolve() for arg in args]
    programs = {("reruns", 1): reruns, ("report", 2): report, ("grade", 1): grade}
    if (command, len(paths)) in programs:
        sys.exit(programs[command, len(paths)](*paths))
    sys.exit(__doc__)
