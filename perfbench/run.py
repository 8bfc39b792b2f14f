#!/usr/bin/env python3
"""Benchmark for tmb: end-to-end metrics per workload, per-layer metrics
from a separate traced run, and correctness gates on every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from the root of a checkout; it needs src/tmb and configs/ there
and exits with status 2 when they are missing.  Each repetition is a fresh
single-threaded interpreter (worker.py), started one at a time: a closed
loop with one client.  Repetitions stop at the boundary nearest to
--seconds; at least one always runs.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Everything a run writes goes under .perfbench_runs/ in the checkout.
See perfbench/README.md for the workloads, the metrics and the gates.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Family, curve_grid

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"
SETUPS_PER_REP = 4      # set-up-only workers launched before each repetition
RUN_LIMIT_S = 170.0     # a run stops launching and kills what is left after this

# Correctness gates, each at least 100x the worst value measured on the
# commit that added this benchmark (lambda_err 8.7e-9, residual 9.5e-11).
LAMBDA_ERR_GATE = 1e-6
RESIDUAL_GATE = 1e-8
# The oracle's answers at rtol 1e-12 and 1e-13 must agree this well.
ORACLE_SELF_GATE = 1e-9
TYPED_FAILURE = re.compile(r"[A-Za-z]\w*Error: ")

BAND_EDGES = (2.5, 10.0, 20.0)
SCAN_REL_TOL = 1e-8     # a looser integration tolerance marks the scan class

# The bounded end-to-end metrics.  wall_s is printed and recorded but not
# bounded: on a shared 2-vCPU virtual machine its spread over sets of five
# to ten runs measured 0.10-0.38 of its median, too wide for a regression
# bound (see README.md).
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "lambda_err": "1",
                    "solved_frac": "1"}


# ---------------------------------------------------------------------------
# running workers
# ---------------------------------------------------------------------------

@dataclass
class Rep:
    """One finished worker process."""

    out: Path
    wall_s: float
    rss_mb: float
    exit_code: int
    result: dict | None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(workload, seed, out: Path, env, deadline, *flags) -> Rep:
    """Run one worker to completion; wall time runs from launch to exit."""
    out.mkdir(parents=True)
    launched = time.monotonic()
    with open(out / "worker.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(out), repr(launched), *flags],
            stdout=log, stderr=subprocess.STDOUT, env=env)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
    wall = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = out / "result.json"
    result = json.loads(result_path.read_text()) \
        if proc.returncode == 0 and result_path.is_file() else None
    return Rep(out, wall, usage.ru_maxrss / 1024.0, proc.returncode, result)


def run_reps(name, seed, seconds, trace, root, run_dir):
    """(set-up-only workers, untraced reps, traced reps)."""
    env = child_env(root)
    deadline = time.monotonic() + RUN_LIMIT_S
    # fills the bytecode and file caches, as on any machine after install
    launch(name, seed, run_dir / "warmup", env, deadline, "--setup-only")
    setups, reps, traced = [], [], []

    def run(kind, runs, *flags):
        # set-up samples are spread over the run, not bunched at its start
        for _ in range(SETUPS_PER_REP):
            setups.append(launch(name, seed, run_dir / f"setup{len(setups)}",
                                 env, deadline, "--setup-only"))
        runs.append(launch(name, seed, run_dir / f"{kind}{len(runs)}", env,
                           deadline, *flags))
        return runs[-1]

    if trace:
        run("rep", reps)
        for _ in range(2):
            run("traced", traced, "--trace")
        return setups, reps, traced
    # stop at the repetition boundary nearest to `seconds`
    begin = time.monotonic()
    while True:
        rep = run("rep", reps)
        elapsed = time.monotonic() - begin
        if rep.result is None or elapsed + rep.wall_s / 2 > seconds \
                or time.monotonic() + rep.wall_s > deadline:
            return setups, reps, traced


# ---------------------------------------------------------------------------
# checking outputs
# ---------------------------------------------------------------------------

class Checker:
    """Grades every repetition's outputs against the oracle and the gates."""

    def __init__(self, name, seed, root):
        self.workload = WORKLOADS[name]
        self.problems = []          # run-level gate failures
        self.lambda_errs = []
        self.residuals = []
        self.oracle_self = 0.0
        self._oracle_cache = {}
        if isinstance(self.workload, Family):
            self.k, self.alpha, self.schedule = self.workload.schedule(root)
            self.expected = len(self.schedule)
        else:
            self.k, self.alpha = self.workload.k, self.workload.alpha
            self.grid = curve_grid(self.workload, seed)
            self.expected = len(self.grid)

    def reference(self, s, beta):
        """The oracle's lambda(s), or None (noted as a problem) if it fails."""
        from oracle import lambda_reference
        key = (s, beta)
        if key not in self._oracle_cache:
            try:
                loose = lambda_reference(s, self.k, self.alpha, beta, rtol=1e-12)
                ref = lambda_reference(s, self.k, self.alpha, beta, rtol=1e-13)
            except RuntimeError as exc:
                self.problems.append(f"oracle: {exc}")
                ref = None
            else:
                self.oracle_self = max(self.oracle_self, abs(loose - ref) / ref)
            self._oracle_cache[key] = ref
        return self._oracle_cache[key]

    def grade(self, rep):
        """(outcome per member or point, digest); an outcome is 'solved',
        'typed' (a typed failure the program reported) or 'failed'."""
        if rep.result is None:
            self.problems.append(f"{rep.out.name}: worker exit {rep.exit_code}")
            return None, None
        if rep.result.get("memo_entries"):
            self.problems.append(f"{rep.out.name}: scan memo not empty at start")
        if isinstance(self.workload, Family):
            return self._grade_family(rep)
        return self._grade_curve(rep)

    def _grade_family(self, rep):
        out, status = rep.out, rep.result.get("status")
        if "error" in rep.result:
            self.problems.append(f"{out.name}: {rep.result['error']}")
            return None, None
        meta_path, sol_path = out / "metadata.json", out / "solutions.csv"
        if not meta_path.is_file() or not sol_path.is_file():
            self.problems.append(f"{out.name}: missing metadata.json or solutions.csv")
            return None, None
        failures = json.loads(meta_path.read_text()).get("failures", [])
        if status != (1 if failures else 0):
            self.problems.append(f"{out.name}: exit status {status} with "
                                 f"{len(failures)} recorded failure(s)")
            return None, None
        typed = {f["n"] for f in failures if TYPED_FAILURE.match(f["reason"])}
        with open(sol_path, newline="") as fh:
            rows = {int(r["n"]): r for r in csv.DictReader(fh)}
        outcomes = []
        for n, (lam, beta) in enumerate(self.schedule):
            row = rows.get(n)
            if row is None:
                outcomes.append("typed" if n in typed else "failed")
                continue
            if (float(row["lambda"]), float(row["beta"]), int(row["k"])) \
                    != (lam, beta, self.k):
                outcomes.append("failed")
                continue
            ref = self.reference(float(row["amplitude"]), beta)
            if ref is None:
                outcomes.append("failed")
                continue
            err = abs(ref - lam) / lam
            res = max(float(row["nehari_residual"]), float(row["identity_residual_max"]))
            self.lambda_errs.append(err)
            self.residuals.append(res)
            ok = err <= LAMBDA_ERR_GATE and res <= RESIDUAL_GATE
            outcomes.append("solved" if ok else "failed")
        digest = [hashlib.sha256(sol_path.read_bytes()).hexdigest()]
        reports = out / "formula_reports.csv"
        if reports.is_file():
            digest.append(hashlib.sha256(reports.read_bytes()).hexdigest())
        elif outcomes.count("solved") >= 3:
            self.problems.append(f"{out.name}: formula_reports.csv missing")
            return None, None
        return outcomes, tuple(digest)

    def _grade_curve(self, rep):
        raw = (rep.out / "curve.json").read_bytes()
        points = json.loads(raw)
        if [s for s, _, _ in points] != self.grid:
            self.problems.append(f"{rep.out.name}: amplitudes differ from the seed's grid")
            return None, None
        outcomes = []
        for s, lam, error in points:
            if lam is None:
                outcomes.append("typed" if TYPED_FAILURE.match(error) else "failed")
                continue
            ref = self.reference(s, self.workload.beta)
            if ref is None:
                outcomes.append("failed")
                continue
            err = abs(lam - ref) / ref
            self.lambda_errs.append(err)
            outcomes.append("solved" if err <= LAMBDA_ERR_GATE else "failed")
        return outcomes, (hashlib.sha256(raw).hexdigest(),)


def grade_all(checker, reps):
    """Outcome list per rep; a rep whose outputs differ from the first
    complete rep's, or that produced none, fails in every member."""
    graded = [checker.grade(rep) for rep in reps]
    first = next((g for g in graded if g[0] is not None), None)
    outcomes = []
    for rep, (oc, digest) in zip(reps, graded):
        if oc is None:
            oc = ["failed"] * checker.expected
        elif digest != first[1]:
            checker.problems.append(f"{rep.out.name}: outputs differ from "
                                    f"{reps[graded.index(first)].out.name}")
            oc = ["failed"] * len(oc)
        outcomes.append(oc)
    return outcomes, (first[1] if first else None)


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

def band_of(s):
    return 1 + sum(s >= edge for edge in BAND_EDGES)


def layer_metrics(spans, solutions):
    """(metrics, exact counts) for one traced rep."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, failed, attrs in spans:
        if parent >= 0:
            child[parent] += t1 - t0

    def pick(prefix):
        return [(i, sp) for i, sp in enumerate(spans) if sp[0].startswith(prefix)]

    def total(items):
        return sum(sp[2] - sp[1] for _, sp in items)

    def self_time(items):
        return sum(sp[2] - sp[1] - child[i] for i, sp in items)

    ode = [sp for _, sp in pick("ode.")]
    scan = [sp for sp in ode if (sp[5]["rel_tol"] or 0.0) > SCAN_REL_TOL]
    full = [sp for sp in ode if not (sp[5]["rel_tol"] or 0.0) > SCAN_REL_TOL]
    steps = sum(sp[5]["steps"] for sp in ode)   # a failed call counts none
    ode_self = self_time(pick("ode."))
    probes = pick("shooting.lambda_of_s")
    polish = [(i, sp) for i, sp in pick("shooting.solve_unit_lambda")
              if sp[3] < 0 or spans[sp[3]][0] != "shooting.lambda_of_s"]
    analysis = [(i, sp) for i, sp in pick("analysis.")
                if sp[3] < 0 or not spans[sp[3]][0].startswith("analysis.")]
    bubbles = pick("bubbles.rescale_profile")
    csvs = pick("cli.emit_csv")
    m = {
        "ode.calls": len(ode),
        "ode.calls_full": len(full),
        "ode.calls_scan": len(scan),
        "ode.steps_full": sum(sp[5]["steps"] for sp in full),
        "ode.steps_scan": sum(sp[5]["steps"] for sp in scan),
        "ode.self_s": ode_self,
        "ode.us_per_step": 1e6 * ode_self / steps if steps else 0.0,
        "ode.failed": sum(sp[4] for sp in ode),
    }
    for band in range(1, len(BAND_EDGES) + 2):
        in_band = [sp for sp in ode if not sp[4] and band_of(sp[5]["s"]) == band]
        n = len(in_band)
        m[f"ode.steps_per_call.band{band}"] = \
            sum(sp[5]["steps"] for sp in in_band) / n if n else 0.0
        m[f"ode.ms_per_call.band{band}"] = \
            1e3 * sum(sp[2] - sp[1] for sp in in_band) / n if n else 0.0
    m.update({
        "shooting.probe.calls": len(probes),
        "shooting.probe.total_s": total(probes),
        "shooting.probe.failed": sum(sp[4] for _, sp in probes),
        "shooting.polish.calls": len(polish),
        "shooting.polish.total_s": total(polish),
        "shooting.integrations_per_solution": len(ode) / solutions if solutions else 0.0,
        "shooting.self_s": self_time(pick("shooting.")),
        "nonlinearity.primitive_F.calls": len(pick("nonlinearity.primitive_F")),
        "nonlinearity.primitive_F.self_s": self_time(pick("nonlinearity.primitive_F")),
        "quadrature.calls": len(pick("quadrature.")),
        "quadrature.self_s": self_time(pick("quadrature.")),
        "analysis.total_s": total(analysis),
        "analysis.identity_residual.total_s": total(pick("analysis.identity_residual")),
        "bubbles.rescale_profile.calls": len(bubbles),
        "bubbles.rescale_profile.failed": sum(sp[4] for _, sp in bubbles),
        "families.verify_formulas.total_s": total(pick("families.verify_formulas")),
        "cli.emit_csv.total_s": total(csvs),
        "cli.bytes_written": sum(sp[5]["bytes"] for _, sp in csvs),
    })
    counts = {}
    for name, _, _, _, failed, _ in spans:
        calls, fails = counts.get(name, (0, 0))
        counts[name] = (calls + 1, fails + failed)
    counts.update({key: m[key] for key in
                   ("ode.steps_full", "ode.steps_scan", "cli.bytes_written")})
    return m, counts


PER_LAYER_UNITS = (("_s", "s"), ("ms_per_call", "ms"), ("us_per_step", "us"),
                   ("self_share", "%"), ("bytes_written", "B"),
                   ("integrations_per_solution", "count/solution"))


def per_layer_unit(name):
    base = name.split(".band")[0]
    for suffix, unit in PER_LAYER_UNITS:
        if base.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def environment(root, seed):
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "scipy": scipy.__version__, "numpy": numpy.__version__,
            "seed": seed, "commit": git_commit(root)}


def git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name, seed, seconds, trace, root):
    run_dir = root / RUNS_DIR / name
    shutil.rmtree(run_dir, ignore_errors=True)
    setups, reps, traced = run_reps(name, seed, seconds, trace, root, run_dir)

    checker = Checker(name, seed, root)
    outcomes, digest = grade_all(checker, reps + traced)
    attempted = sum(len(oc) for oc in outcomes)
    failed = sum(oc.count("failed") for oc in outcomes)
    typed = sum(oc.count("typed") for oc in outcomes)
    solved = attempted - failed - typed
    if checker.oracle_self > ORACLE_SELF_GATE:
        checker.problems.append(f"oracle self-agreement {checker.oracle_self:.2e} "
                                f"exceeds {ORACLE_SELF_GATE:g}")
    setup_samples = [r.result["setup_s"] for r in setups + reps + traced if r.result]
    walls = [r.wall_s for r in reps]
    e2e = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_samples) if setup_samples else 0.0,
        "peak_rss_mb": statistics.median(r.rss_mb for r in reps),
        "lambda_err": max(checker.lambda_errs, default=0.0),
        "solved_frac": solved / attempted,
    }
    report = {
        "workload": name, "seconds": seconds, "trace": trace,
        "env": environment(root, seed),
        "reps": len(reps), "walls_s": walls, "setup_samples_s": setup_samples,
        "end_to_end": e2e,
        "max_residual": max(checker.residuals, default=None),
        "fail_frac": (failed + typed) / attempted,
        "typed_failures": typed, "gate_failures": failed,
        "oracle_self_max": checker.oracle_self,
        "output_sha256": digest,
    }
    metrics = {key: {"value": e2e[key], "unit": unit}
               for key, unit in END_TO_END_UNITS.items()}
    if trace:
        layers, counts = [], []
        for rep, oc in zip(traced, outcomes[len(reps):]):
            if rep.result is None:
                continue
            spans = json.loads((rep.out / "spans.json").read_text())
            lm, cnt = layer_metrics(spans, oc.count("solved"))
            layers.append(lm)
            counts.append(cnt)
        if len(layers) == 2 and counts[0] != counts[1]:
            checker.problems.append("counts differ between the two traced runs")
        if len(layers) < 2:
            checker.problems.append("a traced run did not finish")
        if layers:
            lm = {key: statistics.fmean(l[key] for l in layers) for key in layers[0]}
            trace_wall = statistics.fmean(r.wall_s for r in traced)
            lm["ode.self_share"] = 100.0 * lm["ode.self_s"] / trace_wall
            lm["trace.wall_s"] = trace_wall
            lm["trace.overhead_s"] = trace_wall - e2e["wall_s"]
            report["per_layer"] = lm
            report["counts_repeat"] = len(counts) == 2 and counts[0] == counts[1]
            metrics = {key: {"value": val, "unit": per_layer_unit(key)}
                       for key, val in lm.items()}
    report["problems"] = checker.problems
    correct = failed == 0 and not checker.problems
    report["correct"] = correct
    (root / RUNS_DIR / f"{name}.json").write_text(json.dumps(report, indent=2) + "\n")
    print_report(report)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def verdict(ok):
    return "PASS" if ok else "FAIL"


def print_report(rep):
    e2e, env = rep["end_to_end"], rep["env"]
    print(f"== {rep['workload']}  seed={env['seed']}  seconds={rep['seconds']}  "
          f"trace={int(rep['trace'])}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  reps            {rep['reps']}  wall_s "
          + " ".join(f"{w:.3f}" for w in rep["walls_s"]))
    print(f"  wall_s          {e2e['wall_s']:.4f} s   median of {rep['reps']}")
    print(f"  setup_s         {e2e['setup_s']:.4f} s   median of "
          f"{len(rep['setup_samples_s'])}")
    print(f"  peak_rss_mb     {e2e['peak_rss_mb']:.1f} MB")
    print(f"  lambda_err      {e2e['lambda_err']:.3e}     gate <= {LAMBDA_ERR_GATE:g}  "
          f"{verdict(e2e['lambda_err'] <= LAMBDA_ERR_GATE)}")
    res = rep["max_residual"]
    if res is None:
        print("  max_residual    n/a (no certified members in this workload)")
    else:
        print(f"  max_residual    {res:.3e}     gate <= {RESIDUAL_GATE:g}  "
              f"{verdict(res <= RESIDUAL_GATE)}")
    print(f"  fail_frac       {rep['fail_frac']:.4f}     {rep['typed_failures']} typed, "
          f"{rep['gate_failures']} failing a gate")
    print(f"  solved_frac     {e2e['solved_frac']:.4f}")
    print(f"  oracle          self-agreement {rep['oracle_self_max']:.2e}  "
          f"gate <= {ORACLE_SELF_GATE:g}  "
          f"{verdict(rep['oracle_self_max'] <= ORACLE_SELF_GATE)}")
    if rep["output_sha256"]:
        print("  outputs sha256  " + " ".join(d[:16] for d in rep["output_sha256"]))
    for key, val in sorted(rep.get("per_layer", {}).items()):
        print(f"  {key:40s} {val:.6g} {per_layer_unit(key)}")
    if "counts_repeat" in rep:
        print(f"  counts repeat across traced runs  {verdict(rep['counts_repeat'])}")
    for problem in rep["problems"]:
        print(f"  GATE FAIL  {problem}")
    print(f"  correct         {rep['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    needed = [root / "src" / "tmb" / "__init__.py"] + [
        root / WORKLOADS[n].config for n in names if isinstance(WORKLOADS[n], Family)]
    missing = [str(p.relative_to(root)) for p in needed if not p.is_file()]
    if missing:
        print("perfbench: run from the root of a tmb checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2

    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), root)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{key}": val for n, r in results.items()
                        for key, val in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
