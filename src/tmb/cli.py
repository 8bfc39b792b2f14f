"""Batch front-end: config-driven experiment runner with CSV output.

Configs are INI-style key-value files (sections [problem], [family],
[output]); they set no tolerance, so every solve is held to the one the
shooting layer polishes at.  Outputs are RFC-4180 CSVs with floats at 17
significant digits plus a JSON metadata sidecar; timestamps live only in
the sidecar so reruns are byte-identical.  Every CSV row carries the
config hash for provenance joins.  `solve` (one member per branch) and
`verify` (one per family member) write the same files: solutions.csv,
one profile_n{n}_d{i}.csv per domain i of member n whose rescaled bubble
profile fits its window, and, for families, formula_reports.csv;
`bessel` writes bessel.csv.

Each value is checked by the code that owns it: ProblemParams, FamilySpec,
shooting.check_nodal_class for k, and bessel.j0_zero for the eigenpair
count (`bessel` reads it from [problem] k only, and prints 3 without a
config or a k); their ValueError is raised as a ConfigError naming the key.
A family lists its lambda_n in lambda_schedule.  Free-text notes
(seed_note, coupling_note) go to the metadata sidecar, never to a CSV.

Exit codes: 0 success, 1 any family-member failure (partial results are
still written), 2 malformed config.
"""

from __future__ import annotations

import configparser
import csv
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .errors import ConfigError, FamilyEmptyError, TmbError
from .families import FamilySpec, _summarize, run_family, verify_formulas
from .nonlinearity import ProblemParams
from .records import record
from .shooting import check_nodal_class, nodal_solution

# The interpreter's own SHA-256 (3.12+: _sha2, 3.10-3.11: _sha256), so that
# hashing a config loads no OpenSSL; hashlib only where neither was built.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

COMMANDS = ("solve", "verify", "bessel")
BESSEL_COUNT = 3  # eigenpairs `bessel` prints when no k is given


@record(frozen=False)
class ExperimentConfig:
    command: str
    k: int = 0
    alpha: float = 1.0
    beta: float = 1.0
    lam: float | None = None
    family: FamilySpec | None = None
    output_dir: Path = Path(".")
    seed_note: str = ""
    coupling_note: str = ""
    config_hash: str = ""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def emit_csv(records: list, path: Path) -> None:
    """Write RFC-4180 CSV; floats at 17 significant digits; row order kept.

    The header is the first record's keys, in order.  Every row is
    formatted before the file is opened, so an empty record set
    (ValueError) or a record missing a field (KeyError) leaves any
    existing file untouched.
    """
    if not records:
        raise ValueError("refusing to write an empty CSV")
    header = list(records[0])
    rows = [[_fmt(rec[name]) for name in header] for rec in records]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _config_hash(data: bytes) -> str:
    """The first 12 hex digits of the SHA-256 of data."""
    return _sha256(data).hexdigest()[:12]


def _get(cp, section, key, conv, default=None, path=""):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse '{key}' = {raw!r}: {exc}", field=key,
                          location=f"{path}[{section}]") from exc


def _build(cls, loc, section, *args, keys=None, **kwargs):
    """cls(*args, **kwargs), a ValueError raised as a ConfigError whose field
    is the message's first word (renamed by keys) in [section]."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        name = str(exc).split()[0]
        raise ConfigError(str(exc), field=(keys or {}).get(name, name),
                          location=f"{loc}[{section}]") from exc


def _floats(raw: str) -> tuple:
    values = tuple(float(p) for p in raw.replace(",", " ").split())
    if not all(map(math.isfinite, values)):
        raise ValueError("every value must be finite")
    return values


# The sections of a config and the keys each may hold; anything else is a
# typo that would otherwise run with a default.
CONFIG_KEYS = {"problem": ("k", "alpha", "beta", "lambda"),
               "family": ("lambda_schedule", "beta_schedule", "coupling_note"),
               "output": ("seed_note",)}


def parse_config(path: Path, command: str) -> ExperimentConfig:
    """Parse and validate an experiment config; raises ConfigError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", location=str(path)) from exc
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}", location=str(path)) from exc

    cfg = ExperimentConfig(command=command)
    cfg.config_hash = _config_hash(text.encode())
    loc = str(path)
    unknown = [f"[{s}]" for s in cp.sections() if s not in CONFIG_KEYS] + [
        f"[{s}] {key}" for s in cp.sections() if s in CONFIG_KEYS
        for key in cp.options(s) if key not in CONFIG_KEYS[s]]
    if unknown:
        raise ConfigError("unknown " + ", ".join(unknown), location=loc)

    cfg.k = _get(cp, "problem", "k", int, path=loc,
                 default=BESSEL_COUNT if command == "bessel" else 0)
    cfg.alpha = _get(cp, "problem", "alpha", float, default=1.0, path=loc)
    cfg.beta = _get(cp, "problem", "beta", float, default=1.0, path=loc)
    cfg.lam = _get(cp, "problem", "lambda", float, default=None, path=loc)
    if command != "bessel":  # there k counts eigenpairs; eigenpairs checks it
        _build(check_nodal_class, loc, "problem", cfg.k)
    # lambda is optional (families set their own): 1.0 stands in for it
    _build(ProblemParams, loc, "problem", cfg.alpha, cfg.beta,
           1.0 if cfg.lam is None else cfg.lam)

    if cp.has_section("family"):
        lam_sched = _get(cp, "family", "lambda_schedule", _floats, path=loc)
        if lam_sched is None:
            raise ConfigError("family needs lambda_schedule", field="lambda_schedule",
                              location=f"{loc}[family]")
        # a family without a beta_schedule keeps [problem] beta
        beta_sched = _get(cp, "family", "beta_schedule", _floats, path=loc,
                          default=(cfg.beta,) * len(lam_sched))
        # [problem] beta is checked above: a bad beta here is the schedule's
        cfg.family = _build(FamilySpec, loc, "family", cfg.k, cfg.alpha, lam_sched,
                            beta_sched, keys={"lambda": "lambda_schedule",
                                              "beta": "beta_schedule"})

    cfg.seed_note = _get(cp, "output", "seed_note", str, default="", path=loc)
    cfg.coupling_note = _get(cp, "family", "coupling_note", str, default="",
                             path=loc)
    return cfg


def _solution_row(rec, cfg) -> dict:
    """A solutions.csv row; its keys, in order, are the header."""
    row = {"n": rec.index, "lambda": rec.lam, "beta": rec.beta, "k": rec.k,
           "amplitude": rec.amplitude}
    for i, cells in enumerate(zip(rec.nodal_radii, rec.peak_radii, rec.peak_values,
                                  rec.boundary_slopes, rec.dirichlet), start=1):
        names = (f"r_{i}", f"rho_{i}", f"mu_{i}", f"du_at_r{i}", f"dirichlet_{i}")
        row.update(zip(names, cells))
    row.update(full_dirichlet=rec.full_dirichlet, functional=rec.functional,
               nehari_residual=rec.nehari_residual,
               identity_residual_max=rec.identity_residual_max,
               config_hash=cfg.config_hash)
    return row


def _write_metadata(cfg: ExperimentConfig, out: Path, wall: float,
                    started_at: str, extra: dict) -> None:
    meta = {"command": cfg.command, "config_hash": cfg.config_hash,
            "seed_note": cfg.seed_note, "coupling_note": cfg.coupling_note,
            "package_version": __version__,
            "python_version": sys.version.split()[0], "wall_time_s": wall,
            "started_at": started_at, **extra}
    with open(out / "metadata.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _solve_members(cfg: ExperimentConfig, extra: dict) -> list:
    """The member records: for solve one per branch, n its index; for
    verify run_family's.  The branch count or the failures go to the
    metadata entries in extra."""
    if cfg.command == "solve":
        if cfg.lam is None:
            raise ConfigError("solve needs [problem] lambda", field="lambda")
        sols = nodal_solution(cfg.k, ProblemParams(cfg.alpha, cfg.beta, cfg.lam))
        extra["branches"] = len(sols)
        return [_summarize(n, cfg.lam, cfg.beta, sol) for n, sol in enumerate(sols)]
    if cfg.family is None:
        raise ConfigError(f"{cfg.command} needs a [family] section", field="family")
    records, failures = run_family(cfg.family)
    if failures:
        extra["failures"] = failures
    return records


def _emit_members(cfg: ExperimentConfig, out: Path, extra: dict) -> None:
    """Solve, then write solutions.csv, a profile_n{n}_d{i}.csv for each
    domain with bubble diagnostics, and for a family formula_reports.csv."""
    records = _solve_members(cfg, extra)
    rows = [_solution_row(rec, cfg) for rec in records]
    emit_csv(rows, out / "solutions.csv")
    for rec in records:
        for i, diag in enumerate(rec.bubbles, start=1):
            if diag is not None:
                emit_csv([{"r": r, "z_n": z_n, "z_exact": z, "phi": phi,
                           "config_hash": cfg.config_hash}
                          for r, z_n, z, phi in diag.samples],
                         out / f"profile_n{rec.index}_d{i}.csv")
    if cfg.command == "solve":
        return
    if len(records) < 3:
        extra["verify_skipped"] = "fewer than 3 successful members"
        return
    reports = verify_formulas(cfg.family, records)
    emit_csv([{"formula_id": rep.formula_id, "applicable": int(rep.applicable),
               "raw_last": rep.raw_last, "extrapolated": rep.extrapolated,
               "target": rep.target, "rel_error": rep.rel_error,
               "slow_rate_flag": int(rep.slow_rate),
               "config_hash": cfg.config_hash} for rep in reports],
             out / "formula_reports.csv")
    # why a formula is inapplicable, or what an applicable one assumed:
    # free text, so it stays out of the CSV
    extra["formula_notes"] = {rep.formula_id: rep.note for rep in reports}


def run(cfg: ExperimentConfig) -> int:
    """Execute a parsed config; returns the process exit status.

    The output directory is made by the first emit_csv, after the inputs
    are checked and a result exists: a run that fails leaves none behind.
    """
    out = Path(cfg.output_dir)
    started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
    t0 = time.time()
    extra: dict = {}
    if cfg.command == "bessel":
        from .bessel import eigenpairs
        try:
            pairs = eigenpairs(cfg.k)
        except ValueError as exc:
            raise ConfigError(str(exc), field="k") from exc
        for ep in pairs:
            print(f"k={ep.k}  t_k={ep.t_k:.15g}  lambda_k={ep.lambda_k:.15g}")
        emit_csv([{"k": ep.k, "t_k": ep.t_k, "lambda_k": ep.lambda_k,
                   "config_hash": cfg.config_hash} for ep in pairs], out / "bessel.csv")
    else:
        _emit_members(cfg, out, extra)
    _write_metadata(cfg, out, time.time() - t0, started_at, extra)
    return 1 if "failures" in extra or "verify_skipped" in extra else 0


def main(argv=None) -> int:
    import argparse  # here only: library callers of cli never parse argv
    parser = argparse.ArgumentParser(
        prog="tmb",
        description="Nodal radial solutions and blow-up diagnostics on the unit disk")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", type=Path,
                        help="experiment config (required except for bessel)")
    parser.add_argument("--out", type=Path, default=None, help="output directory")
    args = parser.parse_args(argv)

    try:
        if args.command == "bessel" and args.config is None:
            cfg = ExperimentConfig(command="bessel", k=BESSEL_COUNT)
            cfg.config_hash = _config_hash(b"bessel-cli")
        else:
            if args.config is None:
                raise ConfigError(f"{args.command} requires --config", field="config")
            cfg = parse_config(args.config, args.command)
        if args.out is not None:
            cfg.output_dir = args.out
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FamilyEmptyError as exc:
        print(f"no results: {exc}", file=sys.stderr)
        return 1
    except TmbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
