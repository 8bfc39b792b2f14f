"""Config parsing, CSV contracts, exit codes, determinism."""

import csv
import hashlib
import importlib
import json
import math
import runpy
import sys
from pathlib import Path

import pytest

import tmb.cli
from tmb import shooting
from tmb.cli import emit_csv, main, parse_config
from tmb.errors import ConfigError
from tmb.ode import SolverSettings

PRESETS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

CHEAP_VERIFY = """\
[problem]
k = 0
alpha = 1.0
beta = 1.0

[family]
lambda_schedule = 0.5 0.125 0.03125 0.0078125

[output]
seed_note = cheap verify family
"""


def _profile_digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out.glob("profile_n*_d*.csv")}


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_roundtrip(self, tmp_path):
        cfg = parse_config(_write(tmp_path, CHEAP_VERIFY), "verify")
        assert cfg.k == 0
        assert cfg.family is not None
        assert cfg.family.lambda_schedule == (0.5, 0.125, 0.03125, 0.0078125)
        assert cfg.family.beta_schedule == (1.0,) * 4
        # the hash bytes are part of every CSV row: SHA-256 of the text
        assert cfg.config_hash == hashlib.sha256(
            CHEAP_VERIFY.encode()).hexdigest()[:12]

    def test_beta_out_of_range_names_field(self, tmp_path):
        path = _write(tmp_path, "[problem]\nk = 0\nalpha = 1\nbeta = 2.5\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(path, "solve")
        msg = str(exc.value)
        assert "beta" in msg and "(0, 2)" in msg

    @pytest.mark.parametrize("tolerances", ["", "[tolerances]\n"])
    def test_default_tolerances_are_the_integrators(self, tmp_path, tolerances):
        # a config sets no tolerance: every solve is polished at the
        # integrator's defaults, the only ones the stored reference table
        # certifies, and a [tolerances] section, even an empty one, is refused
        path = _write(tmp_path, "[problem]\nk = 0\nalpha = 1\nbeta = 1.2\n"
                                + tolerances)
        if tolerances:
            with pytest.raises(ConfigError, match=r"unknown \[tolerances\]"):
                parse_config(path, "solve")
        else:
            assert not hasattr(parse_config(path, "solve"), "settings")
            assert shooting.FULL_SETTINGS == SolverSettings()

    def test_syntax_error_reports_location(self, tmp_path):
        path = _write(tmp_path, "problem]\nk = 0\n")
        with pytest.raises(ConfigError):
            parse_config(path, "solve")

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda path: path.stem)
    def test_every_preset_parses(self, preset):
        # a retired key left in a preset fails here, not only in CI
        assert parse_config(preset, "verify").family is not None


class TestEmitCsv:
    def test_single_record(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_csv([{"a": 1.5, "b": "x"}], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 2

    def test_float_roundtrip_is_exact(self, tmp_path):
        vals = [math.pi, 1e-300, 2.0 / 3.0, 6.62607015e-34, 1.0]
        path = tmp_path / "rt.csv"
        emit_csv([{"v": v} for v in vals], path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["v"]) for r in rows] == vals

    def test_missing_field_leaves_existing_file(self, tmp_path):
        path = tmp_path / "kept.csv"
        emit_csv([{"a": 1.0, "b": 2.0}], path)
        before = path.read_bytes()
        with pytest.raises(KeyError):
            emit_csv([{"a": 3.0, "b": 4.0}, {"a": 5.0}], path)
        assert path.read_bytes() == before

    def test_empty_rejected_no_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        with pytest.raises(ValueError):
            emit_csv([], path)
        assert not path.exists()


class TestCommands:
    def test_bessel_prints_ordered_eigenpairs(self, tmp_path, capsys):
        # without a config, bessel prints 3 eigenpairs
        code = main(["bessel", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("k=")]
        assert len(lines) == 3
        ts = [float(l.split("t_k=")[1].split()[0]) for l in lines]
        assert ts == sorted(ts)
        assert ts[0] == pytest.approx(2.404825557695773, abs=1e-10)
        with open(tmp_path / "bessel.csv", newline="") as fh:
            hashes = {row["config_hash"] for row in csv.DictReader(fh)}
        assert hashes == {hashlib.sha256(b"bessel-cli").hexdigest()[:12]}

    def test_bessel_k_above_cap_exits_2(self, tmp_path, capsys):
        # k = 25 is past MAX_EIGENPAIR_INDEX = 20
        cfg = _write(tmp_path, "[problem]\nk = 25\n")
        out = tmp_path / "config"
        assert main(["bessel", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "field: k" in err
        assert not out.exists()

    def test_bessel_count_goes_to_eigenpairs_unchanged(self, tmp_path, capsys):
        # a given count is checked by j0_zero: [problem] k = 0 is refused,
        # not read as "print the default 3"; only no k at all means 3
        for count in (0, 25):
            cfg = _write(tmp_path, f"[problem]\nk = {count}\n", f"k{count}.cfg")
            out = tmp_path / f"c{count}"
            assert main(["bessel", "--config", str(cfg), "--out", str(out)]) == 2
            assert (f"k must be in [1, 20], got {count} | field: k"
                    in capsys.readouterr().err)
            assert not out.exists()
        cfg = _write(tmp_path, "[problem]\nalpha = 1.0\n", "no_k.cfg")
        assert main(["bessel", "--config", str(cfg), "--out", str(tmp_path / "d")]) == 0
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if line.startswith("k=")]) == 3

    @pytest.mark.parametrize("command", ["profile", "sweep"])
    def test_unknown_command_exits_2(self, tmp_path, capsys, command):
        # profile folded into verify and solve, which write its files
        cfg = _write(tmp_path, CHEAP_VERIFY)
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "verify", "bessel"])
    def test_k_flag_exits_2(self, tmp_path, capsys, command):
        # k has one source, the config's [problem] k: there is no --k
        cfg = _write(tmp_path, CHEAP_VERIFY)
        out = tmp_path / "never"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--k", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 1" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "[problem]\nk = 0\nalpha = 1\nbeta = 2.5\n")
        code = main(["solve", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "beta" in err and "(0, 2)" in err

    @pytest.mark.parametrize("old, new", [
        ("lambda_schedule = 0.5 0.125", "lambda_schedule = 0.5 nan"),
        ("alpha = 1.0", "alpha = nan"),
        ("alpha = 1.0", "alpha = inf"),
    ])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, old, new):
        cfg = _write(tmp_path, CHEAP_VERIFY.replace(old, new))
        code = main(["verify", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, key", [
        ("k = 0", "k = -1", "k"),
        ("alpha = 1.0", "alpha = 0", "alpha"),
        ("beta = 1.0\n\n[family]", "beta = 2.0\n\n[family]", "beta"),
        ("alpha = 1.0", "alpha = 1.0\nlambda = -1", "lambda"),
        ("0.0078125\n", "0.0078125\nbeta_schedule = 1.0 1.0 2.0 1.0\n", "beta_schedule"),
    ])
    def test_invalid_value_exits_2_before_integrating(self, tmp_path, capsys,
                                                      monkeypatch, old, new, key):
        # each value is checked by the code that owns it (check_nodal_class,
        # ProblemParams, FamilySpec); the config error names its key
        calls = []
        monkeypatch.setattr(shooting, "integrate_radial",
                            lambda *args, **kwargs: calls.append(args))
        cfg = _write(tmp_path, CHEAP_VERIFY.replace(old, new))
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"field: {key} |" in err
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("old, new, names", [
        # a misspelt key or section used to run silently on the defaults
        ("seed_note", "seed_nte", "[output] seed_nte"),
        ("[output]", "[outptu]", "[outptu]"),
        ("k = 0\n", "k = 0\nalpah = 1\n", "[problem] alpah"),
        ("k = 0\n", "k = 0\nalpah = 1\n[outptu]\n", "[outptu], [problem] alpah"),
        # no config sets a tolerance: a loose one turned solutions into
        # NoSolutionInRangeError (rel_tol = 1e-3: 3 of the weak preset's 6)
        ("[output]", "[tolerances]\nrel_tol = 1e-3\n\n[output]", "[tolerances]"),
        # scan_points' old home: its counts outside [2, 10000] were refused
        ("[output]", "[tolerances]\nscan_points = 1\n\n[output]", "[tolerances]"),
        ("alpha = 1.0", "alpha = 1.0\nrel_tol = 1e-12", "[problem] rel_tol"),
        # beta_constant is no key: a family's constant beta is [problem]
        # beta, which a second statement used to override silently
        ("0.0078125\n", "0.0078125\nbeta_constant = 1.3\n", "[family] beta_constant"),
        ("0.0078125\n", "0.0078125\nbeta_schedule = 1.0 1.0 1.0 1.0\nbeta_constant = 1.0\n",
         "[family] beta_constant"),
        # lambda_geometric is no key: a family lists its lambda_schedule
        ("lambda_schedule = 0.5 0.125 0.03125 0.0078125", "lambda_geometric = 0.5 0.25 4",
         "[family] lambda_geometric"),
        ("0.0078125\n", "0.0078125\nlambda_geometric = 0.5 0.5 4\n",
         "[family] lambda_geometric"),
    ])
    def test_unknown_key_or_section_exits_2(self, tmp_path, capsys,
                                            monkeypatch, old, new, names):
        calls = []
        monkeypatch.setattr(shooting, "integrate_radial",
                            lambda *args, **kwargs: calls.append(args))
        cfg = _write(tmp_path, CHEAP_VERIFY.replace(old, new))
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: unknown {names} | at: {cfg}" in err
        assert calls == []
        assert not out.exists()

    def test_verify_writes_reports(self, tmp_path):
        cfg = _write(tmp_path, CHEAP_VERIFY)
        out = tmp_path / "run1"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        with open(out / "formula_reports.csv", newline="") as fh:
            rows = {r["formula_id"]: r for r in csv.DictReader(fh)}
        assert float(rows["aaa1"]["target"]) == 0.5
        assert rows["aaa1"]["applicable"] == "1"
        with open(out / "solutions.csv", newline="") as fh:
            srows = list(csv.DictReader(fh))
        assert len(srows) == 4
        assert [r["lambda"] for r in srows] == ["0.5", "0.125", "0.03125", "0.0078125"]
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["command"] == "verify"
        assert meta["config_hash"] == srows[0]["config_hash"]
        # one note per reported formula, in the sidecar and not in the CSV
        assert sorted(meta["formula_notes"]) == sorted(rows)
        assert meta["formula_notes"]["aaa1"] == ""
        assert "note" not in rows["aaa1"]

    def test_solution_header_contract(self, tmp_path):
        cfg = _write(tmp_path, CHEAP_VERIFY)
        out = tmp_path / "run_hdr"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "solutions.csv").read_text().splitlines()[0]
        assert header == ("n,lambda,beta,k,amplitude,r_1,rho_1,mu_1,du_at_r1,"
                          "dirichlet_1,full_dirichlet,functional,"
                          "nehari_residual,identity_residual_max,config_hash")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = _write(tmp_path, CHEAP_VERIFY)
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["verify", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["verify", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("solutions.csv", "formula_reports.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_partial_family_exits_1(self, tmp_path):
        text = CHEAP_VERIFY.replace("0.5 0.125 0.03125 0.0078125",
                                    "0.5 7.0 0.03125 0.0078125")
        cfg = _write(tmp_path, text, "partial.cfg")
        out = tmp_path / "partial"
        code = main(["verify", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        # partial results still written
        with open(out / "solutions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["failures"][0]["lambda"] == 7.0

    # SHA-256 of the profile files (x86-64 Linux).  They differ from those
    # `tmb profile` wrote before verify and solve took them over only in
    # config_hash, as CHEAP_VERIFY has since dropped its beta_constant line
    # and its [tolerances] section; a change that moves a root changes them
    def test_profile_files(self, tmp_path):
        cfg = _write(tmp_path, CHEAP_VERIFY)
        out = tmp_path / "prof"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        header = (out / "profile_n0_d1.csv").read_text().splitlines()[0]
        assert header == "r,z_n,z_exact,phi,config_hash"
        assert _profile_digests(out) == {
            "profile_n0_d1.csv": "e64315a3ce1fe69af69b50d0b08fb832c443f0f13136b37b2c3f0e3f0c89efae",
            "profile_n1_d1.csv": "ce4c2668be8557ea7ea8c54ea7b8d21bfe27d83b0f528c283d9d7fbc73779f7a",
            "profile_n2_d1.csv": "d12ffa03979425aa7d5cbf5e6db0a354aed1201922f63538d89057bdb0cfcdf7",
            "profile_n3_d1.csv": "b44eac9114b52cf16eba5690dc4960f19959575ff0fd465567d81a45acab8c86",
        }

    def test_solve_profile_files(self, tmp_path):
        # with lambda = 0.5, solve's one branch is the family's first
        # member, bit for bit
        cfg = _write(tmp_path, CHEAP_VERIFY.replace("[problem]",
                                                    "[problem]\nlambda = 0.5"))
        out = tmp_path / "prof"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert _profile_digests(out) == {
            "profile_n0_d1.csv": "1e8e502d18854cca6dc70b4fc1b15ff3563a3bc33a99fa16c6681e9c382ebb75",
        }

    def test_solve_single_target(self, tmp_path):
        text = "[problem]\nk = 0\nalpha = 1.0\nbeta = 1.0\nlambda = 0.5\n"
        cfg = _write(tmp_path, text, "single.cfg")
        out = tmp_path / "single"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "solutions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) >= 1
        assert float(rows[0]["lambda"]) == pytest.approx(0.5, rel=1e-9)
        assert float(rows[0]["r_1"]) == 1.0

    @pytest.mark.parametrize("problem", [
        "k = 1\nalpha = 1.0\nbeta = 1.3\nlambda = 3",
        "k = 0\nalpha = 1.0\nbeta = 1.2\nlambda = 1e-4",
    ])
    def test_solve_writes_the_configs_lambda(self, tmp_path, problem):
        # the target lambda, as the family commands write it; the achieved
        # one differs from it in the last digits (POLISH_TOL in ln lambda)
        cfg = _write(tmp_path, f"[problem]\n{problem}\n")
        out = tmp_path / "solve"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "solutions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(row["lambda"]) == parse_config(cfg, "solve").lam
                            for row in rows)

    def test_coupling_note_goes_to_metadata(self, tmp_path):
        note = "beta held at 1 while lambda falls"
        cfg = _write(tmp_path, CHEAP_VERIFY.replace(
            "0.0078125\n", f"0.0078125\ncoupling_note = {note}\n"))
        out = tmp_path / "note"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "metadata.json").read_text())["coupling_note"] == note
        assert note not in (out / "solutions.csv").read_text()

    def test_solve_without_lambda_is_config_error(self, tmp_path):
        cfg = _write(tmp_path, "[problem]\nk = 0\nalpha = 1\nbeta = 1.0\n")
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_verify_without_family_is_config_error(self, tmp_path, capsys):
        cfg = _write(tmp_path, "[problem]\nk = 0\nalpha = 1\nbeta = 1.0\n")
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "field: family" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        missing = tmp_path / "missing.cfg"
        assert main(["verify", "--config", str(missing), "--out", str(out)]) == 2
        assert "config error: cannot read config" in capsys.readouterr().err
        assert not out.exists()

    def test_family_without_schedule_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, CHEAP_VERIFY.replace(
            "lambda_schedule = 0.5 0.125 0.03125 0.0078125\n", ""))
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        assert "field: lambda_schedule |" in capsys.readouterr().err
        assert not out.exists()

    def test_verify_without_config_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["verify", "--out", str(out)]) == 2
        assert "verify requires --config | field: config" in capsys.readouterr().err
        assert not out.exists()

    def test_two_members_skip_the_formulas(self, tmp_path):
        # lambda = 7 and 8 lie above lambda_1 = 5.78, which bounds every
        # k = 0 solution at beta = 1: two members are left, fewer than the
        # three the formulas need, so the run writes its solutions and exits 1
        cfg = _write(tmp_path, CHEAP_VERIFY.replace("0.5 0.125 0.03125 0.0078125",
                                                    "0.5 0.125 7 8"))
        out = tmp_path / "skipped"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["verify_skipped"] == "fewer than 3 successful members"
        assert [f["lambda"] for f in meta["failures"]] == [7.0, 8.0]
        with open(out / "solutions.csv", newline="") as fh:
            assert [row["lambda"] for row in csv.DictReader(fh)] == ["0.5", "0.125"]
        assert not (out / "formula_reports.csv").exists()

    def test_family_without_results_leaves_no_directory(self, tmp_path, capsys):
        cfg = _write(tmp_path, CHEAP_VERIFY.replace("0.5 0.125 0.03125 0.0078125",
                                                    "6 7 8 9"))
        out = tmp_path / "x"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 1
        assert "no results:" in capsys.readouterr().err
        assert not out.exists()

    def test_solve_without_root_leaves_no_directory(self, tmp_path, capsys):
        # lambda = 100 lies above lambda_0(s) on every amplitude
        cfg = _write(tmp_path, "[problem]\nk = 0\nalpha = 1\nbeta = 1.2\n"
                               "lambda = 100\n")
        out = tmp_path / "x"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
        assert "no solution with lambda=100.0" in capsys.readouterr().err
        assert not out.exists()


class TestModule:
    def test_hashlib_fallback_gives_the_same_digest(self, monkeypatch):
        # an interpreter built without _sha2 and _sha256 hashes configs with
        # hashlib.  The module is imported afresh with both blocked;
        # monkeypatch puts the original back in sys.modules and on tmb
        original = tmb.cli
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        monkeypatch.delitem(sys.modules, "tmb.cli")
        monkeypatch.setattr(tmb, "cli", original)
        fresh = importlib.import_module("tmb.cli")
        assert fresh is not original and fresh._sha256 is hashlib.sha256
        data = CHEAP_VERIFY.encode()
        assert fresh._config_hash(data) == original._config_hash(data)

    def test_run_as_main_exits_with_the_command_code(self, tmp_path, monkeypatch,
                                                     capsys):
        # python -m tmb.cli: the exit code is main's, here 2 for a config
        # error; run afresh, outside sys.modules, so no module is replaced
        cfg = _write(tmp_path, "[problem]\nk = 25\n")
        argv = ["bessel", "--config", str(cfg), "--out", str(tmp_path / "out")]
        monkeypatch.setattr(sys, "argv", ["tmb.cli", *argv])
        monkeypatch.delitem(sys.modules, "tmb.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("tmb.cli", run_name="__main__")
        assert exc.value.code == 2 == main(argv)
        assert "field: k" in capsys.readouterr().err
