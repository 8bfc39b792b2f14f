"""tests/ci.py, the programs of the CI workflow: its rerun table covers every
preset, and its JUnit verdict fails exactly where it should."""

from pathlib import Path

import pytest

import ci

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
ALLOWED = {"test_criterion_6_concentration_and_flux", "test_criterion_7_full_energy_expansion"}


def test_every_preset_is_rerun():
    # the glob of test_cli.PRESETS: a new preset fails here until CI reruns it
    presets = sorted(f"configs/{path.name}" for path in CONFIGS.glob("*.cfg"))
    assert sorted(config for *_, config in ci.RERUNS if not config.startswith("@")) == presets


def test_every_config_text_is_run():
    used = [row[-1][1:] for row in ci.RERUNS + ci.REFUSED if row[-1].startswith("@")]
    assert sorted(used) == sorted(ci.CONFIGS)


def _report(tmp_path, *cases):
    path = tmp_path / "report.xml"
    path.write_text("<testsuites><testsuite>" + "".join(
        f'<testcase classname="tests.test_x" name="{name}">{body}</testcase>'
        for name, body in cases) + "</testsuite></testsuites>")
    return str(path)


CRITERIA_6_7 = [(name, '<failure message="m">trace</failure>') for name in sorted(ALLOWED)]


@pytest.mark.parametrize("allowed, code", [(ALLOWED, 0), (set(), 1)])
def test_junit_fails_on_criteria_6_and_7_unless_allowed(tmp_path, allowed, code):
    report = _report(tmp_path, ("test_passes", ""), *CRITERIA_6_7)
    assert ci.junit(report, allowed) == code


def test_junit_counts_an_error_as_a_failure(tmp_path):
    report = _report(tmp_path, *CRITERIA_6_7, ("test_setup", '<error message="e">trace</error>'))
    assert ci.junit(report, ALLOWED) == 1


def test_junit_skip_passes(tmp_path):
    assert ci.junit(_report(tmp_path, ("test_x", '<skipped message="s"/>')), set()) == 0


def test_junit_fails_without_test_cases(tmp_path):
    assert ci.junit(_report(tmp_path), ALLOWED) == 1


def test_line_counts_per_module_and_total(tmp_path, capsys):
    for checkout, modules in (("base", {"a.py": 3, "gone.py": 1}),
                              ("head", {"a.py": 2, "new.py": 4})):
        package = tmp_path / checkout / "src" / "tmb"
        package.mkdir(parents=True)
        for name, lines in modules.items():
            (package / name).write_text("x = 1\n" * lines)
    ci.line_counts(tmp_path / "base", tmp_path / "head")
    assert capsys.readouterr().out.splitlines() == [
        "src/tmb/a.py lines: base 3, head 2",
        "src/tmb/gone.py lines: base 1, head -",
        "src/tmb/new.py lines: base -, head 4",
        "src/tmb lines: base 4, head 6",
    ]
