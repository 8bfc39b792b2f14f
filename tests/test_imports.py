"""The lazy package namespace: what each entry point loads, and that every
exported name is the object its home module defines.

Each check runs in a fresh interpreter, so sys.modules starts clean.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run(code):
    """Run `code` in a fresh interpreter with src on the path; return the
    JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _loaded_after(statement):
    return set(_run(f"import json, sys\n{statement}\nprint(json.dumps(sorted("
                    "m for m in sys.modules if m.startswith('tmb.'))))"))


def test_import_loads_no_submodule():
    assert _loaded_after("import tmb") == set()


def test_lambda_of_s_loads_only_the_integrator():
    assert _loaded_after("import tmb; tmb.lambda_of_s") == {
        "tmb.errors", "tmb.nonlinearity", "tmb.quadrature", "tmb.ode",
        "tmb.records", "tmb.shooting"}


def test_cli_loads_everything_but_bessel():
    loaded = _loaded_after("import tmb.cli")
    assert "tmb.bessel" not in loaded
    assert {"tmb.families", "tmb.analysis", "tmb.bubbles"} <= loaded


def test_no_module_loads_openssl_or_dataclasses():
    # compared with a snapshot taken just before the import, because site
    # may preload modules; cli and bessel together import every tmb module.
    # argparse loads only when cli.main parses a command line
    added = set(_run("import json, sys\nbefore = set(sys.modules)\n"
                     "import tmb.cli, tmb.bessel\n"
                     "print(json.dumps(sorted(set(sys.modules) - before)))"))
    assert "tmb.bessel" in added
    assert not {"_hashlib", "dataclasses", "argparse"} & added


def test_exports_are_their_home_objects():
    # each name is the object of the module that defines it, and dir() lists it
    report = _run(
        "import importlib, json, tmb\n"
        "wrong = []\n"
        "for name in tmb.__all__[:-1]:\n"
        "    home = importlib.import_module('tmb.' + tmb._HOME[name])\n"
        "    obj = getattr(tmb, name)\n"
        "    if (obj is not getattr(home, name)\n"
        "            or getattr(obj, '__module__', home.__name__) != home.__name__):\n"
        "        wrong.append(name)\n"
        "print(json.dumps({'last': tmb.__all__[-1], 'wrong': wrong,"
        " 'undirred': sorted(set(tmb.__all__) - set(dir(tmb)))}))")
    assert report == {"last": "__version__", "wrong": [], "undirred": []}


def test_from_import_and_cached_value():
    import tmb
    from tmb import lambda_of_s
    from tmb.shooting import lambda_of_s as home
    assert lambda_of_s is home is tmb.lambda_of_s
    assert "lambda_of_s" in vars(tmb)


def test_dir_lists_every_export():
    import tmb
    listed = dir(tmb)
    assert listed == sorted(listed)
    assert set(tmb.__all__) <= set(listed)
    assert "__getattr__" in listed


def test_unknown_name_raises_attribute_error():
    import tmb
    with pytest.raises(AttributeError, match="no_such_name"):
        tmb.no_such_name
    assert not hasattr(tmb, "shooting_helpers")
