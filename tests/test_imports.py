"""Each CLI run loads only the layers its subcommand uses.

No run of the certify chain (universality, then model) imports NumPy, and
building the parser imports no computation layer at all.  Every check runs in a fresh interpreter, since the
test process itself has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

PROBE = (
    "import json, sys\n"
    "from su2k import cli\n"
    "{body}\n"
    "sys.stderr.write(json.dumps(sorted(sys.modules)))\n"
)


def loaded_modules(body: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-400:]
    return set(json.loads(proc.stderr))


@pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")], ids=["unset", "preset"])
def test_cli_runs_openblas_single_threaded_unless_set(preset, want):
    # OpenBLAS reads the variable when NumPy loads it, so the CLI must set it before anything imports NumPy
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (
        "import os, sys\n"
        "assert 'numpy' not in sys.modules\n"
        "import su2k.cli\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-400:]
    assert proc.stdout.split() == [want, "False"]


def test_parser_loads_no_layer():
    modules = loaded_modules("cli.build_parser()")
    assert "numpy" not in modules and "mpmath" not in modules
    assert {m for m in modules if m.startswith("su2k")} == {"su2k", "su2k.cli", "su2k.errors"}


def test_certificates_never_import_numpy():
    modules = loaded_modules("assert cli.main(['universality', '--k', '3..5']) == 0")
    assert "numpy" not in modules
    # the closed-form gauge needs no model, braid or radical layer
    assert {m for m in modules if m.startswith("su2k")} == {
        "su2k", "su2k.cli", "su2k.errors", "su2k.cyclotomic", "su2k.universality",
    }


def test_model_dump_never_imports_numpy():
    modules = loaded_modules("assert cli.main(['model', '--k', '30']) == 0")
    assert "su2k.model" in modules
    assert "numpy" not in modules and "su2k.radicals" not in modules


def test_synth_loads_no_radicals():
    modules = loaded_modules("assert cli.main(['synth', '--k', '3', '--profile-samples', '2', '--max-depth', '3']) == 0")
    # the generators come from the closed-form gauge: no radical layer and no model layer loaded
    assert {m for m in modules if m.startswith("su2k")} == {
        "su2k", "su2k.cli", "su2k.errors", "su2k.cyclotomic", "su2k.universality",
        "su2k.braids", "su2k.synth",
    }


@pytest.mark.parametrize("argv", [["model", "--k", "3"], ["verify", "--k", "2"], ["verify", "--k", "4", "--mode", "exact"]],
                         ids=["model", "verify", "verify-exact"])
def test_model_commands_skip_synthesis_and_certificates(argv):
    modules = loaded_modules(f"assert cli.main({argv!r}) == 0")
    assert "su2k.model" in modules
    assert not modules & {"su2k.synth", "su2k.universality", "su2k.regression"}
    # exact sums are settled in Q(zeta_N) in the vertex gauge, without square roots
    assert "su2k.radicals" not in modules


def test_every_export_resolves_to_its_home_module():
    code = (
        "import importlib, su2k\n"
        "names = [n for n in su2k.__all__ if n != '__version__']\n"
        "assert len(names) == len(set(names)) and set(su2k.__all__) <= set(dir(su2k))\n"
        "for name in names:\n"
        "    value = getattr(su2k, name)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert home.__name__.startswith('su2k.') and getattr(home, name) is value, name\n"
        "assert su2k.__version__ == '0.1.0'\n"
        "try:\n"
        "    su2k.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('unknown name resolved')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-400:]
