"""The benchmark tracer wraps su2k names by attribute; each subcommand must still run under it.

``bench/tracer.py SPANS ARGS...`` must leave stdout and the exit status of
``su2k ARGS...`` untouched and record at least one span.  A renamed or deleted
function that the tracer patches fails here instead of in a traced benchmark run.
Each kernel probe of ``bench/probes.py KIND K`` must likewise print one JSON object.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
PROBES = TRACER.with_name("probes.py")


@pytest.mark.parametrize(
    "args",
    [
        ("model", "--k", "2"),
        ("verify", "--k", "2"),
        ("verify", "--k", "4", "--mode", "exact", "--format", "json"),
        ("universality", "--k", "3..4", "--format", "json"),
        ("synth", "--k", "3", "--profile-samples", "2", "--max-depth", "4"),
    ],
    ids=["model", "verify", "verify-exact", "universality", "synth"],
)
def test_traced_run_matches_plain_cli(tmp_path, args):
    plain = subprocess.run([sys.executable, "-m", "su2k.cli", *args], capture_output=True, text=True)
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), *args], capture_output=True, text=True
    )
    assert plain.returncode == 0, plain.stderr[-400:]
    assert traced.returncode == 0, traced.stderr[-400:]
    assert traced.stdout == plain.stdout
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    assert len(spans["name"]) > 0 and len(spans["end"]) == len(spans["name"])


def test_traced_certificates_see_the_qubit_builder(tmp_path):
    # the witnesses call the one exact qubit builder by its module name, where the tracer wraps it
    spans_path = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), "universality", "--k", "3..4"], capture_output=True, text=True
    )
    assert traced.returncode == 0, traced.stderr[-400:]
    spans = json.loads(spans_path.read_text(encoding="utf-8"))
    builder = spans["names"].index("braids.qubit_rep_exact")
    assert spans["name"].count(builder) >= 1


@pytest.mark.parametrize("kind", ["cyclotomic", "f-table-exact", "f-table-float"])
def test_probe_prints_one_json_object(kind):
    # the probes read Model.f_matrix_exact coefficients, qint, labels, N and f_matrix_float
    proc = subprocess.run([sys.executable, str(PROBES), kind, "4"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-400:]
    assert isinstance(json.loads(proc.stdout), dict)
