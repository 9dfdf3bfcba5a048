"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time

import pytest

from su2k.errors import MAX_PRECISION, MAX_VERIFY_LEVEL
from su2k.model import MAX_LEVEL
from su2k.regression import REFERENCE
from su2k.synth import MAX_PROFILE_SAMPLES


def run_cli(*args, expect=0, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "su2k.cli", *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == expect, (args, proc.returncode, proc.stderr[-400:])
    return proc


def assert_usage_error(*args, env=None):
    """Exit code 2 with a single "error: ..." line on stderr and nothing on stdout."""
    proc = run_cli(*args, expect=2, env=env)
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr[-400:]
    return proc


class TestModelCommand:
    def test_k2_labels(self):
        payload = json.loads(run_cli("model", "--k", "2").stdout)
        assert payload["k"] == 2
        assert payload["labels"] == ["0", "1/2", "1"]
        assert payload["schema"] == "su2k/model-v1"

    def test_k0_single_label(self):
        payload = json.loads(run_cli("model", "--k", "0").stdout)
        assert payload["labels"] == ["0"]

    def test_k3_fusion_table(self):
        payload = json.loads(run_cli("model", "--k", "3").stdout)
        assert payload["fusion"][1][2] == [1, 3]  # 1/2 x 1 = 1/2 + 3/2

    def test_exact_strings_present(self):
        payload = json.loads(run_cli("model", "--k", "2").stdout)
        assert all("N=" in s for s in payload["spins"]["exact"])

    def test_text_format(self):
        out = run_cli("model", "--k", "2", "--format", "text").stdout
        assert "1/2 x 1/2 = 0, 1" in out

    def test_negative_level_usage_error(self):
        run_cli("model", "--k", "-1", expect=2)

    def test_range_rejected(self):
        run_cli("model", "--k", "2..4", expect=2)

    def test_output_in_missing_directory_usage_error(self, tmp_path):
        assert_usage_error("model", "--k", "2", "--output", str(tmp_path / "missing" / "x.json"))

    # json re-recorded when floats became the nearest doubles of the exact values: components that
    # are zero in Q(zeta_N), formerly rounding noise of about 1e-24, are now 0.0, all others unchanged
    # (before: dc3841cbd35b979cabaf031de87e7ceea39918df5f2e098e59ed0539dcff607d)
    @pytest.mark.parametrize("fmt, digest", [
        ("json", "651a9a0bcd91e5c3582e2e0af3d5b6cb3484715bba9f90dda5ff954dc572787c"),
        ("text", "d1a709c75e9f00ab5b4ba26192fc300bf21a1d7c614120a1e0caa8c8976d3c43"),
    ])
    def test_k30_stdout_pinned(self, fmt, digest):
        # the complete stdout, every float included, as first recorded
        out = run_cli("model", "--k", "30", "--format", fmt).stdout
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_small_range_passes(self):
        out = run_cli("verify", "--k", "2..4").stdout
        assert out.count("all hold") == 3

    def test_high_precision_run(self):
        out = run_cli("verify", "--k", "5", "--tol", "1e-30", "--precision", "256").stdout
        assert "all hold" in out

    def test_json_format(self):
        payload = json.loads(run_cli("verify", "--k", "2", "--format", "json").stdout)
        level = payload["levels"][0]
        assert level["all_hold"] is True
        names = {check["name"] for check in level["checks"]}
        assert {"pentagon", "hexagon", "fusion-axioms", "unitarity"} <= names

    def test_bad_range_usage_error(self):
        run_cli("verify", "--k", "5..3", expect=2)
        run_cli("verify", "--k", "-1", expect=2)

    @pytest.mark.parametrize("k", ["60", "2..60", str(MAX_VERIFY_LEVEL + 1)])
    def test_level_over_the_f_table_bound_usage_error(self, k):
        # refused before the first level runs, not a NumPy allocation traceback
        start = time.perf_counter()
        stderr = assert_usage_error("verify", "--k", k).stderr
        assert time.perf_counter() - start < 1.0
        top = int(k.split("..")[-1])
        assert f"{8 * (top + 1) ** 6} bytes" in stderr

    def test_each_level_builds_its_own_model(self):
        # the shared per-level cache stays empty, so a range holds one level's tables at a time
        code = (
            "import contextlib, io\n"
            "from su2k import cli, model\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['verify', '--k', '2..3']) == 0\n"
            "print(model.get_model.cache_info().currsize)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-400:]
        assert proc.stdout == "0\n"

    def test_precision_env_var(self):
        import os, subprocess, sys

        env = dict(os.environ, SU2K_PRECISION="128")
        proc = subprocess.run(
            [sys.executable, "-m", "su2k.cli", "verify", "--k", "2", "--mode", "float",
             "--tol", "1e-20"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr[-300:]
        assert "float128" in proc.stdout

    def test_precision_env_var_not_an_integer(self):
        import os

        env = dict(os.environ, SU2K_PRECISION="abc")
        assert_usage_error("verify", "--k", "2", env=env)

    @pytest.mark.parametrize("bits", ["0", "-8"])
    def test_non_positive_precision(self, bits):
        assert_usage_error("verify", "--k", "2", "--precision", bits)

    @pytest.mark.parametrize("bits", [str(MAX_PRECISION + 1), "1000000"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    def test_precision_over_the_bound_usage_error(self, bits, source):
        # refused before any table is built: a million bits would run for hours
        args, env = ("--precision", bits), None
        if source == "env":
            args, env = (), dict(os.environ, SU2K_PRECISION=bits)
        start = time.perf_counter()
        stderr = assert_usage_error("verify", "--k", "4", *args, env=env).stderr
        assert time.perf_counter() - start < 1.0
        assert f"at most {MAX_PRECISION} bits, got {bits}" in stderr

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1e-9"])
    def test_bad_tolerance(self, tol):
        # a NaN or infinite tol would let every float residual pass
        assert_usage_error("verify", "--k", "2", "--mode", "float", f"--tol={tol}")

    def test_exact_json_reports_zero_numeric_fallbacks(self):
        payload = json.loads(
            run_cli("verify", "--k", "4", "--mode", "exact", "--format", "json").stdout
        )
        checks = {check["name"]: check for check in payload["levels"][0]["checks"]}
        assert all("numeric_fallbacks" in check for check in checks.values())
        for name in ("pentagon", "hexagon"):
            assert checks[name]["mode"] == "exact"
            assert checks[name]["numeric_fallbacks"] == 0

    # sha256 of the complete stdout, every residual included, recorded before unitarity
    # read its F-matrices from the verification tensor
    @pytest.mark.parametrize("args, digest", [
        (("--k", "2..8"), "ae6e0756f6f3bda50570f4295334bf7c56148d96ff38931c0de685d6c5c372ff"),
        (("--k", "2..8", "--format", "json"),
         "41bd9ddeadd4da8c5583bf243ec190926cb137ad7805b525afffa201cb56d4ae"),
        (("--k", "4..5", "--mode", "exact", "--format", "json"),
         "1687ab3fa13813fd80e3b3aeb36bcd0086d4ecd55cd01fa29f92fc99c2afa041"),
        (("--k", "4", "--precision", "128"), "9265e7f65004de9b208ab7684a0bf4b505c03fb2559b684b74cd979d7b007a23"),
    ], ids=["text", "json", "exact", "mpmath"])
    def test_stdout_pinned(self, args, digest):
        out = run_cli("verify", *args).stdout
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestUniversalityCommand:
    def test_csv_sweep(self):
        out = run_cli("universality", "--k", "3..12", "--format", "csv").stdout
        lines = out.strip().splitlines()
        assert lines[0] == "k,cosThetaA,cosThetaB,orderA,orderB,trW,verdict"
        verdicts = {int(line.split(",")[0]): line.split(",")[-1] for line in lines[1:]}
        for k, verdict in verdicts.items():
            assert verdict == ("not-certified" if k in REFERENCE["non_dense"] else "dense")

    def test_order_bound_option_is_gone(self):
        proc = run_cli("universality", "--k", "3", "--max-order-bound", "5", expect=2)
        assert "unrecognized arguments: --max-order-bound" in proc.stderr

    def test_k4_reason(self):
        out = run_cli("universality", "--k", "4").stdout
        assert "A finite projective order 2" in out

    def test_k8_order_three(self):
        payload = json.loads(run_cli("universality", "--k", "8", "--format", "json").stdout)
        cert = payload["certificates"][0]
        assert cert["orderA"]["projective_order"] == 3
        assert cert["verdict"] == "not-certified"

    def test_below_minimum_usage_error(self):
        run_cli("universality", "--k", "1", expect=2)

    def test_stdout_pinned(self):
        # sha256 of the complete stdout, every float included, recorded before the powers of zeta
        # were computed on first use; re-recorded when floats became the nearest doubles of the exact
        # values, which turns the 38 exact-zero components (formerly noise of about 1e-24) into 0.0
        # (before: 0b3e2dce4282b583e37a47f8f95dbda8dc3ab756cc3b0e3c4f945f8b4cebcfec)
        out = run_cli("universality", "--k", "3..30", "--format", "json").stdout
        assert hashlib.sha256(out.encode()).hexdigest() == "8a0cc2ed1adadef8ac4688702f262f45c446398f5b0734e7556904faf55a49f5"

    def test_exact_fields_pinned(self):
        # every exact trace string, order decision and verdict for k=2..30, as first recorded
        payload = json.loads(run_cli("universality", "--k", "2..30", "--format", "json").stdout)
        pinned = [
            [c["k"], c["trA"]["exact"], c["trB"]["exact"], c["trW"]["exact"], c["orderA"], c["orderB"], c["verdict"]]
            for c in payload["certificates"]
        ]
        digest = hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()
        assert digest == "0a01ca33c65d4a4e6ff802064f8220498f9434ba8fa64c32d92b6db0ec5b0c02"


class TestSynthCommand:
    @pytest.fixture()
    def target_file(self, tmp_path):
        path = tmp_path / "not.json"
        path.write_text(
            json.dumps(
                {"schema": "su2k/matrix-v1", "entries": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
            )
        )
        return str(path)

    def test_monotone_error_column(self, target_file):
        out = run_cli(
            "synth", "--k", "3", "--target", target_file, "--max-depth", "8"
        ).stdout
        rows = out.strip().splitlines()
        assert rows[0] == "depth,explored,distinct,best_error,best_word"
        errors = [float(r.split(",")[3]) for r in rows[1:]]
        assert all(later <= earlier + 1e-15 for earlier, later in zip(errors, errors[1:]))

    def test_missing_target_exit_2(self):
        run_cli("synth", "--k", "3", "--target", "/no/such/file.json", expect=2)

    def test_target_and_profile_conflict(self, target_file):
        run_cli(
            "synth", "--k", "3", "--target", target_file, "--profile-samples", "3", expect=2
        )

    def test_neither_target_nor_profile(self):
        run_cli("synth", "--k", "3", expect=2)

    @pytest.mark.parametrize("flag, value", [
        ("--grid", "0"), ("--grid", "-0.5"), ("--grid", "nan"),
        ("--max-states", "0"), ("--max-states", "-5"), ("--beam-width", "-3"), ("--tol", "inf"),
    ])
    def test_non_positive_search_limits(self, flag, value):
        assert_usage_error("synth", "--k", "3", "--profile-samples", "2", "--max-depth", "3", flag, value)

    def test_profile_sample_over_the_cap_usage_error(self):
        # refused before the targets are drawn, not killed for memory millions of samples later
        start = time.perf_counter()
        stderr = assert_usage_error("synth", "--k", "3", "--profile-samples", str(MAX_PROFILE_SAMPLES + 1),
                                    "--max-depth", "1").stderr
        assert time.perf_counter() - start < 1.0
        assert str(MAX_PROFILE_SAMPLES) in stderr

    @pytest.mark.parametrize("grid", ["inf", "1", "5", "1e300"])
    def test_coarse_grid(self, grid):
        # coordinates lie in [-1, 1]: a cell of 1 or more merges distinct states
        assert_usage_error("synth", "--k", "3", "--profile-samples", "2", "--max-depth", "3", "--grid", grid)

    @pytest.mark.parametrize("grid", [("--grid", "0.5"), ()])
    def test_coarse_but_valid_grid_runs(self, grid):
        out = run_cli("synth", "--k", "3", "--profile-samples", "2", "--max-depth", "3", *grid).stdout
        assert out.startswith("depth,explored,distinct,best_error,mean_error\n")

    def test_profile_csv(self):
        out = run_cli(
            "synth", "--k", "4", "--profile-samples", "3", "--max-depth", "10"
        ).stdout
        rows = out.strip().splitlines()
        assert rows[0] == "depth,explored,distinct,best_error,mean_error"
        assert len(rows) > 2

    def test_byte_identical_reruns(self, target_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli("synth", "--k", "3", "--target", target_file, "--max-depth", "7",
                "--output", str(out1))
        run_cli("synth", "--k", "3", "--target", target_file, "--max-depth", "7",
                "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_directory_target_usage_error(self, tmp_path):
        assert_usage_error("synth", "--k", "3", "--target", str(tmp_path))

    @pytest.mark.parametrize("entry", ["1e400", "NaN", "Infinity"])
    def test_non_finite_target_usage_error(self, tmp_path, entry):
        # json.load reads all three spellings as non-finite floats
        bad = tmp_path / "bad.json"
        bad.write_text('{"entries": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % entry)
        assert_usage_error("synth", "--k", "3", "--target", str(bad), "--max-depth", "3")

    @pytest.mark.parametrize("text", [
        '{"entries": [[1, 2]]}',
        '{"entries": [[[1%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % ("0" * 400),
        "[" * 100_000,
        '{"entries": ' + "[" * 100_000,
        '{"entries": [[[true, false], [0, 0]], [[0, 0], [true, 0]]]}',
    ], ids=["shape", "huge-int", "deep-nesting", "deep-entries", "booleans"])
    def test_malformed_target_exit_2(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert_usage_error("synth", "--k", "3", "--target", str(bad))

    def test_identity_target_immediate_hit(self, tmp_path):
        identity = tmp_path / "id.json"
        identity.write_text(
            json.dumps({"entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        )
        out = run_cli("synth", "--k", "3", "--target", str(identity), "--max-depth", "4").stdout
        first_row = out.strip().splitlines()[1].split(",")
        assert first_row[0] == "0" and float(first_row[3]) == 0.0

    def test_identity_target_stops_at_depth_zero(self, tmp_path):
        # the start state is an exact hit, so no depth is expanded after it
        identity = tmp_path / "id.json"
        identity.write_text(json.dumps({"entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        out = run_cli("synth", "--k", "3", "--target", str(identity), "--max-depth", "5").stdout
        assert out.splitlines() == ["depth,explored,distinct,best_error,best_word", "0,1,1,0.0,"]

    def test_target_rows_report_the_counts_after_their_depth(self, target_file):
        target = ("synth", "--k", "3", "--target", target_file, "--max-depth", "6")
        rows = [row.split(",") for row in run_cli(*target).stdout.splitlines()[1:]]
        counts = [(int(row[1]), int(row[2])) for row in rows]
        assert all(b >= a for earlier, later in zip(counts, counts[1:]) for a, b in zip(earlier, later))
        # an exhaustive target search expands what the profile expands, depth by depth
        profile = run_cli("synth", "--k", "3", "--profile-samples", "2", "--max-depth", "6").stdout
        assert counts == [(int(row.split(",")[1]), int(row.split(",")[2])) for row in profile.splitlines()[1:]]
        payload = json.loads(run_cli(*target, "--format", "json").stdout)
        assert counts[-1] == (payload["explored"], payload["distinct"])

    # sha256 of the stdout of the benchmark's synth-search chain: seed 1 recorded before the visited
    # set's merges became linear and lazy, seed 7 before dedup became a value sort with a prefilter
    def test_synth_search_stdout_pinned(self, tmp_path):
        from su2k.synth import haar_su2

        pins = {
            1: ("462575614d4909be8453f81d208a7e79eeaba62b573d57e2808139c69c9ff540",
                "aa33617c949befe5035b64b8d9721a120c4737c8fadec3a02af15a375c8b047e"),
            7: ("32711a201cce14a523e0e79e46ae5715fa6b3f9664f4e15ac668b360466497c4",
                "71798d340ea70fe3dcbecea0273d6043a1cf97a6743213253674f140b0bb96e5"),
        }
        for seed, (profile_digest, beam_digest) in pins.items():
            target = tmp_path / f"target{seed}.json"
            entries = [[[z.real, z.imag] for z in row] for row in haar_su2(random.Random(seed)).tolist()]
            target.write_text(json.dumps({"schema": "su2k/matrix-v1", "entries": entries}) + "\n")
            profile = run_cli("synth", "--k", "3", "--profile-samples", "20", "--max-depth", "13", "--seed", str(seed),
                              "--format", "json").stdout
            beam = run_cli("synth", "--k", "5", "--target", str(target), "--beam-width", "10000", "--max-depth", "40",
                           "--format", "json").stdout
            assert hashlib.sha256(profile.encode()).hexdigest() == profile_digest
            assert hashlib.sha256(beam.encode()).hexdigest() == beam_digest

    def test_profile_rejects_a_beam_width(self):
        # a profile expands every state, so a beam width would be ignored without a word
        assert_usage_error("synth", "--k", "3", "--profile-samples", "3", "--beam-width", "2", "--max-depth", "4")
        out = run_cli("synth", "--k", "3", "--profile-samples", "3", "--beam-width", "0", "--max-depth", "4").stdout
        assert [row.split(",")[1] for row in out.splitlines()[1:]] == ["1", "5", "21", "69", "197"]

    def test_state_capped_profile_warns(self):
        profile = ("synth", "--k", "3", "--profile-samples", "2")
        capped = run_cli(*profile, "--max-depth", "20", "--max-states", "5000")
        assert capped.stderr == "warning: state cap reached; result is partial\n"
        uncapped = run_cli(*profile, "--max-depth", "8")
        assert uncapped.stderr == ""
        lines = capped.stdout.splitlines()
        assert len(lines) > 2 and lines == uncapped.stdout.splitlines()[:len(lines)]

    def test_grid_finer_than_the_key_integers(self, target_file):
        assert_usage_error("synth", "--k", "3", "--target", target_file, "--max-depth", "6", "--grid", "1e-12")

    def test_finest_supported_grid_runs(self, target_file):
        out = run_cli("synth", "--k", "3", "--target", target_file, "--max-depth", "6", "--grid", "1e-9").stdout
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == [str(d) for d in range(7)]
        assert int(rows[-1][2]) > 4  # distinct states stay apart on the grid


class TestTopLevel:
    @pytest.mark.parametrize("args", [
        ("verify", "--k", "99999999999999999999"),
        ("model", "--k", "99999999999999999999"),
        ("universality", "--k", "99999999999999999999"),
        ("synth", "--k", "99999999999999999999", "--profile-samples", "2"),
        ("universality", "--k", "3..99999999999999999999"),
    ], ids=["verify", "model", "universality", "synth", "universality-range"])
    def test_oversized_level_usage_error(self, args):
        # a level whose label range does not fit a Python sequence is a usage error, not a crash
        assert_usage_error(*args)

    @pytest.mark.parametrize("command, lo", [
        (("verify",), ""),
        (("model",), ""),
        (("synth", "--profile-samples", "2"), ""),
        (("universality",), ""),
        (("universality",), "3.."),
    ], ids=["verify", "model", "synth", "universality", "universality-range"])
    def test_unallocatable_level_usage_error(self, command, lo):
        # fits a Python index but not memory: refused before any table is built (synth and
        # universality build no model), and a range before its first level runs
        assert_usage_error(*command, "--k", lo + "9223372036854775805")
        assert_usage_error(*command, "--k", lo + str(MAX_LEVEL + 1))

    def test_no_command_prints_usage(self):
        proc = subprocess.run(
            [sys.executable, "-m", "su2k.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_universality_json_byte_identical(self, tmp_path):
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        run_cli("universality", "--k", "3..6", "--format", "json", "--output", str(out1))
        run_cli("universality", "--k", "3..6", "--format", "json", "--output", str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_regression_mismatch_fails_under_optimize(self):
        # the reference checks must not be assert statements that -O strips
        code = (
            "import sys\n"
            "from su2k import cli, regression\n"
            "regression.rational_cosine_sum = lambda terms: None\n"
            "sys.exit(cli.main(['--paper-regression']))\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1, proc.stderr[-400:]
        lines = proc.stdout.splitlines()
        assert "FAIL cosine-list: IntegrityError: reference value mismatch: 'cos(pi/3) = 1/2'" in lines
        assert sum(line.startswith("PASS ") for line in lines) == 13
        assert lines[-1] == "13/14 reference checks passed"

    def test_regression_flag_conflicts_with_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "su2k.cli", "--paper-regression", "model", "--k", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
