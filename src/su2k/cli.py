"""Command-line interface: model dumps, axiom verification, certificates, synthesis.

Exit codes: 0 on success (all checks passing), 1 when a computation finds a
failing check, 2 on usage errors.  All outputs are deterministic given the
flags and seed; JSON carries exact strings next to float renderings.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

# The CLI multiplies matrices of at most (k+1)x(k+1), so a BLAS thread pool costs start-up time and never pays off.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import MAX_LEVEL, DomainError, IntegrityError, require_f_table

_PRECISION_ENV = "SU2K_PRECISION"


# -- layer entry points ----------------------------------------------------------------
#
# Each subcommand imports only the layers it runs, so a certificate run never
# loads NumPy.  These four names stay module-level functions, looked up here on
# every call, so callers that replace them on this module (bench/tracer.py) see
# every call.


def get_model(k: int):
    """A new model for each level, not the process-wide cache: verify --k 2..12 frees each level's
    tables before it builds the next one's."""
    from .model import Model

    return Model(k)


def certificate(k: int):
    from .universality import certificate

    return certificate(k)


def error_profile(config, sample: int):
    from .synth import error_profile

    return error_profile(config, sample)


def synthesize(config, target):
    from .synth import synthesize

    return synthesize(config, target)


def _parse_k_range(text: str, minimum: int) -> list[int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise DomainError(f"bad level or range {text!r} (expected like '4' or '3..12')")
    if lo > hi:
        raise DomainError(f"empty level range {text!r}")
    if lo < minimum:
        raise DomainError(f"level must be >= {minimum} for this command, got {lo}")
    if hi > MAX_LEVEL:  # refused before any level of a range runs
        raise DomainError(f"level must be at most {MAX_LEVEL}, got {hi}")
    return list(range(lo, hi + 1))


def _precision(flag: int | None) -> int:
    """Bits for the float route: --precision, else $SU2K_PRECISION, else 53."""
    if flag is None:
        text = os.environ.get(_PRECISION_ENV, "53")
        try:
            flag = int(text)
        except ValueError:
            raise DomainError(f"${_PRECISION_ENV} must be an integer number of bits, got {text!r}")
    if flag < 1:
        raise DomainError(f"precision must be a positive number of bits, got {flag}")
    return flag


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write output file {path!r}: {exc.strerror}")


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- model ------------------------------------------------------------------------


def cmd_model(args) -> int:
    from .model import label_str

    ks = _parse_k_range(args.k, minimum=0)
    if len(ks) != 1:
        raise DomainError("the model command takes a single level, not a range")
    model = get_model(ks[0])
    payload = model.json_payload()
    if args.format == "json":
        _write_output(_json_text(payload), args.output)
    elif args.format == "text":
        lines = [f"level k={model.k} (root order {model.N}), {len(model.labels)} anyon types"]
        lines.append("labels: " + ", ".join(payload["labels"]))
        for a in model.labels:
            for b in model.labels:
                if a <= b:
                    channels = ", ".join(label_str(c) for c in model.fusion(a, b))
                    lines.append(f"  {label_str(a)} x {label_str(b)} = {channels}")
        lines.append("dims:  " + ", ".join(f"{d:.10f}" for d in payload["dims"]["float"]))
        lines.append("spins: " + ", ".join(f"{re:+.6f}{im:+.6f}i" for re, im in payload["spins"]["float"]))
        _write_output("\n".join(lines) + "\n", args.output)
    else:
        raise DomainError(f"model output format {args.format!r} not supported (json or text)")
    return 0


# -- verify ------------------------------------------------------------------------


def cmd_verify(args) -> int:
    ks = _parse_k_range(args.k, minimum=0)
    require_f_table(ks[-1])  # before the first level of a range runs
    precision = _precision(args.precision)
    mode = args.mode
    results = []
    for k in ks:
        model = get_model(k)
        reports = [
            model.verify_fusion_axioms(),
            model.verify_unitarity(),
            model.verify_pentagon(mode, tol=args.tol, precision=precision),
            model.verify_hexagon(mode, tol=args.tol, precision=precision),
        ]
        try:
            model.spins_dims_smatrix()
            integrity = "holds"
        except IntegrityError as exc:
            integrity = f"FAILS ({exc})"
        ok = all(r.holds for r in reports) and integrity == "holds"
        results.append((k, reports, integrity, ok))
    if args.format == "json":
        payload = [
            {
                "k": k,
                "checks": [
                    {
                        "name": r.name,
                        "mode": r.mode,
                        "instances": r.checked,
                        "holds": r.holds,
                        "max_residual": r.max_residual,
                        "numeric_fallbacks": r.numeric_fallbacks,
                        "counterexamples": [list(map(str, f)) for f in r.failures[:5]],
                    }
                    for r in reports
                ],
                "spins_dims_smatrix": integrity,
                "all_hold": ok,
            }
            for k, reports, integrity, ok in results
        ]
        _write_output(_json_text({"schema": "su2k/verify-v1", "levels": payload}), args.output)
    else:
        lines = []
        for k, reports, integrity, ok in results:
            lines.append(f"k={k}: {'all hold' if ok else 'FAILURES'}")
            for r in reports:
                lines.append(f"  {r.summary()}")
            lines.append(f"  spins/dims/S-matrix integrity: {integrity}")
        _write_output("\n".join(lines) + "\n", args.output)
    return 0 if all(ok for *_, ok in results) else 1


# -- universality --------------------------------------------------------------------


def cmd_universality(args) -> int:
    ks = _parse_k_range(args.k, minimum=2)
    certificates = [certificate(k) for k in ks]
    if args.format == "json":
        payload = {
            "schema": "su2k/certificates-v1",
            "certificates": [c.json_payload() for c in certificates],
        }
        _write_output(_json_text(payload), args.output)
    elif args.format == "csv":
        header = ["k", "cosThetaA", "cosThetaB", "orderA", "orderB", "trW", "verdict"]
        rows = [c.csv_row() for c in certificates]
        _write_output(_csv_text(header, rows), args.output)
    else:
        lines = []
        for c in certificates:
            detail = "" if c.reason is None else f"  ({c.reason})"
            lines.append(f"k={c.k}: {c.verdict}{detail}")
        _write_output("\n".join(lines) + "\n", args.output)
    return 0


# -- synth ---------------------------------------------------------------------------


def _load_target(path: str):
    import numpy as np

    if not os.path.exists(path):
        raise DomainError(f"target file {path!r} does not exist")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        entries = payload["entries"]
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in entries], dtype=complex
        )
    except OSError as exc:
        raise DomainError(f"cannot read target file {path!r}: {exc.strerror}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"target file {path!r} is not a matrix JSON: {exc}")
    if matrix.shape != (2, 2):
        raise DomainError(f"target must be 2x2, got shape {matrix.shape}")
    return matrix


_PARTIAL_WARNING = "warning: state cap reached; result is partial"


def cmd_synth(args) -> int:
    from .synth import SearchConfig

    ks = _parse_k_range(args.k, minimum=2)
    if len(ks) != 1:
        raise DomainError("the synth command takes a single level, not a range")
    if (args.target is None) == (args.profile_samples is None):
        raise DomainError("give exactly one of --target FILE or --profile-samples N")
    config = SearchConfig(
        k=ks[0],
        max_depth=args.max_depth,
        beam_width=args.beam_width,
        tolerance=args.tol,
        dedup_resolution=args.grid,
        max_states=args.max_states,
        seed=args.seed,
    )
    if args.profile_samples is not None:
        if config.beam_width:
            raise DomainError("--beam-width applies to --target searches; a profile expands every state")
        rows = error_profile(config, args.profile_samples)
        payload = {
            "schema": "su2k/profile-v1",
            "k": config.k,
            "samples": args.profile_samples,
            "seed": config.seed,
            "rows": [
                {
                    "depth": r.depth,
                    "explored": r.explored,
                    "distinct": r.distinct,
                    "best_error": r.best_error,
                    "mean_error": r.mean_error,
                    "max_error": r.max_error,
                }
                for r in rows
            ],
        }
        header = ["depth", "explored", "distinct", "best_error", "mean_error"]
        table = [[r.depth, r.explored, r.distinct, repr(r.best_error), repr(r.mean_error)] for r in rows]
        partial = rows[-1].partial
    else:
        result = synthesize(config, _load_target(args.target))
        payload = {
            "schema": "su2k/synth-v1",
            "k": config.k,
            "max_depth": config.max_depth,
            "beam_width": config.beam_width,
            "partial": result.partial,
            "explored": result.explored,
            "distinct": result.distinct,
            "rows": [
                {"depth": d, "best_error": e, "best_word": w}
                for d, e, w in zip(result.depths, result.best_errors, result.best_words)
            ],
        }
        header = ["depth", "explored", "distinct", "best_error", "best_word"]
        table = [
            [d, explored, distinct, repr(e), w]
            for d, explored, distinct, e, w in zip(result.depths, result.explored_counts, result.distinct_counts,
                                                   result.best_errors, result.best_words)
        ]
        partial = result.partial
    text = _json_text(payload) if args.format == "json" else _csv_text(header, table)
    _write_output(text, args.output)
    if partial:
        print(_PARTIAL_WARNING, file=sys.stderr)
    return 0


# -- parser ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="su2k",
        description="Anyon-model data, braid representations, and double-braiding "
        "universality certificates for the level-k theories.",
    )
    parser.add_argument(
        "--paper-regression",
        action="store_true",
        help="run the built-in suite of published reference values and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_model = sub.add_parser("model", help="dump the anyon-model data for one level")
    p_model.add_argument("--k", required=True, help="level, e.g. 2")
    p_model.add_argument("--format", default="json", choices=["json", "text"])
    p_model.add_argument("--output", default=None, help="write to this path instead of stdout")
    p_model.set_defaults(func=cmd_model)

    p_verify = sub.add_parser("verify", help="verify the model axioms for a level range")
    p_verify.add_argument("--k", required=True, help="level or range, e.g. 2..12")
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--precision", type=int, default=None,
                          help=f"float precision in bits (default: ${_PRECISION_ENV} or 53)")
    p_verify.add_argument("--mode", default="auto", choices=["auto", "exact", "float"])
    p_verify.add_argument("--format", default="text", choices=["text", "json"])
    p_verify.add_argument("--output", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_univ = sub.add_parser("universality", help="density certificates for a level range")
    p_univ.add_argument("--k", required=True, help="level or range, e.g. 3..30")
    p_univ.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_univ.add_argument("--output", default=None)
    p_univ.set_defaults(func=cmd_universality)

    p_synth = sub.add_parser("synth", help="double-braid synthesis search")
    p_synth.add_argument("--k", required=True, help="level, e.g. 3")
    p_synth.add_argument("--target", default=None, help="JSON file with a 2x2 target matrix")
    p_synth.add_argument("--profile-samples", type=int, default=None,
                         help="profile seeded Haar targets instead of one file target")
    p_synth.add_argument("--max-depth", type=int, default=10)
    p_synth.add_argument("--beam-width", type=int, default=0)
    p_synth.add_argument("--tol", type=float, default=1e-9)
    p_synth.add_argument("--grid", type=float, default=1e-6, help="dedup grid resolution")
    p_synth.add_argument("--max-states", type=int, default=2_000_000)
    p_synth.add_argument("--seed", type=int, default=20240301)
    p_synth.add_argument("--format", default="csv", choices=["csv", "json"])
    p_synth.add_argument("--output", default=None)
    p_synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.paper_regression:
        if args.command is not None:
            parser.error("--paper-regression does not combine with a subcommand")
        from . import regression

        return 1 if regression.run() else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
