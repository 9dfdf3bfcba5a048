"""Run one su2k CLI invocation with a span recorded around each layer's public calls.

Usage: python3 bench/tracer.py SPANS_JSON ARG...

ARG... is passed to ``su2k.cli.main`` unchanged, so stdout, stderr and the exit
status are those of the plain ``su2k ARG...`` run.  The program's source is
not edited: the wrappers are installed on the names where each caller looks
them up (a function imported by name into another module is wrapped in that
module, since wrapping only its home module would be bypassed).

A span holds a name, a start, an end, the index of its parent span and the
process's ``ru_maxrss`` at its end.  Spans are kept in flat arrays in memory
and written once, at exit, together with a few facts read from the values
the wrapped calls return (report instance counts, synthesis rows, the level
of each certificate).
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array


class Recorder:
    """Span store for one process: flat arrays, one entry per call."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rss_kb = array("q")
        self.stack = [-1]
        self.facts: dict[str, list] = {"reports": [], "certificates": [], "profile": [], "synth": []}

    def wrap(self, fn, span, on_result=None):
        """A wrapper of ``fn`` recording one span named ``span`` per call."""
        name_id = len(self.names)
        self.names.append(span)
        name_of, parent, start, end, rss_kb, stack = (
            self.name_of, self.parent, self.start, self.end, self.rss_kb, self.stack
        )
        clock, getrusage, self_usage = time.perf_counter, resource.getrusage, resource.RUSAGE_SELF

        def wrapper(*args, **kwargs):
            index = len(name_of)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            rss_kb.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                rss_kb[index] = getrusage(self_usage).ru_maxrss
                stack.pop()
            if on_result is not None:
                on_result(args, result, index)
            return result

        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def patch(self, owner, attr, span, on_result=None):
        setattr(owner, attr, self.wrap(getattr(owner, attr), span, on_result))

    def dump(self, path: str, import_s: float) -> None:
        payload = {
            "import_s": import_s,
            "names": self.names,
            "name": self.name_of.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "rss_kb": self.rss_kb.tolist(),
            "facts": self.facts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def install(rec: Recorder):
    """Wrap each layer's public calls; returns the wrapped ``su2k.cli.main``."""
    import su2k.cli as cli
    from su2k import braids, cyclotomic, model, radicals, synth, universality

    facts = rec.facts

    def report(args, result, index):
        facts["reports"].append([result.name, result.mode, result.checked, result.numeric_fallbacks, index])

    def certified(args, result, index):
        facts["certificates"].append([args[0], index])

    def profiled(args, result, index):
        facts["profile"] = [[r.depth, r.explored, r.distinct, r.best_error, r.mean_error] for r in result]

    def synthesized(args, result, index):
        facts["synth"].append([result.explored, result.distinct, result.best_error])

    # cyclotomic: the class attributes serve every caller; __rmul__ is an alias of __mul__
    Cyc = cyclotomic.Cyc
    mul = rec.wrap(Cyc.__mul__, "cyclotomic.mul")
    Cyc.__mul__ = mul
    Cyc.__rmul__ = mul
    rec.patch(Cyc, "inverse", "cyclotomic.inverse")
    minimal_polynomial = rec.wrap(cyclotomic.minimal_polynomial, "cyclotomic.minimal_polynomial")
    cyclotomic.minimal_polynomial = minimal_polynomial  # looked up by min_poly_2cos
    universality.minimal_polynomial = minimal_polynomial
    rec.patch(universality, "min_poly_2cos", "cyclotomic.min_poly_2cos")

    # radicals
    from_terms = radicals.RadicalSum.__dict__["from_terms"].__func__
    radicals.RadicalSum.from_terms = staticmethod(rec.wrap(from_terms, "radicals.from_terms"))
    rec.patch(radicals.RadicalSum, "is_zero", "radicals.is_zero")
    rec.patch(radicals.Radical, "mul", "radicals.mul")

    # model
    get_model = rec.wrap(model.get_model, "model.get_model")
    for owner in (cli, braids, universality):
        owner.get_model = get_model
    Model = model.Model
    rec.patch(Model, "verify_pentagon", "model.verify_pentagon", report)
    rec.patch(Model, "verify_hexagon", "model.verify_hexagon", report)
    rec.patch(Model, "verify_unitarity", "model.verify_unitarity")
    rec.patch(Model, "verify_fusion_axioms", "model.verify_fusion_axioms")
    rec.patch(Model, "f_matrix_float", "model.f_matrix_float")
    rec.patch(Model, "f_symbol", "model.f_symbol")
    rec.patch(Model, "spins_dims_smatrix", "model.spins_dims_smatrix")

    # braids
    qubit_rep_exact = rec.wrap(braids.qubit_rep_exact, "braids.qubit_rep_exact")
    braids.qubit_rep_exact = qubit_rep_exact  # looked up by normalized_qubit_rep
    universality.qubit_rep_exact = qubit_rep_exact
    rec.patch(synth, "normalized_qubit_rep", "braids.normalized_qubit_rep")

    # universality
    rec.patch(cli, "certificate", "universality.certificate", certified)
    rec.patch(universality, "witnesses", "universality.witnesses")
    rec.patch(universality, "decide_projective_order_from_trace", "universality.decide_projective_order_from_trace")
    rec.patch(universality, "trace_cosine_identity", "universality.trace_cosine_identity")

    # synth
    rec.patch(cli, "error_profile", "synth.error_profile", profiled)
    rec.patch(cli, "synthesize", "synth.synthesize", synthesized)

    return rec.wrap(cli.main, "cli.main")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import su2k.cli  # noqa: F401  (timed: the import every invocation pays)

    import_s = time.perf_counter() - started
    rec = Recorder()
    traced_main = install(rec)
    try:
        return traced_main(argv)
    finally:
        rec.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main())
