"""Kernel probes for what spans around public calls cannot isolate.

Usage:
    python3 bench/probes.py cyclotomic K     # Cyc mul/inverse per call in Q(zeta_{4(K+2)})
    python3 bench/probes.py f-table-float K  # all float F-matrices of a fresh Model(K)
    python3 bench/probes.py f-table-exact K  # all exact F-matrices of a fresh Model(K)

Each probe runs in a fresh interpreter, so the program's caches start cold
exactly as in one CLI invocation, and prints one JSON object.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# F-matrices whose exact entries give the probe's coefficient operands; all
# four are admissible from k = 4 on.
_F_QUADS = ((1, 1, 1, 1), (2, 2, 2, 2), (1, 2, 2, 1), (3, 3, 3, 3))
_OPERANDS_PER_KIND = 8
_MUL_REPS = 5
_INVERSE_REPS = 5


def cyclotomic_probe(k: int) -> dict:
    """Median per-call time of Cyc mul and inverse over a fixed operand set.

    The operands are the quantum integers [1]..[8] and the first eight exact
    F-symbol coefficients of the quads above, all in Q(zeta_{4(k+2)}).
    Building them fills the order's lookup tables before anything is timed.
    """
    from su2k.model import Model

    model = Model(k)
    qints = [model.qint(n) for n in range(1, k + 2)][:_OPERANDS_PER_KIND]
    coefs = []
    for quad in _F_QUADS:
        _, _, entries = model.f_matrix_exact(*quad)
        coefs.extend(entry.coef for row in entries for entry in row)
    operands = qints + coefs[:_OPERANDS_PER_KIND]
    orders = {x.order for x in operands}
    if orders != {model.N}:
        raise RuntimeError(f"probe operands span orders {sorted(orders)}, expected {model.N}")
    clock = time.perf_counter
    mul_times = []
    for x in operands:
        for y in operands:
            started = clock()
            for _ in range(_MUL_REPS):
                x * y
            mul_times.append((clock() - started) / _MUL_REPS)
    inverse_times = []
    for x in operands:
        started = clock()
        for _ in range(_INVERSE_REPS):
            x.inverse()
        inverse_times.append((clock() - started) / _INVERSE_REPS)
    return {
        "order": model.N,
        "operands": len(operands),
        "mul_us": statistics.median(mul_times) * 1e6,
        "inverse_us": statistics.median(inverse_times) * 1e6,
    }


def f_table_probe(k: int, exact: bool) -> dict:
    """Seconds to build a fresh Model(k) and every F-matrix of it."""
    from su2k.model import Model

    started = time.perf_counter()
    model = Model(k)
    build = model.f_matrix_exact if exact else model.f_matrix_float
    for a in model.labels:
        for b in model.labels:
            for c in model.labels:
                for d in model.labels:
                    build(a, b, c, d)
    return {"seconds": time.perf_counter() - started}


def main() -> int:
    kind, k = sys.argv[1], int(sys.argv[2])
    if kind == "cyclotomic":
        result = cyclotomic_probe(k)
    elif kind in ("f-table-float", "f-table-exact"):
        result = f_table_probe(k, exact=kind == "f-table-exact")
    else:
        print(f"unknown probe {kind!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
