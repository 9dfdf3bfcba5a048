"""Built-in suite of published reference values, runnable from the CLI.

Each check recomputes a quantity from the library's own machinery and
compares it against an independently entered closed form or constant.
The suite prints one line per check and reports the failure count.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .braids import dense_qubit_generators, normalized_qubit_rep, sparse_encoding_rep
from .cyclotomic import Cyc, cos_pi_fraction, sqrt_squarefree
from .errors import IntegrityError
from .model import get_model
from .synth import projective_distance
from .universality import (
    KNOWN_COSINE_IDENTITIES,
    certificate,
    match_known_identity,
    rational_cosine_sum,
    rationality_survey,
    trace_cosine_identity,
    witnesses,
)


def _q(k: int) -> complex:
    return cmath.exp(2j * cmath.pi / (k + 2))


def _qubit_f(k: int) -> np.ndarray:
    q = _q(k)
    rad = cmath.sqrt(q + 1 / q + 1)
    return (cmath.sqrt(q) / (q + 1)) * np.array([[-1, rad], [rad, 1]])


#: Published reference values, read by the checks below and by the test suite.
REFERENCE = {
    # half-trace tr(A)/2 of the first witness rho~(s1^2 s2^4), exactly
    "half_trace": {
        3: (sqrt_squarefree(5) - 2) / 2,
        4: Cyc.rational(0),
        5: cos_pi_fraction(3, 7) + cos_pi_fraction(2, 7) - 1,
        6: (sqrt_squarefree(2) - 2) / 2,
        8: Cyc.rational(Fraction(-1, 2)),
        10: (sqrt_squarefree(3) - 3) / 2,
    },
    # projective orders of the witnesses (A, B) where both are finite
    "finite_orders": {4: (2, 3), 8: (3, 2)},
    # levels 3 <= k <= 30 where each RationalitySurvey field is rational
    "rational_levels": {
        "cos_first": frozenset({4}),
        "cos_second": frozenset({4, 6, 10}),
        "pair_relation": frozenset({3, 8}),
        "cos_theta": frozenset({4, 8}),
    },
    # levels k >= 3 whose double-braiding image is not certified dense
    "non_dense": frozenset({4, 8}),
    # qubit R pair diag(R^{11}_0, R^{11}_1) = diag(-q^(-3/4), q^(1/4)), q = e^{2 pi i/(k+2)}
    "qubit_r": lambda k: np.diag([-_q(k) ** -0.75, _q(k) ** 0.25]),
    # qubit F matrix F^{111}_1 = (sqrt(q)/(q+1)) [[-1, r], [r, 1]], r = sqrt(q + 1/q + 1)
    "qubit_f": _qubit_f,
    # the k=2 normalized generators: the Clifford pair
    "clifford_k2": (
        cmath.exp(1j * cmath.pi / 4) * np.diag([1, -1j]),
        np.array([[1, -1j], [-1j, 1]]) / math.sqrt(2),
    ),
    # -cos(phi) + cos(pi/3 - phi) + cos(pi/3 + phi) = 0 at sample angles phi = p*pi/r
    "phi_family": tuple(
        [(Fraction(-1), p, r), (Fraction(1), r - 3 * p, 3 * r), (Fraction(1), r + 3 * p, 3 * r)]
        for p, r in ((1, 12), (1, 18), (1, 24), (2, 15), (3, 20))
    ),
}


def _require(condition, detail=None) -> None:
    """Raise IntegrityError unless condition holds; unlike assert, kept under python -O."""
    if not condition:
        raise IntegrityError("reference value mismatch" + ("" if detail is None else f": {detail!r}"))


def _check_fusion() -> str:
    m3 = get_model(3)
    _require(m3.fusion(1, 1) == (0, 2))
    _require(m3.fusion(1, 2) == (1, 3))
    for j in m3.labels:
        _require(m3.fusion(0, j) == (j,))
    _require(get_model(2).fusion(1, 2) == (1,))
    _require(len(get_model(2).labels) == 3)
    return "fusion rules at k=2,3"

def _check_r_symbols() -> str:
    for k in range(2, 9):
        m = get_model(k)
        want = REFERENCE["qubit_r"](k)
        _require(abs(m.r_symbol(1, 1, 0).approx() - want[0, 0]) < 1e-13)
        _require(abs(m.r_symbol(1, 1, 2).approx() - want[1, 1]) < 1e-13)
        _require(m.r_symbol(0, k, k) == 1)
    return "R-symbols -q^(-3/4), q^(1/4) for k=2..8"

def _check_f_closed_form() -> str:
    for k in range(2, 13):
        m = get_model(k)
        want = REFERENCE["qubit_f"](k)
        _, _, got = m.f_matrix_float(1, 1, 1, 1)
        _require(np.max(np.abs(got - want)) < 1e-12, k)
        _require(np.max(np.abs(got - got.T)) < 1e-12)  # symmetric
        _require(np.max(np.abs(got.imag)) < 1e-12)  # real
        _require(np.max(np.abs(got @ got - np.eye(2))) < 1e-12)  # involutory
    return "qubit F-matrix closed form, symmetric/real/involutory, k=2..12"

def _check_f_vacuum() -> str:
    for k in (2, 3, 4, 5):
        m = get_model(k)
        for b1 in m.labels:
            for x in m.fusion(b1, 1):
                if m.admissible(x, 1, 0):
                    val = m.f_symbol(b1, 1, 1, 0, x, b1)
                    _require(val.key == () and val.coef == 1, (k, b1, x))
    return "F = 1 whenever the total charge is the vacuum"

def _check_qubit_generators() -> str:
    for k in range(2, 13):
        q = _q(k)
        s1, s2 = dense_qubit_generators(k)
        rad = cmath.sqrt(q + 1 / q + 1)
        want1 = REFERENCE["qubit_r"](k)
        want2 = (q ** 0.25 / (1 + q)) * np.array([[q, rad], [rad, -1 / q]])
        _require(np.max(np.abs(s1 - want1)) < 1e-12)
        _require(np.max(np.abs(s2 - want2)) < 1e-12)
    return "three-anyon generator matrices, k=2..12"

def _check_clifford() -> str:
    s1, s2 = normalized_qubit_rep(2)
    want1, want2 = REFERENCE["clifford_k2"]
    _require(np.max(np.abs(s1 - want1)) < 1e-12)
    _require(np.max(np.abs(s2 - want2)) < 1e-12)
    return "k=2 normalized generators are the Clifford pair"

def _check_sparse_dense() -> str:
    for k in range(2, 13):
        sparse_encoding_rep(k)  # raises IntegrityError on mismatch
    return "four-anyon and three-anyon images agree, k=2..12"

def _check_trace_identities() -> str:
    for k in range(2, 31):
        ta, tb, tw = witnesses(k).traces()
        trace_cosine_identity("A", k, ta)
        trace_cosine_identity("B", k, tb)
        trace_cosine_identity("W", k, tw)
    return "exact trace identities for A, B, W, k=2..30"

def _check_special_values() -> str:
    for k, want in REFERENCE["half_trace"].items():
        half_trace = witnesses(k).traces()[0] / 2
        _require(half_trace == want, k)
    return "half-trace special values at k=3,4,5,6,8,10"

def _check_rationality_sets() -> str:
    surveys = [rationality_survey(k) for k in range(3, 31)]
    want = REFERENCE["rational_levels"]
    for name, levels in want.items():
        _require({s.k for s in surveys if getattr(s, name) is not None} == levels, name)
    return "rationality exactly at " + " | ".join("k=" + ",".join(map(str, sorted(levels))) for levels in want.values())

def _check_cosine_list() -> str:
    for name, terms, value in KNOWN_COSINE_IDENTITIES:
        _require(rational_cosine_sum(terms) == value, name)
        _require(match_known_identity(terms) == name)
    # parametric family at phi = pi/12
    family = REFERENCE["phi_family"][0]
    _require(rational_cosine_sum(family) == 0)
    _require(match_known_identity(family) == "phi-family")
    # note: some printings give the singleton as 1/3; the verified value is 1/2
    _require(cos_pi_fraction(1, 3).as_rational() == Fraction(1, 2))
    return "rational-cosine list verified exact (singleton value 1/2)"

def _check_verdicts() -> str:
    for k in range(3, 13):
        cert = certificate(k)
        want = "not-certified" if k in REFERENCE["non_dense"] else "dense"
        _require(cert.verdict == want, (k, cert.verdict))
    for k, (order_a, _) in REFERENCE["finite_orders"].items():
        _require(certificate(k).order_a.projective_order == order_a, k)
    _require(certificate(2).verdict == "not-certified")
    return "density verdicts for k=2..12 with finite orders at 4, 8"

def _check_spins_dims() -> str:
    m2 = get_model(2)
    spins, dims, _ = m2.spins_dims_smatrix()
    _require(spins[0] == 1)
    _require(abs(dims[1].approx().real - math.sqrt(2)) < 1e-12)
    m3 = get_model(3)
    _, dims3, _ = m3.spins_dims_smatrix()
    _require(abs(dims3[2].approx().real - (1 + math.sqrt(5)) / 2) < 1e-12)
    return "trivial spin, Ising-like sqrt(2), golden-ratio dimensions"

def _check_clifford_image_small() -> str:
    # the k=2 double-braid image closes to 4 projective gates
    from .synth import SearchConfig, reachable_counts

    counts, closed = reachable_counts(SearchConfig(k=2, max_depth=10))
    _require(closed and counts[-1] == 4)
    s1, s2 = normalized_qubit_rep(2)
    _require(projective_distance(s1 @ s1, np.diag([1, -1]).astype(complex)) < 1e-12)
    return "k=2 double-braid closure is the 4-element projective group"


CHECKS: list[tuple[str, Callable[[], str]]] = [
    ("fusion", _check_fusion),
    ("r-symbols", _check_r_symbols),
    ("f-closed-form", _check_f_closed_form),
    ("f-vacuum", _check_f_vacuum),
    ("qubit-generators", _check_qubit_generators),
    ("clifford-k2", _check_clifford),
    ("sparse-dense", _check_sparse_dense),
    ("trace-identities", _check_trace_identities),
    ("special-values", _check_special_values),
    ("rationality-sets", _check_rationality_sets),
    ("cosine-list", _check_cosine_list),
    ("verdicts", _check_verdicts),
    ("spins-dims", _check_spins_dims),
    ("k2-closure", _check_clifford_image_small),
]


def run(write=print) -> int:
    """Run every reference check; returns the number of failures."""
    failures = 0
    for name, call in CHECKS:
        try:
            detail = call()
            write(f"PASS {name}: {detail}")
        except Exception as exc:  # integrity errors included
            failures += 1
            write(f"FAIL {name}: {type(exc).__name__}: {exc}")
    write(f"{len(CHECKS) - failures}/{len(CHECKS)} reference checks passed")
    return failures
