"""Density certificates for the double-braiding gate set on the one-qubit space.

The certificate rests on two double-braid words: with the determinant-one
generators, U = rho~(s1^2 s2^4) and V = rho~(s1^2 s2^6), plus their
commutator.  Both are computed exactly as 2x2 matrices over the cyclotomic
field adjoined a single radical.  Their traces are radical-free, so each
trace is an exact cyclotomic number, and the question "is the rotation angle
a rational multiple of pi?" is decided exactly by the conductor: a trace t in
Q(zeta_N) is 2cos of a rational multiple of 2*pi iff t = zeta_M^a + zeta_M^-a
for some 0 <= a <= M/2, M = lcm(N, 12) (Washington, Introduction to
Cyclotomic Fields, GTM 83, ch. 3; Niven's theorem for rational t).  Two
non-commuting infinite-order special unitaries generate a dense subgroup of
SU(2), which yields the verdict.

The module also decides exact rationality of rational-coefficient sums of
cosines of rational angles, and matches small instances against the
classical list of minimal vanishing combinations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .braids import qubit_rep_exact
from .cyclotomic import Cyc, _power_table, cos_pi_fraction, euler_phi, minimal_polynomial
from .cyclotomic import min_poly_2cos  # noqa: F401  (unused; bench/tracer.py patches it here)
from .errors import DomainError, IntegrityError
from .model import get_model
from .radicals import RadicalSum, mat_adjugate2, mat_approx, mat_det2, mat_mul, mat_trace

if TYPE_CHECKING:
    import numpy as np


# -- witness matrices -------------------------------------------------------------


@dataclass(frozen=True)
class WitnessPair:
    """The two double-braid words probed by the certificate, exactly."""

    k: int
    a: list[list[RadicalSum]]  # rho~(s1^2 s2^4)
    b: list[list[RadicalSum]]  # rho~(s1^2 s2^6)
    w: list[list[RadicalSum]]  # commutator a b a^-1 b^-1

    def traces(self) -> tuple[Cyc, Cyc, Cyc]:
        """Exact traces; asserted radical-free and real."""
        out = []
        for name, mat in (("A", self.a), ("B", self.b), ("W", self.w)):
            tr = mat_trace(mat)
            if not tr.is_radical_free():
                raise IntegrityError(f"trace of {name} is not radical-free at k={self.k}")
            value = tr.cyc_value()
            if not value.is_real():
                raise IntegrityError(f"trace of {name} is not real at k={self.k}")
            out.append(value)
        return tuple(out)

    def numeric(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return mat_approx(self.a), mat_approx(self.b), mat_approx(self.w)


def witnesses(k: int) -> WitnessPair:
    """Build the witness matrices exactly; determinant-one is verified."""
    if k < 2:
        raise DomainError(f"witness matrices need level k >= 2, got {k}")
    r_tilde, f = qubit_rep_exact(k)
    r2 = mat_mul(r_tilde, r_tilde)
    r4 = mat_mul(r2, r2)
    r6 = mat_mul(r4, r2)
    a = mat_mul(mat_mul(r2, f), mat_mul(r4, f))
    b = mat_mul(mat_mul(r2, f), mat_mul(r6, f))
    for name, mat in (("A", a), ("B", b)):
        if not mat_det2(mat) == 1:
            raise IntegrityError(f"det({name}) != 1 at k={k}")
    w = mat_mul(mat_mul(a, b), mat_mul(mat_adjugate2(a), mat_adjugate2(b)))
    return WitnessPair(k, a, b, w)


# -- trace identities ---------------------------------------------------------------


@dataclass(frozen=True)
class TraceIdentity:
    """An exact linear identity between cos(2*pi*m/(k+2)) terms and the half-trace.

    sum_m coeff[m] * cos(2*pi*m/(k+2)) + theta_coeff * (trace/2) = rhs
    """

    k: int
    which: str
    cos_coeffs: tuple[tuple[int, Fraction], ...]
    theta_coeff: Fraction
    rhs: Fraction

    def residual(self, trace: Cyc) -> Cyc:
        total = Cyc.rational(-self.rhs)
        for m, coeff in self.cos_coeffs:
            total = total + cos_pi_fraction(2 * m, self.k + 2) * coeff
        return total + trace * Fraction(self.theta_coeff, 2)

    def text(self) -> str:
        def signed(x: Fraction) -> str:
            return f"+{x}" if x >= 0 else str(x)

        parts = [f"{signed(c)}*cos(2pi*{m}/{self.k + 2})" for m, c in self.cos_coeffs]
        parts.append(f"{signed(self.theta_coeff)}*cos(theta)")
        return " ".join(parts) + f" = {self.rhs}"


_IDENTITY_TABLE = {
    "A": (((1, Fraction(-1)), (2, Fraction(1))), Fraction(1), Fraction(-1)),
    "B": (((1, Fraction(2)), (2, Fraction(-1)), (3, Fraction(1))), Fraction(-1), Fraction(1)),
    "W": (((1, Fraction(3)), (2, Fraction(-3)), (3, Fraction(1))), Fraction(1), Fraction(2)),
}


def trace_cosine_identity(which: str, k: int, trace: Cyc) -> TraceIdentity:
    """The identity for matrix `which` in {A, B, W}, verified exactly.

    Raises IntegrityError if the trace does not satisfy it (that would mean
    the matrix construction and the recoupling data disagree).
    """
    if which not in _IDENTITY_TABLE:
        raise DomainError(f"no trace identity named {which!r}")
    cos_coeffs, theta_coeff, rhs = _IDENTITY_TABLE[which]
    identity = TraceIdentity(k, which, cos_coeffs, theta_coeff, rhs)
    if not identity.residual(trace).is_zero():
        raise IntegrityError(f"trace identity for {which} fails exactly at k={k}")
    return identity


# -- projective order decision ----------------------------------------------------------


@dataclass(frozen=True)
class OrderDecision:
    """Exact finite/infinite decision for a special-unitary's projective order."""

    finite: bool
    projective_order: int | None = None
    eigenvalue_order: int | None = None
    angle_numerator: int | None = None  # theta = 2*pi*j/m with j = numerator


def decide_projective_order_from_trace(trace: Cyc) -> OrderDecision:
    """Decide whether e^{i*theta} with 2cos(theta) = trace is a root of unity.

    Exact rule: with M = lcm(trace.order, 12), e^{i*theta} has finite order
    iff trace = zeta_M^a + zeta_M^-a in Q(zeta_M) for some 0 <= a <= M/2.
    Then, with g = gcd(a, M), the eigenvalue order is m = M/g and the angle
    numerator is j = a/g (theta = 2*pi*j/m, gcd(j, m) = 1); the projective
    order is m, or m/2 for even m.

    Proof that the lookup is complete.  Suppose trace = 2cos(2*pi*j/m) with
    gcd(j, m) = 1; it suffices to show m | M, for then zeta_m^j = zeta_M^a.
    - Irrational trace: Q(trace) is the real subfield of Q(zeta_m), whose
      conductor is m if m != 2 (mod 4) and m/2 otherwise.  A subfield of
      Q(zeta_M) has conductor dividing M (Washington, Introduction to
      Cyclotomic Fields, GTM 83, ch. 3), so m | M, or m/2 | M with m/2
      odd, and then m | M as well because M is even (4 | M).
    - Rational trace: by Niven's theorem m is 1, 2, 3, 4 or 6, each of
      which divides 12 and so M.
    - Uniqueness: a -> 2cos(2*pi*a/M) is injective on [0, M/2], so at most
      one a matches, and j/m is determined.
    - Integrality: every candidate zeta_M^a + zeta_M^-a lies in Z[zeta_M],
      and the power basis is an integral basis of Z[zeta_M] (Phi_M is monic
      with integer coefficients), so each candidate has integer coordinates.
      The canonical form of the lifted trace has a denominator other than 1
      iff some coordinate is not an integer; then no candidate matches and
      the order is infinite.  Otherwise its numerators are compared with the
      integer coordinates of each candidate.
    """
    order = math.lcm(trace.order, 12)
    lifted = trace.lift(order)
    if lifted.den != 1:
        return OrderDecision(False)
    a = next((a for a in range(order // 2 + 1) if _two_cos_coords(order, a) == lifted.num), None)
    if a is None:
        return OrderDecision(False)
    g = math.gcd(a, order)
    m = order // g
    return OrderDecision(
        True,
        projective_order=m if m % 2 else m // 2,
        eigenvalue_order=m,
        angle_numerator=a // g,
    )


def _two_cos_coords(order: int, a: int) -> tuple[int, ...]:
    """Integer power-basis coordinates of zeta_order^a + zeta_order^-a.

    The two terms are added separately, so a = 0 and a = order/2 give 2 and -2.
    """
    coords = [0] * euler_phi(order)
    table = _power_table(order)
    for e in (a, -a % order):
        for i, c in table[e]:
            coords[i] += c
    return tuple(coords)


# -- rational sums of cosines -------------------------------------------------------------


def rational_cosine_sum(terms: list[tuple[Fraction, int, int]]) -> Fraction | None:
    """Exact rational value of sum coeff * cos(p*pi/r), or None if irrational."""
    total = Cyc.rational(0)
    for coeff, p, r in terms:
        total = total + cos_pi_fraction(p, r) * Fraction(coeff)
    return total.as_rational()


#: The classical minimal vanishing rational combinations of at most four
#: cosines of rational angles in (0, pi/2): singleton, one parametric family,
#: and eight sporadic identities.  Some printings of the list carry a typo in
#: the singleton's value; cos(pi/3) = 1/2 is used here.
KNOWN_COSINE_IDENTITIES: list[tuple[str, list[tuple[Fraction, int, int]], Fraction]] = [
    ("cos(pi/3) = 1/2", [(Fraction(1), 1, 3)], Fraction(1, 2)),
    (
        "cos(pi/5) - cos(2pi/5) = 1/2",
        [(Fraction(1), 1, 5), (Fraction(-1), 2, 5)],
        Fraction(1, 2),
    ),
    (
        "cos(pi/7) - cos(2pi/7) + cos(3pi/7) = 1/2",
        [(Fraction(1), 1, 7), (Fraction(-1), 2, 7), (Fraction(1), 3, 7)],
        Fraction(1, 2),
    ),
    (
        "cos(pi/5) - cos(pi/15) + cos(4pi/15) = 1/2",
        [(Fraction(1), 1, 5), (Fraction(-1), 1, 15), (Fraction(1), 4, 15)],
        Fraction(1, 2),
    ),
    (
        "-cos(2pi/5) + cos(2pi/15) - cos(7pi/15) = 1/2",
        [(Fraction(-1), 2, 5), (Fraction(1), 2, 15), (Fraction(-1), 7, 15)],
        Fraction(1, 2),
    ),
    (
        "cos(pi/7) + cos(3pi/7) - cos(pi/21) + cos(8pi/21) = 1/2",
        [(Fraction(1), 1, 7), (Fraction(1), 3, 7), (Fraction(-1), 1, 21), (Fraction(1), 8, 21)],
        Fraction(1, 2),
    ),
    (
        "cos(pi/7) - cos(2pi/7) + cos(2pi/21) - cos(5pi/21) = 1/2",
        [(Fraction(1), 1, 7), (Fraction(-1), 2, 7), (Fraction(1), 2, 21), (Fraction(-1), 5, 21)],
        Fraction(1, 2),
    ),
    (
        "-cos(2pi/7) + cos(3pi/7) + cos(4pi/21) + cos(10pi/21) = 1/2",
        [(Fraction(-1), 2, 7), (Fraction(1), 3, 7), (Fraction(1), 4, 21), (Fraction(1), 10, 21)],
        Fraction(1, 2),
    ),
    (
        "-cos(pi/15) + cos(2pi/15) + cos(4pi/15) - cos(7pi/15) = 1/2",
        [(Fraction(-1), 1, 15), (Fraction(1), 2, 15), (Fraction(1), 4, 15), (Fraction(-1), 7, 15)],
        Fraction(1, 2),
    ),
]


def _normalized_terms(terms: list[tuple[Fraction, int, int]]) -> list[tuple[Fraction, Fraction]]:
    """Collapse to (coeff, angle as fraction of pi), merged and sorted by angle."""
    merged: dict[Fraction, Fraction] = {}
    for coeff, p, r in terms:
        angle = Fraction(p, r)
        merged[angle] = merged.get(angle, Fraction(0)) + Fraction(coeff)
    return sorted(((c, a) for a, c in merged.items() if c), key=lambda t: t[1])


def match_known_identity(terms: list[tuple[Fraction, int, int]]) -> str | None:
    """Which classical list identity a rational instance matches, if any.

    Instances must have at most four distinct angles, all strictly inside
    (0, pi/2).  Matching is up to a common rational scale.  Returns the
    identity's display string, "phi-family" for the parametric relation
    -cos(phi) + cos(pi/3 - phi) + cos(pi/3 + phi) = 0, or None ("outside
    list", which for a minimal rational instance signals an inconsistency).
    """
    normalized = _normalized_terms(terms)
    if len(normalized) > 4:
        raise DomainError("list matching applies to at most four distinct angles")
    for _, angle in normalized:
        if not Fraction(0) < angle < Fraction(1, 2):
            raise DomainError(f"angle {angle}*pi is outside (0, pi/2)")
    value = rational_cosine_sum(terms)
    if value is None:
        return None
    for name, ref_terms, ref_value in KNOWN_COSINE_IDENTITIES:
        ref = _normalized_terms(ref_terms)
        if [a for _, a in ref] != [a for _, a in normalized]:
            continue
        scale = normalized[0][0] / ref[0][0]
        if all(c == scale * rc for (c, _), (rc, _) in zip(normalized, ref)) and value == scale * ref_value:
            return name
    # parametric family: -cos(phi) + cos(pi/3 - phi) + cos(pi/3 + phi) = 0
    if len(normalized) == 3 and value == 0:
        (c1, a1), (c2, a2), (c3, a3) = normalized  # angles ascending
        third = Fraction(1, 3)
        # sorted angles of the family are (phi, 1/3 - phi, 1/3 + phi), 0 < phi < 1/6
        if a1 < Fraction(1, 6) and a2 == third - a1 and a3 == third + a1:
            if c1 == -c2 and c2 == c3:
                return "phi-family"
    return None


# -- rationality survey -----------------------------------------------------------------


@dataclass(frozen=True)
class RationalitySurvey:
    """Exact rationality data for the certificate's cosine ingredients at one level."""

    k: int
    cos_first: Fraction | None  # cos(2pi/(k+2))
    cos_second: Fraction | None  # cos(4pi/(k+2))
    pair_relation: tuple[Fraction, Fraction, Fraction] | None  # (c1, c2, rhs): c1*u + c2*v = rhs
    cos_theta: Fraction | None  # half-trace of the first witness


def rationality_survey(k: int) -> RationalitySurvey:
    if k < 2:
        raise DomainError(f"survey needs k >= 2, got {k}")
    u = cos_pi_fraction(2, k + 2)
    v = cos_pi_fraction(4, k + 2)
    cos_first = u.as_rational()
    cos_second = v.as_rational()
    pair_relation = None
    if cos_first is None and cos_second is None:
        # v = 2u^2 - 1, so {1, u, v} is rationally dependent iff deg u = 2;
        # then u^2 + p*u + r = 0 gives 2p*u + v = -2r - 1
        poly = minimal_polynomial(u)
        if len(poly) == 3:
            r, p, _ = poly
            pair_relation = (2 * p, Fraction(1), -2 * r - 1)
    trace_a = witnesses(k).traces()[0]
    cos_theta = (trace_a / 2).as_rational()
    return RationalitySurvey(k, cos_first, cos_second, pair_relation, cos_theta)


# -- the certificate ------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Per-level universality verdict for the double-braiding gate set."""

    k: int
    trace_a: Cyc
    trace_b: Cyc
    trace_w: Cyc
    order_a: OrderDecision
    order_b: OrderDecision
    commutator_nontrivial: bool
    verdict: str  # "dense" or "not-certified"
    reason: str | None

    def json_payload(self) -> dict:
        def trace_json(tr: Cyc) -> dict:
            z = tr.approx()
            return {"exact": tr.exact_str(), "float": [z.real, z.imag]}

        def order_json(dec: OrderDecision) -> dict:
            if dec.finite:
                return {
                    "finite": True,
                    "projective_order": dec.projective_order,
                    "eigenvalue_order": dec.eigenvalue_order,
                    "angle": f"2*pi*{dec.angle_numerator}/{dec.eigenvalue_order}",
                }
            # a fixed function of k, kept for the certificate-v1 schema; the decision needs no bound
            return {"finite": False, "candidate_phi_bound": 2 * euler_phi(4 * (self.k + 2))}

        return {
            "schema": "su2k/certificate-v1",
            "k": self.k,
            "trA": trace_json(self.trace_a),
            "trB": trace_json(self.trace_b),
            "trW": trace_json(self.trace_w),
            "orderA": order_json(self.order_a),
            "orderB": order_json(self.order_b),
            "commutator_nontrivial": self.commutator_nontrivial,
            "verdict": self.verdict,
            "reason": self.reason,
        }

    def csv_row(self) -> list:
        return [
            self.k,
            (self.trace_a.approx().real / 2),
            (self.trace_b.approx().real / 2),
            self.order_a.projective_order if self.order_a.finite else "inf",
            self.order_b.projective_order if self.order_b.finite else "inf",
            self.trace_w.approx().real,
            self.verdict,
        ]


def certificate(k: int) -> Certificate:
    """Decide the density certificate at level k (k >= 2).

    The verdict is "dense" iff both witness matrices have infinite projective
    order and their commutator differs from the identity (exact trace test).
    """
    pair = witnesses(k)
    trace_a, trace_b, trace_w = pair.traces()
    for which, tr in (("A", trace_a), ("B", trace_b), ("W", trace_w)):
        trace_cosine_identity(which, k, tr)
    order_a = decide_projective_order_from_trace(trace_a)
    order_b = decide_projective_order_from_trace(trace_b)
    commutator_nontrivial = trace_w != 2
    reasons = []
    if order_a.finite:
        reasons.append(f"A finite projective order {order_a.projective_order}")
    if order_b.finite:
        reasons.append(f"B finite projective order {order_b.projective_order}")
    if not commutator_nontrivial:
        reasons.append("commutator trivial (trace exactly 2)")
    if reasons:
        return Certificate(
            k, trace_a, trace_b, trace_w, order_a, order_b, commutator_nontrivial,
            "not-certified", "; ".join(reasons),
        )
    return Certificate(
        k, trace_a, trace_b, trace_w, order_a, order_b, True, "dense", None
    )
