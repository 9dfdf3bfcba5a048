"""Density certificates for the double-braiding gate set on the one-qubit space.

The certificate rests on two double-braid words: with the determinant-one
generators, U = rho~(s1^2 s2^4) and V = rho~(s1^2 s2^6), plus their
commutator.  Both are computed exactly as 2x2 matrices over Q(zeta_N),
N = 4(k+2), in a closed-form gauge: conjugating the qubit basis by a fixed
diagonal matrix turns the recoupling matrix into one with entries 1 and
d^2 - 1, d = [2]_q, so no square root and no F table is needed.  Traces,
determinants and "W = I" do not change under conjugation, and the braid
group's image is unchanged up to that change of basis (Freedman, Larsen and
Wang, CMP 228 (2002)).  Each trace is an exact cyclotomic number, and the
question "is the rotation angle a rational multiple of pi?" is decided
exactly in the trace's own field: a rational trace is looked up in Niven's
five values, and an irrational t = 2cos(2*pi*j/m) in Q(zeta_N) has m | N,
because the conductor of Q(t) divides N and N is even (Washington,
Introduction to Cyclotomic Fields, GTM 83, ch. 3).  So t is 2cos of a
rational multiple of 2*pi iff t = zeta_N^a + zeta_N^-a for one 0 < a < N/2.
Two non-commuting infinite-order special unitaries generate a dense
subgroup of SU(2), which yields the verdict.

The module also decides exact rationality of rational-coefficient sums of
cosines of rational angles, and matches small instances against the
classical list of minimal vanishing combinations.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .cyclotomic import Cyc, cos_pi_fraction, euler_phi, factorize, inverse_one_minus_root, minimal_polynomial
from .cyclotomic import min_poly_2cos  # noqa: F401  (unused; bench/tracer.py patches it here)
from .errors import MAX_LEVEL, DomainError, IntegrityError

if TYPE_CHECKING:
    import numpy as np


# -- witness matrices -------------------------------------------------------------


Matrix = list[list[Cyc]]


class WitnessPair:
    """The two double-braid words probed by the certificate, exactly.

    Entries lie in Q(zeta_N), N = 4(k+2), in the closed-form gauge: each
    matrix is D1 M D1^-1 for the word M in the unitary qubit basis, with
    D1 = diag(-d, d*s), d = [2]_q and s = sqrt(d^2 - 1) (see :func:`qubit_rep_exact`).
    """

    def __init__(self, k: int, a: Matrix, b: Matrix):
        self.k = k
        self.a = a  # rho~(s1^2 s2^4)
        self.b = b  # rho~(s1^2 s2^6)

    @functools.cached_property
    def w(self) -> Matrix:
        """The commutator a b a^-1 b^-1, built on first use; the certificate needs only its trace."""
        a, b = self.a, self.b
        return _mat_mul(_mat_mul(a, b), _mat_mul(_adjugate(a), _adjugate(b)))

    def traces(self) -> tuple[Cyc, Cyc, Cyc]:
        """Exact traces, asserted real; a zero trace is the rational 0 (printed "0; N=1").

        tr W comes from the SL(2) Fricke identity tr[A, B] = tr^2 A + tr^2 B +
        tr^2 AB - tr A tr B tr AB - 2, which needs only the diagonal of AB.
        """
        a, b = self.a, self.b
        tr_a, tr_b = a[0][0] + a[1][1], b[0][0] + b[1][1]
        tr_ab = a[0][0] * b[0][0] + a[0][1] * b[1][0] + a[1][0] * b[0][1] + a[1][1] * b[1][1]
        tr_w = tr_a * tr_a + tr_b * tr_b + tr_ab * tr_ab - tr_a * tr_b * tr_ab - 2
        out = []
        for name, value in (("A", tr_a), ("B", tr_b), ("W", tr_w)):
            if value.is_zero():
                value = Cyc.rational(0)
            if not value.is_real():
                raise IntegrityError(f"trace of {name} is not real at k={self.k}")
            out.append(value)
        return tuple(out)

    def numeric(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three matrices as complex floats in the unitary basis, D1^-1 M D1."""
        import numpy as np

        s = math.sqrt(1 + 2 * math.cos(2 * math.pi / (self.k + 2)))  # sqrt(d^2 - 1) = sqrt([3]_q)
        frame = np.array([[1, -s], [-1 / s, 1]])  # (D1^-1 M D1)_ij = M_ij D1_j / D1_i
        return tuple(
            np.array([[entry.approx() for entry in row] for row in mat], dtype=complex) * frame
            for mat in (self.a, self.b, self.w)
        )


def _mat_mul(x: Matrix, y: Matrix) -> Matrix:
    return [[x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)] for i in range(2)]


def _adjugate(x: Matrix) -> Matrix:
    """The inverse of a determinant-one 2x2 matrix."""
    return [[x[1][1], -x[0][1]], [-x[1][0], x[0][0]]]


def _inverse_d2(N: int) -> Cyc:
    """1/d^2 for d = zeta_N^2 + zeta_N^-2, without a field inversion.

    With y = zeta_N^4, d^2 = (1 + y)^2 / y.  Take z = -y = zeta_N^(N/2 + 4);
    then 1/d^2 = y (1/(1 - z))^2, with 1/(1 - z) in closed form
    (:func:`inverse_one_minus_root`).  z != 1 because y has order k + 2 >= 4.
    """
    inv_1_minus_z = inverse_one_minus_root(N, N // 2 + 4)
    return Cyc.root_of_unity(N, 4) * inv_1_minus_z * inv_1_minus_z


def qubit_rep_exact(k: int) -> tuple[Matrix, Matrix]:
    """The determinant-one qubit generators (sigma~_1, sigma~_2), exactly, in the closed-form gauge.

    In the unitary qubit basis sigma~_1 = R~ = diag(zeta_N^(N/4-2),
    -zeta_N^(N/4+2)) and sigma~_2 = F R~ F, with F = [[-1/d, s/d], [s/d, 1/d]]
    the recoupling matrix F^{1/2 1/2 1/2}_{1/2} (rows and columns: channels 0,
    1), N = 4(k+2), d = [2]_q = zeta_N^2 + zeta_N^-2 and s = sqrt(d^2 - 1).
    With D1 = diag(-d, d*s) and D2 = diag(1, -1/s), G = D1 F D2 = [[1, 1],
    [d^2 - 1, -1]], and G^-1 = G / d^2 (G^2 = d^2 I).  R~ and D2 are diagonal,
    so D1 sigma~_1 D1^-1 = R~ and D1 sigma~_2 D1^-1 = G R~ G / d^2, both over
    Q(zeta_N): those two matrices are returned.

    This is the one check of the qubit level domain, 2 <= k <= MAX_LEVEL,
    for the certificates and the synthesis generators alike: below 2 the
    three-anyon qubit does not exist, and above MAX_LEVEL no run could finish.
    """
    if not 2 <= k <= MAX_LEVEL:
        raise DomainError(f"the three-anyon qubit is built for levels 2 <= k <= {MAX_LEVEL}, got {k}")
    N = 4 * (k + 2)
    quarter = N // 4
    d2 = Cyc.from_exponents(N, {4: 1, 0: 2, -4: 1})  # (zeta^2 + zeta^-2)^2
    inv_d2 = _inverse_d2(N)
    if d2 * inv_d2 != 1:
        raise IntegrityError(f"closed-form 1/d^2 is wrong at k={k}")
    zero = Cyc.rational(0, N)
    r1, r2 = Cyc.root_of_unity(N, quarter - 2), -Cyc.root_of_unity(N, quarter + 2)
    # G R~ G = [[r1 + e r2, r1 - r2], [e (r1 - r2), e r1 + r2]] with e = d^2 - 1, and e / d^2 = 1 - 1/d^2
    off = (r1 - r2) * inv_d2
    return [[r1, zero], [zero, r2]], [[r2 + off, off], [r1 - r2 - off, r1 - off]]


def witnesses(k: int) -> WitnessPair:
    """Build the witness matrices exactly from :func:`qubit_rep_exact`; determinant one is verified.

    A = R~^2 sigma~_2^4 and B = R~^2 sigma~_2^6 in the closed-form gauge, so
    every word, and so W, is conjugate to the unitary one by D1.  Determinant
    one is what the Fricke identity for tr W rests on.

    Both powers come from one Cayley-Hamilton sequence: a determinant-one s
    with t = tr s has s^2 = t s - I, so s^n = p_n s - p_(n-1) I with p_0 = 0,
    p_1 = 1 and p_(j+1) = t p_j - p_(j-1), and the diagonal R~^2 scales rows.
    """
    s1, s2 = qubit_rep_exact(k)
    t = s2[0][0] + s2[1][1]
    p = [Cyc.rational(0, t.order), Cyc.rational(1, t.order), t]
    while len(p) < 7:
        p.append(t * p[-1] - p[-2])
    rows = (s1[0][0] * s1[0][0], s1[1][1] * s1[1][1])  # R~^2 = diag(rows)

    def word(n: int) -> Matrix:  # R~^2 s2^n
        m = [[p[n] * x for x in row] for row in s2]
        m[0][0], m[1][1] = m[0][0] - p[n - 1], m[1][1] - p[n - 1]
        return [[scale * x for x in row] for scale, row in zip(rows, m)]

    a, b = word(4), word(6)
    for name, mat in (("A", a), ("B", b)):
        if mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0] != 1:
            raise IntegrityError(f"det({name}) != 1 at k={k}")
    return WitnessPair(k, a, b)


# -- trace identities ---------------------------------------------------------------


# which -> (((m, coeff), ...), theta_coeff, rhs) for the exact linear identity
# sum_m coeff * cos(2*pi*m/(k+2)) + theta_coeff * (trace/2) = rhs
_IDENTITY_TABLE = {
    "A": (((1, Fraction(-1)), (2, Fraction(1))), Fraction(1), Fraction(-1)),
    "B": (((1, Fraction(2)), (2, Fraction(-1)), (3, Fraction(1))), Fraction(-1), Fraction(1)),
    "W": (((1, Fraction(3)), (2, Fraction(-3)), (3, Fraction(1))), Fraction(1), Fraction(2)),
}


def trace_cosine_identity(which: str, k: int, trace: Cyc) -> None:
    """Check the identity for matrix `which` in {A, B, W} exactly at level k.

    Each cosine is built in the trace's field Q(zeta_N), N = 4(k+2), as
    cos(2*pi*m/(k+2)) = (zeta_N^4m + zeta_N^-4m) / 2.  Raises IntegrityError
    if the trace does not satisfy the identity (that would mean the matrix
    construction and the recoupling data disagree).
    """
    if which not in _IDENTITY_TABLE:
        raise DomainError(f"no trace identity named {which!r}")
    cos_coeffs, theta_coeff, rhs = _IDENTITY_TABLE[which]
    cosines = {}
    for m, coeff in cos_coeffs:
        cosines[4 * m] = cosines[-4 * m] = coeff / 2
    residual = trace * Fraction(theta_coeff, 2) - rhs + Cyc.from_exponents(4 * (k + 2), cosines)
    if not residual.is_zero():
        raise IntegrityError(f"trace identity for {which} fails exactly at k={k}")


# -- projective order decision ----------------------------------------------------------


class OrderDecision(NamedTuple):
    """Exact finite/infinite decision for a special-unitary's projective order."""

    finite: bool
    projective_order: int | None = None
    eigenvalue_order: int | None = None
    angle_numerator: int | None = None  # theta = 2*pi*j/m with j = numerator


#: Niven's theorem: each rational 2cos(2*pi*j/m), gcd(j, m) = 1 and 0 <= j <= m/2, as value -> (m, j)
_NIVEN = {2: (1, 0), 1: (6, 1), 0: (4, 1), -1: (3, 1), -2: (2, 1)}


@functools.lru_cache(maxsize=1)  # a certificate decides both of its traces in one field
def _two_cos_residues(n: int) -> tuple[int, list[int], dict[int, int]]:
    """(p, powers, table) for the ring map zeta_n -> w from Z[zeta_n] onto F_p.

    p is the least prime = 1 (mod n), w an element of order n in F_p^*,
    powers[i] = w^i mod p for i < n, and table maps (w^a + w^-a) mod p to a
    for 0 < a < n/2.
    """
    p = n + 1
    while any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        p += n
    primes = factorize(n)
    w = next(w for w in (pow(g, (p - 1) // n, p) for g in range(2, p)) if all(pow(w, n // q, p) != 1 for q in primes))
    powers = [1]
    for _ in range(n - 1):
        powers.append(powers[-1] * w % p)
    return p, powers, {(powers[a] + powers[n - a]) % p: a for a in range(1, n // 2)}


def decide_projective_order_from_trace(trace: Cyc) -> OrderDecision:
    """Decide whether e^{i*theta} with 2cos(theta) = trace is a root of unity.

    Exact rule, in the trace's own field.  A rational trace has finite order
    iff it is in _NIVEN, which gives theta = 2*pi*j/m.  Otherwise, with n
    the stored order, doubled if odd (the same field, the same phi), the
    order is finite iff trace = zeta_n^a + zeta_n^-a for some 0 < a < n/2;
    then m = n/g and j = a/g, g = gcd(a, n).  The projective order is m, or
    m/2 for even m.  At most one a can match, and it is found from one
    residue modulo a prime, then confirmed by one exact comparison.

    Proof that the rule is complete.  Let trace = 2cos(2*pi*j/m) with
    gcd(j, m) = 1 and 0 <= j <= m/2.
    - Rational: by Niven's theorem m is 1, 2, 3, 4 or 6, where the trace is
      2, -2, -1, 0 or 1; each value fixes (m, j).
    - Irrational: 0 < j < m/2, and Q(trace) is the real subfield K of
      Q(zeta_m), fixed by {1, -1} in (Z/m)^*.  For m != 2 (mod 4), were K in
      Q(zeta_f) for a proper divisor f of m, the phi(m)/phi(f) >= 2 classes
      b = 1 (mod f) would lie in {1, -1}, so f <= 2 and phi(m) = 2, and the
      trace would be rational: K has conductor m.  For m = 2 (mod 4),
      Q(zeta_m) = Q(zeta_(m/2)), and K has the odd conductor m/2.  A
      subfield of Q(zeta_n) has conductor dividing n (Washington,
      Introduction to Cyclotomic Fields, GTM 83, ch. 3), so m | n, or
      m/2 | n with m/2 odd, and then m | n since n is even.  So
      zeta_m^j = zeta_n^a with a = j*n/m.
    - Integrality: each candidate lies in Z[zeta_n], whose power basis is an
      integral basis (Phi_n is monic over Z), so it has integer coordinates;
      a trace with a denominator other than 1 matches none.
    - One candidate: let p be a prime = 1 (mod n) (Dirichlet) and w of
      order n in F_p^*.  As p does not divide n, x^n - 1 = prod_(d | n)
      Phi_d has n distinct roots mod p, and the roots of Phi_n are the
      elements of order n, w among them.  So h: Z[zeta_n] -> F_p with
      zeta_n -> w is a ring map, and it sends the power-basis coordinates
      c_i to sum c_i w^i.  A match a has h(trace) = w^a + w^-a.  For
      0 < a, b < n/2 with w^a + w^-a = w^b + w^-b,
      (w^a - w^b)(1 - w^-(a+b)) = 0, so a = b (mod n) or a + b = 0 (mod n),
      and 0 < a + b < n rules out the second.  So h(trace) names the only
      exponent that can match; h is not injective, so the exact comparison
      still decides.
    """
    value = trace.as_rational()
    if value is not None:
        if value not in _NIVEN:
            return OrderDecision(False)
        m, j = _NIVEN[value]
    else:
        n = trace.order * (1 + trace.order % 2)
        lifted = trace.lift(n)
        if lifted.den != 1:
            return OrderDecision(False)
        p, powers, table = _two_cos_residues(n)
        a = table.get(sum(c * w for c, w in zip(lifted.num, powers)) % p)
        if a is None or Cyc.from_exponents(n, {a: 1, -a: 1}).num != lifted.num:
            return OrderDecision(False)
        g = math.gcd(a, n)
        m, j = n // g, a // g
    return OrderDecision(True, projective_order=m if m % 2 else m // 2, eigenvalue_order=m, angle_numerator=j)


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


class RationalitySurvey(NamedTuple):
    """Exact rationality data for the certificate's cosine ingredients at one level."""

    k: int
    cos_first: Fraction | None  # cos(2pi/(k+2))
    cos_second: Fraction | None  # cos(4pi/(k+2))
    pair_relation: tuple[Fraction, Fraction, Fraction] | None  # (c1, c2, rhs): c1*u + c2*v = rhs
    cos_theta: Fraction | None  # half-trace of the first witness


def rationality_survey(k: int) -> RationalitySurvey:
    trace_a = witnesses(k).traces()[0]  # first: it refuses a level outside the qubit domain
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
    cos_theta = (trace_a / 2).as_rational()
    return RationalitySurvey(k, cos_first, cos_second, pair_relation, cos_theta)


# -- the certificate ------------------------------------------------------------------------


class Certificate(NamedTuple):
    """Per-level universality verdict for the double-braiding gate set."""

    k: int
    trace_a: Cyc
    trace_b: Cyc
    trace_w: Cyc
    order_a: OrderDecision
    order_b: OrderDecision

    @property
    def commutator_nontrivial(self) -> bool:
        return self.trace_w != 2  # exact: W is similar to an SU(2) matrix, so it is I iff tr W = 2

    @property
    def reason(self) -> str | None:  # None when the level is dense
        reasons = [f"{name} finite projective order {order.projective_order}"
                   for name, order in (("A", self.order_a), ("B", self.order_b)) if order.finite]
        if not self.commutator_nontrivial:
            reasons.append("commutator trivial (trace exactly 2)")
        return "; ".join(reasons) or None

    @property
    def verdict(self) -> str:  # "dense" or "not-certified"
        return "not-certified" if self.reason else "dense"

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
    """Decide the density certificate at level k (2 <= k <= MAX_LEVEL).

    The verdict is "dense" iff both witness matrices have infinite projective
    order and their commutator differs from the identity (exact trace test).
    """
    trace_a, trace_b, trace_w = witnesses(k).traces()
    for which, tr in (("A", trace_a), ("B", trace_b), ("W", trace_w)):
        trace_cosine_identity(which, k, tr)
    order_a, order_b = (decide_projective_order_from_trace(tr) for tr in (trace_a, trace_b))
    return Certificate(k, trace_a, trace_b, trace_w, order_a, order_b)
