"""Exact arithmetic for differential operators with polynomial coefficients.

An operator is a finite sum ``p_ij(w, d, E) * z^i * Dz^j`` with ``Dz = d/dz``
and coefficients that are Laurent polynomials over the rationals in three
commuting parameters: the field frequency ``w``, the level splitting ``d``
and a spectral parameter ``E``.  Operators are kept in normal order (all
powers of ``z`` to the left of all ``Dz``), so equality of operators is
structural equality of their term dictionaries.  The product normal-orders
by the closed Leibniz form Dz^j z^i = sum_l C(j, l) i!/(i-l)! z^(i-l) Dz^(j-l),
and the reduced operator is computed from the model's two factors with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

# parameter symbols, fixed order: w (frequency), d (splitting), E (spectral)
PARAM_NAMES = ("w", "d", "E")


def accumulate(out: dict, key, value) -> None:
    """out[key] += value in place, dropping the key when the sum is zero."""
    if key in out:
        s = out[key] + value
        if s:
            out[key] = s
        else:
            del out[key]
    elif value:
        out[key] = value


class ParamPoly:
    """Laurent polynomial in (w, d, E) with exact rational coefficients.

    Stored as integer numerators over one common denominator: num maps
    exponent triples to nonzero ints and den > 0, in canonical form
    gcd(den, *num.values()) == 1, so ``==`` and ``hash`` are structural.
    Arithmetic runs on the integers and normalises each result with one
    content gcd (fraction-free in the sense of Bareiss, Math. Comp. 22,
    1968).  Negative exponents are permitted (they arise when tail
    coefficients of asymptotic series are solved for).  Coefficients enter
    and leave as int or Fraction; ``terms`` is the {exponent: Fraction} view.
    """

    __slots__ = ("num", "den")

    def __init__(self, terms: dict[tuple[int, int, int], Fraction | int] | None = None):
        terms = terms or {}
        for c in terms.values():
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"ParamPoly coefficient {c!r} is not an int or Fraction")
        den = math.lcm(*(c.denominator for c in terms.values()))
        self.num, self.den = _canonical(
            {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den)

    @classmethod
    def over(cls, num: dict[tuple[int, int, int], int], den: int) -> "ParamPoly":
        """num / den for int values and den > 0; num is adopted if canonical."""
        p = cls.__new__(cls)
        p.num, p.den = _canonical(num, den)
        return p

    @classmethod
    def rational(cls, q) -> "ParamPoly":
        return cls({(0, 0, 0): q})

    @classmethod
    def monomial(cls, ew: int = 0, ed: int = 0, ee: int = 0, coeff=1) -> "ParamPoly":
        return cls({(ew, ed, ee): coeff})

    @classmethod
    def omega(cls) -> "ParamPoly":
        return cls.monomial(ew=1)

    @classmethod
    def delta(cls) -> "ParamPoly":
        return cls.monomial(ed=1)

    @classmethod
    def energy(cls) -> "ParamPoly":
        return cls.monomial(ee=1)

    @property
    def terms(self) -> dict[tuple[int, int, int], Fraction]:
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ParamPoly) and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __neg__(self) -> "ParamPoly":
        return ParamPoly.over({e: -c for e, c in self.num.items()}, self.den)

    def __add__(self, other: "ParamPoly") -> "ParamPoly":
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        out = {e: c * sa for e, c in self.num.items()}
        for e, c in other.num.items():
            out[e] = out.get(e, 0) + c * sb
        return ParamPoly.over(out, self.den * sa)

    def __sub__(self, other: "ParamPoly") -> "ParamPoly":
        return self + (-other)

    def __mul__(self, other: "ParamPoly") -> "ParamPoly":
        return ParamPoly.dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "ParamPoly":
        """The sum of a * b over a sequence of (a, b) pairs of ParamPolys.

        Every product goes straight onto the common denominator of all of
        them, and the sum is normalised once, where summing the products
        would run one content gcd per product and per addition.  One pair is
        the product a * b, which needs no lcm; a * P_ONE is a itself.
        """
        if len(pairs) == 1:
            (a, b), = pairs
            if b is P_ONE:
                return a
            den = a.den * b.den
        else:
            den = math.lcm(*[a.den * b.den for a, b in pairs])
        out: dict[tuple[int, int, int], int] = {}
        get = out.get
        for a, b in pairs:
            s = den // (a.den * b.den)
            items = b.num.items()
            for (x, y, z), u in a.num.items():
                u *= s
                for (x2, y2, z2), v in items:
                    e = (x + x2, y + y2, z + z2)
                    out[e] = get(e, 0) + u * v
        return ParamPoly.over(out, den)

    def scale(self, q) -> "ParamPoly":
        return self * ParamPoly.rational(q)

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0) for e in self.num)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (0 for the empty one)."""
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self.text()}")
        return Fraction(self.num.get((0, 0, 0), 0), self.den)

    def is_single_term(self) -> bool:
        return len(self.num) == 1

    def uses(self, name: str) -> bool:
        """Whether the given parameter symbol occurs with nonzero exponent."""
        i = PARAM_NAMES.index(name)
        return any(e[i] for e in self.num)

    def exact_div_term(self, divisor: "ParamPoly") -> "ParamPoly":
        """Divide by a single-term polynomial (always exact, Laurent)."""
        if len(divisor.num) != 1:
            raise ValueError("divisor must be a single term")
        ((x, y, z), dn), = divisor.num.items()
        # (v / den) / (dn / divisor.den) = v * divisor.den / (den * dn); dn's sign moves up
        s = divisor.den if dn > 0 else -divisor.den
        return ParamPoly.over({(a - x, b - y, c - z): v * s
                               for (a, b, c), v in self.num.items()}, self.den * abs(dn))

    def evaluate(self, w, d, E) -> Fraction:
        """Evaluate at exact rational parameter values."""
        w, d, E = Fraction(w), Fraction(d), Fraction(E)
        total = Fraction(0)
        for (ew, ed, ee), c in self.num.items():
            total += c * w ** ew * d ** ed * E ** ee
        return total / self.den

    def text(self) -> str:
        """Canonical rendering: graded order, lowest total degree first."""
        if not self.num:
            return "0"
        parts = []
        for e, c in sorted(self.num.items(), key=lambda t: (sum(t[0]), tuple(-x for x in t[0]))):
            factors = [f"{n}^{x}" if x != 1 else n
                       for n, x in zip(PARAM_NAMES, e) if x]
            g = math.gcd(c, self.den)
            mag, den = abs(c) // g, self.den // g
            mag_text = str(mag) if den == 1 else f"{mag}/{den}"
            if not factors:
                body = mag_text
            elif mag == 1 and den == 1:
                body = "*".join(factors)
            else:
                body = "*".join([mag_text] + factors)
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"ParamPoly({self.text()})"


def _canonical(num: dict, den: int) -> tuple[dict, int]:
    # drop zero values and divide out the content gcd(den, *num); den > 0.
    # num is adopted when it needs neither step.
    if 0 in num.values():
        num = {e: c for e, c in num.items() if c}
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    return num, den


P_ZERO = ParamPoly()
P_ONE = ParamPoly.rational(1)


class OperatorPoly:
    """Normal-ordered differential operator sum p_ij(w,d,E) z^i Dz^j."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], ParamPoly] | None = None):
        self.terms = {ij: p for ij, p in (terms or {}).items() if p}

    def __eq__(self, other) -> bool:
        return isinstance(other, OperatorPoly) and self.terms == other.terms

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        out = dict(self.terms)
        for ij, p in other.terms.items():
            accumulate(out, ij, p)
        return OperatorPoly(out)

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + OperatorPoly({ij: -p for ij, p in other.terms.items()})

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        """The normal-ordered product: z^a Dz^b z^c Dz^e is
        sum_l C(b, l) c!/(c-l)! z^(a+c-l) Dz^(b+e-l), l <= min(b, c)."""
        out: dict[tuple[int, int], ParamPoly] = {}
        for (a, b), p in self.terms.items():
            for (c, e), q in other.terms.items():
                # the weight C(b, l) c!/(c-l)! as a running product over l
                pq, wt = p * q, 1
                for l in range(min(b, c) + 1):
                    accumulate(out, (a + c - l, b + e - l), pq.scale(wt))
                    wt = wt * (b - l) * (c - l) // (l + 1)
        return OperatorPoly(out)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def text(self) -> str:
        if not self.terms:
            return "0"
        rows = []
        for (i, j), p in self.sorted_terms():
            mono = "*".join(s for s, e in (("z", i), ("Dz", j)) if e
                            for s in [f"{s}^{e}" if e != 1 else s])
            coeff = p.text()
            if " " in coeff:
                coeff = f"({coeff})"
            rows.append(f"{coeff}*{mono}" if mono else coeff)
        return " + ".join(rows)

    def __repr__(self):
        return f"OperatorPoly({self.text()})"


def a_coeff(j: int, n: int) -> int:
    """Cross-term weight of z^(n-j) Dz^(n-j) in the normal order of (z^n + Dz^n)^2.

    The normal-ordering coefficient of Dz^n z^n in closed form,
    a_j(n) = C(n, j)^2 j!, from the boson identity
    a^n a'^n = sum_j C(n, j)^2 j! a'^(n-j) a^(n-j) (Blasiak, Penson &
    Solomon, Ann. Comb. 7, 2003); 1 for j = 0 and 0 for j < 0 or j > n.
    tests/test_weyl.py::TestCrossTermWeights::test_square_of_coupling checks
    it against (z^k + Dz^k)^2 by the package product and by commutator
    rewriting at k = 1..12, 32 and 64.
    """
    if j < 0:
        return 0
    if j == 0:
        return 1
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(n, j) ** 2 * math.factorial(j)


def build_reduced_operator(k: int) -> OperatorPoly:
    """Second-order-in-spin reduced operator for k-th power coupling.

    A*A - C*C - d^2 + w k z^(k-1), the products of the model's factors
    A = w z Dz - E and C = z^k + Dz^k taken in normal order.  The last term
    is the shipped first-order remainder, which ROADMAP item 13 replaces by
    the sector elimination's.  Valid for k >= 2; the k = 2 operator is built
    for display although its asymptotics are handled numerically elsewhere.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    w, d = ParamPoly.omega(), ParamPoly.delta()
    A = OperatorPoly({(1, 1): w, (0, 0): -ParamPoly.energy()})
    C = OperatorPoly({(k, 0): P_ONE, (0, k): P_ONE})
    op = A * A - C * C - OperatorPoly({(0, 0): d * d})
    # ROADMAP item 13: w k z^(k-1) is [w Dz, z^k]; the elimination gives +-[A, C]
    return op + OperatorPoly({(k - 1, 0): w.scale(k)})
