"""Asymptotic exponent extraction for the reduced operator at z -> infinity.

Substitutes e^(g z^2/2 + b z) z^r (c_0 + c_1/z + ...) into a normal-ordered
operator, collects the coefficient of each power z^(r + 2k - l) (level l) and
solves the levels in the fixed order g, b, r, c_1, c_2, ... over the quotient
ring Q(w,d,E)[g]/(g^k + 1).  Everything is exact; no floating point.

Only the c_0 series e^(g z^2/2 + b z) z^r is differentiated, and
differentiating it only multiplies by g, b and r + e, so it holds integers.
The c_n term is the c_0 term at r - n, so with L_m(g, b, r) the c_0 part of
level m, level l is sum_n c_n L_(l-n)(g, b, r - n) (the Frobenius structure
of the recurrence).  substitute_ansatz keeps only the L_m, as ring elements,
and one sum writes out the shifted copies with RingElem.subs: for a level when
it is read (the exponent solve and the verdict read levels 0..5), and for the
tail recursion, with gamma and beta substituted and r = rho.  w, d, E enter when
substitute_ansatz applies the operator; every coefficient in (w, d, E) is a
ParamPoly, integer numerators over one common denominator, so the levels and
the tail are built in integer arithmetic.

Symbol conventions in rendered output: g is the Gaussian exponent generator
(g^k = -1), b the linear exponent, r the power-law exponent, c0..cL the tail
coefficients; w, d, E live inside the ParamPoly coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .weyl import OperatorPoly, P_ONE, P_ZERO, ParamPoly, a_coeff, accumulate


class UnsolvableLevel(Exception):
    """A level equation is neither zero nor degree <= 2 in its unknown."""

    def __init__(self, level: int, residual: str, reason: str):
        self.level = level
        self.residual = residual
        self.reason = reason
        super().__init__(f"level {level}: {reason} (residual: {residual})")


class DivisionByNonUnit(Exception):
    """Quotient-ring division was demanded by an element that is not q*mono*g^j."""


class OutOfScope(Exception):
    """Requested k lies outside the asymptotic theory implemented here."""


# ---------------------------------------------------------------------------
# ring elements

def _fold_gamma(p: int, k: int) -> tuple[int, int]:
    # g^p -> sign * g^(p mod k) using g^k = -1
    q, r = divmod(p, k)
    return (-1 if q % 2 else 1), r


# the symbols RingElem.subs and RingElem.poly_in accept, by key position
_SYMBOLS = ("g", "b", "r")


class RingElem:
    """Polynomial in g, b, r and the c_n, with ParamPoly coefficients.

    Keys are (g-power, b-power, r-power, c-index tuple).  modulus=None means
    a free polynomial in g; modulus=k means the quotient by g^k + 1, with
    eager reduction so g-powers stay below k.
    """

    __slots__ = ("terms", "modulus")

    def __init__(self, terms=None, modulus: int | None = None):
        self.modulus = modulus
        self.terms = {}
        for (gp, bx, rx, cm), p in (terms or {}).items():
            if modulus is not None:
                sign, gp = _fold_gamma(gp, modulus)
                if sign < 0:
                    p = -p
            accumulate(self.terms, (gp, bx, rx, cm), p)

    # -- constructors
    @classmethod
    def _wrap(cls, terms, modulus=None):
        # adopt a dict whose keys are already reduced and whose values are nonzero
        e = cls.__new__(cls)
        e.terms, e.modulus = terms, modulus
        return e

    @classmethod
    def zero(cls, modulus=None):
        return cls({}, modulus)

    @classmethod
    def one(cls, modulus=None):
        return cls({(0, 0, 0, ()): P_ONE}, modulus)

    @classmethod
    def from_param(cls, p: ParamPoly, modulus=None):
        return cls({(0, 0, 0, ()): p}, modulus)

    @classmethod
    def gamma(cls, power: int = 1, modulus=None):
        return cls({(power, 0, 0, ()): P_ONE}, modulus)

    # -- predicates / accessors
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, RingElem) and self.modulus == other.modulus
                and self.terms == other.terms)

    def _check(self, other: "RingElem"):
        if self.modulus != other.modulus:
            raise ValueError("mixed ring moduli")

    def max_b(self) -> int:
        return max((k[1] for k in self.terms), default=0)

    def max_r(self) -> int:
        return max((k[2] for k in self.terms), default=0)

    def c_indices(self) -> set[int]:
        out = set()
        for k in self.terms:
            out.update(k[3])
        return out

    def uses_param(self, name: str) -> bool:
        return any(p.uses(name) for p in self.terms.values())

    def is_scalar(self) -> bool:
        """No g, b, r or c content: a bare ParamPoly."""
        return all(k == (0, 0, 0, ()) for k in self.terms)

    def scalar_part(self) -> ParamPoly:
        if not self.is_scalar():
            raise ValueError(f"not a scalar ring element: {self.text()}")
        return self.terms.get((0, 0, 0, ()), P_ZERO)

    # -- arithmetic
    def __neg__(self):
        return RingElem({k: -p for k, p in self.terms.items()}, self.modulus)

    def __add__(self, other: "RingElem"):
        self._check(other)
        out = dict(self.terms)
        for k, p in other.terms.items():
            accumulate(out, k, p)
        return RingElem._wrap(out, self.modulus)

    def __mul__(self, other: "RingElem"):
        self._check(other)
        out = {}
        for (g1, b1, r1, c1), p1 in self.terms.items():
            for (g2, b2, r2, c2), p2 in other.terms.items():
                key = (g1 + g2, b1 + b2, r1 + r2, tuple(sorted(c1 + c2)))
                accumulate(out, key, p1 * p2)
        return RingElem(out, self.modulus)

    def reduce(self, k: int) -> "RingElem":
        """Impose g^k = -1 (enter the quotient ring)."""
        return RingElem(self.terms, k)

    # -- substitutions
    def subs(self, symbol: str, value) -> "RingElem":
        """Substitute value (a RingElem, ParamPoly or rational) for g, b or r."""
        i = _SYMBOLS.index(symbol)
        if not isinstance(value, RingElem):
            value = RingElem.from_param(
                value if isinstance(value, ParamPoly) else ParamPoly.rational(value),
                self.modulus)
        self._check(value)
        powers = [RingElem.one(self.modulus)]
        out = {}
        for key, p in self.terms.items():
            n, rest = key[i], key[:i] + (0,) + key[i + 1:]
            if n == 0:
                accumulate(out, rest, p)
                continue
            while len(powers) <= n:
                powers.append(powers[-1] * value)
            for key2, q in (RingElem._wrap({rest: p}, self.modulus) * powers[n]).terms.items():
                accumulate(out, key2, q)
        return RingElem._wrap(out, self.modulus)

    # -- views
    def poly_in(self, symbol: str) -> dict[int, "RingElem"]:
        """Coefficients of the powers of g, b or r: {power: RingElem}."""
        i = _SYMBOLS.index(symbol)
        out: dict[int, RingElem] = {}
        for key, p in self.terms.items():
            rest = key[:i] + (0,) + key[i + 1:]
            out.setdefault(key[i], RingElem.zero(self.modulus)).terms[rest] = p
        return out

    def rem_rho_quadratic(self, b: ParamPoly, c: ParamPoly) -> "RingElem":
        """Remainder modulo r^2 + b r + c (so zero iff divisible)."""
        top = self.max_r()
        # r^e = u_e * r + v_e
        u = [P_ZERO, P_ONE]
        v = [P_ONE, P_ZERO]
        for _ in range(2, top + 1):
            nu = v[-1] - b * u[-1]
            nv = -(c * u[-1])
            u.append(nu)
            v.append(nv)
        out = {}
        for (g, bx, r, cm), p in self.terms.items():
            for rr, w in ((1, u[r]), (0, v[r])):
                if w:
                    accumulate(out, (g, bx, rr, cm), p * w)
        return RingElem._wrap(out, self.modulus)

    # -- unit division
    def is_unit_monomial(self) -> bool:
        if len(self.terms) != 1:
            return False
        (g, b, r, c), p = next(iter(self.terms.items()))
        return b == 0 and r == 0 and c == () and p.is_single_term()

    def div_unit(self, unit: "RingElem") -> "RingElem":
        self._check(unit)
        if not unit.is_unit_monomial():
            raise DivisionByNonUnit(
                f"division by non-unit ring element: {unit.text()}")
        (g, _, _, _), p = next(iter(unit.terms.items()))
        inv_p = P_ONE.exact_div_term(p)
        out = {}
        for (g1, b1, r1, c1), p1 in self.terms.items():
            out[(g1 - g, b1, r1, c1)] = p1 * inv_p
        return RingElem(out, self.modulus)

    # -- rendering
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0][:3]) + len(t[0][3]), t[0]))

    def text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (g, b, r, c), p in self.sorted_terms():
            factors = []
            if g:
                factors.append(f"g{g}")
            if b:
                factors.append("b" if b == 1 else f"b^{b}")
            if r:
                factors.append("r" if r == 1 else f"r^{r}")
            factors.extend(f"c{i}" for i in c)
            coeff = p.text()
            if not factors:
                parts.append(coeff)
            elif coeff == "1":
                parts.append("*".join(factors))
            elif coeff == "-1":
                parts.append("-" + "*".join(factors))
            else:
                if " " in coeff:
                    coeff = f"({coeff})"
                parts.append("*".join([coeff] + factors))
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self):
        mod = f", mod g^{self.modulus}+1" if self.modulus else ""
        return f"RingElem({self.text()}{mod})"


# ---------------------------------------------------------------------------
# ansatz series and level extraction

def _c0_derivatives(max_j: int, depth: int) -> list[list[dict]]:
    """slots[j][i]: coefficient of e^(g z^2/2 + b z) z^(r + j - i) in
    Dz^j [e^(g z^2/2 + b z) z^r], for 0 <= j <= max_j and 0 <= i <= depth.

    Each slot is {(g, b, r): int}: d/dz only multiplies by g, b or r + e, so
    the coefficients are integers.  Slots past depth are dropped.  The c_n
    term needs no series of its own: it is this one with r replaced by r - n.
    """
    slots = [[{(0, 0, 0): 1}] + [{} for _ in range(depth)]]
    for j in range(max_j):
        # d/dz: c at offset e -> g*c at e+1, b*c at e, (r+e)*c at e-1
        new = [{} for _ in range(depth + 1)]
        for i, c in enumerate(slots[-1]):
            e = j - i
            for (g, b, r), p in c.items():
                accumulate(new[i], (g + 1, b, r), p)
                if i + 1 <= depth:
                    accumulate(new[i + 1], (g, b + 1, r), p)
                if i + 2 <= depth:
                    accumulate(new[i + 2], (g, b, r + 1), p)
                    if e:
                        accumulate(new[i + 2], (g, b, r), p * e)
        slots.append(new)
    return slots


# cost guard: the deepest level substitute_ansatz collects
_MAX_DEPTH = 32


@dataclass(frozen=True, eq=False)
class LevelEquation:
    """Level l: the coefficient of z^(r + 2k - l), sum_n c_n L_(l-n)(g, b, r - n).

    parts is the tuple of c_0 parts L_m, m = 0..depth, as free-g RingElems,
    that all levels of one substitute_ansatz call share.  coeff writes out the
    shifted copies on its first read.
    """

    level: int
    parts: tuple = field(repr=False)

    @cached_property
    def coeff(self) -> RingElem:
        """The level as a RingElem: every term carries exactly one c_n."""
        return _level_sum(self.parts, self.level, (), RingElem({(0, 0, 1, ()): P_ONE}))

    def text(self) -> str:
        return self.coeff.text()


def _level_sum(L, l: int, c: tuple, r: RingElem) -> RingElem:
    """sum_n c_n L[l - n](r - n) for n = 0..l, in r's ring.

    c_n is c[n] where c holds it and the symbol c_n beyond; r is the symbol r
    or a value for it.
    """
    terms = {}
    for n in range(l + 1):
        cn = c[n] if n < len(c) else RingElem({(0, 0, 0, (n,)): P_ONE}, r.modulus)
        if not cn:
            continue
        shifted = L[l - n].subs("r", r + RingElem.from_param(ParamPoly.rational(-n), r.modulus))
        for key, p in (cn * shifted).terms.items():
            accumulate(terms, key, p)
    return RingElem._wrap(terms, r.modulus)


def substitute_ansatz(A: OperatorPoly, k: int, depth: int = 5) -> list[LevelEquation]:
    """Levels 0..depth: level l is the coefficient of z^(r + 2k - l).

    The c_0..c_depth stay symbolic; gamma is a free symbol here (the quotient
    relation is imposed by solve_levels, so level 0 shows the (g^k+1)^2
    factor explicitly).

    Only the c_0 series is differentiated, and only the c_0 parts L_m(g, b, r)
    of levels 0..depth are built: c_n z^(r - n) is the c_0 term at r - n, so
    the c_n part of level l is L_(l-n)(g, b, r - n), which each LevelEquation
    derives from the L_m when its coeff is read.  Each D*L_m is accumulated in
    integers, D the lcm of the operator's coefficient denominators (D = 1 for
    build_reduced_operator), then kept as a free-g RingElem whose values are
    ParamPolys over D; every returned level shares the one tuple of them.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if depth < 5:
        raise ValueError("depth must be at least 5 (levels 0..4 fix the exponents)")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the cap {_MAX_DEPTH}")
    for i, j in A.terms:
        if i + j > 2 * k:
            # its levels would read slots past depth
            raise ValueError(f"operator term z^{i}*Dz^{j} has i + j > 2k = {2 * k}")
    den = math.lcm(*(p.den for p in A.terms.values()))
    num = {ij: {e: c * (den // p.den) for e, c in p.num.items()} for ij, p in A.terms.items()}
    slots = _c0_derivatives(max((j for _, j in A.terms), default=0), depth)
    parts = []
    for m in range(depth + 1):
        # part = D * L_m as {(g, b, r): {param exponent: int}}; z^i Dz^j puts
        # slot s at z^(r + i + j - s), so level m reads slot m - (2k - i - j)
        part = {}
        for (i, j), p in num.items():
            s = m - (2 * k - i - j)
            if s < 0:
                continue
            for key, q in slots[j][s].items():
                slot = part.setdefault(key, {})
                for e, c in p.items():
                    accumulate(slot, e, c * q)
        parts.append(RingElem._wrap({(g, b, r, ()): ParamPoly.over(poly, den)
                                     for (g, b, r), poly in part.items() if poly}))
    parts = tuple(parts)
    return [LevelEquation(l, parts) for l in range(depth + 1)]


# ---------------------------------------------------------------------------
# quadratic roots

def _param_sqrt(p: ParamPoly) -> ParamPoly | None:
    """Square root of a single-term ParamPoly, if exact."""
    if p.is_zero():
        return ParamPoly()
    if not p.is_single_term():
        return None
    (e, c), = p.num.items()
    if c < 0 or any(x % 2 for x in e):
        return None
    # c and den are coprime, so c/den is a square iff both are
    rn, rd = math.isqrt(c), math.isqrt(p.den)
    if rn * rn != c or rd * rd != p.den:
        return None
    return ParamPoly.over({(e[0] // 2, e[1] // 2, e[2] // 2): rn}, rd)


def ring_sqrt(x: RingElem) -> RingElem | None:
    """A square root of x = q*mono*g^p in the quotient ring, else None.

    Tries every candidate g-power t with g^(2t) proportional to g^p; the
    relation g^k = -1 makes odd p solvable for odd k via a sign flip.
    """
    if x.is_zero():
        return RingElem.zero(x.modulus)
    k = x.modulus
    if k is None:
        raise ValueError("ring_sqrt needs a quotient-ring element")
    if len(x.terms) != 1:
        return None
    (p, b, r, c), coeff = next(iter(x.terms.items()))
    if b or r or c:
        return None
    for t in range(k):
        sign, rr = _fold_gamma(2 * t, k)
        if rr != p:
            continue
        root_coeff = _param_sqrt(coeff.scale(sign))
        if root_coeff is not None:
            return RingElem({(t, 0, 0, ()): root_coeff}, k)
    return None


def _square_content(n: int) -> int:
    # largest s with s*s dividing n; trial division up to the cube root,
    # then the leftover cofactor can only contribute if it is itself a square
    n = abs(n)
    if n <= 1:
        return 1
    s = 1
    p = 2
    while p * p * p <= n:
        while n % (p * p) == 0:
            s *= p
            n //= p * p
        if n % p == 0:
            n //= p
        p += 1 if p == 2 else 2
    r = math.isqrt(n)
    if r * r == n:
        s *= r
    return s


class QuadraticRoot:
    """One root rational + surd*sqrt(disc) of a monic quadratic in r.

    All three components are ParamPoly values; disc is normalized to integer
    content free of square factors (a perfect-square disc is folded away, so
    rational roots always have surd = 0).  The quadratic is not stored:
    monic() rebuilds it from the root.
    """

    __slots__ = ("rational", "surd", "disc")

    def __init__(self, rational: ParamPoly, surd: ParamPoly = P_ZERO,
                 disc: ParamPoly = P_ZERO):
        self.rational, self.surd, self.disc = rational, surd, disc

    @classmethod
    def pair_from_monic(cls, b: ParamPoly, c: ParamPoly) -> list["QuadraticRoot"]:
        """Roots of x^2 + b x + c, surd-normalized; one entry if disc = 0."""
        rational = b.scale(Fraction(-1, 2))
        disc0 = b * b - c.scale(4)
        if disc0.is_zero():
            return [cls(rational)]
        # den^2 * disc0 has integer coefficients with content den * gcd(num)
        den = disc0.den
        s = _square_content(den * math.gcd(*disc0.num.values()))
        disc = disc0.scale(Fraction(den * den, s * s))
        surd = Fraction(s, 2 * den)
        if disc == P_ONE:
            # perfect square: two rational roots
            return [cls(rational + ParamPoly.rational(sign * surd)) for sign in (1, -1)]
        return [cls(rational, ParamPoly.rational(sign * surd), disc) for sign in (1, -1)]

    def monic(self) -> tuple[ParamPoly, ParamPoly]:
        """(b, c) of x^2 + b x + c, whose roots are this one and its conjugate.

        For a surd root that is the quadratic pair_from_monic solved; for a
        rational root it is (x - root)^2.
        """
        return (-(self.rational + self.rational),
                self.rational * self.rational - self.surd * self.surd * self.disc)

    def is_rational(self) -> bool:
        return self.surd.is_zero()

    def rational_value(self) -> ParamPoly:
        if not self.is_rational():
            raise ValueError("root has a surd part")
        return self.rational

    def text(self) -> str:
        if self.is_rational():
            return self.rational.text()
        s = self.surd.text()
        if "-" in s:
            return f"{self.rational.text()} - {s[1:]}*sqrt({self.disc.text()})"
        return f"{self.rational.text()} + {s}*sqrt({self.disc.text()})"

    def __repr__(self):
        return f"QuadraticRoot({self.text()})"

    def __eq__(self, other):
        return (isinstance(other, QuadraticRoot)
                and self.rational == other.rational and self.surd == other.surd
                and self.disc == other.disc)


# ---------------------------------------------------------------------------
# branch solving

def _gamma_root(k: int, m: int) -> RingElem:
    # root m of g^k = -1 is g^(2m+1); the constructor folds it to +-g^p, p < k
    return RingElem.gamma(2 * m + 1, k)


@dataclass(frozen=True)
class ExponentBranch:
    """One asymptotic branch, instantiated at the gamma root gamma_index.

    While solve_levels runs, beta and rho are None until a level fixes them;
    every branch it returns has both.
    """

    k: int
    gamma_index: int          # m: the root exp(i(2m+1)pi/k) of g^k = -1
    beta: RingElem | None
    rho: QuadraticRoot | None
    c: tuple[RingElem, ...] = field(default=())   # c_0 = 1 normalization
    rho_index: int = 0
    resonant: tuple[int, ...] = ()

    __hash__ = None     # RingElem and QuadraticRoot are unhashable

    @property
    def gamma_power(self) -> int:
        """2m + 1: the root is g^(2m+1), e^(i(2m+1)pi/k) in the complex embedding."""
        return 2 * self.gamma_index + 1

    @property
    def gamma(self) -> RingElem:
        """+-g^p realizing the root g^(2m+1) in the quotient ring."""
        return _gamma_root(self.k, self.gamma_index)

    def substitute(self, elem: RingElem) -> RingElem:
        """Substitute the known g, b, r, c_0, c_1, ... into elem in that order.

        None stays symbolic; a surd rho reduces modulo its monic quadratic.  The
        known c_n go in one pass: the series is linear in the tail, so every term
        carries exactly one c_n, and every known value is c-free (_solve_c checks
        this), so a substituted value never brings in a c_j left to replace.
        """
        elem = elem.subs("g", self.gamma)
        if self.beta is not None:
            elem = elem.subs("b", self.beta)
        if self.rho is not None:
            if self.rho.is_rational():
                elem = elem.subs("r", self.rho.rational_value())
            else:
                elem = elem.rem_rho_quadratic(*self.rho.monic())
        out = {}
        for key, p in elem.terms.items():
            if not key[3] or key[3][0] >= len(self.c):
                accumulate(out, key, p)
                continue
            (n,) = key[3]
            for (g, b, r, _), q in self.c[n].terms.items():
                accumulate(out, (key[0] + g, key[1] + b, key[2] + r, ()), p * q)
        return RingElem(out, elem.modulus)

    def residual(self, level: LevelEquation) -> RingElem:
        """The level in the quotient ring with every known value substituted."""
        return self.substitute(level.coeff.reduce(self.k))


def gamma_root_elements(k: int) -> list[RingElem]:
    """The k roots of g^k = -1 as ring elements: root m is g^(2m+1) reduced."""
    return [_gamma_root(k, m) for m in range(k)]


def _solve_beta(eq: RingElem, level: int) -> list[RingElem]:
    poly = eq.poly_in("b")
    deg = max(poly)
    if deg > 2:
        raise UnsolvableLevel(level, eq.text(), f"degree {deg} in b")
    if deg == 2:
        if 1 in poly:
            raise UnsolvableLevel(level, eq.text(), "b-quadratic with linear term")
        A, C = poly[2], poly.get(0, RingElem.zero(eq.modulus))
        if C.is_zero():
            return [RingElem.zero(eq.modulus)]   # double root b = 0
        rhs = (-C).div_unit(A)
        root = ring_sqrt(rhs)
        if root is None:
            raise UnsolvableLevel(level, eq.text(),
                                  f"b^2 = {rhs.text()} has no monomial square root")
        return [root, -root]
    if deg == 1:
        return [(-poly.get(0, RingElem.zero(eq.modulus))).div_unit(poly[1])]
    raise UnsolvableLevel(level, eq.text(), "no b present where b is expected")


def _scalarize(e: RingElem, level: int, what: str) -> ParamPoly:
    if not e.is_scalar():
        raise UnsolvableLevel(level, e.text(), f"{what} is not a scalar")
    return e.scalar_part()


def _solve_rho(eq: RingElem, level: int) -> list[QuadraticRoot]:
    poly = eq.poly_in("r")
    deg = max(poly)
    if deg > 2:
        raise UnsolvableLevel(level, eq.text(), f"degree {deg} in r")
    zero = RingElem.zero(eq.modulus)
    if deg == 2:
        A = poly[2]
        b = _scalarize(poly.get(1, zero).div_unit(A), level, "monic r coefficient")
        c = _scalarize(poly.get(0, zero).div_unit(A), level, "monic constant")
        return QuadraticRoot.pair_from_monic(b, c)
    if deg == 1:
        val = _scalarize((-poly.get(0, zero)).div_unit(poly[1]), level, "r value")
        return [QuadraticRoot(val)]
    raise UnsolvableLevel(level, eq.text(), "no r present where r is expected")


def _solve_c(eq: RingElem, n: int, level: int) -> RingElem:
    """Solve K*c_n + R = 0 for c_n, which occurs in eq.

    R must be c-free: a value written in terms of another unknown would break
    the one-pass substitution in ExponentBranch.substitute.
    """
    K, R = {}, {}
    for (g, b, r, c), p in eq.terms.items():
        if c == (n,):
            K[(g, b, r, ())] = p
        else:
            R[(g, b, r, c)] = p
    R = RingElem._wrap(R, eq.modulus)
    if R.c_indices():
        raise UnsolvableLevel(level, R.text(), "more than one unknown c_n at this level")
    return (-R).div_unit(RingElem._wrap(K, eq.modulus))


def _advance(branch: ExponentBranch, eq: RingElem, level: int,
             n_max: int) -> list[ExponentBranch]:
    """Successors of branch after the nonzero substituted level eq.

    The elimination order is b, then r, then the lowest unknown c_n up to
    c_n_max.  A c_n skipped by levels that vanished identically is left free:
    it is pinned to 0 and recorded in resonant.
    """
    if branch.beta is None:
        if not eq.max_b():
            raise UnsolvableLevel(level, eq.text(), "nonzero level before b was determined")
        return [replace(branch, beta=b) for b in _solve_beta(eq, level)]
    if branch.rho is None:
        if not eq.max_r():
            raise UnsolvableLevel(level, eq.text(), "nonzero level before r was determined")
        return [replace(branch, rho=r, rho_index=i)
                for i, r in enumerate(_solve_rho(eq, level))]
    unknown = eq.c_indices()
    if not unknown:
        raise UnsolvableLevel(level, eq.text(),
                              "nonzero residual with every c_n already fixed")
    target = min(unknown)
    cs, resonant = list(branch.c), list(branch.resonant)
    while len(cs) < target and len(cs) <= n_max:
        resonant.append(len(cs))
        cs.append(RingElem.zero(branch.k))
    if len(cs) <= n_max:
        cs.append(_solve_c(eq, target, level))
    return [replace(branch, c=tuple(cs), resonant=tuple(resonant))]


def solve_levels(levels: list[LevelEquation], k: int) -> list[ExponentBranch]:
    """Resolve gamma, beta, rho (and any c_n forced by levels <= 4).

    Branches are ordered by (gamma root index, beta solution index, rho root
    index); every returned branch annihilates levels 0..4 exactly.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    if k == 2:
        raise OutOfScope(
            "k=2: the Gaussian exponent is not a root of unity, so the k >= 3 "
            "level analysis does not apply; use the truncation numerics instead")
    if len(levels) < 6:
        raise ValueError("need levels 0..5 at least (depth >= 5)")

    # level 0 must carry the doubly degenerate root condition (g^k + 1)^2 = 0
    lvl0 = levels[0].coeff
    expected = RingElem({(2 * k, 0, 0, (0,)): P_ONE, (k, 0, 0, (0,)): P_ONE.scale(2),
                         (0, 0, 0, (0,)): P_ONE})
    if lvl0 != expected and lvl0 != -expected:
        raise UnsolvableLevel(0, lvl0.text(),
                              "level 0 does not factor as a unit times (g^k+1)^2*c0")

    # triangular elimination over levels 1..4 at root 0, whose gamma is g
    # itself, so g stays symbolic; level l holds no c_n past c_l, so
    # n_max = 4 never truncates
    partial = [ExponentBranch(k, 0, None, None, c=(RingElem.one(k),))]
    for lv in levels[1:5]:
        nxt = []
        for br in partial:
            eq = br.residual(lv)
            nxt.extend(_advance(br, eq, lv.level, 4) if eq else [br])
        partial = nxt

    # root-major, and _advance keeps the beta and rho roots in solve order
    branches = [replace(br, gamma_index=m, beta=br.beta.subs("g", groot),
                        c=tuple(ci.subs("g", groot) for ci in br.c))
                for m, groot in enumerate(gamma_root_elements(k)) for br in partial]

    for br in branches[: max(1, len(branches) // k)]:
        # the m = 0 branches are the symbolic solution.  Every other branch
        # is its image under the ring homomorphism g -> gamma, which keeps a
        # zero level zero (it need not be an automorphism: at k = 3 one root
        # is g -> -1)
        for lv in levels[:5]:
            residual = br.residual(lv)
            if residual:
                raise UnsolvableLevel(lv.level, residual.text(),
                                      "branch fails back-substitution")
    return branches


def c_recursion(branch: ExponentBranch, levels: list[LevelEquation],
                n_max: int) -> ExponentBranch:
    """Extend the tail to c_1..c_n_max by consuming levels past the exponents.

    Level l is sum_n c_n L_(l-n)(g, b, r - n), so no shifted level is written
    out: each c_0 part L_m takes gamma and beta once, in the quotient ring, and
    is evaluated at r = rho - n.  Known c_n go in as values and unknown ones
    stay symbolic, so _advance sees branch.residual(levels[l]).  Requires a
    surd-free rho (the k=4 branches with sqrt(16-w^2) are refused: the tail
    would leave the rational quotient ring).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if len(levels) - 1 < 5 + n_max:
        raise ValueError(f"need depth >= {5 + n_max} for n_max={n_max}")
    if not branch.rho.is_rational():
        raise ValueError("tail recursion needs a rational rho branch; "
                         f"got {branch.rho.text()}")
    k, parts = branch.k, levels[0].parts
    rho = RingElem.from_param(branch.rho.rational_value(), k)
    L: list[RingElem] = []     # L[m]: L_m(gamma, beta, r), built as levels reach m
    for l in range(5, len(levels)):
        if len(branch.c) > n_max:
            break
        while len(L) <= l:
            L.append(parts[len(L)].reduce(k).subs("g", branch.gamma).subs("b", branch.beta))
        eq = _level_sum(L, l, branch.c, rho)
        if eq:
            (branch,) = _advance(branch, eq, l, n_max)
    if len(branch.c) <= n_max:
        raise ValueError(
            "levels exhausted before reaching n_max (a trailing resonant "
            "coefficient needs one extra level; raise the depth)")
    return branch


# ---------------------------------------------------------------------------
# closed forms and the generating-function cross-checks

def rho_quadratic_general(k: int) -> tuple[Fraction, Fraction]:
    """Monic quadratic for r at k >= 5: linear and constant coefficients."""
    if k < 5:
        raise ValueError("the general quadratic holds for k >= 5")
    return Fraction(2 * k - 3), Fraction(3 * k * k, 4) - 2 * k + Fraction(5, 4)


def gf_coefficient(m: int) -> Fraction:
    """C_0 of g^(m-2) z^(m-4) in e^(-g z^2/2) d^m e^(g z^2/2).

    d^m e^(g z^2/2) = e^(g z^2/2) sum_i m!/(i! (m-2i)! 2^i) g^(m-i) z^(m-2i)
    (the Hermite polynomial expansion); C_0 is its i = 2 term,
    m!/(2! (m-4)! 2^2) = 3 C(m, 4).
    """
    if m < 4:
        raise ValueError("m must be >= 4")
    return Fraction(3 * math.comb(m, 4))


def crho_closed(k: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(C2k_r2, C2k_r, Ck_r2, Ck_r) for the level-4 assembly at k >= 5."""
    if k < 5:
        raise ValueError("closed forms stated for k >= 5")
    return (Fraction(k * (2 * k - 1)),
            Fraction(4 * k ** 3 - 8 * k * k + 3 * k),
            Fraction(k * (k - 1), 2),
            Fraction(k * (k * k + 3), 2) - 2 * k * k)


def assemble_final_quadratic(k: int, *, from_oracle: bool = False) -> tuple[Fraction, Fraction]:
    """Monic level-4 quadratic rebuilt from the C-coefficients at g^k = -1.

    The two g-powers g^(2k-2) and g^(k-2) merge with a relative sign; dividing
    by the leading -k^2 gives the monic pair to compare with
    rho_quadratic_general.  The coefficients come from the closed forms
    crho_closed and gf_coefficient, or with from_oracle from the d/dz table
    that substitute_ansatz differentiates, _c0_derivatives.
    """
    if k < 5:
        raise ValueError("assembly stated for k >= 5")
    if from_oracle:
        # slot 4 of Dz^m holds z^(r + m - 4): its b-free g^(m-2) r^p terms
        slots = _c0_derivatives(2 * k, 4)
        c2k_r2, c2k_r, c0_2k = (slots[2 * k][4][2 * k - 2, 0, p] for p in (2, 1, 0))
        ck_r2, ck_r, c0_k = (slots[k][4][k - 2, 0, p] for p in (2, 1, 0))
    else:
        c2k_r2, c2k_r, ck_r2, ck_r = crho_closed(k)
        c0_2k, c0_k = gf_coefficient(2 * k), gf_coefficient(k)
    a1, a2 = Fraction(a_coeff(1, k)), Fraction(a_coeff(2, k))
    # g^(2k-2) bracket enters with sign -1 relative to g^(k-2)
    r2 = -c2k_r2 + 2 * ck_r2
    r1 = -c2k_r + 2 * ck_r + (k - 1) * a1
    r0 = (-c0_2k + 2 * c0_k + Fraction((k - 2) * (k - 1), 2) * a1 + a2)
    if r2 == 0:
        raise UnsolvableLevel(4, f"{r1}*r + {r0}", "assembled level lost its r^2 term")
    return r1 / r2, r0 / r2
