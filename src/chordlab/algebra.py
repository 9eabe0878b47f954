"""Exact multivariate polynomials, structured expansions and truncated series.

Everything is built on `fractions.Fraction`, so all arithmetic is exact and
there are no tolerance questions anywhere in the package.  A polynomial is a
map from monomials to nonzero rational coefficients; a monomial is a sorted
tuple of (variable, positive exponent) pairs.  Values are immutable after
construction and safe to share between threads.

The text format (stable for golden files) renders terms in graded-lex order,
highest first: ``c1*mono1 + c2*mono2 + ...`` with monomials like ``x^2*y``,
coefficients printed as ``p`` or ``p/q`` and unit coefficients elided.
"""
from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

Mono = tuple  # tuple[tuple[str, int], ...], sorted by variable name
Scalar = Union[int, Fraction]


class AlgebraError(Exception):
    """Base class for errors raised by this module."""


class UnboundVariableError(AlgebraError):
    pass


class NotHomogeneousError(AlgebraError):
    pass


class NotSymmetricError(AlgebraError):
    pass


class BadConstantTermError(AlgebraError):
    pass


class ParseError(AlgebraError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Merge two sorted exponent lists."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


class MVPoly:
    """An exact multivariate polynomial with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        self.terms = _collect((mono, Fraction(c)) for mono, c in (terms or {}).items()).terms

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MVPoly":
        return cls()

    @classmethod
    def const(cls, c: Scalar) -> "MVPoly":
        return cls({(): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "MVPoly":
        return cls({((name, 1),): Fraction(1)})

    @classmethod
    def from_exponents(cls, counts: Mapping[tuple, Scalar], names: Sequence[str]) -> "MVPoly":
        """Build a polynomial from {exponent-tuple: coefficient} over the
        distinct variables `names`."""
        order = sorted(range(len(names)), key=names.__getitem__)
        return _collect((tuple((names[i], exps[i]) for i in order if exps[i]), Fraction(c))
                        for exps, c in counts.items())

    # -- basic queries ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> list[str]:
        seen: set[str] = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return sorted(seen)

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = MVPoly.const(other)
        if not isinstance(other, MVPoly):
            return NotImplemented
        return self.terms == other.terms

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "MVPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _collect(itertools.chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "MVPoly":
        return _collect((m, -c) for m, c in self.terms.items())

    def __sub__(self, other) -> "MVPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MVPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "MVPoly":
        if isinstance(other, (int, Fraction)):
            return _collect((m, c * other) for m, c in self.terms.items())
        if not isinstance(other, MVPoly):
            return NotImplemented
        return _collect((_mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items()
                        for m2, c2 in other.terms.items())

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MVPoly":
        if k < 0:
            raise ValueError("negative power")
        result = MVPoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- calculus and substitution ------------------------------------

    def partial(self, v: str) -> "MVPoly":
        """Formal partial derivative with respect to `v`: each coefficient
        c of v^e becomes e * c * v^(e-1)."""
        x = MVPoly.var(v)
        return poly_sum(c * e * x ** (e - 1)
                        for (e,), c in self.coefficients_in((v,)).items() if e)

    def subst(self, bindings: Mapping[str, "MVPoly | Scalar"]) -> "MVPoly":
        """Simultaneously replace bound variables; unbound ones are kept.
        Each power of a bound variable is computed once."""
        binds = {v: _coerce(p) for v, p in bindings.items()}
        powers: dict[tuple[str, int], MVPoly] = {}

        def terms():
            for mono, c in self.terms.items():
                kept = tuple((v, e) for v, e in mono if v not in binds)
                product = MVPoly.const(c)
                for v, e in mono:
                    if v in binds:
                        if (v, e) not in powers:
                            powers[v, e] = binds[v] ** e
                        product = product * powers[v, e]
                for m, k in product.terms.items():
                    yield _mono_mul(kept, m), k

        return _collect(terms())

    def evaluate(self, point: Mapping[str, Scalar]) -> Fraction:
        """Exact value at a fully bound point."""
        total = Fraction(0)
        for mono, c in self.terms.items():
            val = c
            for name, e in mono:
                if name not in point:
                    raise UnboundVariableError(f"variable {name!r} is not bound")
                val *= Fraction(point[name]) ** e
            total += val
        return total

    # -- views --------------------------------------------------------

    def coefficients_in(self, names: Sequence[str]) -> dict[tuple, "MVPoly"]:
        """Group terms by their exponents in `names`, coefficients in the rest."""
        grouped: dict[tuple, list] = {}
        for mono, c in self.terms.items():
            exps = dict(mono)
            key = tuple(exps.pop(n, 0) for n in names)
            grouped.setdefault(key, []).append((tuple(exps.items()), c))
        return {k: _collect(v) for k, v in grouped.items()}

    def coefficient(self, mono_of: Mapping[str, int]) -> "MVPoly":
        """Coefficient polynomial of an exact monomial in the given variables."""
        names = sorted(mono_of)
        want = tuple(mono_of[n] for n in names)
        return self.coefficients_in(names).get(want, MVPoly.zero())

    # -- rendering ----------------------------------------------------

    def _ordered_terms(self) -> list[tuple[Mono, Fraction]]:
        names = self.variables()
        index = {v: i for i, v in enumerate(names)}

        def key(item):
            mono, _ = item
            vec = [0] * len(names)
            for v, e in mono:
                vec[index[v]] = e
            return (_mono_degree(mono), tuple(vec))

        return sorted(self.terms.items(), key=key, reverse=True)

    def render_pieces(self) -> Iterator[str]:
        """The text of `render` term by term, each term after the first with
        its leading " + ", so a writer never holds the whole text."""
        if not self.terms:
            yield "0"
        sep = ""
        for mono, c in self._ordered_terms():
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            if not body:
                yield sep + str(c)
            elif c == 1:
                yield sep + body
            elif c == -1:
                yield f"{sep}-{body}"
            else:
                yield f"{sep}{c}*{body}"
            sep = " + "

    def render(self) -> str:
        return "".join(self.render_pieces())

    __str__ = render

    def __repr__(self) -> str:
        return f"MVPoly({self.render()})"


def _collect(terms: Iterable[tuple[Mono, Fraction]]) -> MVPoly:
    """The sum of (monomial, coefficient) terms: like monomials add up and
    zero sums drop out.  Every polynomial of this module is made here."""
    out: dict[Mono, Fraction] = {}
    for mono, c in terms:
        old = out.get(mono)
        out[mono] = c if old is None else old + c
    p = MVPoly.__new__(MVPoly)
    p.terms = {m: c for m, c in out.items() if c}
    return p


def poly_sum(polys: Iterable[MVPoly]) -> MVPoly:
    """The sum of `polys`, their terms collected once: a running `+` would
    re-collect the whole partial sum at every step."""
    return _collect(itertools.chain.from_iterable(p.terms.items() for p in polys))


def _coerce(value) -> MVPoly:
    if isinstance(value, MVPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return MVPoly.const(value)
    return NotImplemented


def project(census: Mapping, key_of) -> dict:
    """Re-tally a {key: count} census by `key_of(key)`; a None image drops
    the key.  Keys keep the order in which their images first appear."""
    out: dict = {}
    for key, count in census.items():
        image = key_of(key)
        if image is not None:
            out[image] = out.get(image, 0) + count
    return out


# ---------------------------------------------------------------------------
# Structured expansions
# ---------------------------------------------------------------------------

def gamma_expand(p: MVPoly, x: str, y: str) -> list[tuple[int, MVPoly]]:
    """Expand `p` in the basis (xy)^j (x+y)^(d-2j).

    `p` must be homogeneous of some degree d in (x, y) and symmetric under
    the swap of x and y; its coefficients may involve other variables.
    Returns the nonzero (j, gamma_j) pairs, j ascending.  With a[k] the
    coefficient of x^(d-k) y^k, gamma_j is a[j] once every earlier
    (xy)^i (x+y)^(d-2i) term has been subtracted from a, and the
    subtractions must leave a at zero.
    """
    if p.is_zero:
        return []
    slices = p.coefficients_in((x, y))
    degrees = {ex + ey for ex, ey in slices}
    if len(degrees) != 1:
        raise NotHomogeneousError(
            f"degrees in ({x},{y}) are not constant: {sorted(degrees)}")
    d = degrees.pop()
    a = [slices.get((d - k, k), MVPoly.zero()) for k in range(d + 1)]
    out: list[tuple[int, MVPoly]] = []
    for j in range(d // 2 + 1):
        gamma = a[j]
        if not gamma.is_zero:
            out.append((j, gamma))
            for i in range(d - 2 * j + 1):
                a[j + i] = a[j + i] - math.comb(d - 2 * j, i) * gamma
    if any(not c.is_zero for c in a):
        raise NotSymmetricError("peeling left a nonzero remainder")
    return out


def esym_polys(names: Sequence[str]) -> tuple[MVPoly, MVPoly, MVPoly]:
    """Elementary symmetric polynomials e1, e2, e3 in three variables."""
    x, y, z = (MVPoly.var(n) for n in names)
    return x + y + z, x * y + y * z + z * x, x * y * z


def esym_expand(p: MVPoly, names: Sequence[str]) -> list[tuple[tuple[int, int, int], Fraction]]:
    """Write a symmetric polynomial in three variables in the e1,e2,e3 basis.

    Uses repeated leading-monomial reduction in graded-lex order; raises
    NotSymmetricError if the reduction leaves an irreducible remainder.
    """
    names = tuple(names)
    if len(names) != 3:
        raise ValueError("esym_expand expects exactly three variable names")
    foreign = set(p.variables()) - set(names)
    if foreign:
        raise NotSymmetricError(f"polynomial involves other variables: {sorted(foreign)}")
    e1, e2, e3 = esym_polys(names)
    out: dict[tuple[int, int, int], Fraction] = {}
    cur = p
    while not cur.is_zero:
        # leading monomial in graded-lex order with names[0] > names[1] > names[2]
        best = None
        for mono, c in cur.terms.items():
            exps = dict(mono)
            vec = tuple(exps.get(n, 0) for n in names)
            key = (sum(vec), vec)
            if best is None or key > best[0]:
                best = (key, vec, c)
        _, (a, b, cc), coeff = best
        if not (a >= b >= cc):
            raise NotSymmetricError(
                f"leading exponents {(a, b, cc)} are not weakly decreasing")
        key = (a - b, b - cc, cc)
        out[key] = coeff
        cur = cur - coeff * e1 ** (a - b) * e2 ** (b - cc) * e3 ** cc
    return sorted(out.items())


def esym_assemble(coeffs: Iterable[tuple[tuple[int, int, int], Scalar]],
                  names: Sequence[str]) -> MVPoly:
    e1, e2, e3 = esym_polys(names)
    return poly_sum(Fraction(c) * e1 ** i * e2 ** j * e3 ** k for (i, j, k), c in coeffs)


# ---------------------------------------------------------------------------
# Truncated power series (exact rational coefficients)
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """A power series truncated at a fixed order, coefficients of z^0..z^N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Sequence[Scalar]):
        self.coeffs = tuple(Fraction(c) for c in coeffs)
        self.order = len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1] + [0] * order)

    @classmethod
    def linear(cls, c: Scalar, order: int) -> "TruncatedSeries":
        """The series c*z."""
        coeffs = [Fraction(0)] * (order + 1)
        if order >= 1:
            coeffs[1] = Fraction(c)
        return cls(coeffs)

    @classmethod
    def exponential(cls, c: Scalar, order: int) -> "TruncatedSeries":
        """The series exp(c*z)."""
        return cls.linear(c, order).exp()

    @classmethod
    def from_egf_values(cls, values: Sequence[Scalar]) -> "TruncatedSeries":
        """Series with coefficient values[n]/n!."""
        return cls([Fraction(v, math.factorial(n)) for n, v in enumerate(values)])

    def _check_same_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_order(other)
        return TruncatedSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_order(other)
        return TruncatedSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: Scalar) -> "TruncatedSeries":
        c = Fraction(c)
        return TruncatedSeries([c * a for a in self.coeffs])

    def __mul__(self, other) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_same_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out)

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term."""
        if self.coeffs[0]:
            raise BadConstantTermError("exp needs constant term 0")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        out[0] = Fraction(1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m + 1):
                if self.coeffs[k]:
                    acc += k * self.coeffs[k] * out[m - k]
            out[m] = acc / m
        return TruncatedSeries(out)

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1."""
        if self.coeffs[0] != 1:
            raise BadConstantTermError("log needs constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for m in range(1, n + 1):
            acc = Fraction(0)
            for k in range(1, m):
                if out[k] and self.coeffs[m - k]:
                    acc += k * out[k] * self.coeffs[m - k]
            out[m] = self.coeffs[m] - acc / m
        return TruncatedSeries(out)

    def pow(self, r: Scalar) -> "TruncatedSeries":
        """s**r = exp(r*log(s)) for any rational r; needs constant term 1."""
        if self.coeffs[0] != 1:
            raise BadConstantTermError("pow needs constant term 1")
        return self.log().scale(Fraction(r)).exp()

    def inverse(self) -> "TruncatedSeries":
        return self.pow(-1)

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"


# ---------------------------------------------------------------------------
# Classical number triangles and the rising factorial
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling1_unsigned(n: int, k: int) -> int:
    """Signless Stirling numbers of the first kind c(n, k); 0 off the triangle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return stirling1_unsigned(n - 1, k - 1) + (n - 1) * stirling1_unsigned(n - 1, k)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind S(n, k); 0 off the triangle."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return stirling2(n - 1, k - 1) + k * stirling2(n - 1, k)


def rising_factorial(step: Scalar, n: int) -> MVPoly:
    """The product q(q+step)(q+2*step)...(q+(n-1)*step), a polynomial in q."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    q = MVPoly.var("q")
    total = MVPoly.const(1)
    for m in range(n):
        total = total * (q + MVPoly.const(Fraction(step) * m))
    return total


def start_digits(start_rank: int, radices: Sequence[int]) -> list[int] | None:
    """The mixed-radix digits of a restartable stream's start rank, most
    significant first; None when the rank is past the stream's
    prod(radices) objects."""
    if start_rank < 0:
        raise ValueError("start_rank must be nonnegative")
    digits = [0] * len(radices)
    for d in range(len(radices) - 1, -1, -1):
        start_rank, digits[d] = divmod(start_rank, radices[d])
    return None if start_rank else digits


# ---------------------------------------------------------------------------
# Text-format parser (the grammar rule files reuse this syntax)
# ---------------------------------------------------------------------------

# Each token carries the group that matched it.  `\d` is Unicode's decimal
# digits, all of which `int` reads; a superscript such as `²` is a symbol.
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"(?P<name>{NAME.pattern})|(?P<number>\d+)|(?P<symbol>\S)")


class _Parser:
    def __init__(self, text: str, line: int = 1):
        self.text = text
        self.line = line
        self.tokens = [(m.group(), m.start() + 1, m.lastgroup)
                       for m in _TOKEN.finditer(text)]
        self.i = 0

    def _fail(self, message: str) -> None:
        col = self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text) + 1
        raise ParseError(message, self.line, col)

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def kind(self) -> str | None:
        """The next token's group: "name", "number" or "symbol"."""
        return self.tokens[self.i][2] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of input")
        self.i += 1
        return tok

    def number(self, what: str, least: int = 0) -> int:
        """Consumes a number token of at least `least`; any other token is
        an error at its own column."""
        tok = self.peek()
        if tok is not None and (self.kind() != "number" or int(tok) < least):
            self._fail(f"expected {what}, got {tok!r}")
        return int(self.next())

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            self._fail(f"expected {tok!r}, got {got!r}")
        self.i += 1

    def parse(self) -> MVPoly:
        p = self.expr()
        if self.peek() is not None:
            self._fail(f"unexpected token {self.peek()!r}")
        return p

    def expr(self) -> MVPoly:
        total = self.signed_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            t = self.signed_term()
            total = total + t if op == "+" else total - t
        return total

    def signed_term(self) -> MVPoly:
        """A term with at most one leading sign; `render` writes a negative
        coefficient after `+`, as in ``x + -2*y``."""
        sign = self.peek()
        if sign in ("+", "-"):
            self.next()
        t = self.term()
        return -t if sign == "-" else t

    def term(self) -> MVPoly:
        total = self.factor()
        while self.peek() == "*":
            self.next()
            total = total * self.factor()
        return total

    def factor(self) -> MVPoly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            base = base ** self.number("integer exponent")
        return base

    def atom(self) -> MVPoly:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of input")
        if tok == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if self.kind() == "number":
            num = int(self.next())
            if self.peek() == "/":
                self.next()
                den = self.number("positive integer denominator", least=1)
                return MVPoly.const(Fraction(num, den))
            return MVPoly.const(num)
        if self.kind() == "name":
            self.next()
            return MVPoly.var(tok)
        self._fail(f"unexpected token {tok!r}")


def parse_poly(text: str, line: int = 1) -> MVPoly:
    """Parse the polynomial text format (explicit `*`, `^` powers, `p/q`)."""
    return _Parser(text, line=line).parse()
