"""Exact Laurent polynomials in two commuting variables.

A polynomial is a finite map from exponent pairs to nonzero integer
coefficients:

    LaurentPoly2  ~  {(e1, e2): coeff}     e1, e2 in Z, coeff in Z \\ {0}

The zero polynomial is the empty map.  Coefficients are native Python
integers (arbitrary precision); exponents are unbounded as well, so growth
guards live with the callers, which decide them before any arithmetic.  Values
are immutable after construction and all operations are pure, so instances
are safe to share across threads.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import NonExactDivisionError, PoleError

Exponents = tuple[int, int]
Scalar = Union[int, "LaurentPoly2"]

RENDER_FORMATS = ("plain", "latex", "json")


class LaurentPoly2:
    """Immutable two-variable Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        canonical: dict[Exponents, int] = {}
        if terms:
            for (e1, e2), coeff in terms.items():
                if not isinstance(coeff, int) or isinstance(coeff, bool):
                    raise TypeError(f"coefficient must be int, got {type(coeff).__name__}")
                if coeff != 0:
                    canonical[(int(e1), int(e2))] = coeff
        self._terms = canonical

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, e1: int, e2: int, coeff: int = 1) -> "LaurentPoly2":
        return cls({(e1, e2): coeff})

    @classmethod
    def var1(cls) -> "LaurentPoly2":
        return cls({(1, 0): 1})

    @classmethod
    def var2(cls) -> "LaurentPoly2":
        return cls({(0, 1): 1})

    # -- inspection ---------------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, int]:
        """Copy of the term map (canonical: no zero coefficients)."""
        return dict(self._terms)

    def coefficient(self, e1: int, e2: int) -> int:
        return self._terms.get((e1, e2), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def min_exponents(self) -> Exponents:
        """Componentwise minimum exponent pair; requires a nonzero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return (
            min(e1 for e1, _ in self._terms),
            min(e2 for _, e2 in self._terms),
        )

    def max_exponents(self) -> Exponents:
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return (
            max(e1 for e1, _ in self._terms),
            max(e2 for _, e2 in self._terms),
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly2):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == LaurentPoly2._coerce(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.render('plain')})"

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar) -> "LaurentPoly2":
        if isinstance(value, LaurentPoly2):
            return value
        if isinstance(value, int):
            return LaurentPoly2({(0, 0): value}) if value else LaurentPoly2()
        raise TypeError(f"cannot coerce {type(value).__name__} to LaurentPoly2")

    def __add__(self, other: Scalar) -> "LaurentPoly2":
        other = self._coerce(other)
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = out
        return result

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly2":
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = {exps: -coeff for exps, coeff in self._terms.items()}
        return result

    def __sub__(self, other: Scalar) -> "LaurentPoly2":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "LaurentPoly2":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "LaurentPoly2":
        other = self._coerce(other)
        out: dict[Exponents, int] = {}
        for (a1, a2), ca in self._terms.items():
            for (b1, b2), cb in other._terms.items():
                exps = (a1 + b1, a2 + b2)
                acc = out.get(exps, 0) + ca * cb
                if acc:
                    out[exps] = acc
                else:
                    del out[exps]
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly2":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        result = LaurentPoly2.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def div_exact(self, divisor: "LaurentPoly2") -> "LaurentPoly2":
        """Exact division: return t with t * divisor == self.

        Monomial factors are normalized out of both operands first, then
        ordinary multivariate division runs against the lexicographic leading
        term of the divisor.  Any nonzero remainder (a monomial mismatch or a
        non-divisible leading coefficient over Z) raises
        ``NonExactDivisionError``.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly2.zero()

        p_min = self.min_exponents()
        q_min = divisor.min_exponents()
        num = {(e1 - p_min[0], e2 - p_min[1]): c for (e1, e2), c in self._terms.items()}
        den = {(e1 - q_min[0], e2 - q_min[1]): c for (e1, e2), c in divisor._terms.items()}

        lead_den = max(den)
        lead_den_coeff = den[lead_den]
        quotient: dict[Exponents, int] = {}
        rem = dict(num)
        while rem:
            lead_rem = max(rem)
            t1 = lead_rem[0] - lead_den[0]
            t2 = lead_rem[1] - lead_den[1]
            if t1 < 0 or t2 < 0:
                raise NonExactDivisionError("leading monomial not divisible")
            coeff, residue = divmod(rem[lead_rem], lead_den_coeff)
            if residue:
                raise NonExactDivisionError("leading coefficient not divisible over Z")
            quotient[(t1, t2)] = coeff
            for (d1, d2), dc in den.items():
                exps = (t1 + d1, t2 + d2)
                acc = rem.get(exps, 0) - coeff * dc
                if acc:
                    rem[exps] = acc
                else:
                    rem.pop(exps, None)

        shift1 = p_min[0] - q_min[0]
        shift2 = p_min[1] - q_min[1]
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = {(e1 + shift1, e2 + shift2): c for (e1, e2), c in quotient.items()}
        return result

    # -- evaluation and symmetry --------------------------------------------

    def eval_at(self, a1: int | Fraction, a2: int | Fraction) -> Fraction:
        """Exact rational value at (a1, a2).

        Raises ``PoleError`` when a zero base would be raised to a negative
        exponent.
        """
        a1 = Fraction(a1)
        a2 = Fraction(a2)
        total = Fraction(0)
        for (e1, e2), coeff in self._terms.items():
            if (a1 == 0 and e1 < 0) or (a2 == 0 and e2 < 0):
                raise PoleError(f"zero base raised to negative exponent in term {(e1, e2)}")
            total += coeff * a1**e1 * a2**e2
        return total

    def swap_vars(self) -> "LaurentPoly2":
        """Interchange the two variables: term (e1, e2) becomes (e2, e1)."""
        result = LaurentPoly2.__new__(LaurentPoly2)
        result._terms = {(e2, e1): c for (e1, e2), c in self._terms.items()}
        return result

    # -- rendering -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms sorted by (e1 descending, e2 descending)."""
        return sorted(self._terms.items(), key=lambda item: item[0], reverse=True)

    def render(self, format: str = "plain", names: tuple[str, str] = ("x1", "x2")) -> str:
        """Deterministic text form; terms sorted by (e1 desc, e2 desc)."""
        if format == "plain":
            return self._render_text(names, latex=False)
        if format == "latex":
            latex_names = tuple(
                name if ("_" in name or len(name) == 1) else f"{name[0]}_{name[1:]}"
                for name in names
            )
            return self._render_text(latex_names, latex=True)
        if format == "json":
            payload = {
                "terms": [
                    {"e1": e1, "e2": e2, "c": str(coeff)}
                    for (e1, e2), coeff in self.sorted_terms()
                ]
            }
            return json.dumps(payload, separators=(", ", ": "))
        raise ValueError(f"unknown render format {format!r} (expected one of {RENDER_FORMATS})")

    def _render_text(self, names: tuple[str, str], latex: bool) -> str:
        if not self._terms:
            return "0"
        chunks: list[str] = []
        for index, ((e1, e2), coeff) in enumerate(self.sorted_terms()):
            factors = []
            for name, exp in ((names[0], e1), (names[1], e2)):
                if exp == 0:
                    continue
                if exp == 1:
                    factors.append(name)
                elif latex:
                    factors.append(f"{name}^{{{exp}}}")
                else:
                    factors.append(f"{name}^{exp}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = (" " if latex else "*").join(factors)
            else:
                body = (" " if latex else "*").join([str(magnitude)] + factors)
            if index == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly2":
        """Parse the ``render('json')`` schema back into a polynomial."""
        payload = json.loads(text)
        return cls({(term["e1"], term["e2"]): int(term["c"]) for term in payload["terms"]})


def poly_sum(parts: Iterable[LaurentPoly2]) -> LaurentPoly2:
    """Sum an iterable of polynomials (empty sum is zero)."""
    total = LaurentPoly2.zero()
    for part in parts:
        total = total + part
    return total
