"""Exact Laurent polynomials in two commuting variables.

A polynomial is a finite map from exponent pairs to nonzero integer
coefficients:

    LaurentPoly2  ~  {(e1, e2): coeff}     e1, e2 in Z, coeff in Z \\ {0}

The zero polynomial is the empty map.  Coefficients are native Python
integers (arbitrary precision); exponents are unbounded as well, so growth
guards live with the callers, which decide them before any arithmetic.  Values
are immutable after construction and all operations are pure, so instances
are safe to share across threads.

The ring kernel the recursion oracle runs on (``*``, ``**`` and
``div_exact``) works on rows, ``{e1: {e2: coeff}}`` with int keys, and
converts to and from the canonical map once per call.  One row-product
routine, ``_add_product``, serves ``*``, ``**`` (a square takes each pair of
distinct rows once) and the row subtraction of ``div_exact``, which walks the
quotient lowest first, rows of e1 ascending and e2 ascending inside a row, so
every subtraction lands later in the walk and each remainder row is walked
once.  The quotient's exponents must lie in the box min(dividend) -
min(divisor) .. max(dividend) - max(divisor); that box bounds the walk, so a
non-exact division raises ``NonExactDivisionError`` and never loops.  Maps the
package built canonical itself skip ``__init__``'s checks through the one
trusted constructor, ``LaurentPoly2._canonical``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping, Union

from .errors import NonExactDivisionError, PoleError

Exponents = tuple[int, int]
Scalar = Union[int, "LaurentPoly2"]
# Working form of the ring operations: {e1: {e2: coeff}}.
Rows = dict[int, dict[int, int]]

RENDER_FORMATS = ("plain", "latex", "json")


def _is_int(value: object) -> bool:
    """True for an int that is no bool, the one type of coefficients and exponents."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_exponents(e1: object, e2: object) -> None:
    if not (_is_int(e1) and _is_int(e2)):
        raise TypeError(f"exponents must be int, got ({type(e1).__name__}, {type(e2).__name__})")


class LaurentPoly2:
    """Immutable two-variable Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, int] | None = None):
        canonical: dict[Exponents, int] = {}
        if terms:
            for (e1, e2), coeff in terms.items():
                if not _is_int(coeff):
                    raise TypeError(f"coefficient must be int, got {type(coeff).__name__}")
                _check_exponents(e1, e2)
                if coeff != 0:
                    canonical[(e1, e2)] = coeff
        self._terms = canonical

    # -- constructors -------------------------------------------------------

    @classmethod
    def _canonical(cls, terms: dict[Exponents, int]) -> "LaurentPoly2":
        """Wrap, unchecked and uncopied, a canonical term map the package built."""
        result = cls.__new__(cls)
        result._terms = terms
        return result

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
        _check_exponents(e1, e2)
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
        # A bool is no coefficient (see ``__init__``), so it equals no polynomial.
        if _is_int(other):
            return self._terms == LaurentPoly2._coerce(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        # Zero and a lone constant term equal that int, so they hash like it.
        if self._terms.keys() <= {(0, 0)}:
            return hash(self._terms.get((0, 0), 0))
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly2({self.render('plain')})"

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(value: Scalar) -> "LaurentPoly2":
        if isinstance(value, LaurentPoly2):
            return value
        # A bool is no coefficient (see ``__init__``), so it is no scalar either.
        if _is_int(value):
            return LaurentPoly2._canonical({(0, 0): value} if value else {})
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
        return LaurentPoly2._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._canonical({exps: -coeff for exps, coeff in self._terms.items()})

    def __sub__(self, other: Scalar) -> "LaurentPoly2":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "LaurentPoly2":
        return self._coerce(other) + (-self)

    def __mul__(self, other: Scalar) -> "LaurentPoly2":
        other = self._coerce(other)
        return _from_rows(_add_product({}, _to_rows(self._terms), _to_rows(other._terms)))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly2":
        if not _is_int(k) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        if k == 0:
            return LaurentPoly2.one()
        base = _to_rows(self._terms)
        result = None
        while True:
            if k & 1:
                result = base if result is None else _add_product({}, result, base)
            k >>= 1
            if not k:
                return _from_rows(result)
            base = _add_product({}, base, base)

    def div_exact(self, divisor: Scalar) -> "LaurentPoly2":
        """Exact division: return t with t * divisor == self; ints coerce as for ``*``.

        The extreme exponents of a product are the sums of its factors', so
        an exact quotient lies in the box min(self) - min(divisor) <= (e1, e2)
        <= max(self) - max(divisor), componentwise.  An empty box raises at
        once.

        Quotient terms are found lowest first in one fixed order, rows of e1
        ascending and e2 ascending inside a row, by dividing the remainder's
        next term by the divisor's lowest term in that order.  Each remainder
        row is walked once, from a heap of its keys that also takes the keys
        the divisor's lowest row adds; the finished quotient row times the
        divisor's other rows is then subtracted from later rows by
        ``_add_product``, the routine of ``*`` and ``**``.  A remainder term
        outside the box, a coefficient not divisible over Z, or a nonzero
        remainder in the rows above the box raises ``NonExactDivisionError``.
        The box bounds the walk, so every call ends.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly2.zero()

        # Imported here, not at module level: the formula engine never divides,
        # so its processes skip loading heapq.
        from heapq import heapify, heappop, heappush

        rem = _to_rows(self._terms)
        den = _to_rows(divisor._terms)
        lo1 = min(den)
        lo2 = min(map(min, den.values()))
        first1 = min(rem) - lo1
        last1 = max(rem) - max(den)
        first2 = min(map(min, rem.values())) - lo2
        last2 = max(map(max, rem.values())) - max(map(max, den.values()))
        if first1 > last1 or first2 > last2:
            raise NonExactDivisionError("divisor spans more exponents than the dividend")

        # The lowest divisor row's other terms as offsets from its lowest term
        # (lo1, lead2), and the divisor's other rows; all negated.
        lead_row = den.pop(lo1)
        lead2 = min(lead_row)
        lead_coeff = lead_row.pop(lead2)
        same_row = [(d2 - lead2, -dc) for d2, dc in lead_row.items()]
        rest = {d1: {d2: -dc for d2, dc in row.items()} for d1, row in den.items()}
        low_key, high_key = first2 + lead2, last2 + lead2

        quotient: Rows = {}
        for e1 in range(first1 + lo1, last1 + lo1 + 1):
            row = rem.pop(e1, None)
            if not row:
                continue
            qrow = quotient[e1 - lo1] = {}
            heap = list(row)
            heapify(heap)
            while heap:
                key = heappop(heap)
                coeff = row[key]
                if not coeff:
                    continue
                if key < low_key or key > high_key:
                    raise NonExactDivisionError("remainder term outside the quotient box")
                coeff, residue = divmod(coeff, lead_coeff)
                if residue:
                    raise NonExactDivisionError("coefficient not divisible over Z")
                qrow[key - lead2] = coeff
                for off2, neg in same_row:
                    k = key + off2
                    old = row.get(k)
                    if old is None:
                        row[k] = coeff * neg
                        heappush(heap, k)
                    else:
                        row[k] = old + coeff * neg
            _add_product(rem, {e1 - lo1: qrow}, rest)
        if any(any(row.values()) for row in rem.values()):
            raise NonExactDivisionError("nonzero remainder above the quotient box")
        return _from_rows(quotient)

    # -- evaluation and symmetry --------------------------------------------

    def eval_at(self, a1: int | Fraction, a2: int | Fraction) -> Fraction:
        """Exact rational value at (a1, a2), each an int (no bool) or a ``Fraction``.

        Raises ``PoleError`` when a zero base would be raised to a negative
        exponent.
        """
        if not all(_is_int(a) or isinstance(a, Fraction) for a in (a1, a2)):
            raise TypeError("evaluation point must be int or Fraction, "
                            f"got ({type(a1).__name__}, {type(a2).__name__})")
        a1, a2 = Fraction(a1), Fraction(a2)
        total = Fraction(0)
        for (e1, e2), coeff in self._terms.items():
            if (a1 == 0 and e1 < 0) or (a2 == 0 and e2 < 0):
                raise PoleError(f"zero base raised to negative exponent in term {(e1, e2)}")
            total += coeff * a1**e1 * a2**e2
        return total

    def swap_vars(self) -> "LaurentPoly2":
        """Interchange the two variables: term (e1, e2) becomes (e2, e1)."""
        return LaurentPoly2._canonical({(e2, e1): c for (e1, e2), c in self._terms.items()})

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


def _to_rows(terms: Mapping[Exponents, int]) -> Rows:
    """Regroup a term map as rows {e1: {e2: coeff}}."""
    rows: Rows = {}
    for (e1, e2), coeff in terms.items():
        row = rows.get(e1)
        if row is None:
            rows[e1] = {e2: coeff}
        else:
            row[e2] = coeff
    return rows


def _from_rows(rows: Rows) -> LaurentPoly2:
    """The canonical polynomial of a row map; zero coefficients are dropped."""
    return LaurentPoly2._canonical({
        (e1, e2): coeff for e1, row in rows.items() for e2, coeff in row.items() if coeff
    })


def _add_product(out: Rows, a: Rows, b: Rows) -> Rows:
    """Add the product of two row maps into ``out`` and return it.

    Rows may keep zero coefficients.  A square (``a is b``) takes each pair of
    distinct rows once, with doubled coefficients, for about half the work of
    a general product.
    """
    square = a is b
    b_rows = [(b1, list(row.items())) for b1, row in b.items()]
    for a1, a_row in a.items():
        a_items = list(a_row.items())
        doubled = [(e2, 2 * ca) for e2, ca in a_items] if square else a_items
        for b1, b_items in b_rows:
            if square and b1 < a1:
                continue  # taken, doubled, as the pair (b1, a1)
            items = a_items if b1 == a1 else doubled
            row = out.get(a1 + b1)
            if row is None:
                row = out[a1 + b1] = {}
            get = row.get
            for e2, ca in items:
                for f2, cb in b_items:
                    k = e2 + f2
                    row[k] = get(k, 0) + ca * cb
    return out
