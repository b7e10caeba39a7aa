"""Exact Laurent polynomials in two commuting variables.

A polynomial is a finite map from exponent pairs to nonzero integer
coefficients:

    LaurentPoly2  ~  {(e1, e2): coeff}     e1, e2 in Z, coeff in Z \\ {0}

The zero polynomial is the empty map.  Coefficients are native Python
integers (arbitrary precision); exponents are unbounded as well, so growth
guards live with the callers, which decide them before any arithmetic.  Values
are immutable after construction and all operations are pure, so instances
are safe to share across threads.

The ring kernel the recursion oracle runs on (``*``, ``**``, ``div_exact``
and the recursion step ``_step``) works on rows, one per e1.  Rows multiply
by Kronecker substitution on the exponent lattice: the e2 keys of each operand
lie on lo + g*Z, g the gcd of their differences (r for every x_m of the
recursion), so a row packs into one int with slot i holding the coefficient of
lo + g*i, and a row times a row is one big-int multiply.  A packed row has a
slot for every lattice point between its lowest and highest key.

Between operations a value is carried (``carried._Carried``): its rows'
slots in one bytes buffer at one slot size, which ``_rows_at`` moves to any
other size by strided byte copies (see ``carried``).

Two packed primitives do the arithmetic: ``_mul_packed`` sums the row
products of two lists of packed rows, one int per output row, and
``_divide_packed`` divides a packed dividend by packed divisor rows, one
``divmod`` per quotient row, e1 ascending on the e1 lattice of both operands,
each quotient row times the divisor's other rows owed, still packed, to later
rows.  Each operation re-slots its carried operands to its own slot size,
calls a primitive and carries the result.  Every slot size comes from one
rule, ``carried._slot_bytes(bits, terms)``: the bits of the largest factors,
plus the bits of the number of products summed, plus a sign bit, rounded up
to bytes.  A product (``_times``, for ``*`` and each product of ``**``) sizes
a slot for the largest sum it can receive; where a term count is not known,
a slot count stands for it.  ``div_exact`` (through ``_divide``) checks the
bits of the carried quotient against the same rule to prove that no slot
overflowed, and when the check fails retries once at a slot size that holds
every exact quotient (a Mignotte bound), so every call ends after at most
two sizes.  The quotient's exponents lie in the box min(dividend) -
min(divisor) .. max(dividend) - max(divisor), and a non-exact division
raises ``NonExactDivisionError``.

Long rows multiply at two points (Harvey's multipoint Kronecker
substitution).  A row x^at * A(x) is packed at x = 2^S, S = 8*size; with E
and O the even and odd slots of A, each packed at S (``carried._split``),
A(2^b) = E + O*2^b and A(-2^b) = E - O*2^b for b = S/2, times (-1)^at on the
minus side.  The row products are summed at both points, P and M, by the same
loop as at 2^S, with every big-int multiply half as long.  Then (P + M)/2 and
(P - M)/2^(b+1) are the even and odd slots of the output row, and
``carried._interleave`` puts them back at 2^S: the same int as the one-point
product whenever every coefficient of the operands and of the product fits
its slot, which every caller's slot size ensures.  ``_mul_packed`` takes this
path when the longest row of each operand has at least ``_TWO_POINT_BITS``
bits.  Division stays one-point: at its first slot size a dividend row may
exceed its slots before the bits check rejects that size, and such a row
cannot be split.  So does Miller's recurrence: a two-point Miller step gained
18 % at (7,6) but lost 4 % at (20,5) and 135 % at (20,-2).

``_step(prev, cur, r)`` is one recursion step, (cur**r + 1) / prev, from and
to carried values, so ``_walk``, which repeats it, decodes nothing between
steps.  The power's last product, the ``+ 1`` and the division run at one
size fixed before the step, from a bound that needs no positivity: no
coefficient of cur**k, k <= r, exceeds ||cur||_1^(r-1) * max|cur|, and
``div_exact``'s first size adds bits(#prev) + 2.  So cur**r + 1 is packed
once and never decoded, and the quotient keeps every safeguard of
``div_exact``.  The power takes one of two paths, chosen from the rows of
``cur`` alone:

- Miller's recurrence (``_miller``) when r >= 2, the top row (largest e1, t)
  is one term c*x1^t*x2^a, and the rows below span J <= r steps of their e1
  lattice (step s1, the gcd of the t - e1; J = (t - min e1)/s1).  With f_j
  the row at t - j*s1 and g_i the power's row at r*t - i*s1,
  i*f_0*g_i = sum_{j=1}^{min(i, J)} ((r+1)*j - i)*f_j*g_{i-j}: each row of
  the power costs at most J products of packed rows.  Packing at
  x2 = 2^slot is a ring homomorphism, so with every f_j packed from B, the
  lowest e2 of cur, and g_i from r*B, each packed sum is i*c*2^p times
  packed g_i exactly, p = (a - B)/g slots, at any slot size; the shift and
  the division by i*c leave nothing.
- Otherwise left-to-right square and multiply (``_last_factors``, shared
  with ``**``), every product but the last at its own slot size and carried
  to the next, none decoded; the last one, a square for an even r and a
  product with cur for an odd one, is summed packed at the step's size.

Maps the package built canonical itself skip ``__init__``'s checks through
the one trusted constructor, ``LaurentPoly2._canonical``.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, gcd
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Union

from .carried import (Packed, _Carried, _carry, _carry_rows, _interleave, _lead, _norm, _rows_at,
                      _slot_bytes, _slots, _split, _term_map, _trailing_zeros)
from .errors import NonExactDivisionError, PoleError

Exponents = tuple[int, int]
Scalar = Union[int, "LaurentPoly2"]
RENDER_FORMATS = ("plain", "latex", "json")
# A row product takes the two-point path when the longest packed row of each
# operand has at least this many bits.  Below it the splits and the second
# loop cost more than the shorter multiplies save: on the recursion's rows the
# two paths break even at about 3 kbit, and two points take a third less time
# at 10 to 27 kbit.
_TWO_POINT_BITS = 3072


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
        if not (self and other):
            return LaurentPoly2.zero()
        return _decode(_times(_carry(self._terms), _carry(other._terms),
                              min(len(self), len(other))))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly2":
        if not _is_int(k) or k < 0:
            raise ValueError(f"exponent must be a nonnegative integer, got {k!r}")
        if k == 0:
            return LaurentPoly2.one()
        if k == 1 or not self:
            return self
        return _decode(_times(*_last_factors(_carry(self._terms), k)))

    def div_exact(self, divisor: Scalar) -> "LaurentPoly2":
        """Exact division: return t with t * divisor == self; ints coerce as for ``*``.

        The extreme exponents of a product are the sums of its factors', so
        an exact quotient lies in the box min(self) - min(divisor) <= (e1, e2)
        <= max(self) - max(divisor), componentwise.  An empty box raises
        before any division.

        Packing a row at x2 = 2^(8*size) maps Z[x2^±1] into Z as a ring
        homomorphism, so the division becomes one in x1 with big-int
        coefficients.  Both operands are carried once and re-slotted to each
        slot size, every row from its own lowest key; a dividend row is
        shifted to the dividend's lowest e2, and a divisor row after each
        product it enters.  Quotient rows are found e1 ascending, on the e1
        lattice of both operands, where an exact quotient lies too: the
        dividend row, less what earlier quotient rows owe it, is divided by
        the divisor's lowest row, both without their low zero bits, in one
        ``divmod``, and the quotient row times each other divisor row is
        owed to a later row.  Owed values stay packed; the quotient
        rows are carried, then decoded once, at the end.

        A slot size is checked on the carried quotient's bytes: when it is at
        least ``_slot_bytes(bits(max|t|) + bits(max|divisor|), min(#t,
        #divisor))`` and ``_slot_bytes(bits(max|self|))``, t * divisor and
        self pack to the same ints with every slot in range, so they are equal
        term for term.  The term counts are bounded by slot counts.
        The first size leaves bits(max|self|) + 1 for the largest product
        coefficient, enough unless the product cancels there (the recursion's
        coefficients are positive).  When its check fails the division is
        retried once, at a size that holds every exact quotient:
        ||t||_inf <= 2^(width + height) * ||self||_2 (Mignotte's bound
        through the Mahler measure, with the box's width in e1 and height in
        lattice steps), and ||self||_2 <= sqrt(#self) * max|self|.  A
        division that fails the check at that size is not exact.

        Only facts that hold at every slot size raise before the check: a
        nonzero integer remainder, a nonzero row above the box, and a
        remainder row whose lowest set bit lies below the box (a carry
        between slots only moves it up).  ``NonExactDivisionError``
        names the remainder "outside the quotient box" when the divisor's
        lowest term has coefficient ±1, and "not divisible over Z" otherwise.
        Every call ends after at most two sizes.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly2.zero()
        num, den = _carry(self._terms), _carry(divisor._terms)
        g = gcd(num.g, den.g) or 1

        def pack(size: int) -> tuple[dict[int, int], int]:
            rows = _rows_at(num, size, g)
            return {e1: value << at * 8 * size for e1, at, value in rows}, num.base

        return _decode(_divide(pack, den, len(divisor), g, num.bits, len(self)))

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
                name if ("_" in name or len(name) == 1)
                else f"{name[0]}_{name[1:]}" if len(name) == 2 else f"{name[0]}_{{{name[1:]}}}"
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


def _decode(value: _Carried) -> LaurentPoly2:
    """The polynomial of a carried value."""
    return LaurentPoly2._canonical(_term_map(value))


def _row_products(a: Packed, b: Packed, shift: int) -> dict[int, int]:
    """The row products of two lists of rows (e1, at, value), each value
    times 2^(shift*at), summed per output row: {e1: int}.  A square (``a is
    b``) takes each pair of distinct rows once, doubled."""
    square = a is b
    acc: dict[int, int] = {}
    for i, (a1, sa, va) in enumerate(a):
        for b1, sb, vb in a[i:] if square else b:
            at = (sa + sb) * shift
            if square and b1 != a1:
                at += 1
            acc[a1 + b1] = acc.get(a1 + b1, 0) + (va * vb << at)
    return acc


def _at_two_points(rows: Packed, size: int) -> tuple[Packed, Packed]:
    """Packed rows x^at * A(x) at x = 2^b and at x = -2^b, b = 4*size: with E
    and O the even and odd slots of A, each packed at ``size`` bytes,
    E + O*2^b and (-1)^at * (E - O*2^b)."""
    half = 4 * size
    plus, minus = [], []
    for (e1, at, _), (even, odd) in zip(rows, _split([value for _, _, value in rows], size)):
        odd <<= half
        plus.append((e1, at, even + odd))
        minus.append((e1, at, odd - even if at & 1 else even - odd))
    return plus, minus


def _mul_packed(a: Packed, b: Packed, slot: int) -> dict[int, int]:
    """Multiply packed rows (``_rows_at``): {e1: int}, slot 0 at the sum of the bases.

    Row products are summed packed, one int per output row; each is shifted
    by the slots its two factors sit above their bases.  A square (``a is
    b``) takes each pair of distinct rows once, doubled.

    When the longest row of each operand has ``_TWO_POINT_BITS`` bits or
    more, the rows are multiplied at two points instead, each big-int
    multiply half as long (see the module docstring); the result is the
    same dict of ints whenever every coefficient c of the operands and of
    the product has |c| < 2^(slot - 1), as every caller's slot size ensures.
    """
    value = itemgetter(2)
    if any(max(map(int.bit_length, map(value, rows))) < _TWO_POINT_BITS for rows in (a, b)):
        return _row_products(a, b, slot)
    size, half = slot // 8, slot // 2
    plus_a, minus_a = _at_two_points(a, size)
    plus_b, minus_b = (plus_a, minus_a) if a is b else _at_two_points(b, size)
    plus, minus = _row_products(plus_a, plus_b, half), _row_products(minus_a, minus_b, half)
    halves = [((p + minus[e1]) >> 1, (p - minus[e1]) >> half + 1) for e1, p in plus.items()]
    return dict(zip(plus, _interleave(halves, size)))


def _times(a: _Carried, b: _Carried, terms: int | None = None) -> _Carried:
    """The product of two nonzero carried values, carried; a square (``a is
    b``) re-slots once.

    A slot has ``_slot_bytes(bits(max|a|) + bits(max|b|), terms)`` bytes: an
    output coefficient sums at most one product per term of the smaller
    operand, which has at most ``terms`` terms.  Without ``terms`` the
    smaller slot count stands for it.
    """
    g = gcd(a.g, b.g) or 1
    if terms is None:
        terms = min(_slots(a), _slots(b))
    size = _slot_bytes(a.bits + b.bits, terms)
    rows = _rows_at(a, size, g)
    product = _mul_packed(rows, rows if a is b else _rows_at(b, size, g), 8 * size)
    return _carry_rows(sorted(product.items()), a.base + b.base, g, size)


def _last_factors(base: _Carried, k: int) -> tuple[_Carried, _Carried]:
    """The two factors of the last product of ``base**k`` by left-to-right
    square and multiply, k >= 2: an even power ends in a square, returned as
    one object twice, and an odd one in a product with ``base``.

    Every earlier product is made by ``_times``, each at its own slot size,
    and stays carried; slot counts stand for term counts.
    """
    result = base
    for bit in bin(k)[3:-1]:
        result = _times(result, result)
        if bit == "1":
            result = _times(result, base)
    return (result, result) if k % 2 == 0 else (_times(result, result), base)


def _miller(rows: Packed, r: int, step: int, slot: int) -> dict[int, int]:
    """The r-th power of packed rows (e1 ascending) as {e1: packed row}, slot 0
    at r times their base, by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2,
    4.7), r >= 1.

    The top row must be one term c*x2^a and the other rows lie on its e1
    lattice of ``step``.  With f = x1^top * sum_j f_j*y^j in y = x1^-step,
    the recurrence compares coefficients in f*(f^r)' = r*f'*f^r; the module
    docstring gives it and why it is exact at any slot size.
    """
    top, top_at, c = rows[-1]
    shift = top_at * slot
    f = {(top - e1) // step: value << at * slot for e1, at, value in rows}
    span = max(f)
    powers = [c**r << r * shift]
    for i in range(1, r * span + 1):
        total = 0
        for j in range(1, min(i, span) + 1):
            if j in f:
                total += ((r + 1) * j - i) * f[j] * powers[i - j]
        value, rest = divmod(total >> shift, i * c)
        assert not rest and not total & ((1 << shift) - 1), "inexact recurrence"
        powers.append(value)
    return {r * top - i * step: value for i, value in enumerate(powers) if value}


def _divide_packed(rows: list[int], count: int, lead: int, box_zeros: int, lead_zeros: int,
                   others: list[tuple[int, int, int]], inexact: str) -> list[int]:
    """Divide a packed dividend by packed divisor rows: ``count`` quotient rows, e1 ascending.

    ``rows[i]`` is the dividend row that quotient row i divides; the call
    uses the list up.  ``lead`` is the divisor's lowest row without its
    ``lead_zeros`` low zero bits, of which the first ``box_zeros`` are empty
    slots.  ``others`` holds each other divisor row as (places above the
    lowest in the list of rows, shift in bits, packed value); a quotient row
    times each of them is owed, packed, to a later row.
    """
    quotient = [0] * count
    for i in range(count):
        rest = rows[i]
        if not rest:
            continue
        zeros = _trailing_zeros(rest)
        if zeros < box_zeros:
            raise NonExactDivisionError("remainder term outside the quotient box")
        q, rest = divmod(rest >> zeros, lead)
        if rest or zeros < lead_zeros:
            raise NonExactDivisionError(inexact)
        zeros -= lead_zeros
        quotient[i] = q << zeros
        for d, shift, value in others:
            rows[i + d] -= (q * value) << (zeros + shift)
    if any(rows[count:]):
        raise NonExactDivisionError("nonzero remainder above the quotient box")
    return quotient


def _divide(pack: Callable[[int], tuple[dict[int, int], int]], den: _Carried, den_terms: int,
            g: int, num_bits: int, num_terms: int) -> _Carried:
    """The exact quotient of a dividend by ``den``, carried, in at most two
    slot sizes (see ``div_exact``).

    ``pack(size)`` returns ({e1: packed row}, base), the dividend at ``size``
    bytes a slot with slot j of a row the coefficient of base + g*j.  No
    coefficient of the dividend needs more than ``num_bits`` bits, and it has
    at most ``num_terms`` terms; ``den`` has at most ``den_terms``.  A slot
    holds each coefficient with bits to spare, so the dividend's box reads
    off its packed rows: a row's lowest nonzero slot is its trailing zero
    count over the slot width, and its highest is its bit length over that
    width.  The quotient's slot count stands for its term count.
    """
    den_lo1, den_hi1 = den.rows[0][0], den.rows[-1][0]
    den_lo2 = den.base
    den_hi2 = den.base + den.g * (max(at + count for _, at, count in den.rows) - 1)
    den_bits = den.bits
    lead_coeff = _lead(den)
    twos = _trailing_zeros(lead_coeff)
    # Term by term, the remainder leaves the box unless a coefficient fails
    # to divide by the lead, which needs |lead| > 1.
    if abs(lead_coeff) == 1:
        inexact = "remainder term outside the quotient box"
    else:
        inexact = "coefficient not divisible over Z"

    # A slot holds every quotient row times the divisor, and so every
    # coefficient of either operand.  Quotient bits: first as many as leave
    # room for bits(max|dividend|) + 1, enough when the product does not
    # cancel at its largest coefficient.
    size = _slot_bytes(max(num_bits + 1 - den_bits, 1) + den_bits, den_terms)
    acc, base = pack(size)
    live = [e1 for e1, value in acc.items() if value]
    if not live:
        return _carry_rows([], base, g, size)
    slot = 8 * size
    low = min(_trailing_zeros(acc[e1]) for e1 in live) // slot
    high = max(acc[e1].bit_length() for e1 in live) // slot
    lo1, hi1 = min(live), max(live)
    first1, last1 = lo1 - den_lo1, hi1 - den_hi1
    first2, last2 = base + low * g - den_lo2, base + high * g - den_hi2
    if first1 > last1 or first2 > last2:
        raise NonExactDivisionError("divisor spans more exponents than the dividend")
    # Only rows on the e1 lattice of both operands, step s1, are walked: every
    # other dividend row is zero, and an exact quotient has none off it.
    s1 = gcd(*(e1 - lo1 for e1 in live), *(d1 - den_lo1 for d1, _, _ in den.rows)) or 1
    # Then the bound on every exact quotient.
    proven = _slot_bytes(last1 - first1 + (last2 - first2) // g + num_bits
                         + (num_terms.bit_length() + 1) // 2 + den_bits, den_terms)
    while True:
        slot = 8 * size
        rows = [acc.pop(e1, 0) >> low * slot for e1 in range(lo1, hi1 + 1, s1)]
        # Divisor rows stay packed from their own lowest key, with the shift
        # that moves them to den_lo2, so that products stay short.
        others = []
        for d1, at, value in _rows_at(den, size, g):
            if d1 == den_lo1:
                lead, box_zeros = value >> twos, at * slot
            else:
                others.append(((d1 - den_lo1) // s1, at * slot, value))
        packed = _divide_packed(rows, (last1 - first1) // s1 + 1, lead, box_zeros,
                                box_zeros + twos, others, inexact)
        quotient = _carry_rows(zip(range(first1, last1 + 1, s1), packed), first2, g, size)
        if _slot_bytes(quotient.bits + den_bits, min(_slots(quotient), den_terms)) <= size:
            return quotient
        if size == proven:
            raise NonExactDivisionError(inexact)
        size = proven
        acc = pack(size)[0]


def _step(prev: _Carried, cur: _Carried, r: int) -> _Carried:
    """One recursion step, (cur**r + 1) / prev for r >= 1, on nonzero carried
    values, with cur**r + 1 packed once.

    For r >= 2, when the top row of ``cur`` is one term and the rows below it
    span at most r steps of their e1 lattice, ``cur**r`` is made packed by
    ``_miller`` from cur's rows.  Otherwise ``_last_factors`` makes the two
    factors of its last product (cur and 1 when r = 1), each earlier product
    at its own size.  Either way the rows are re-slotted to the slot size
    ``_divide`` tries, the last product, the ``+ 1`` and the division run on
    packed rows at that one size, and cur**r + 1 is never decoded.
    ``_divide`` sizes the slots by ``_slot_bytes`` as for ``div_exact``, from
    two bounds that hold whatever the signs: no coefficient of cur**k,
    k <= r, exceeds ||cur||_1^(r-1) * max|cur|, and cur**r has at most
    C(n + r - 1, r) terms, n the slot count of cur, one per multiset of r
    terms of cur.  A retry makes the packed power again.

    The stride is the gcd of cur's lattice step, r times cur's lowest e2, and
    prev's lattice step:
    ``div_exact``'s stride when the support of cur**r fills its lattice, as
    in the recursion, whose coefficients are positive, and a divisor of it
    otherwise.
    """
    g = gcd(cur.g, r * cur.base, prev.g) or 1
    # The packed power starts at r * cur.base or above, and the 1 at 0.
    base = min(r * cur.base, 0)
    top = cur.rows[-1][0]
    step = gcd(*(top - e1 for e1, _, _ in cur.rows)) or 1
    miller = r > 1 and cur.rows[-1][2] == 1 and top - cur.rows[0][0] <= r * step

    def pack(size: int) -> tuple[dict[int, int], int]:
        slot = 8 * size
        if miller:
            acc, low = _miller(_rows_at(cur, size, g), r, step, slot), r * cur.base
        else:
            a, b = _last_factors(cur, r) if r > 1 else (cur, _carry({(0, 0): 1}))
            rows = _rows_at(a, size, g)
            acc = _mul_packed(rows, rows if a is b else _rows_at(b, size, g), slot)
            low = a.base + b.base
        if up := (low - base) // g * slot:
            acc = {e1: value << up for e1, value in acc.items()}
        acc[0] = acc.get(0, 0) + (1 << -base // g * slot)
        return acc, base

    power_bits = (_norm(cur) ** (r - 1)).bit_length() + cur.bits
    return _divide(pack, prev, _slots(prev), g, power_bits, comb(_slots(cur) + r - 1, r) + 1)


def _walk(r: int, downward: bool) -> Iterator[_Carried]:
    """x_3, x_4, ... (x_0, x_-1, ... when ``downward``), one recursion step per
    value, each carried packed (``_decode`` turns one into a polynomial).

    Holds only the last two values.  Downward, x_{m-1} = (x_m^r + 1) / x_{m+1}:
    the same recursion started from (x2, x1) instead of (x1, x2).  Each step
    is ``_step``, which packs x_m^r + 1 once and hands its quotient to the
    next step still packed, so no value is decoded inside the walk.
    """
    prev, cur = _carry({(1, 0): 1}), _carry({(0, 1): 1})  # x1, x2
    if downward:
        prev, cur = cur, prev
    while True:
        prev, cur = cur, _step(prev, cur, r)
        yield cur
