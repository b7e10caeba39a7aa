import json
import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rank2cluster.errors import NonExactDivisionError, PoleError
from rank2cluster import carried, laurent
from rank2cluster.laurent import LaurentPoly2, _walk

from oracles import EQ3_NUMERATOR_TERMS, reference_div_exact, reference_mul, reference_pow

X1 = LaurentPoly2.var1()
X2 = LaurentPoly2.var2()
ONE = LaurentPoly2.one()
ZERO = LaurentPoly2.zero()

exponents = st.integers(min_value=-4, max_value=4)
coefficients = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(
    st.tuples(exponents, exponents), coefficients, max_size=6
).map(LaurentPoly2)
nonzero_polys = polys.filter(bool)
# Up to 30 terms over up to 7 rows of e1, mixed with one-term and zero
# operands.  Small coefficients make products cancel; large ones pass one
# machine word.
wide_polys = st.one_of(
    st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-6, 6)),
        st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70)),
        max_size=30,
    ).map(LaurentPoly2),
    st.builds(LaurentPoly2.monomial, exponents, exponents, coefficients.filter(bool)),
    st.just(ZERO),
)
nonzero_wide_polys = wide_polys.filter(bool)


@st.composite
def _lattice_polys(draw):
    """Exponents e2 = s*i + c on one lattice per operand, s in 1..5, so two
    operands may sit on different lattices; coefficients +-(2^k +- 1) up to
    k = 300 fill a packed slot to its top bits.  Half the draws give each row
    one term."""
    stride, coset = draw(st.integers(1, 5)), draw(st.integers(-5, 5))
    e1 = st.integers(-3, 3)
    e2 = st.integers(0, 8).map(lambda i: stride * i + coset)
    coeff = st.builds(lambda k, off, sign: sign * (2**k + off), st.integers(1, 300),
                      st.sampled_from([1, -1]), st.sampled_from([1, -1]))
    if draw(st.booleans()):
        rows = draw(st.dictionaries(e1, st.tuples(e2, coeff), max_size=7))
        return LaurentPoly2({(a1, a2): c for a1, (a2, c) in rows.items()})
    return LaurentPoly2(draw(st.dictionaries(st.tuples(e1, e2), coeff, max_size=20)))


# The kernel's reference tests draw from both strategies and the zero polynomial.
kernel_polys = st.one_of(wide_polys, _lattice_polys(), st.just(ZERO))
nonzero_kernel_polys = kernel_polys.filter(bool)


def _full_slots(k, n, sign):
    """c * sum_{i<n} (sign*x2)^i with c = 2^k - 1.

    Its square's middle coefficient, sign^(n-1) * n * c^2, needs every bit of
    the slot width bound 2*bits(c) + bits(n) + 1 when n is 2^b - 1 or 2^b - 2.
    In the examples below the bound is 1 more than a multiple of 8, so one bit
    less would also lose a byte of the slot.
    """
    return LaurentPoly2({(0, i): sign**i * (2**k - 1) for i in range(n)})


def _spy_sizes(monkeypatch) -> list:
    """The slot sizes ``laurent._rows_at`` is called with, in call order."""
    sizes = []
    rows_at = laurent._rows_at

    def spy(value, size, g):
        sizes.append(size)
        return rows_at(value, size, g)

    monkeypatch.setattr(laurent, "_rows_at", spy)
    return sizes


# A division that never ends would otherwise hang the suite.
pytestmark = pytest.mark.usefixtures("time_limit")


def test_add_cancels_to_canonical_form():
    assert (X1 + 1) + (-1) == X1


def test_add_identity():
    p = X1**2 + X2
    assert p + ZERO == p
    assert ZERO + p == p


def test_add_merges_like_terms():
    cube = LaurentPoly2.monomial(0, 3)
    assert (cube + 1) + cube == LaurentPoly2({(0, 3): 2, (0, 0): 1})


def test_mul_inverse_monomial():
    assert LaurentPoly2.monomial(-1, 0) * X1 == ONE


def test_mul_binomial_square():
    base = 1 + LaurentPoly2.monomial(0, 3)
    assert base * base == LaurentPoly2({(0, 6): 1, (0, 3): 2, (0, 0): 1})


def test_mul_eighth_power_coefficients():
    # Coefficient row of (1 + x2^3)^8 along descending x2 exponents.
    expansion = (1 + LaurentPoly2.monomial(0, 3)) ** 8
    coeffs = [expansion.coefficient(0, 3 * k) for k in range(8, -1, -1)]
    assert coeffs == [1, 8, 28, 56, 70, 56, 28, 8, 1]


def test_pow_zero_is_one():
    assert (X1 + X2) ** 0 == ONE
    assert ZERO**0 == ONE


def test_pow_monomial():
    assert X2**3 == LaurentPoly2.monomial(0, 3)


def test_pow_evaluated_at_one():
    # Independent count: sum of the binomial row for exponent 5.
    expected = sum(math.comb(5, k) for k in range(6))
    assert ((1 + LaurentPoly2.monomial(0, 3)) ** 5).eval_at(1, 1) == expected == 32


def test_div_exact_by_one():
    p = LaurentPoly2({(0, 2): 1, (0, 0): 1})
    assert p.div_exact(ONE) == p


def test_div_exact_recursion_step():
    # ((x2^2+1)^2 + x1^2) / (x1^2 x2) is the r=2 step from (x_2, x_3) to x_4.
    numerator = (X2**2 + 1) ** 2 + X1**2
    quotient = numerator.div_exact(LaurentPoly2.monomial(2, 1))
    assert quotient == LaurentPoly2({(-2, 3): 1, (-2, 1): 2, (-2, -1): 1, (0, -1): 1})
    assert quotient * LaurentPoly2.monomial(2, 1) == numerator


def test_div_exact_by_monomial_is_always_exact():
    # Monomials are units of the Laurent ring; the recursion depends on this
    # (dividing (x2^r+1)^r + x1^r by x1^r * x2 must introduce x2^-1).
    assert (X1 + 1).div_exact(X2) == LaurentPoly2({(1, -1): 1, (0, -1): 1})


def test_div_exact_walks_keys_a_row_gains():
    # x2 is not a term of 1 - x2^2; the walk finds it after the first step.
    assert (1 - X2**2).div_exact(1 + X2) == 1 - X2
    assert (1 - X1**2 * X2**2).div_exact(1 + X1 * X2) == 1 - X1 * X2


def test_div_exact_detects_non_divisibility():
    with pytest.raises(NonExactDivisionError):
        (X1 + 1).div_exact(X2 + 1)
    with pytest.raises(NonExactDivisionError):
        (X1**2 + X2).div_exact(X1 + X2)


def test_div_exact_rejects_non_integer_quotient():
    with pytest.raises(NonExactDivisionError):
        X1.div_exact(LaurentPoly2({(0, 0): 2}))


@pytest.mark.parametrize("dividend, divisor, reason", [
    # 1 - x1 + x1^2 - ... never ends if nothing bounds a lowest-first walk.
    (ONE, 1 + X1, "spans more"),
    # The walk leaves the quotient box partway through the row.
    (1 + 3 * X2 + 3 * X2**2, 1 + 2 * X2, "outside the quotient box"),
    # The same in x1: every term is its own row, and the last one is left over.
    (1 + 3 * X1 + 3 * X1**2, 1 + 2 * X1, "remainder above"),
    # Quotient 1, then 3/2: the coefficient fails on the row's second term.
    (2 + 4 * X2 + 3 * X2**2, 2 + X2, "not divisible"),
    # Below the box: the divisor's lowest term in row 0 sits above the
    # dividend's constant term.
    ((X1 + X2) ** 3 + 1, X1 + X2, "outside the quotient box"),
    # Every packed row divides by 2 at any slot size; only the bits check on
    # the quotient, at each of its slot sizes, rejects it.
    (2 + X2, 2, "not divisible"),
    # Lead 2: a remainder, though the in-box quotient 2 divides over Z.
    (4 + 2 * X2 + X2**2, 2 + X2, "not divisible"),
])
def test_div_exact_ends_on_non_exact_input(dividend, divisor, reason):
    with pytest.raises(NonExactDivisionError, match=reason):
        dividend.div_exact(divisor)


@pytest.mark.parametrize("var", [X2, X1], ids=["one_row", "row_per_term"])
def test_div_exact_retries_when_the_quotient_outgrows_the_dividend(monkeypatch, var):
    # The quotient's coefficients need 60 bits and the dividend's 38, so the
    # first slot size fails the bits check and the proven size is used.  Both
    # operands are re-slotted to each slot size the division runs at.
    dividend, divisor, quotient = (1 - var**3) ** 40, (1 - var) ** 40, (1 + var + var**2) ** 40
    assert max(map(abs, quotient.terms.values())).bit_length() == 60
    assert max(map(abs, dividend.terms.values())).bit_length() == 38
    sizes = _spy_sizes(monkeypatch)
    assert dividend.div_exact(divisor) == quotient
    assert len(set(sizes)) == 2


def test_div_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE.div_exact(ZERO)


def test_div_exact_takes_an_int_like_mul():
    assert (2 * X1).div_exact(2) == X1
    assert (6 * X1 * X2 - 3).div_exact(-3) == 1 - 2 * X1 * X2
    assert ZERO.div_exact(5) == ZERO
    with pytest.raises(NonExactDivisionError, match="not divisible"):
        (3 * X1).div_exact(2)
    with pytest.raises(ZeroDivisionError):
        X1.div_exact(0)


@pytest.mark.parametrize("operand", [True, False, 2.0])
@pytest.mark.parametrize("operation", [
    lambda p, v: p.div_exact(v),
    lambda p, v: p * v,
    lambda p, v: v * p,
    lambda p, v: p + v,
    lambda p, v: p - v,
    lambda p, v: v - p,
], ids=["div_exact", "mul", "rmul", "add", "sub", "rsub"])
def test_ring_operations_reject_a_bool_or_float_operand(operation, operand):
    # A bool is no coefficient (see the constructor), so no operation takes one.
    for p in (2 * X1, ZERO):
        with pytest.raises(TypeError):
            operation(p, operand)


@pytest.mark.parametrize("k", [True, False, 2.0, -1])
def test_pow_rejects_a_bool_float_or_negative_exponent(k):
    with pytest.raises(ValueError):
        X1**k


def test_eval_at_negative_exponent():
    assert LaurentPoly2.monomial(-1, 0).eval_at(2, 1) == Fraction(1, 2)


def test_eval_at_printed_example_sum():
    poly = LaurentPoly2(EQ3_NUMERATOR_TERMS)
    assert poly.eval_at(1, 1) == sum(EQ3_NUMERATOR_TERMS.values()) == 365


def test_eval_at_zero_poly():
    assert ZERO.eval_at(5, 7) == 0


@pytest.mark.parametrize("method", ["min_exponents", "max_exponents"])
def test_zero_polynomial_has_no_extreme_exponents(method):
    with pytest.raises(ValueError, match="^zero polynomial has no exponents$"):
        getattr(ZERO, method)()


def test_eval_at_pole():
    with pytest.raises(PoleError):
        LaurentPoly2.monomial(0, -2).eval_at(1, 0)


def test_swap_vars_monomial():
    assert LaurentPoly2.monomial(2, -1).swap_vars() == LaurentPoly2.monomial(-1, 2)


def test_render_plain_examples():
    assert (X1 + 1).render("plain") == "x1 + 1"
    assert ZERO.render("plain") == "0"
    assert LaurentPoly2({(2, -1): -3}).render("plain") == "-3*x1^2*x2^-1"
    assert LaurentPoly2({(1, 0): 1, (0, 0): -2}).render("plain") == "x1 - 2"


def test_render_latex():
    poly = LaurentPoly2({(-8, 21): 1, (0, 0): 7})
    assert poly.render("latex") == "7 + x_1^{-8} x_2^{21}"
    assert poly.render("latex", names=("y1", "y2")) == "7 + y_1^{-8} y_2^{21}"


def test_render_latex_braces_a_subscript_of_more_than_one_character():
    poly = LaurentPoly2({(2, 1): -3, (0, 0): 1})
    assert poly.render("latex", names=("x10", "y")) == "-3 x_{10}^{2} y + 1"
    assert poly.render("latex", names=("x1", "y2")) == "-3 x_1^{2} y_2 + 1"
    assert poly.render("latex", names=("x_10", "yab")) == "-3 x_10^{2} y_{ab} + 1"


def test_render_term_order_is_descending():
    poly = LaurentPoly2(EQ3_NUMERATOR_TERMS)
    rendered = poly.render("plain")
    assert rendered.count("+") == 18  # 19 terms, matching the printed display
    assert rendered.startswith("x1^9")  # (9, 0) leads under (e1 desc, e2 desc)


def test_render_json_schema():
    payload = json.loads((X1 + 1).render("json"))
    assert payload == {"terms": [{"e1": 1, "e2": 0, "c": "1"}, {"e1": 0, "e2": 0, "c": "1"}]}


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        ONE.render("yaml")


@pytest.mark.parametrize("coeff", [True, False, 1.0])
def test_constructor_rejects_non_int_coefficients(coeff):
    # bool is an int subclass; accepting it would render "c": "True".
    with pytest.raises(TypeError):
        LaurentPoly2({(0, 0): coeff})


@pytest.mark.parametrize("slot", [0, 1])
@pytest.mark.parametrize("exponent", [1.5, True, "2", None])
def test_constructor_rejects_non_int_exponents(slot, exponent):
    # Coercing with int() would read 1.5 and True as 1 and merge distinct keys.
    exps = [0, 0]
    exps[slot] = exponent
    with pytest.raises(TypeError):
        LaurentPoly2({tuple(exps): 1})


@pytest.mark.parametrize("exponents", [(True, False), (1.0, 0), (0, "1"), (None, 0)])
def test_coefficient_rejects_non_int_exponents(exponents):
    # Reading True or 1.0 as 1 would report x1's coefficient for a key no term has.
    with pytest.raises(TypeError, match=r"^exponents must be int, got \("):
        X1.coefficient(*exponents)
    assert X1.coefficient(1, 0) == 1 and X1.coefficient(0, 1) == 0


@pytest.mark.parametrize("point", [(True, 2), (2, False), (1.5, 2), ("3", 2), (2, None)])
def test_eval_at_rejects_points_that_are_no_int_or_fraction(point):
    with pytest.raises(TypeError, match="evaluation point must be int or Fraction"):
        X1.eval_at(*point)
    assert X1.eval_at(Fraction(3, 2), 2) == Fraction(3, 2)


def test_poly_sum_cancels_to_zero():
    parts = [X1, -X2, 3 * ONE, X2, -X1, LaurentPoly2({(0, 0): -3})]
    total = sum(parts, ZERO)
    assert total == ZERO
    assert total.terms == {}
    assert X1 + -X1 + X2 == X2


@pytest.mark.parametrize("flag", [True, False])
def test_eq_with_a_bool_is_false(flag):
    # A bool is no coefficient, so comparing with one must not raise.
    for p in (X1, ONE, ZERO):
        assert (p == flag) is False
        assert (flag == p) is False
        assert p != flag


@pytest.mark.parametrize("value", [0, 1, -7, 2**70])
def test_a_constant_hashes_like_the_int_it_equals(value):
    poly = LaurentPoly2.monomial(0, 0, value)
    assert poly == value
    assert hash(poly) == hash(value)
    assert value in {poly}
    assert poly in {value}


def test_hash_agrees_with_eq_off_the_constants():
    poly = 3 * LaurentPoly2.monomial(1, -2) + 1
    same = LaurentPoly2({(0, 0): 1, (1, -2): 3})
    assert poly == same and hash(poly) == hash(same)
    assert same in {poly}
    assert poly != 1 and poly not in {1, 3}


@given(polys, polys, polys)
def test_ring_axioms(p, q, s):
    assert (p + q) + s == p + (q + s)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * s == p * (q * s)
    assert p * (q + s) == p * q + p * s


@given(polys, nonzero_polys)
def test_div_exact_inverts_mul(p, q):
    assert (p * q).div_exact(q) == p


@settings(deadline=None)
@given(kernel_polys, kernel_polys)
def test_mul_matches_reference(p, q):
    assert p * q == reference_mul(p, q)


@settings(deadline=None)
# Up to k = 5 the left-to-right and right-to-left square-and-multiply
# schedules coincide; small polynomials reach the others (k = 6, 7, 11, 13).
@given(st.one_of(st.tuples(kernel_polys, st.integers(min_value=0, max_value=5)),
                 st.tuples(polys, st.integers(min_value=0, max_value=13))))
@example((_full_slots(7, 3, 1), 2))
@example((_full_slots(8, 255, -1), 2))
@example((_full_slots(8, 254, -1), 2))
@example((_full_slots(300, 255, 1), 2))
@example((1 + X1 - 2 * X2, 13))
@example((X1 - LaurentPoly2.monomial(-1, 1) + 3, 11))
def test_pow_matches_reference(case):
    p, k = case
    assert p**k == reference_pow(p, k)


def test_each_product_of_a_power_is_sized_from_its_own_factors(monkeypatch):
    # (X1 + X2 + 1)**8 is three squares.  The bits of each factor's largest
    # coefficient (1, 2, 4) and of its slot count (3, 6, 15) give slot widths
    # of 5, 8 and 13 bits.
    sizes = _spy_sizes(monkeypatch)
    assert (X1 + X2 + 1) ** 8 == reference_pow(X1 + X2 + 1, 8)
    assert sizes == [1, 1, 2]


def test_mul_sizes_its_slot_from_term_counts(monkeypatch):
    # Three terms fill 301 slots of one row.  From the term count the slot
    # needs 7 + 6 + 1 + bits(3) = 16 bits; from the slot count, 23.
    p, q = 64 * (1 + X2 + X2**300), 32 * (1 + X2 + X2**300)
    sizes = _spy_sizes(monkeypatch)
    assert p * q == reference_mul(p, q)
    assert sizes == [2, 2]


@settings(deadline=None)
@given(kernel_polys, nonzero_kernel_polys)
# Remainder row 1 owes 254 products of a 64-bit quotient coefficient and an
# 8-bit divisor coefficient per slot: every bit of the width bound
# 64 + 8 + bits(255 divisor terms) + 1.
@example(_full_slots(64, 254, 1), 1 + X1 * _full_slots(8, 254, 1))
@example(_full_slots(64, 254, -1), 1 + X1 * _full_slots(8, 254, -1))
def test_div_exact_matches_reference(p, q):
    product = p * q
    assert product.div_exact(q) == reference_div_exact(product, q) == p


@settings(deadline=None)
@given(kernel_polys, nonzero_kernel_polys)
def test_div_exact_returns_the_quotient_or_raises(p, q):
    try:
        quotient = p.div_exact(q)
    except NonExactDivisionError:
        return
    assert quotient * q == p


@given(polys, polys)
def test_swap_vars_is_ring_homomorphism(p, q):
    assert (p + q).swap_vars() == p.swap_vars() + q.swap_vars()
    assert (p * q).swap_vars() == p.swap_vars() * q.swap_vars()


@given(polys)
def test_swap_vars_is_involution(p):
    assert p.swap_vars().swap_vars() == p


@given(polys, polys, st.integers(min_value=0, max_value=4))
def test_canonical_form_has_no_zero_coefficients(p, q, k):
    results = [p + q, p * q, p - q, p**k, -p, p.swap_vars()]
    if q:
        results.append((p * q).div_exact(q))
    for result in results:
        assert all(coeff != 0 for coeff in result.terms.values())


@given(polys)
def test_json_round_trip(p):
    terms = json.loads(p.render("json"))["terms"]
    assert all(term["c"] == str(int(term["c"])) for term in terms)
    assert LaurentPoly2({(term["e1"], term["e2"]): int(term["c"]) for term in terms}) == p


# -- carried values: the byte-level helpers ----------------------------------


@st.composite
def _signed_rows(draw):
    """(size, rows): one to four rows of signed ``size``-byte slots, up to
    +-(2^(8*size - 1) - 1), with zero slots, one-slot rows and negative top
    slots; every row has a nonzero slot."""
    size = draw(st.integers(1, 4))
    top = (1 << 8 * size - 1) - 1
    slot = st.one_of(st.integers(-top, top), st.sampled_from([0, 0, top, -top, -1]))
    row = st.lists(slot, min_size=1, max_size=10).filter(any)
    return size, draw(st.lists(row, min_size=1, max_size=4))


def _packed(slots, size):
    """Plain arithmetic: slot i times 2^(8*size*i)."""
    return sum(coeff << 8 * size * i for i, coeff in enumerate(slots))


@settings(deadline=None)
@given(_signed_rows(), st.integers(1, 8), st.integers(1, 3), st.integers(-5, 5))
@example((1, [[-127, 0, 127], [-1]]), 1, 1, 0)
@example((2, [[0, -32767]]), 3, 2, -4)
# size * spread equals the old slot width, yet every slot still moves.
@example((2, [[1, 1]]), 1, 2, 0)
def test_reslotting_a_carried_value_equals_packing_at_the_new_size(case, size, spread, base):
    # Row e1 = j holds slot i at e2 = base + spread*i; the carried value is
    # re-slotted to ``size`` bytes on the lattice step 1.
    old, rows = case
    coeffs = [c for row in rows for c in row if c]
    assume(max(map(abs, coeffs)) < 1 << 8 * min(old, size) - 1)
    value = carried._carry_rows([(j, _packed(row, old)) for j, row in enumerate(rows)],
                                  base, spread, old)
    terms = {(j, base + spread * i): c
             for j, row in enumerate(rows) for i, c in enumerate(row) if c}
    assert carried._term_map(value) == terms
    lowest = min(e2 for _, e2 in terms)
    # Each carried row runs from its lowest to its highest nonzero slot.
    nonzero = [[i for i, c in enumerate(row) if c] for row in rows]
    assert [count for *_, count in value.rows] == [row[-1] - row[0] + 1 for row in nonzero]
    expected = []
    for j, row in enumerate(rows):
        first = next(i for i, c in enumerate(row) if c)
        spread_row = [0] * (spread * (len(row) - first))
        spread_row[::spread] = row[first:]
        expected.append((j, base + spread * first - lowest, _packed(spread_row, size)))
    assert carried._rows_at(value, size, 1) == expected


@settings(deadline=None)
@given(_signed_rows())
@example((1, [[-128 + 1], [5, 0, -3]]))
@example((3, [[0, 0, -(2**23) + 1]]))
def test_bits_and_norm_read_from_the_bytes(case):
    size, rows = case
    value = carried._carry_rows([(j, _packed(row, size)) for j, row in enumerate(rows)],
                                  0, 1, size)
    coeffs = [c for row in rows for c in row]
    assert value.bits == max(map(abs, coeffs)).bit_length()
    assert carried._norm(value) == sum(map(abs, coeffs))


@settings(deadline=None)
@given(_signed_rows())
@example((1, [[-127, 0, 127], [-1], [0, 5]]))
def test_split_and_interleave_invert_each_other(case):
    size, rows = case
    values = [_packed(row, size) for row in rows]
    halves = carried._split(values, size)
    assert halves == [(_packed(row[::2], size), _packed(row[1::2], size)) for row in rows]
    assert carried._interleave(halves, size) == values


@settings(deadline=None)
@given(st.integers(1, 80), st.integers(1, 80), st.integers(1, 2**16),
       st.lists(st.sampled_from([1, -1, 0]), max_size=6), st.sampled_from([1, -1]),
       st.sampled_from([1, -1]))
# a + b + 1 + bits(terms) a multiple of 8: the extreme sum fills its last byte.
@example(3, 3, 1, [], 1, -1)
@example(10, 11, 3, [0, -1], -1, 1)
@example(64, 62, 2**15, [1, 0, -1], 1, 1)
# One bit more: the slot takes one more byte.
@example(3, 4, 1, [-1], -1, -1)
def test_the_slot_rule_holds_its_worst_sum(a, b, terms, middle, first, last):
    # The largest sum of ``terms`` products of an a-bit by a b-bit coefficient,
    # with either sign, in every slot of a row that starts and ends on one.
    extreme = terms * ((1 << a) - 1) * ((1 << b) - 1)
    coeffs = [extreme * sign for sign in (first, *middle, last)]
    size = carried._slot_bytes(a + b, terms)
    assert extreme < 1 << 8 * size - 1
    value = carried._carry_rows([(2, _packed(coeffs, size))], 5, 3, size)
    assert value.size == size and value.bits == extreme.bit_length()
    assert carried._term_map(value) == {(2, 5 + 3 * i): c for i, c in enumerate(coeffs) if c}
    assert carried._rows_at(value, size, 3) == [(2, 0, _packed(coeffs, size))]
    # One byte wider on the lattice step 1, the slots land three apart.
    assert carried._rows_at(value, size + 1, 1) == [(2, 0, _packed(
        [c for coeff in coeffs for c in (coeff, 0, 0)][:-2], size + 1))]


@given(kernel_polys.filter(bool))
def test_carry_round_trips_a_polynomial(p):
    value = carried._carry(p.terms)
    assert carried._term_map(value) == p.terms
    assert value.bits == max(map(abs, p.terms.values())).bit_length()
    assert carried._norm(value) == sum(map(abs, p.terms.values()))


# -- two-point row products -------------------------------------------------


def _rows_of(p, q=None, g=None):
    """(a, b, slot): the packed rows of p and q, at the slot size ``*`` gives
    their product, as ``laurent._mul_packed`` receives them; q = None passes
    the rows of p twice, as a square does.  Rows sit on the lattice step g,
    by default the gcd of both operands' steps; a smaller one spreads them
    through ``_rows_at``."""
    a = carried._carry(p.terms)
    b = a if q is None else carried._carry(q.terms)
    g = g or math.gcd(a.g, b.g) or 1
    size = carried._slot_bytes(a.bits + b.bits, min(len(p), len(q or p)))
    rows = carried._rows_at(a, size, g)
    return rows, rows if q is None else carried._rows_at(b, size, g), 8 * size


@st.composite
def _product_rows(draw):
    p = draw(nonzero_kernel_polys)
    q = None if draw(st.booleans()) else draw(nonzero_kernel_polys)
    return _rows_of(p, q, draw(st.sampled_from([1, None])))


def _mul_packed_at(two_points, a, b, slot):
    """``laurent._mul_packed`` forced onto two points, or onto one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_TWO_POINT_BITS", 0 if two_points else math.inf)
        if not two_points:
            patch.setattr(laurent, "_at_two_points", _refuse)
        return laurent._mul_packed(a, b, slot)


@settings(deadline=None)
@given(_product_rows())
# Middle coefficients of these squares use every bit of their slots.
@example(_rows_of(_full_slots(8, 255, -1)))
@example(_rows_of(_full_slots(300, 255, 1)))
# One-slot rows at odd and even offsets, and a one-slot row times a long one.
@example(_rows_of(X1 * X2**3 - 2 * X2**4 + 5, X1**2 * X2 + 7 * X2**2))
@example(_rows_of(-(2**70) * X2**3, _full_slots(9, 20, -1)))
def test_two_point_row_products_equal_one_point_ones(case):
    a, b, slot = case
    assert _mul_packed_at(True, a, b, slot) == _mul_packed_at(False, a, b, slot)


@settings(deadline=None)
@given(kernel_polys, kernel_polys, st.integers(min_value=0, max_value=7))
@example(_full_slots(8, 254, -1), _full_slots(7, 3, 1), 2)
def test_mul_and_pow_at_two_points_match_reference(p, q, k):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_TWO_POINT_BITS", 0)
        assert p * q == reference_mul(p, q)
        assert p**k == reference_pow(p, k)


def _row_product_points(monkeypatch) -> list:
    """One entry per ``laurent._mul_packed`` call, in call order: True when
    it took two points."""
    taken = []
    mul_packed, at_two_points = laurent._mul_packed, laurent._at_two_points

    def mul(a, b, slot):
        taken.append(False)
        return mul_packed(a, b, slot)

    def two_points(rows, size):
        taken[-1] = True
        return at_two_points(rows, size)

    monkeypatch.setattr(laurent, "_mul_packed", mul)
    monkeypatch.setattr(laurent, "_at_two_points", two_points)
    return taken


@pytest.mark.parametrize("r, n, taken", [
    # The largest cells of the verify-sweep benchmark that power by squares,
    # with rows of at most 1.2 kbit.
    (2, 22, [False]), (2, -19, [False]), (3, -3, [False, False]), (5, 4, [False] * 3),
    # Rows of up to 2.4 kbit.
    (2, 30, [False]), (2, -26, [False]), (3, -4, [False, False]),
    # x_7**3 at r = 3 multiplies rows of 6.6, 10 and 20 kbit, and x_6**4 at
    # r = 4 rows of 6.7 and 27 kbit.
    (3, 8, [True, True]), (4, 7, [True, True]),
])
def test_the_last_step_takes_two_points_exactly_when_its_rows_are_long(monkeypatch, r, n, taken):
    # Every row product of the step, the step's own last one included.
    downward = n <= 0
    start = [X2, X1] if downward else [X1, X2]
    walked = islice(_walk(r, downward), (3 - n if downward else n) - 2)
    *_, prev, cur, last = start + [laurent._decode(value) for value in walked]
    products = _row_product_points(monkeypatch)
    assert _exchange(prev, cur, r) == last
    assert products == taken


# -- the recursion step ------------------------------------------------------

_X3_R3 = (X2**3 + 1).div_exact(X1)


@st.composite
def _one_term_tops(draw):
    """(cur, r) with cur's top row one term c*x1^t*x2^a and the rows below
    spanning J <= r steps of their e1 lattice, so that the recursion step
    powers cur by Miller's recurrence.  Rows may be missing from the lattice,
    coefficients are signed, c need not be +-1, and a may lie above another
    row's lowest e2."""
    step, span = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    r = draw(st.integers(max(span, 2), 8))
    top = draw(st.integers(-3, 3))
    coeff = st.one_of(coefficients.filter(bool), st.sampled_from([2**70 + 1, -(2**70) - 3]))
    terms = {(top, draw(st.integers(-6, 6))): draw(coeff)}
    below = st.tuples(st.integers(1, span).map(lambda j: top - j * step), st.integers(-6, 6))
    if span:
        terms.update(draw(st.dictionaries(below, coeff, max_size=8)))
    return LaurentPoly2(terms), r


def _refuse(*args):
    raise AssertionError("a refused path ran")


def _exchange(prev, cur, r):
    """One recursion step on polynomials, ``(cur**r + 1).div_exact(prev)`` for
    r >= 1: the two polynomials carried, ``laurent._step``, the quotient decoded."""
    if prev.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if cur.is_zero():
        return ONE.div_exact(prev)
    return laurent._decode(laurent._step(carried._carry(prev.terms), carried._carry(cur.terms), r))


def _check_exchange(prev, cur, r, power=pow):
    try:
        expected = (power(cur, r) + 1).div_exact(prev)
    except (NonExactDivisionError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)) as raised:
            _exchange(prev, cur, r)
        assert str(raised.value) == str(exc)
    else:
        assert _exchange(prev, cur, r) == expected


# One-term top rows (Miller's recurrence) over a monomial, so the quotient is
# exact: top coefficient -3, signed rows below, the top term's e2 (4) above
# the lowest (-1), and rows at j = 1 and 3 of the e1 lattice of step 2 with
# j = 2 missing.
_TOPPED = LaurentPoly2({(2, 4): -3, (0, -1): 2, (0, 3): -5, (-4, 2): 1})


@settings(deadline=None)
@given(kernel_polys, kernel_polys, st.integers(min_value=1, max_value=8))
# The constant cancels: the dividend's lowest e2 lies above the product's.
@example(X2, X2 - 1, 1)
# cur**3 + 1 is zero.
@example(X1, -ONE, 3)
# Recursion steps of r = 3, the second from x_3 and x_4.
@example(X1, X2, 3)
@example(_X3_R3, (_X3_R3**3 + 1).div_exact(X2), 3)
# J = 3 <= r, and J = 3 > r = 2.
@example(LaurentPoly2.monomial(1, -2), _TOPPED, 3)
@example(LaurentPoly2.monomial(1, -2), _TOPPED, 8)
@example(LaurentPoly2.monomial(1, -2), _TOPPED, 2)
# A lone term, J = 0; and one term over a row with keys below and above its e2.
@example(X2, -3 * X1 * X2**5, 4)
@example(X1**3, LaurentPoly2({(1, 3): 7, (0, -2): -1, (0, 6): 4}), 2)
def test_exchange_matches_pow_plus_one_div_exact(prev, cur, r):
    _check_exchange(prev, cur, r)


@settings(deadline=None)
@given(_one_term_tops(), st.one_of(
    st.builds(LaurentPoly2.monomial, exponents, exponents, st.sampled_from([1, -1])),
    kernel_polys))
def test_exchange_by_miller_matches_pow_plus_one_div_exact(case, prev):
    cur, r = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(laurent, "_last_factors", _refuse)
        _check_exchange(prev, cur, r, reference_pow)


@pytest.mark.parametrize("cur, r, unused", [
    # _TOPPED spans J = 3 steps of its e1 lattice below its one-term top row.
    (_TOPPED, 3, "_last_factors"), (_TOPPED, 2, "_miller"),
    # J = 1, but the top row has two terms.
    (X1 * (X2 + 1) + 1, 3, "_miller"),
    (X1 * X2 + 1, 3, "_last_factors"),
])
def test_the_step_powers_by_miller_exactly_when_j_is_at_most_r(monkeypatch, cur, r, unused):
    expected = reference_pow(cur, r) + 1
    monkeypatch.setattr(laurent, unused, _refuse)
    assert _exchange(X1, cur, r) * X1 == expected


@pytest.mark.parametrize("r, n, unused", [
    (20, 5, "_last_factors"), (20, -2, "_last_factors"), (6, 6, "_last_factors"),
    (5, 6, "_last_factors"), (3, 8, "_miller"), (4, 7, "_miller"), (2, 30, "_miller"),
])
def test_the_last_step_powers_by_miller_exactly_when_the_rule_holds(monkeypatch, r, n, unused):
    # x_{n-1} has a one-term top row at every listed cell; the rows below
    # span J <= r lattice steps where Miller's recurrence runs, and J > r
    # where the binary path runs.
    downward = n <= 0
    start = [X2, X1] if downward else [X1, X2]
    walked = islice(_walk(r, downward), (3 - n if downward else n) - 2)
    *_, prev, cur, last = start + [laurent._decode(value) for value in walked]
    monkeypatch.setattr(laurent, unused, _refuse)
    assert _exchange(prev, cur, r) == last


def test_the_division_walks_only_the_e1_lattice(monkeypatch):
    # Down from x_1 at r = 20 every value has its e1 keys 20 apart.  The last
    # step's dividend x_-1**20 + 1 spans 8 000 e1 values but has only 401
    # rows, and those are all the rows its division receives.
    received = []
    divide_packed = laurent._divide_packed

    def spy(rows, count, *rest):
        received.append((len(rows), sum(map(bool, rows)), count))
        return divide_packed(rows, count, *rest)

    monkeypatch.setattr(laurent, "_divide_packed", spy)
    for _ in islice(_walk(20, downward=True), 3):  # x_0, x_-1, x_-2
        pass
    assert received == [(2, 2, 2), (21, 21, 21), (401, 401, 400)]


def test_exchange_retries_when_the_quotient_outgrows_the_dividend(monkeypatch):
    # r = 1: cur + 1 = (1 - x2^3)^40, whose coefficients need 38 bits, over
    # (1 - x2)^40 leaves (1 + x2 + x2^2)^40, whose coefficients need 60.
    # The step re-slots its carried operands to each slot size it divides at.
    prev, cur, quotient = (1 - X2) ** 40, (1 - X2**3) ** 40 - 1, (1 + X2 + X2**2) ** 40
    sizes = _spy_sizes(monkeypatch)
    assert _exchange(prev, cur, 1) == quotient
    assert len(set(sizes)) == 2


@pytest.mark.parametrize("r, steps", [(1, 6), (2, 5), (3, 4), (4, 4), (5, 4), (6, 4), (7, 3),
                                      (20, 3)])
@pytest.mark.parametrize("downward", [False, True])
def test_walk_matches_the_reference_recursion(r, steps, downward):
    prev, cur = (X2, X1) if downward else (X1, X2)
    for value in islice(_walk(r, downward), steps):
        prev, cur = cur, reference_div_exact(reference_pow(cur, r) + 1, prev)
        assert laurent._decode(value) == cur
