import math

import pytest
from hypothesis import given, settings, strategies as st

from crystalsums.qpoly import (ONE, QLaurent, TruncatedSeries, ZERO, exact_div,
                               invert_q, q_power, qbinomial,
                               qmultinomial, truncated_product)

from oracles import box_partitions, gf_from_sizes


def P(d):
    return QLaurent.from_dict(d)


laurents = st.builds(
    P, st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6))


class TestArithmetic:
    def test_binomial_square(self):
        one_plus_q = P({0: 1, 1: 1})
        assert one_plus_q * one_plus_q == P({0: 1, 1: 2, 2: 1})

    def test_additive_identity(self):
        p = P({-2: 3, 5: -1})
        assert p + ZERO == p

    def test_monomial_shift(self):
        assert P({-1: 1, 0: 1}) * q_power(1) == P({0: 1, 1: 1})

    def test_sub(self):
        assert ONE - ONE == ZERO

    def test_str(self):
        assert str(P({-1: 1, 0: 2, 3: -4})) == "q^-1 + 2 - 4*q^3"

    @given(laurents, laurents, laurents)
    @settings(max_examples=150)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(laurents, laurents)
    def test_inverse_is_ring_hom(self, a, b):
        assert invert_q(a * b) == invert_q(a) * invert_q(b)
        assert invert_q(a + b) == invert_q(a) + invert_q(b)

    def test_exact_division_roundtrip(self):
        a = P({0: 1, 1: 2, 3: -1})
        b = P({-1: 3, 2: 5})
        assert exact_div(a * b, b) == a
        with pytest.raises(ValueError):
            exact_div(P({0: 1, 1: 1}), P({0: 2}))

    def test_json_roundtrip(self):
        p = P({-3: 12345678901234567890, 0: -1, 7: 2})
        assert QLaurent.from_json(p.to_json()) == p
        assert p.to_json() == '[[-3,"12345678901234567890"],[0,"-1"],[7,"2"]]'


class TestQBinomial:
    def test_two_by_two_box(self):
        # oracle: enumerate the six partitions inside a 2x2 box
        sizes = [sum(mu) for mu in box_partitions(2, 2)]
        assert gf_from_sizes(sizes) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
        assert qbinomial(2, 2) == P({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})

    def test_height_zero(self):
        assert qbinomial(7, 0) == ONE

    def test_negative_is_zero(self):
        assert qbinomial(-1, 3) == ZERO
        assert qbinomial(3, -1) == ZERO

    @pytest.mark.parametrize("m", range(0, 7))
    @pytest.mark.parametrize("n", range(0, 7))
    def test_matches_box_enumeration(self, m, n):
        want = gf_from_sizes(sum(mu) for mu in box_partitions(m, n))
        assert qbinomial(m, n).as_dict() == want

    def test_palindromic_and_q1(self):
        for m in range(13):
            for n in range(13):
                p = qbinomial(m, n)
                coeffs = [p.coeff(e) for e in range(m * n + 1)]
                assert coeffs == coeffs[::-1]
                assert p.at_one() == math.comb(m + n, n)

    def test_inverse_shift_identity(self):
        # qbin with q -> 1/q picks up exactly q^{-mp}
        for m in range(5):
            for p in range(5):
                assert invert_q(qbinomial(p, m)) == \
                    q_power(-m * p) * qbinomial(p, m)


class TestQMultinomial:
    def test_pair(self):
        assert qmultinomial(2, [1, 1]) == P({0: 1, 1: 1})
        assert qmultinomial(2, [1, 1]) == exact_div(
            qbinomial(1, 1) * qbinomial(0, 0), ONE)

    def test_trivial(self):
        assert qmultinomial(3, [3, 0]) == ONE

    def test_q1_value(self):
        assert qmultinomial(3, [1, 1, 1]).at_one() == 6

    def test_bad_parts_zero(self):
        assert qmultinomial(3, [2, 2]) == ZERO
        assert qmultinomial(3, [4, -1]) == ZERO

    def test_q1_matches_multinomial(self):
        for total in range(11):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    parts = [a, b, total - a - b]
                    want = (math.factorial(total)
                            // math.prod(math.factorial(x) for x in parts))
                    assert qmultinomial(total, parts).at_one() == want


class TestTruncatedSeries:
    def test_rr1_product_reciprocal(self):
        ts = truncated_product([(1, 5), (4, 5)], 5, reciprocal=True)
        assert ts.coeffs == (1, 1, 1, 1, 2, 2)

    def test_empty_progressions(self):
        assert truncated_product([], 4).coeffs == (1, 0, 0, 0, 0)

    def test_plain_product(self):
        ts = truncated_product([(1, 1)], 2)
        assert ts.coeffs == (1, -1, -1)

    def test_reciprocal_roundtrip(self):
        ts = truncated_product([(0, 1)], 30)
        assert (ts * ts.reciprocal()).coeffs == TruncatedSeries.one(30).coeffs

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            truncated_product([(1, 0)], 5)
        with pytest.raises(ValueError):
            truncated_product([(1, 5)], -1)

    def test_exactness_vs_poly(self):
        # multiply out (1-q)(1-q^2)(1-q^3) exactly and compare
        poly = ONE
        for k in (1, 2, 3):
            poly = poly * P({0: 1, k: -1})
        ts = truncated_product([(0, 1)], 3)
        assert all(ts.coeff(e) == poly.coeff(e) for e in range(4))
