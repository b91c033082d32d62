import json
import math
import random
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from crystalsums.errors import InexactDivision
from crystalsums.qpoly import (_LISTS, _PACKED, ONE, QLaurent, ZERO, _add_at,
                               _binomial_step, _dense, _pack, _packed_div,
                               _packed_step, _unpack, invert_q,
                               q_power, qbinomial, qmultinomial)

from oracles import (as_dict, at_one, box_partitions,
                     div_one_minus_q_by_coefficient, from_json,
                     gf_from_sizes, qbinomial_pascal)


def P(d):
    return QLaurent.from_dict(d)


laurents = st.builds(
    P, st.dictionaries(st.integers(-8, 8), st.integers(-9, 9), max_size=6))


def one_minus_q(k):
    return ONE - q_power(k)


def pochhammer(n):
    out = ONE
    for k in range(1, n + 1):
        out = out * one_minus_q(k)
    return out


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

    @given(laurents, laurents)
    def test_sub_is_add_of_negation(self, a, b):
        assert a - b == a + (-b)
        assert b - a == -(a - b)
        assert 3 - a == P({0: 3}) + (-a)
        assert a - 3 == a + P({0: -3})

    def test_sub_zero_short_cuts(self):
        p = P({-3: 2, 40: 1})
        assert p - ZERO is p
        assert ZERO - p == P({-3: -2, 40: -1})

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

    def test_terms(self):
        p = P({-1: 1, 0: 2, 3: -4})
        assert p.terms == ((-1, 1), (0, 2), (3, -4))
        assert p.degree() == 3
        assert p.coeff(1) == 0 and p.coeff(3) == -4 and p.coeff(9) == 0
        assert ZERO.terms == () and ZERO == QLaurent(0, ())

    @given(laurents, laurents)
    def test_canonical(self, a, b):
        for p in (a, b, a + b, a - b, a * b, invert_q(a), a.shift(3)):
            if p.is_zero():
                assert (p.low, p.coeffs) == (0, ())
            else:
                assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
                assert p.low == p.terms[0][0]
        # equal polynomials reached by different routes are equal instances
        assert (a + b) - b == a and hash((a + b) - b) == hash(a)
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert P(as_dict(a)) == a and hash(P(as_dict(a))) == hash(a)

    @given(st.lists(st.integers(-20, 20), max_size=12))
    def test_from_exponents(self, xs):
        total = ZERO
        for x in xs:
            total = total + q_power(x)
        assert QLaurent.from_exponents(xs) == total

    def test_exact_division_roundtrip(self):
        a = P({0: 1, 1: 2, 3: -1})
        for k in (1, 2, 5):
            assert div_one_minus_q_by_coefficient(a * one_minus_q(k), k) == a
        with pytest.raises(InexactDivision):
            div_one_minus_q_by_coefficient(P({0: 1, 1: 1}), 2)

    @given(laurents, st.integers(1, 6))
    def test_div_one_minus_q_roundtrip(self, p, k):
        assert div_one_minus_q_by_coefficient(p * one_minus_q(k), k) == p

    def test_div_one_minus_q_inexact_raises(self):
        for p, k in ((ONE, 1), (P({0: 1, 1: 1}), 1), (P({0: 1, 3: -1}), 2),
                     (P({-2: 1, 1: 1}), 3),
                     (qbinomial(6, 5) * one_minus_q(3) + q_power(31), 3)):
            with pytest.raises(InexactDivision):
                div_one_minus_q_by_coefficient(p, k)
        with pytest.raises(ValueError):
            div_one_minus_q_by_coefficient(ONE, 0)

    def test_truncate(self):
        p = P({-1: 1, 2: 3, 5: -2})
        assert p.truncate(4) == P({-1: 1, 2: 3})
        assert p.truncate(5) == p
        assert p.truncate(-2) == ZERO

    def test_json_roundtrip(self):
        p = P({-3: 12345678901234567890, 0: -1, 7: 2})
        assert from_json(p.to_json()) == p
        assert p.to_json() == '[[-3,"12345678901234567890"],[0,"-1"],[7,"2"]]'

    @given(st.dictionaries(st.integers(-60, 60),
                           st.integers(-10 ** 40, 10 ** 40), max_size=12))
    def test_json_is_the_canonical_dump(self, d):
        for p in (P(d), ZERO):
            text = p.to_json()
            assert text == json.dumps([[e, str(c)] for e, c in p.terms],
                                      separators=(",", ":"))
            assert from_json(text) == p


def _random_poly(rng, length):
    # nonzero ends, a negative low, zeros inside and 40-digit coefficients
    coeffs = [rng.choice((0, rng.randint(-9, 9), rng.randint(-10 ** 40,
                                                            10 ** 40)))
              for _ in range(length)]
    coeffs[0] = coeffs[-1] = rng.choice((-1, 1)) * rng.randint(1, 10 ** 40)
    return QLaurent(rng.randint(-30, 5), tuple(coeffs))


big_ints = st.lists(st.integers(-10 ** 40, 10 ** 40), max_size=12)


class TestAddAt:
    """The one slice-add, against adding one coefficient at a time."""

    @given(big_ints, big_ints, st.integers(0, 20), st.sampled_from((add, sub)))
    def test_matches_one_coefficient_at_a_time(self, out, coeffs, start, op):
        want = out + [0] * max(0, start + len(coeffs) - len(out))
        for k, c in enumerate(coeffs):
            want[start + k] = op(want[start + k], c)
        got = list(out)
        assert _add_at(got, start, coeffs, op) is got
        assert got == want

    def test_start_past_the_end(self):
        assert _add_at([1, 2], 4, [5, -6], sub) == [1, 2, 0, 0, -5, 6]


def _small_poly(rng, length):
    # a random polynomial whose coefficients, and the running sums of up to
    # 300 of them, fit a signed word
    coeffs = [rng.choice((0, rng.randint(-9, 9), rng.randint(-2 ** 40,
                                                            2 ** 40)))
              for _ in range(length)]
    coeffs[0] = coeffs[-1] = rng.choice((-1, 1)) * rng.randint(1, 2 ** 40)
    return QLaurent(rng.randint(-30, 5), tuple(coeffs))


def one_to(k):
    """1 + q + ... + q^(k-1) = (1 - q^k) / (1 - q)."""
    return QLaurent(0, (1,) * k)


LENGTHS = (1, 2, 3, 4, 5, 8, 9, 10, 15, 16, 17, 24, 25, 26, 63, 64, 65, 120,
           250)


class TestSliceDivision:
    """The list step divides along residue classes when b * b < len and by
    blocks otherwise; both orders against the one-coefficient-at-a-time
    oracle.  Every b from 1 to len + 1 is tried, so both sides of b * b =
    len.  The step with a = b multiplies by (1 - q^b) and divides it out;
    with a = 1 it divides p (1 - q) by (1 - q^b), which is exact when
    1 + ... + q^(b-1) divides p.  The series division through a cutoff,
    which runs on packed ints, meets the same oracle at the same lengths,
    on coefficients that fit words."""

    @pytest.mark.parametrize("length", LENGTHS)
    def test_exact_division(self, length):
        rng = random.Random(length)
        p = _random_poly(rng, length)
        for k in range(1, length + 2):
            product = p * one_minus_q(k)
            assert _dense(p.low, _binomial_step(list(p.coeffs), k, k)) == p
            assert div_one_minus_q_by_coefficient(product, k) == p

    @pytest.mark.parametrize("length", LENGTHS)
    def test_series_division(self, length):
        rng = random.Random(1000 + length)
        p = _small_poly(rng, length)
        top = p.degree()
        for k in range(1, length + 2):
            for cutoff in (p.low - 3, p.low - 1, p.low, p.low + length // 3,
                           top - 1, top, top + k - 1, top + 2 * k + 5):
                n = max(0, cutoff - p.low + 1)
                got = _packed_div(_pack(list(p.coeffs)), k, n)
                assert (_dense(p.low, _unpack(got, n))
                        == div_one_minus_q_by_coefficient(p, k, cutoff))

    @pytest.mark.parametrize("length", LENGTHS)
    def test_inexact_division_raises(self, length):
        rng = random.Random(2000 + length)
        p = _random_poly(rng, length)
        for k in range(1, length + 2):
            for bad in (p * one_minus_q(k) + q_power(p.low + k),
                        p * one_minus_q(k) + q_power(p.degree() + 1)):
                with pytest.raises(InexactDivision):
                    div_one_minus_q_by_coefficient(bad, k)
            if k > 1:
                row = p * one_to(k)
                assert _dense(p.low, _binomial_step(list(row.coeffs), 1,
                                                    k)) == p
                for bad in (row + q_power(p.low + k), row + q_power(
                        row.degree() + 1)):
                    with pytest.raises(InexactDivision):
                        _binomial_step(list(bad.coeffs), 1, k)
        with pytest.raises(InexactDivision):
            div_one_minus_q_by_coefficient(p, length + 1)


class TestPacked:
    """One int per polynomial, sum c_k 2^(64k) with signed word c_k."""

    @given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=40))
    def test_pack_round_trip(self, coeffs):
        p = _pack(coeffs)
        assert p == sum(c << 64 * k for k, c in enumerate(coeffs))
        assert _unpack(p, len(coeffs)) == coeffs
        assert _PACKED.poly(p) == _dense(0, coeffs)

    def test_pack_edges(self):
        top = 2 ** 63 - 1
        for coeffs in ([], [0], [1], [-1], [top], [-top], [-top - 1],
                       [top, -top - 1], [-1, 1], [1, -1], [0, 0, 5],
                       # the int is just under 2^127: its bit length reaches
                       # only the word below the top one
                       [-1, -top - 1, 1], [0, -5, -top - 1, 1]):
            assert _unpack(_pack(coeffs), len(coeffs)) == coeffs
            assert _PACKED.poly(_pack(coeffs)) == _dense(0, coeffs)
        assert _pack([]) == 0 and _unpack(0, 0) == []
        # reading modulo q^n keeps the n lowest coefficients
        assert _unpack(_pack([3, -4, 5]), 2) == [3, -4]
        for c in (2 ** 63, -2 ** 63 - 1):
            with pytest.raises(OverflowError):
                _pack([c])

    @pytest.mark.parametrize("seed", range(6))
    def test_step_matches_list_step_on_walks(self, seed):
        # a random walk over boxes m x n, m + n <= 62, stepping [m + n; n]
        # to a neighbour: n or m up by (1 - q^(m+n+1)) / (1 - q^(n+1) or
        # 1 - q^(m+1)), n or m down by (1 - q^n or 1 - q^m) / (1 - q^(m+n))
        rng = random.Random(seed)
        m, n = 0, 0
        packed, lists = _PACKED.new([1]), _LISTS.new([1])
        for _ in range(300):
            moves = []
            if m + n < 62:
                moves += [(m + n + 1, n + 1, m, n + 1),
                          (m + n + 1, m + 1, m + 1, n)]
            if n:
                moves.append((n, m + n, m, n - 1))
            if m:
                moves.append((m, m + n, m - 1, n))
            a, b, m2, n2 = rng.choice(moves)
            packed = _PACKED.step(packed, a, b)
            lists = _LISTS.step(lists, a, b)
            m, n = m2, n2
            want = qbinomial(m, n)
            assert _PACKED.poly(packed) == want == _LISTS.poly(lists), (m, n)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_step_exact_and_inexact(self, length):
        # the same cases as the list step's, on coefficients that fit words
        rng = random.Random(3000 + length)
        p = _small_poly(rng, length)
        for k in range(1, length + 2):
            got = _packed_step(_pack(list(p.coeffs)), k, k)
            assert _dense(p.low, _unpack(got, length)) == p
            if k > 1:
                row = p * one_to(k)
                got = _packed_step(_pack(list(row.coeffs)), 1, k)
                assert _PACKED.poly(got).shift(p.low) == p
                for bad in (row + q_power(p.low + k), row + q_power(
                        row.degree() + 1)):
                    with pytest.raises(InexactDivision):
                        _packed_step(_pack(list(bad.coeffs)), 1, k)

    def test_step_inexact_cases(self):
        # p (1 - q^a) / (1 - q^b) is no polynomial, by the oracle; both
        # steps refuse it
        for p, a, b in (([1], 1, 2), ([1, 1], 2, 3), ([1, 0, -1], 1, 3),
                        (list(qbinomial(6, 5).coeffs), 5, 4),
                        (list((qbinomial(6, 5) * one_to(3)).coeffs) + [1],
                         1, 3)):
            with pytest.raises(InexactDivision):
                div_one_minus_q_by_coefficient(
                    QLaurent(0, tuple(p)) * one_minus_q(a), b)
            with pytest.raises(InexactDivision):
                _packed_step(_pack(p), a, b)
            with pytest.raises(InexactDivision):
                _binomial_step(list(p), a, b)

    def test_rejects_a_divisor_below_one(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                _packed_div(1, k, 5)
            with pytest.raises(ValueError):
                _packed_step(1, 1, k)


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
        assert as_dict(qbinomial(m, n)) == want

    def test_palindromic_and_q1(self):
        for m in range(13):
            for n in range(13):
                p = qbinomial(m, n)
                coeffs = [p.coeff(e) for e in range(m * n + 1)]
                assert coeffs == coeffs[::-1]
                assert at_one(p) == math.comb(m + n, n)

    @pytest.mark.parametrize("m", range(-1, 15))
    def test_matches_q_pascal(self, m):
        for n in range(-1, 15):
            assert as_dict(qbinomial(m, n)) == qbinomial_pascal(m, n)

    def test_q1_large_boxes(self):
        # every width up to 60 against heights spread over 0..60, so both
        # orders of (m, n) occur and the coefficients are large integers
        for m in range(61):
            for n in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 60):
                assert at_one(qbinomial(m, n)) == math.comb(m + n, n)

    def test_inverse_shift_identity(self):
        # qbin with q -> 1/q picks up exactly q^{-mp}
        for m in range(5):
            for p in range(5):
                assert invert_q(qbinomial(p, m)) == \
                    q_power(-m * p) * qbinomial(p, m)


class TestQMultinomial:
    def test_pair(self):
        assert qmultinomial(2, [1, 1]) == P({0: 1, 1: 1})
        assert qmultinomial(2, [1, 1]) == qbinomial(1, 1) * qbinomial(0, 0)

    def test_trivial(self):
        assert qmultinomial(3, [3, 0]) == ONE

    def test_q1_value(self):
        assert at_one(qmultinomial(3, [1, 1, 1])) == 6

    def test_bad_parts_zero(self):
        # a negative part, or parts that miss the total
        for total, parts in ((3, [2, 2]), (3, [4, -1]), (4, [3, -1, 2]),
                             (0, [1, -1]), (-1, []), (-2, [-2]), (2, [1, 2]),
                             (1, []), (0, [0, 1])):
            assert qmultinomial(total, parts) == ZERO, (total, parts)

    def test_matches_product_of_binomials(self):
        # the steps start from the largest part; the oracle multiplies the
        # q-Pascal binomials [rem; p] in the order given
        rng = random.Random(16)
        cases = [[], [0], [0, 0], [4, 0, 0], [0, 3, 0, 2], [1, 4, 2]]
        for _ in range(200):
            cases.append([rng.choice((0, 0, 1, 2, 3, 5))
                          for _ in range(rng.randint(1, 5))])
        for parts in cases:
            want, rem = ONE, sum(parts)
            for p in parts:
                want = want * P(qbinomial_pascal(rem - p, p))
                rem -= p
            assert qmultinomial(sum(parts), iter(parts)) == want, parts

    def test_q1_matches_multinomial(self):
        for total in range(11):
            for a in range(total + 1):
                for b in range(total - a + 1):
                    parts = [a, b, total - a - b]
                    want = (math.factorial(total)
                            // math.prod(math.factorial(x) for x in parts))
                    assert at_one(qmultinomial(total, parts)) == want


class TestTruncatedSeries:
    """Division by (1 - q^k) with a cutoff: power series kept through
    q^cutoff, by the one-coefficient-at-a-time oracle."""

    def test_rr1_product_reciprocal(self):
        out = ONE
        for k in (1, 4, 6):
            out = div_one_minus_q_by_coefficient(out, k, 5)
        assert [out.coeff(e) for e in range(6)] == [1, 1, 1, 1, 2, 2]
        assert out.degree() == 5

    def test_empty_progressions(self):
        # no factor at or below the cutoff: the series is 1
        assert ONE.truncate(4) == ONE
        assert div_one_minus_q_by_coefficient(ONE, 5, 4) == ONE

    def test_plain_product(self):
        assert pochhammer(2).truncate(2) == P({0: 1, 1: -1, 2: -1})

    def test_reciprocal_roundtrip(self):
        inv = ONE
        for k in range(1, 31):
            inv = div_one_minus_q_by_coefficient(inv, k, 30)
        assert (pochhammer(30) * inv).truncate(30) == ONE

    def test_rejects_bad_input(self):
        for k in (0, -1):
            with pytest.raises(ValueError):
                div_one_minus_q_by_coefficient(ONE, k, 5)
            with pytest.raises(ValueError):
                div_one_minus_q_by_coefficient(ONE, k)

    def test_exactness_vs_poly(self):
        # on a multiple the series quotient is the exact quotient
        p = pochhammer(3) * P({0: 2, 4: -1})
        assert div_one_minus_q_by_coefficient(p, 2, 40) == \
            div_one_minus_q_by_coefficient(p, 2)
        # and a series truncation of an exact product keeps its terms
        assert all(pochhammer(3).truncate(3).coeff(e) == pochhammer(3).coeff(e)
                   for e in range(4))

    def test_below_the_lowest_term(self):
        assert div_one_minus_q_by_coefficient(q_power(3), 1, 2) == ZERO
        assert div_one_minus_q_by_coefficient(P({-2: 1}), 1, 0) == \
            P({-2: 1, -1: 1, 0: 1})
