from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from crystalsums import fermionic
from crystalsums.cartan import cartan_data
from crystalsums.crystal import FactorDescriptor, enumerate_paths
from crystalsums.energy import direct_sum
from crystalsums.errors import (CapExceeded, CrystalSumsError,
                                NonIntegralExponent)
from crystalsums.fermionic import (_signed_minima, cc_stat, cc_theta,
                                   closed_form_F, closed_form_F_level,
                                   config_sizes, cst_enumerate, enumerate_rc,
                                   level_restricted, rc_generating_function,
                                   theta, vacancy, vacuum_weight)
from crystalsums.qpoly import ONE, ZERO, q_power

from oracles import (dominant_contents_A, dominant_weights_C,
                     level_rc_sum_by_configurations, rc_sum_by_configurations)

A1 = cartan_data("A", 1)
A2 = cartan_data("A", 2)
C2 = cartan_data("C", 2)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


class TestClosedForm:
    def test_a1_two_boxes(self):
        assert closed_form_F(A1, {(1, 1): 2}, (1, 1)) == q_power(1)

    def test_highest_weight_is_one(self):
        assert closed_form_F(A1, {(1, 1): 3}, (3, 0)) == ONE
        assert closed_form_F(A2, {(2, 1): 2}, (2, 2, 0)) == ONE

    def test_a2_three_boxes(self):
        # must equal the direct coenergy sum (path oracle)
        want = direct_sum(boxes("A", 2, 3), (1, 1, 1), "classical", "coenergy")
        assert closed_form_F(A2, {(1, 1): 3}, (1, 1, 1)) == want

    def test_infeasible_weight_is_zero(self):
        assert closed_form_F(A1, {(1, 1): 2}, (0, 0)) == ZERO
        assert closed_form_F(C2, {(1, 1): 3}, (0, 0)) == ZERO

    def test_content_sum_off_the_box_count_is_zero(self):
        # B^{2,1} B^{1,2} (B^{1,1})^4 has 2 + 2 + 4 = 8 boxes, and the
        # content (4, 3, 2) fills 9: no path has this weight
        Lmap = {(2, 1): 1, (1, 2): 1, (1, 1): 4}
        assert closed_form_F(A2, Lmap, (4, 3, 2)) == ZERO
        assert rc_generating_function("A", 2, Lmap, (4, 3, 2)) == ZERO

    @pytest.mark.parametrize("n,maxL", [(1, 6), (2, 5)])
    def test_equals_rc_sum_type_A(self, n, maxL):
        for L in range(1, maxL + 1):
            Lmap = {(1, 1): L}
            for lam in dominant_contents_A(n, L):
                f = closed_form_F(cartan_data("A", n), Lmap, lam)
                assert f == rc_generating_function("A", n, Lmap, lam, "cc")
                assert f == rc_generating_function("A", n, Lmap, lam)

    @pytest.mark.parametrize("n,maxL", [(1, 5), (2, 4)])
    def test_equals_rc_sum_type_C(self, n, maxL):
        for L in range(1, maxL + 1):
            Lmap = {(1, 1): L}
            for lam in dominant_weights_C(n, L):
                f = closed_form_F(cartan_data("C", n), Lmap, lam)
                assert f == rc_generating_function("C", n, Lmap, lam, "cc")
                assert f == rc_generating_function("C", n, Lmap, lam)

    def test_mixed_columns_type_C(self):
        # B^{2,1} (x) B^{1,1} of C_2: the two rigged statistics agree
        Lmap = {(2, 1): 1, (1, 1): 1}
        # no closed-form supernomial for this shape: check cc vs cc_theta
        for lam in [(1, 0), (2, 1), (1, 2)]:
            lam = tuple(sorted(lam, reverse=True))
            f = closed_form_F(C2, Lmap, lam)
            assert f == rc_generating_function("C", 2, Lmap, lam)


class TestRiggedConfigurations:
    def test_a1_unique_rc(self):
        rcs = enumerate_rc("A", 1, {(1, 1): 2}, (1, 1))
        assert len(rcs) == 1
        assert rcs[0].nu == ((1,),)
        assert rcs[0].riggings == (((1, 1), ()),)

    def test_counts_match_multiplicities(self):
        for kind, n, maxL in (("A", 1, 6), ("A", 2, 5), ("C", 2, 4)):
            for L in range(1, maxL + 1):
                lams = (dominant_contents_A(n, L) if kind == "A"
                        else dominant_weights_C(n, L))
                for lam in lams:
                    rcs = enumerate_rc(kind, n, {(1, 1): L}, lam)
                    paths = enumerate_paths(boxes(kind, n, L), lam,
                                            "classical")
                    assert len(rcs) == len(paths), (kind, n, L, lam)

    def test_highest_weight_single_empty(self):
        rcs = enumerate_rc("A", 2, {(1, 1): 3}, (3, 0, 0))
        assert len(rcs) == 1 and all(row == () for row in rcs[0].nu)

    def test_type_c_even_parts(self):
        for L in (2, 3, 4):
            for lam in dominant_weights_C(2, L):
                for rc in enumerate_rc("C", 2, {(1, 1): L}, lam):
                    assert all(p % 2 == 0 for p in rc.nu[-1])

    def test_vacancy_nonnegative_on_occupied(self):
        for rc in enumerate_rc("A", 2, {(1, 1): 5}, (2, 2, 1)):
            for (a, i), _ in rc.riggings:
                assert vacancy(A2, {(1, 1): 5}, rc.nu, a, i) >= 0

    def test_odd_long_row_vacancy_raises(self):
        # C_1 has only the long row: P = Q_i(()) - Q_i(nu) + L min(i, 2) / 2
        C1 = cartan_data("C", 1)
        assert vacancy(C1, {(1, 1): 3}, ((2,),), 1, 2) == 1
        with pytest.raises(NonIntegralExponent):
            vacancy(C1, {(1, 1): 3}, ((2,),), 1, 1)
        assert vacancy(C1, {(1, 1): 4}, ((2,),), 1, 1) == 1

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(fermionic, "RC_CAP", 3)
        with pytest.raises(CapExceeded):
            enumerate_rc("A", 1, {(1, 1): 12}, (6, 6))


class TestTheta:
    def test_complement_of_zero_riggings(self):
        Lmap = {(1, 1): 4}
        for rc in enumerate_rc("A", 1, Lmap, (2, 2)):
            zero = all(sum(J) == 0 for _, J in rc.riggings)
            if zero:
                t = theta(rc, Lmap)
                for (a, i), J in t.riggings:
                    p = int(vacancy(A1, Lmap, rc.nu, a, i))
                    m = sum(1 for x in rc.nu[a - 1] if x == i)
                    assert J == tuple([p] * m if p else [])

    @pytest.mark.parametrize("kind,n,L,lam", [
        ("A", 1, 4, (2, 2)), ("A", 2, 4, (2, 1, 1)), ("C", 2, 4, (1, 1))])
    def test_involution_and_statistic(self, kind, n, L, lam):
        Lmap = {(1, 1): L}
        for rc in enumerate_rc(kind, n, Lmap, lam):
            t = theta(rc, Lmap)
            assert theta(t, Lmap) == rc
            assert cc_stat(t) == cc_theta(rc, Lmap)
            # cc(theta) = cc(nu) + sum P m - sum |J|
            base = cc_stat(rc) - sum(sum(J) for _, J in rc.riggings)
            pm = sum(int(vacancy(cartan_data(kind, n), Lmap, rc.nu, a, i))
                     * sum(1 for x in rc.nu[a - 1] if x == i)
                     for (a, i), _ in rc.riggings)
            assert cc_stat(t) == base + pm - \
                sum(sum(J) for _, J in rc.riggings)


def _dominant(kind, n, Lmap):
    if kind == "C":
        return dominant_weights_C(n, sum(Lmap.values()))
    return dominant_contents_A(n, sum(a * i * m for (a, i), m in Lmap.items()))


class TestShapeSums:
    """The rc route sums the riggings of each admitted shape without
    building configurations; the oracles sum over RiggedConfigurations."""

    CASES = [("A", 1, 8), ("A", 2, 6), ("C", 2, 6), ("C", 3, 4)]
    MIXED = [("A", 2, {(2, 1): 1, (1, 1): 3}), ("A", 2, {(1, 2): 2, (1, 1): 2}),
             ("A", 3, {(2, 1): 1, (3, 1): 1, (1, 1): 2}),
             ("C", 2, {(2, 1): 1, (1, 1): 3})]

    def inputs(self, kind, n, maxL):
        for L in range(maxL + 1):
            Lmap = {(1, 1): L}
            for lam in _dominant(kind, n, Lmap):
                yield Lmap, lam

    @pytest.mark.parametrize("kind,n,maxL", CASES)
    def test_generating_function_matches_configurations(self, kind, n, maxL):
        count = 0
        for Lmap, lam in self.inputs(kind, n, maxL):
            for statistic in ("cc_theta", "cc"):
                want = rc_sum_by_configurations(kind, n, Lmap, lam, statistic)
                assert rc_generating_function(kind, n, Lmap, lam,
                                              statistic) == want, (Lmap, lam)
                count += not want.is_zero()
        assert count > 10

    def test_generating_function_on_mixed_shapes(self):
        for kind, n, Lmap in self.MIXED:
            for lam in _dominant(kind, n, Lmap):
                for statistic in ("cc_theta", "cc"):
                    assert rc_generating_function(kind, n, Lmap, lam,
                                                  statistic) == \
                        rc_sum_by_configurations(kind, n, Lmap, lam,
                                                 statistic), (Lmap, lam)

    @pytest.mark.parametrize("level", [1, 2, 3])
    @pytest.mark.parametrize("kind,n,maxL", CASES)
    def test_level_rc_sum_matches_configurations(self, kind, n, maxL, level):
        data = cartan_data(kind, n)
        count = 0
        for Lmap, lam in self.inputs(kind, n, maxL):
            if data.theta_pairing(lam) > level:
                continue
            want = level_rc_sum_by_configurations(kind, n, Lmap, lam, level)
            assert level_restricted(kind, n, Lmap, lam, level,
                                    "rc_sum") == want, (Lmap, lam)
            count += not want.is_zero()
        assert count > 5

    def test_level_rc_sum_on_mixed_shapes(self):
        for kind, n, Lmap in self.MIXED[:3]:
            data = cartan_data(kind, n)
            for level in (2, 3):
                for lam in _dominant(kind, n, Lmap):
                    if data.theta_pairing(lam) <= level:
                        assert level_restricted(
                            kind, n, Lmap, lam, level, "rc_sum") == \
                            level_rc_sum_by_configurations(
                                kind, n, Lmap, lam, level), (Lmap, lam)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(fermionic, "RC_CAP", 3)
        with pytest.raises(CapExceeded):
            rc_generating_function("A", 1, {(1, 1): 12}, (6, 6))
        with pytest.raises(CapExceeded):
            level_restricted("A", 1, {(1, 1): 12}, (6, 6), 3, "rc_sum")


class TestLevelForms:
    def test_vacuum_weight(self):
        assert vacuum_weight(A1, {(1, 1): 4}) == (2, 2)
        assert vacuum_weight(A2, {(1, 1): 4}) is None
        assert vacuum_weight(C2, {(1, 1): 3}) == (0, 0)

    def test_level_form_a1(self):
        assert closed_form_F_level(A1, {(1, 1): 2}, 1) == q_power(1)

    def test_level_form_stabilizes(self):
        for L in (2, 4, 6):
            Lmap = {(1, 1): L}
            big = closed_form_F_level(A1, Lmap, L)
            assert big == closed_form_F(A1, Lmap, (L // 2, L // 2))

    def test_level_restricted_A_modes_agree(self):
        for n, maxL, ells in ((1, 6, (1, 2)), (2, 4, (1,))):
            for L in range(1, maxL + 1):
                Lmap = {(1, 1): L}
                for lam in dominant_contents_A(n, L):
                    for ell in ells:
                        if lam[0] - lam[n] > ell:
                            continue
                        a = level_restricted("A", n, Lmap, lam, ell, "rc_sum")
                        b = level_restricted("A", n, Lmap, lam, ell,
                                             "closed_form")
                        assert a == b, (n, L, lam, ell)

    def test_level_restricted_A_matches_paths(self):
        for L in range(1, 7):
            for lam in dominant_contents_A(1, L):
                for ell in (1, 2):
                    if lam[0] - lam[1] > ell:
                        continue
                    want = direct_sum(boxes("A", 1, L), lam, "level",
                                      "coenergy", ell)
                    got = level_restricted("A", 1, {(1, 1): L}, lam, ell)
                    assert got == want, (L, lam, ell)

    def test_rectangular_weight_uses_plain_vacancies(self):
        # lambda = (m^{n+1}): no tableaux corrections, matches the vacuum form
        got = level_restricted("A", 1, {(1, 1): 4}, (2, 2), 1)
        assert got == closed_form_F_level(A1, {(1, 1): 4}, 1)

    def test_monotone_in_level(self):
        for L in (4, 6):
            Lmap = {(1, 1): L}
            lam = (L // 2, L // 2)
            lo = level_restricted("A", 1, Lmap, lam, 1)
            hi = level_restricted("A", 1, Lmap, lam, 2)
            full = closed_form_F(A1, Lmap, lam)
            for e, c in lo.terms:
                assert c <= hi.coeff(e)
            for e, c in hi.terms:
                assert c <= full.coeff(e)

    def test_level_bound_error(self):
        with pytest.raises(CrystalSumsError):
            level_restricted("A", 1, {(1, 1): 4}, (3, 1), 1)
        with pytest.raises(CrystalSumsError):
            level_restricted("C", 2, {(1, 1): 2}, (2, 0), 1)

    def test_level_restricted_C_modes_and_bosonic(self):
        from crystalsums.bosonic import bosonic_level
        for n in (1, 2):
            for L in range(1, 5):
                for lam in dominant_weights_C(n, L):
                    if lam and lam[0] > 1:
                        continue
                    Lmap = {(1, 1): L}
                    a = level_restricted("C", n, Lmap, lam, 1, "rc_sum")
                    b = level_restricted("C", n, Lmap, lam, 1, "closed_form")
                    c = bosonic_level(boxes("C", n, L), lam, 1)
                    assert a == b == c, (n, L, lam)

    @pytest.mark.parametrize("level", [2, 3])
    def test_level_restricted_C_above_level_one(self, level):
        # from level 2 on, long-row corrections f/2 can be half-integers
        from crystalsums.bosonic import bosonic_level
        for n, maxL in ((1, 6), (2, 5)):
            for L in range(1, maxL + 1):
                Lmap = {(1, 1): L}
                for lam in dominant_weights_C(n, L):
                    if lam[0] > level:
                        continue
                    a = level_restricted("C", n, Lmap, lam, level, "rc_sum")
                    b = level_restricted("C", n, Lmap, lam, level,
                                         "closed_form")
                    c = bosonic_level(boxes("C", n, L), lam, level)
                    assert a == b == c, (n, L, lam, level)

    @pytest.mark.parametrize("mode", ["rc_sum", "closed_form"])
    def test_non_dominant_weight_is_zero(self, mode):
        # the closed form used to raise on these from a column height check
        for kind, n, L, lam, ell in (("C", 2, 3, (1, 2), 2),
                                     ("C", 2, 2, (1, -1), 2),
                                     ("C", 2, 4, (1, -1), 2),
                                     ("A", 1, 3, (1, 2), 2)):
            got = level_restricted(kind, n, {(1, 1): L}, lam, ell, mode)
            assert got == ZERO, (kind, n, L, lam, ell)
        for kind, n, maxL in (("A", 1, 5), ("A", 2, 4), ("C", 1, 5),
                              ("C", 2, 4)):
            data = cartan_data(kind, n)
            for L in range(1, maxL + 1):
                rng = range(L + 1) if kind == "A" else range(-L, L + 1)
                for lam in product(rng, repeat=data.dim):
                    weight_level = lam[0] - lam[-1] if kind == "A" else lam[0]
                    if data.is_dominant(lam) or weight_level > 2:
                        continue
                    got = level_restricted(kind, n, {(1, 1): L}, lam, 2, mode)
                    assert got == ZERO, (kind, n, L, lam)

    def test_level_restricted_C_empty_weight_reduces(self):
        for L in (2, 4):
            got = level_restricted("C", 2, {(1, 1): L}, (0, 0), 1)
            assert got == closed_form_F_level(C2, {(1, 1): L}, 1)

    def test_level_restricted_C_stabilizes(self):
        for L in (2, 3):
            for lam in dominant_weights_C(2, L):
                got = level_restricted("C", 2, {(1, 1): L}, lam, L + 2)
                want = rc_generating_function("C", 2, {(1, 1): L}, lam)
                assert got == want


class TestSignedMinima:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (-1, 2),
                                     (2, -1)]),
                    min_size=1, max_size=8))
    def test_matches_every_subset(self, vectors):
        # repeats included: k copies of a vector sum to one copy
        want: dict = {}
        for size in range(1, len(vectors) + 1):
            for subset in combinations(vectors, size):
                m = tuple(min(col) for col in zip(*subset))
                want[m] = want.get(m, 0) + (-1) ** (size + 1)
        assert _signed_minima(vectors) == {m: k for m, k in want.items() if k}


class TestCST:
    def test_empty_shape(self):
        assert cst_enumerate((), 3) == [()]

    def test_forced_column(self):
        assert cst_enumerate((1, 1, 1), 3) == [((1,), (2,), (3,))]

    def test_column_choices(self):
        assert len(cst_enumerate((1, 1), 3)) == 3

    def test_row_weakly_increasing(self):
        for t in cst_enumerate((2, 1), 3):
            assert t[0][0] <= t[0][1]
            assert t[0][0] < t[1][0]


class TestSizes:
    def test_config_sizes(self):
        assert config_sizes(A1, {(1, 1): 4}, (2, 2)) == (2,)
        assert config_sizes(A1, {(1, 1): 4}, (3, 1)) == (1,)
        assert config_sizes(A1, {(1, 1): 4}, (4, 0)) == (0,)
        assert config_sizes(C2, {(1, 1): 2}, (0, 0)) == (2, 2)
        assert config_sizes(C2, {(1, 1): 1}, (1, 0)) == (0, 0)
        # an odd long-row size is infeasible
        assert config_sizes(C2, {(1, 1): 1}, (0, 0)) is None
        # so is a negative row size
        assert config_sizes(A1, {(1, 1): 2}, (3, -1)) is None
        # and a type A content that does not fill the boxes exactly
        assert config_sizes(A1, {(1, 1): 2}, (2, 1)) is None
