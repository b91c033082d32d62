from itertools import combinations, islice, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from crystalsums import fermionic
from crystalsums.cartan import cartan_data, shape_type
from crystalsums.cli import parse_shape
from crystalsums.crystal import FactorDescriptor, enumerate_paths
from crystalsums.energy import direct_sum
from crystalsums.errors import CapExceeded, NonIntegralExponent
from crystalsums.bosonic import alternating_sum
from crystalsums.fermionic import (_admitted_shapes, _generic_grid,
                                   _grid_row_sites, _live_shapes,
                                   _occupied_row_sites, _rc_row,
                                   _signed_minima, closed_form_F,
                                   closed_form_F_level, config_sizes,
                                   cst_enumerate, rc_generating_function,
                                   vacancy, vacuum_weight)
from crystalsums.partitions import conjugate, partitions_of
from crystalsums.qpoly import ONE, ZERO, q_power

from oracles import (admitted_by_product, cc_stat, cc_theta,
                     closed_form_F_by_product, closed_form_F_level_by_product,
                     dominant_contents_A, dominant_weights_C, enumerate_rc,
                     column_count, generic_m, level_closed_form_by_product,
                     level_rc_sum_by_configurations, live_shapes_plain,
                     rc_sum_by_configurations, theta, vacancy_by_columns,
                     vacancy_by_form)

A1 = cartan_data("A", 1)
A2 = cartan_data("A", 2)
C2 = cartan_data("C", 2)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


class TestClosedForm:
    def test_a1_two_boxes(self):
        assert closed_form_F("A", 1, {(1, 1): 2}, (1, 1)) == q_power(1)

    def test_highest_weight_is_one(self):
        assert closed_form_F("A", 1, {(1, 1): 3}, (3, 0)) == ONE
        assert closed_form_F("A", 2, {(2, 1): 2}, (2, 2, 0)) == ONE

    def test_a2_three_boxes(self):
        # must equal the direct coenergy sum (path oracle)
        want = direct_sum(boxes("A", 2, 3), (1, 1, 1), "classical")
        assert closed_form_F("A", 2, {(1, 1): 3}, (1, 1, 1)) == want

    def test_infeasible_weight_is_zero(self):
        assert closed_form_F("A", 1, {(1, 1): 2}, (0, 0)) == ZERO
        assert closed_form_F("C", 2, {(1, 1): 3}, (0, 0)) == ZERO

    def test_content_sum_off_the_box_count_is_zero(self):
        # B^{2,1} B^{1,2} (B^{1,1})^4 has 2 + 2 + 4 = 8 boxes, and the
        # content (4, 3, 2) fills 9: no path has this weight
        Lmap = {(2, 1): 1, (1, 2): 1, (1, 1): 4}
        assert closed_form_F("A", 2, Lmap, (4, 3, 2)) == ZERO
        assert rc_generating_function("A", 2, Lmap, (4, 3, 2)) == ZERO

    @pytest.mark.parametrize("n,maxL", [(1, 6), (2, 5)])
    def test_equals_rc_sum_type_A(self, n, maxL):
        for L in range(1, maxL + 1):
            Lmap = {(1, 1): L}
            for lam in dominant_contents_A(n, L):
                f = closed_form_F("A", n, Lmap, lam)
                assert f == rc_sum_by_configurations("A", n, Lmap, lam, "cc")
                assert f == rc_generating_function("A", n, Lmap, lam)

    @pytest.mark.parametrize("n,maxL", [(1, 5), (2, 4)])
    def test_equals_rc_sum_type_C(self, n, maxL):
        for L in range(1, maxL + 1):
            Lmap = {(1, 1): L}
            for lam in dominant_weights_C(n, L):
                f = closed_form_F("C", n, Lmap, lam)
                assert f == rc_sum_by_configurations("C", n, Lmap, lam, "cc")
                assert f == rc_generating_function("C", n, Lmap, lam)

    def test_mixed_columns_type_C(self):
        # B^{2,1} (x) B^{1,1} of C_2: the two rigged statistics agree
        Lmap = {(2, 1): 1, (1, 1): 1}
        # no closed-form supernomial for this shape: check cc vs cc_theta
        for lam in [(1, 0), (2, 1), (1, 2)]:
            lam = tuple(sorted(lam, reverse=True))
            f = closed_form_F("C", 2, Lmap, lam)
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
        # the row tables keep the same halving
        assert fermionic._rc_row(C1, {(1, 1): 3}, lambda a, row: [2], {},
                                 ((2,),), 1) == [(1, 2, 1, 1)]
        with pytest.raises(NonIntegralExponent):
            fermionic._rc_row(C1, {(1, 1): 3}, lambda a, row: [1], {},
                              ((2,),), 1)

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
                assert rc_generating_function(kind, n, Lmap, lam) == want, \
                    (Lmap, lam, statistic)
                count += not want.is_zero()
        assert count > 10

    def test_generating_function_on_mixed_shapes(self):
        for kind, n, Lmap in self.MIXED:
            for lam in _dominant(kind, n, Lmap):
                for statistic in ("cc_theta", "cc"):
                    assert rc_generating_function(kind, n, Lmap, lam) == \
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
            assert rc_generating_function(kind, n, Lmap, lam,
                                          level) == want, (Lmap, lam)
            count += not want.is_zero()
        assert count > 5

    def test_level_rc_sum_on_mixed_shapes(self):
        for kind, n, Lmap in self.MIXED[:3]:
            data = cartan_data(kind, n)
            for level in (2, 3):
                for lam in _dominant(kind, n, Lmap):
                    if data.theta_pairing(lam) <= level:
                        assert rc_generating_function(
                            kind, n, Lmap, lam, level) == \
                            level_rc_sum_by_configurations(
                                kind, n, Lmap, lam, level), (Lmap, lam)

    # a type A determinant column B^{n+1,1} is an ordinary key of L, and
    # the weight is not shifted: the column adds one to every content
    # and every row size, and to no vacancy
    @pytest.mark.parametrize("spec", ["A:1;2,1,1,1*3", "A:2;3,1,2,1,1,1*2",
                                      "A:2;3,1*2,1,2", "A:3;4,1,2,1,1,1"])
    def test_determinant_columns_are_ordinary_factors(self, spec):
        shape = parse_shape(spec)
        kind, n, Lmap = shape_type(shape)
        assert (n + 1, 1) in Lmap
        widest = max(s for _, s in Lmap)
        count = 0
        for lam in _dominant(kind, n, Lmap):
            for level in (None, 1, 2):
                if level is not None and level < widest:
                    continue
                want = direct_sum(shape, lam, "classical" if level is None
                                  else "level", level)
                assert closed_form_F(kind, n, Lmap, lam, level) == want, \
                    (lam, level)
                assert rc_generating_function(kind, n, Lmap, lam,
                                              level) == want, (lam, level)
                count += not want.is_zero()
        assert count > 1

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(fermionic, "RC_CAP", 3)
        with pytest.raises(CapExceeded):
            rc_generating_function("A", 1, {(1, 1): 12}, (6, 6))
        with pytest.raises(CapExceeded):
            rc_generating_function("A", 1, {(1, 1): 12}, (6, 6), 3)


class TestLiveShapes:
    """The row-by-row walk drops a prefix at its first dead row; the
    oracles list the full product of per-row partitions and test whole
    shapes."""

    # (kind, n, factor shapes (a, i), largest number of factors)
    SHAPES = [("A", 1, ((1, 1),), 6), ("A", 1, ((1, 2), (1, 1)), 4),
              ("A", 2, ((1, 1),), 5), ("A", 2, ((1, 2), (1, 1)), 3),
              ("A", 2, ((2, 1), (1, 1)), 4), ("A", 3, ((1, 1),), 5),
              ("A", 3, ((1, 2), (2, 1)), 2), ("A", 3, ((2, 1), (3, 1)), 3),
              ("C", 1, ((1, 1),), 7), ("C", 2, ((1, 1),), 6),
              ("C", 2, ((2, 1), (1, 1)), 3), ("C", 3, ((1, 1),), 5),
              ("C", 3, ((2, 1), (1, 1)), 3)]

    def inputs(self, kind, n, factors, most):
        """Every multiplicity map of the factor shapes with up to ``most``
        factors, with every dominant weight of its size."""
        data = cartan_data(kind, n)
        for mults in product(range(most + 1), repeat=len(factors)):
            if not 0 < sum(mults) <= most:
                continue
            Lmap = {f: m for f, m in zip(factors, mults) if m}
            size = sum(a * i * m for (a, i), m in Lmap.items())
            lams = (dominant_contents_A(n, size) if kind == "A"
                    else dominant_weights_C(n, size))
            for lam in lams:
                yield data, Lmap, lam

    @pytest.mark.parametrize("kind,n,factors,most", SHAPES)
    def test_admitted_shapes_match_product(self, kind, n, factors, most):
        count = 0
        for data, Lmap, lam in self.inputs(kind, n, factors, most):
            for max_part in (None, 1, 2, 3):
                want = admitted_by_product(data, Lmap, lam, max_part)
                got = list(_admitted_shapes(data, Lmap, lam, max_part))
                assert got == want, (Lmap, lam, max_part)
                count += len(want)
        assert count > 10

    @staticmethod
    def row_functions(data, Lmap):
        """Fresh row functions of the rigged-configuration walk and of the
        classical closed form, each counting its calls."""
        memo: dict = {}

        def rc(nu, a):
            sites = _rc_row(data, Lmap, lambda a, row: sorted(set(row)),
                            memo, nu, a)
            return None if any(p < 0 for *_, p in sites) else sites

        for row_sites in (rc, _occupied_row_sites(data, Lmap)):
            calls = []

            def counted(nu, a, row_sites=row_sites, calls=calls):
                calls.append(a)
                return row_sites(nu, a)
            yield counted, calls

    @pytest.mark.parametrize("kind,n,factors,most", SHAPES)
    def test_look_ahead_keeps_shapes_and_checks_no_more(self, kind, n,
                                                        factors, most):
        # the walk yields what the walk without its look-ahead yields, in
        # the same order, and never checks a row more often
        for data, Lmap, lam in self.inputs(kind, n, factors, most):
            sizes = config_sizes(data, Lmap, lam)
            if sizes is None:
                continue
            for max_part in (None, 1, 2, 3):
                plain = self.row_functions(data, Lmap)
                ahead = self.row_functions(data, Lmap)
                for (f, plain_calls), (g, calls) in zip(plain, ahead):
                    want = list(live_shapes_plain(data, sizes, f, max_part))
                    got = list(_live_shapes(data, sizes, g, max_part))
                    assert got == want, (Lmap, lam, max_part)
                    assert len(calls) <= len(plain_calls), (Lmap, lam)

    def test_look_ahead_drops_dead_prefixes_early(self):
        # C_3, (B^{1,1})^8, weight 0: 16 shapes from 1,039 row checks of
        # the classical closed form, where the plain walk makes 1,971
        data = cartan_data("C", 3)
        Lmap = {(1, 1): 8}
        sizes = config_sizes(data, Lmap, (0, 0, 0))
        _, (f, plain_calls) = self.row_functions(data, Lmap)
        _, (g, calls) = self.row_functions(data, Lmap)
        want = list(live_shapes_plain(data, sizes, f))
        assert list(_live_shapes(data, sizes, g)) == want
        assert (len(want), len(calls), len(plain_calls)) == (16, 1039, 1971)

    def test_empty_long_row(self):
        # parts at most 1 leave the type C long row of size 2 no partition:
        # the walk drops row 1 without checking it
        data = cartan_data("C", 2)
        Lmap = {(1, 1): 4}
        for (f, plain_calls), (g, calls) in zip(
                self.row_functions(data, Lmap), self.row_functions(data, Lmap)):
            assert list(_live_shapes(data, (2, 2), g, 1)) == []
            assert list(live_shapes_plain(data, (2, 2), f, 1)) == []
            assert calls == plain_calls == []
        assert [nu for nu, _ in _live_shapes(data, (2, 2),
                                             lambda nu, a: [], 2)] == \
            [((2,), (2,)), ((1, 1), (2,))]

    @pytest.mark.parametrize("kind,n,factors,most", SHAPES)
    def test_closed_form_F_matches_product(self, kind, n, factors, most):
        count = 0
        for data, Lmap, lam in self.inputs(kind, n, factors, most):
            want = closed_form_F_by_product(data, Lmap, lam)
            assert closed_form_F(kind, n, Lmap, lam) == want, (Lmap, lam)
            count += not want.is_zero()
        assert count > 5

    @pytest.mark.parametrize("kind,n,factors,most", SHAPES)
    def test_level_forms_match_product(self, kind, n, factors, most):
        count = 0
        for data, Lmap, lam in self.inputs(kind, n, factors, most):
            for level in (1, 2) if (kind, n) == ("C", 3) else (1, 2, 3):
                if any(i > data.t[a - 1] * level for a, i in Lmap):
                    continue
                if lam == vacuum_weight(data, Lmap):
                    assert closed_form_F_level(data, Lmap, level) == \
                        closed_form_F_level_by_product(data, Lmap, level), \
                        (Lmap, level)
                if data.theta_pairing(lam) > level or any(i > level
                                                          for _, i in Lmap):
                    continue
                want = level_closed_form_by_product(kind, n, Lmap, lam, level)
                assert closed_form_F(kind, n, Lmap, lam, level) == want, \
                    (Lmap, lam, level)
                count += not want.is_zero()
        assert count > 5


@st.composite
def factors_and_weights(draw):
    """Root data, a multiplicity map of at most 12 boxes and a weight of
    the right length: any content of the boxes for type A, any small
    vector for type C (so the row sizes may be inadmissible)."""
    kind = draw(st.sampled_from("AC"))
    n = draw(st.integers(1, 3))
    keys = ([(a, i) for a in range(1, n + 2) for i in (1, 2)]
            if kind == "A" else [(a, 1) for a in range(1, n + 1)])
    chosen = draw(st.lists(st.sampled_from(keys), min_size=1, max_size=2,
                           unique=True))
    Lmap = {key: draw(st.integers(1, 3)) for key in chosen}
    size = sum(a * i * m for (a, i), m in Lmap.items())
    assume(size <= 12)
    if kind == "A":
        cuts = sorted(draw(st.lists(st.integers(0, size), min_size=n,
                                    max_size=n)))
        lam = tuple(y - x for x, y in zip([0] + cuts, cuts + [size]))
    else:
        lam = tuple(draw(st.lists(st.integers(-2, 3), min_size=n,
                                  max_size=n)))
    return cartan_data(kind, n), Lmap, lam


class TestRowTables:
    """Each route's row function reads its vacancy numbers from per-row
    tables kept across the rows of a sum; the oracles sum every part of
    every row by the definitions."""

    @given(factors_and_weights(), st.integers(1, 2),
           st.lists(st.integers(-1, 2), min_size=12, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_row_functions_match_the_oracle_formulas(self, case, level,
                                                     tops):
        data, Lmap, lam = case
        sizes = config_sizes(data, Lmap, lam)
        assume(sizes is not None)
        n = data.n
        grid = _generic_grid(data, level)
        tops = tops[:len(grid)]
        by_row = [[(i, top) for (b, i), top in zip(grid, tops) if b == a]
                  for a in range(1, n + 1)]

        def every_size(a, row):  # odd ones too on the long row of type C
            return range(1, (row[0] if row else 0) + 2)

        # one row function per sum, fed shapes in product order
        rc_memo: dict = {}
        occupied = _occupied_row_sites(data, Lmap)
        on_grid = _grid_row_sites(data, Lmap, grid, tops)
        per_row = [tuple(tuple(2 * p for p in mu)
                         for mu in partitions_of(s // 2))
                   if data.kind == "C" and a == n else partitions_of(s)
                   for a, s in enumerate(sizes, start=1)]
        for nu in islice(product(*per_row), 40):
            gm = generic_m(data, nu)
            for a in range(1, n + 1):
                row = nu[a - 1]
                try:
                    want = [(a, i, row.count(i),
                             vacancy_by_columns(data, Lmap, nu, a, i))
                            for i in every_size(a, row)]
                except NonIntegralExponent:
                    with pytest.raises(NonIntegralExponent):
                        _rc_row(data, Lmap, every_size, rc_memo, nu, a)
                else:
                    assert _rc_row(data, Lmap, every_size, rc_memo, nu,
                                   a) == want, (nu, a)
                    assert [vacancy(data, Lmap, nu, a, i)
                            for _, i, _, _ in want] == [p for *_, p in want]
                scale = 2 if data.kind == "C" and a == n else 1
                want = [(vacancy_by_form(data, Lmap, gm, a, i // scale),
                         row.count(i)) for i in dict.fromkeys(row)]
                got = occupied(nu, a)
                assert got == (None if any(p < 0 for p, _ in want)
                               else want), (nu, a)
                want = [(vacancy_by_form(data, Lmap, gm, a, i),
                         gm[a - 1].get(i, 0)) for i, _ in by_row[a - 1]]
                dead = any(p + top < 0 for (p, _), (_, top)
                           in zip(want, by_row[a - 1]))
                assert on_grid(nu, a) == (None if dead else want), (nu, a)

    @given(st.lists(st.integers(1, 9), max_size=9))
    @settings(max_examples=200)
    def test_column_counts_match_the_definition(self, parts):
        # both tables rest on partitions.conjugate: Q_i sums the first i
        # column heights, which count the parts of size at least i
        mu = tuple(sorted(parts, reverse=True))
        heights = conjugate(mu)
        assert heights == tuple(sum(1 for p in mu if p >= i)
                                for i in range(1, (mu[0] if mu else 0) + 1))
        assert conjugate(heights) == mu
        counts = fermionic._column_counts(mu)
        assert counts == tuple(column_count(mu, i)
                               for i in range(len(heights) + 1))
        sums = fermionic._min_sums(tuple(2 * p for p in mu), 2, 3)
        assert sums == tuple(sum(min(x, 3 * p) for p in mu)
                             for x in range(3 * len(heights) + 1))


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
            assert big == closed_form_F("A", 1, Lmap, (L // 2, L // 2))

    def test_level_restricted_A_modes_agree(self):
        for n, maxL, ells in ((1, 6, (1, 2)), (2, 4, (1,))):
            for L in range(1, maxL + 1):
                Lmap = {(1, 1): L}
                for lam in dominant_contents_A(n, L):
                    for ell in ells:
                        if lam[0] - lam[n] > ell:
                            continue
                        a = rc_generating_function("A", n, Lmap, lam, ell)
                        b = closed_form_F("A", n, Lmap, lam, ell)
                        assert a == b, (n, L, lam, ell)

    def test_level_restricted_A_matches_paths(self):
        for L in range(1, 7):
            for lam in dominant_contents_A(1, L):
                for ell in (1, 2):
                    if lam[0] - lam[1] > ell:
                        continue
                    want = direct_sum(boxes("A", 1, L), lam, "level", ell)
                    got = rc_generating_function("A", 1, {(1, 1): L}, lam,
                                                 ell)
                    assert got == want, (L, lam, ell)

    def test_rectangular_weight_uses_plain_vacancies(self):
        # lambda = (m^{n+1}): no tableaux corrections, matches the vacuum form
        got = rc_generating_function("A", 1, {(1, 1): 4}, (2, 2), 1)
        assert got == closed_form_F_level(A1, {(1, 1): 4}, 1)

    def test_monotone_in_level(self):
        for L in (4, 6):
            Lmap = {(1, 1): L}
            lam = (L // 2, L // 2)
            lo = rc_generating_function("A", 1, Lmap, lam, 1)
            hi = rc_generating_function("A", 1, Lmap, lam, 2)
            full = closed_form_F("A", 1, Lmap, lam)
            for e, c in lo.terms:
                assert c <= hi.coeff(e)
            for e, c in hi.terms:
                assert c <= full.coeff(e)

    def test_level_bound_error(self):
        # a weight above the level, which once raised: the level sum is zero
        # by definition, as direct_sum finds
        for kind, n, L, lam in (("A", 1, 4, (3, 1)), ("C", 2, 2, (2, 0))):
            want = direct_sum(boxes(kind, n, L), lam, "level", 1)
            assert want == ZERO
            for route in (rc_generating_function, closed_form_F):
                assert route(kind, n, {(1, 1): L}, lam, 1) == want

    def test_level_restricted_C_modes_and_bosonic(self):
        for n in (1, 2):
            for L in range(1, 5):
                for lam in dominant_weights_C(n, L):
                    if lam and lam[0] > 1:
                        continue
                    Lmap = {(1, 1): L}
                    a = rc_generating_function("C", n, Lmap, lam, 1)
                    b = closed_form_F("C", n, Lmap, lam, 1)
                    c = alternating_sum(boxes("C", n, L), lam, 1)
                    assert a == b == c, (n, L, lam)

    @pytest.mark.parametrize("level", [2, 3])
    def test_level_restricted_C_above_level_one(self, level):
        # from level 2 on, long-row corrections f/2 can be half-integers
        for n, maxL in ((1, 6), (2, 5)):
            for L in range(1, maxL + 1):
                Lmap = {(1, 1): L}
                for lam in dominant_weights_C(n, L):
                    if lam[0] > level:
                        continue
                    a = rc_generating_function("C", n, Lmap, lam, level)
                    b = closed_form_F("C", n, Lmap, lam, level)
                    c = alternating_sum(boxes("C", n, L), lam, level)
                    assert a == b == c, (n, L, lam, level)

    @pytest.mark.parametrize("route", [rc_generating_function, closed_form_F],
                             ids=["rc_sum", "closed_form"])
    def test_non_dominant_weight_is_zero(self, route):
        # the closed form used to raise on these from a column height check
        for kind, n, L, lam, ell in (("C", 2, 3, (1, 2), 2),
                                     ("C", 2, 2, (1, -1), 2),
                                     ("C", 2, 4, (1, -1), 2),
                                     ("A", 1, 3, (1, 2), 2)):
            got = route(kind, n, {(1, 1): L}, lam, ell)
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
                    got = route(kind, n, {(1, 1): L}, lam, 2)
                    assert got == ZERO, (kind, n, L, lam)

    def test_level_restricted_C_empty_weight_reduces(self):
        for L in (2, 4):
            got = rc_generating_function("C", 2, {(1, 1): L}, (0, 0), 1)
            assert got == closed_form_F_level(C2, {(1, 1): L}, 1)

    def test_level_restricted_C_stabilizes(self):
        for L in (2, 3):
            for lam in dominant_weights_C(2, L):
                got = rc_generating_function("C", 2, {(1, 1): L}, lam, L + 2)
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
