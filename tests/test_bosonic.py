from itertools import combinations_with_replacement, product

import pytest

from crystalsums import bosonic
from crystalsums.bosonic import (_orbit_meets_support, _pair_set,
                                 _supernomial_uncached,
                                 bosonic_classical, bosonic_level,
                                 involution_phi, supernomial,
                                 supernomial_A_columns, supernomial_A_rows,
                                 supernomial_C_boxes)
from crystalsums.cartan import cartan_data, weyl_enumerate
from crystalsums.crystal import FactorDescriptor, enumerate_paths
from crystalsums.energy import direct_sum
from crystalsums.errors import (CapExceeded, CrystalSumsError,
                                UnsupportedError)
from crystalsums.qpoly import ONE, ZERO, qmultinomial

from oracles import (all_contents_A, dominant_contents_A, dominant_weights_C,
                     scanned_classical_pairs, scanned_level_pairs,
                     unpruned_bosonic_level)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


def _level_of(kind, n, lam):
    return cartan_data(kind, n).theta_pairing(lam)


class TestSupernomialFormulas:
    def test_columns_reduce_to_multinomial(self):
        for n in (1, 2):
            for total in range(1, 6):
                mu = (1,) * total
                for lam in all_contents_A(n, total):
                    assert supernomial_A_columns(n, mu, lam) == \
                        qmultinomial(total, lam)

    def test_rows_reduce_to_multinomial(self):
        for n in (1, 2):
            for total in range(1, 6):
                mu = (1,) * total
                for lam in all_contents_A(n, total):
                    assert supernomial_A_rows(n, mu, lam) == \
                        qmultinomial(total, lam)

    def test_single_tall_column(self):
        assert supernomial_A_columns(1, (2,), (1, 1)) == ONE
        assert supernomial_A_rows(1, (2,), (1, 1)) == ONE

    def test_invalid_content_zero(self):
        assert supernomial_A_columns(1, (1, 1), (3, -1)) == ZERO
        assert supernomial_A_rows(1, (1, 1), (1, 2)) == ZERO

    @pytest.mark.parametrize("n", [1, 2])
    def test_columns_match_direct_sums(self, n):
        # every multiset of column heights with at most 5 boxes
        heights = range(1, n + 2)
        for k in (1, 2, 3):
            for mu in combinations_with_replacement(heights, k):
                total = sum(mu)
                if total > 5:
                    continue
                mu = tuple(sorted(mu, reverse=True))
                shape = tuple(FactorDescriptor("A", n, r, 1) for r in mu)
                for lam in all_contents_A(n, total):
                    want = direct_sum(shape, lam, "none", "coenergy")
                    assert supernomial_A_columns(n, mu, lam) == want, (mu, lam)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_match_direct_sums(self, n):
        for k in (1, 2, 3):
            for mu in combinations_with_replacement((1, 2, 3), k):
                total = sum(mu)
                if total > 5:
                    continue
                mu = tuple(sorted(mu, reverse=True))
                shape = tuple(FactorDescriptor("A", n, 1, s) for s in mu)
                for lam in all_contents_A(n, total):
                    want = direct_sum(shape, lam, "none", "coenergy")
                    assert supernomial_A_rows(n, mu, lam) == want, (mu, lam)

    def test_rows_spot_value_mu21(self):
        # B^{1,2} (x) B^{1,1} of A_1, content (2,1), against the path oracle
        want = direct_sum((FactorDescriptor("A", 1, 1, 2),
                           FactorDescriptor("A", 1)), (2, 1),
                          "none", "coenergy")
        assert supernomial_A_rows(1, (2, 1), (2, 1)) == want

    def test_c_boxes_single_letter(self):
        assert supernomial_C_boxes(1, 1, (1,)) == ONE

    def test_c_boxes_pairing(self):
        assert supernomial_C_boxes(1, 2, (0,)) == qmultinomial(2, [1, 1])

    def test_c_boxes_parity(self):
        assert supernomial_C_boxes(1, 3, (0,)) == ZERO
        assert supernomial_C_boxes(2, 2, (3, 1)) == ZERO

    def test_c_boxes_q1_counts_paths(self):
        for n in (1, 2):
            for L in (1, 2, 3, 4):
                shape = boxes("C", n, L)
                for lam in dominant_weights_C(n, L):
                    got = supernomial_C_boxes(n, L, lam).at_one()
                    assert got == len(enumerate_paths(shape, lam)), (n, L, lam)

    def test_supernomial_dispatch_mixed(self):
        # no closed form for mixed rows and columns; the bosonic route must
        # not borrow the direct one
        shape = (FactorDescriptor("A", 1, 2, 1), FactorDescriptor("A", 1, 1, 2))
        with pytest.raises(UnsupportedError):
            supernomial(shape, (2, 2))
        with pytest.raises(UnsupportedError):  # also off the support
            supernomial(shape, (5, -1))


class TestSupport:
    """The support tests skip only supernomials that are zero."""

    SHAPES = [boxes("A", 1, 3), boxes("A", 2, 3), boxes("C", 2, 3),
              boxes("C", 3, 4),
              tuple(FactorDescriptor("A", 2, 1, s) for s in (1, 2, 2)),
              tuple(FactorDescriptor("A", 2, r, 1) for r in (1, 2, 2))]

    def test_supernomial_matches_uncached(self):
        for shape in self.SHAPES:
            dim = shape[0].n + (shape[0].kind == "A")
            for mu in product(range(-3, 6), repeat=dim):
                assert supernomial(shape, mu) == \
                    _supernomial_uncached(shape, mu), (shape, mu)

    @pytest.mark.parametrize("shape", [
        tuple(FactorDescriptor("A", 1, 1, s) for s in (1, 2, 2, 3)),
        tuple(FactorDescriptor("A", 2, 1, s) for s in (1, 1, 2, 3)),
        tuple(FactorDescriptor("A", 2, r, 1) for r in (1, 1, 2, 2)),
        tuple(FactorDescriptor("A", 3, r, 1) for r in (1, 2, 2, 3)),
        boxes("C", 2, 5), boxes("C", 3, 4)],
        ids=["A1-rows", "A2-rows", "A2-columns", "A3-columns", "C2-boxes",
             "C3-boxes"])
    def test_weyl_invariant(self, shape):
        # the cache keys a weight by its dominant representative: the
        # unrestricted sum is constant on each finite Weyl orbit
        kind, n = shape[0].kind, shape[0].n
        data = cartan_data(kind, n)
        total = sum(d.boxes for d in shape)
        lams = (dominant_contents_A(n, total) if kind == "A"
                else dominant_weights_C(n, len(shape)))
        nonzero = 0
        for lam in lams:
            want = _supernomial_uncached(shape, lam)
            nonzero += not want.is_zero()
            for w in weyl_enumerate(data):
                assert _supernomial_uncached(shape, w.apply(lam)) == want, \
                    (lam, w.apply(lam))
        assert nonzero > 1

    def test_off_support_zeros_are_not_cached(self, monkeypatch):
        # boxes and rows reach every content with the right total, columns
        # those the Gale-Ryser test admits, type C boxes every weight of
        # the right norm and parity
        monkeypatch.setattr(bosonic, "_SUPER_CACHE", {})
        for shape in self.SHAPES + [(FactorDescriptor("A", 2, 2, 1),) * 2]:
            total = sum(d.boxes for d in shape)
            dim = shape[0].n + (shape[0].kind == "A")
            for mu in product(range(-3, 6), repeat=dim):
                if shape[0].kind == "C" or sum(mu) == total:
                    supernomial(shape, mu)
        assert not any(s.is_zero() for s in bosonic._SUPER_CACHE.values())

    @pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("A", 3),
                                         ("C", 1), ("C", 2), ("C", 3)])
    def test_orbit_test_is_exact(self, kind, n):
        # against every Weyl image of v: A needs w(v) - rho >= 0, C needs
        # |w(v) - rho|_1 <= boxes
        data = cartan_data(kind, n)
        elements = weyl_enumerate(data)
        for v in product(range(-4, 5), repeat=data.dim):
            images = [tuple(a - r for a, r in zip(w.apply(v), data.rho))
                      for w in elements]
            if kind == "A":
                want = any(min(mu) >= 0 for mu in images)
                assert _orbit_meets_support(data, v, 0) == want, v
                continue
            least = min(sum(map(abs, mu)) for mu in images)
            for b in range(6):
                assert _orbit_meets_support(data, v, b) == (least <= b), (v, b)

    def test_cache_holds_no_zero(self, monkeypatch):
        monkeypatch.setattr(bosonic, "_SUPER_CACHE", {})
        rows = tuple(FactorDescriptor("A", 1, 1, s) for s in (1, 2, 2))
        for kind, n, shape in (("A", 1, boxes("A", 1, 5)),
                               ("A", 2, boxes("A", 2, 4)), ("A", 1, rows),
                               ("C", 2, boxes("C", 2, 5)),
                               ("C", 3, boxes("C", 3, 4))):
            total = sum(d.boxes for d in shape)
            lams = (dominant_contents_A(n, total) if kind == "A"
                    else dominant_weights_C(n, total))
            for lam in lams:
                bosonic_classical(shape, lam)
                for ell in (2, 3):
                    if _level_of(kind, n, lam) <= ell:
                        bosonic_level(shape, lam, ell)
        assert bosonic._SUPER_CACHE
        assert not any(s.is_zero() for s in bosonic._SUPER_CACHE.values())


class TestBosonicClassical:
    def test_a1_example(self):
        assert str(bosonic_classical(boxes("A", 1, 2), (1, 1))) == "q"

    def test_no_paths_gives_zero(self):
        # two height-2 columns of A_2 cannot reach content (4,0,0)
        shape = (FactorDescriptor("A", 2, 2, 1), FactorDescriptor("A", 2, 2, 1))
        assert bosonic_classical(shape, (4, 0, 0)).is_zero()

    @pytest.mark.parametrize("kind,n,maxL", [("A", 1, 5), ("A", 2, 4),
                                             ("C", 1, 4), ("C", 2, 4)])
    def test_nonnegative_coefficients(self, kind, n, maxL):
        for L in range(1, maxL + 1):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                p = bosonic_classical(shape, lam)
                assert all(c > 0 for _, c in p.terms), (lam, str(p))

    def test_matches_direct_on_mixed_shapes(self):
        shape = (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1))
        for lam in all_contents_A(1, 3):
            if lam[0] < lam[1]:
                continue
            want = direct_sum(shape, lam, "classical", "coenergy")
            assert bosonic_classical(shape, lam) == want


class TestBosonicLevel:
    def test_a1_level_one(self):
        shape = boxes("A", 1, 2)
        assert bosonic_level(shape, (1, 1), 1) == \
            direct_sum(shape, (1, 1), "level", "coenergy", 1)

    def test_stabilizes_to_classical(self):
        for kind, n, L in (("A", 1, 4), ("A", 2, 3), ("C", 2, 3)):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                assert bosonic_level(shape, lam, L + 1) == \
                    bosonic_classical(shape, lam), (kind, lam)

    def test_too_small_window_raises(self, monkeypatch):
        # a window holding only beta = 0 leaves the main term on its outer
        # ring; the check must raise, also under python -O
        monkeypatch.setattr(bosonic, "translation_lattice_box",
                            lambda data, level, bound: [(0,) * data.dim])
        with pytest.raises(CapExceeded):
            bosonic_level(boxes("A", 1, 2), (1, 1), 1)

    @pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("C", 1),
                                         ("C", 2), ("C", 3)])
    def test_pruned_window_matches_unpruned(self, kind, n):
        for L in range(1, 6):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                for ell in range(max(1, _level_of(kind, n, lam)), 4):
                    assert bosonic_level(shape, lam, ell) == \
                        unpruned_bosonic_level(shape, lam, ell), (L, lam, ell)

    def test_skips_dead_translations(self, monkeypatch):
        # C_3, L = 6, (2,2,0), level 2: 125 translations x 48 elements, of
        # which two translations give all 8 nonzero supernomials
        calls = []

        def counted(shape, weight):
            calls.append(supernomial(shape, weight))
            return calls[-1]

        monkeypatch.setattr(bosonic, "supernomial", counted)
        got = bosonic_level(boxes("C", 3, 6), (2, 2, 0), 2)
        assert got == unpruned_bosonic_level(boxes("C", 3, 6), (2, 2, 0), 2)
        assert len(calls) == 2 * 48
        assert sum(not s.is_zero() for s in calls) == 8

    def test_pruned_window_on_row_shapes(self):
        for n, widths in ((1, (1, 2, 2)), (1, (2, 3)), (2, (1, 2)),
                          (2, (1, 1, 2))):
            shape = tuple(FactorDescriptor("A", n, 1, s) for s in widths)
            for lam in dominant_contents_A(n, sum(widths)):
                for ell in range(max(max(widths), lam[0] - lam[n]), 4):
                    assert bosonic_level(shape, lam, ell) == \
                        unpruned_bosonic_level(shape, lam, ell), \
                        (widths, lam, ell)

    def test_matches_direct_level_enumeration(self):
        for n, maxL, ell in ((1, 5, 1), (1, 4, 2), (2, 4, 1)):
            for L in range(1, maxL + 1):
                shape = boxes("A", n, L)
                for lam in dominant_contents_A(n, L):
                    if lam[0] - lam[n] > ell:
                        continue
                    want = direct_sum(shape, lam, "level", "coenergy", ell)
                    assert bosonic_level(shape, lam, ell) == want, (L, lam)

    @pytest.mark.parametrize("kind,n,maxL", [("A", 1, 6), ("A", 2, 5),
                                             ("C", 1, 6), ("C", 2, 5),
                                             ("C", 3, 4)])
    def test_weight_level_above_the_level_raises(self, kind, n, maxL):
        # above its level the alternating sum is not a sum over paths: A_1,
        # L = 3, (3, 0) at level 1 gave -q where no path exists
        for L in range(1, maxL + 1):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                for ell in (1, 2, 3):
                    if _level_of(kind, n, lam) > ell:
                        with pytest.raises(CrystalSumsError):
                            bosonic_level(shape, lam, ell)
                    else:
                        assert bosonic_level(shape, lam, ell) == direct_sum(
                            shape, lam, "level", "coenergy", ell), \
                            (L, lam, ell)

    def test_factor_wider_than_level_raises(self):
        with pytest.raises(UnsupportedError):
            bosonic_level((FactorDescriptor("A", 1, 1, 2),), (1, 1), 0)
        with pytest.raises(UnsupportedError):
            bosonic_level((FactorDescriptor("A", 1, 1, 3),
                           FactorDescriptor("A", 1)), (3, 1), 2)

    def test_level_on_mixed_row_shapes(self):
        shapes = [
            (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1),
             FactorDescriptor("A", 1)),
            (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1, 1, 2)),
            (FactorDescriptor("A", 2, 1, 2), FactorDescriptor("A", 2)),
        ]
        for shape in shapes:
            n = shape[0].n
            total = sum(d.boxes for d in shape)
            for lam in dominant_contents_A(n, total):
                for ell in (2, 3):
                    if lam[0] - lam[n] > ell or any(d.s > ell for d in shape):
                        continue
                    want = direct_sum(shape, lam, "level", "coenergy", ell)
                    assert bosonic_level(shape, lam, ell) == want, \
                        (shape, lam, ell)


class TestInvolution:
    def test_a1_classical_report(self):
        rep = involution_phi(boxes("A", 1, 2), (1, 1), "classical")
        assert rep.size == 3 and rep.fixed_points == 1
        assert rep.passed and rep.statistic_preserved

    def test_fixed_points_are_the_paths(self):
        for kind, n in (("A", 2), ("C", 2)):
            for L in (2, 3):
                shape = boxes(kind, n, L)
                lams = (dominant_contents_A(n, L) if kind == "A"
                        else dominant_weights_C(n, L))
                for lam in lams:
                    rep = involution_phi(shape, lam, "classical")
                    assert rep.passed, (kind, n, L, lam, rep)
                    want = len(enumerate_paths(shape, lam, "classical"))
                    assert rep.fixed_points == want

    def test_level_mode(self):
        for n in (1, 2):
            for L in (2, 3, 4):
                shape = boxes("A", n, L)
                for lam in dominant_contents_A(n, L):
                    if lam[0] - lam[n] > 1:
                        continue
                    rep = involution_phi(shape, lam, "level", level=1)
                    assert rep.passed, (n, L, lam, rep)
                    want = len(enumerate_paths(shape, lam, "level", 1))
                    assert rep.fixed_points == want

    @pytest.mark.parametrize("n,maxL", [(1, 5), (2, 4), (3, 3)])
    def test_level_mode_type_C(self, n, maxL):
        for L in range(1, maxL + 1):
            shape = boxes("C", n, L)
            for lam in dominant_weights_C(n, L):
                for ell in (1, 2):
                    if lam[0] > ell:
                        continue
                    rep = involution_phi(shape, lam, "level", level=ell)
                    assert rep.passed, (n, L, lam, ell, rep)
                    want = len(enumerate_paths(shape, lam, "level", ell))
                    assert rep.fixed_points == want

    @pytest.mark.parametrize("kind,n,maxL", [("A", 1, 5), ("A", 2, 4),
                                             ("C", 1, 5), ("C", 2, 4),
                                             ("C", 3, 3)])
    def test_pair_sets_match_the_scans(self, kind, n, maxL):
        for L in range(1, maxL + 1):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                _, pairs = _pair_set(shape, lam, None)
                assert set(pairs) == scanned_classical_pairs(shape, lam)
                assert len(set(pairs)) == len(pairs)
                for ell in (1, 2):
                    if _level_of(kind, n, lam) > ell:
                        continue
                    _, pairs = _pair_set(shape, lam, ell)
                    assert set(pairs) == scanned_level_pairs(
                        shape, lam, ell), (L, lam, ell)

    def test_level_mode_needs_boxes(self):
        shape = (FactorDescriptor("A", 1, 1, 2),)
        with pytest.raises(UnsupportedError):
            involution_phi(shape, (1, 1), "level", level=1)
