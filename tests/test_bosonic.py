from collections import Counter
from itertools import combinations_with_replacement, product, zip_longest

import pytest

from crystalsums import bosonic, crystal
from crystalsums.bosonic import (_arrow, _letter_table, _pair_set, _reflect,
                                 _select_color, _supernomial_uncached,
                                 _word_energy, alternating_sum,
                                 involution_phi, supernomial,
                                 supernomial_A_columns, supernomial_A_rows,
                                 supernomial_C_boxes)
from crystalsums.cartan import cartan_data, shape_type
from crystalsums.cli import _instances
from crystalsums.crystal import (FactorDescriptor, _factor_table,
                                 enumerate_paths)
from crystalsums.energy import direct_sum
from crystalsums.errors import CapExceeded, UnsupportedError
from crystalsums.qpoly import ONE, ZERO, qmultinomial

from oracles import (all_contents_A, at_one, dominant_contents_A,
                     dominant_weights_C, energy_EB, path_word, per_word_pairs,
                     reflection_s, scanned_classical_pairs, scanned_color,
                     scanned_level_pairs, shape_elements, tensor_arrow,
                     unpruned_bosonic_level, weyl_enumerate, word_weight)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


def word_pairs(shape, pairs):
    """A pair set of ``_pair_set`` as {(sign(w), word)}, its words as
    ``TensorWord``s, after checking that it keys each word b by wt(b) +
    rho."""
    rho = cartan_data(shape[0].kind, shape[0].n).rho
    out = set()
    for b, (v, sign) in pairs.items():
        w = path_word(shape, b)
        assert v == tuple(x + r for x, r in zip(word_weight(w), rho)), w
        out.add((sign, w))
    return out


def signed_words(scanned):
    """An oracle pair set of (w, word) as {(sign(w), word)}, after checking
    that each of its words has exactly one w."""
    repeated = [b for b, k in Counter(b for _, b in scanned).items() if k > 1]
    assert not repeated, repeated
    return {(w.sign, b) for w, b in scanned}


def index_words(shape):
    """The ``_factor_table`` of each factor, and every word of the product
    as an element index tuple."""
    tables = [_factor_table(d) for d in shape]
    return tables, product(*(range(len(t[0])) for t in tables))


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
                    want = direct_sum(shape, lam, "none")
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
                    want = direct_sum(shape, lam, "none")
                    assert supernomial_A_rows(n, mu, lam) == want, (mu, lam)

    def test_rows_spot_value_mu21(self):
        # B^{1,2} (x) B^{1,1} of A_1, content (2,1), against the path oracle
        want = direct_sum((FactorDescriptor("A", 1, 1, 2),
                           FactorDescriptor("A", 1)), (2, 1), "none")
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
                    got = at_one(supernomial_C_boxes(n, L, lam))
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
                    _supernomial_uncached(*shape_type(shape), mu), (shape, mu)

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
        factors = shape_type(shape)
        for lam in lams:
            want = _supernomial_uncached(*factors, lam)
            nonzero += not want.is_zero()
            for w in weyl_enumerate(data):
                assert _supernomial_uncached(*factors, w.apply(lam)) == want, \
                    (lam, w.apply(lam))
        assert nonzero > 1

    def test_off_support_zeros_are_not_cached(self, monkeypatch):
        # boxes and rows reach every nonnegative content whose sum is the
        # number of boxes, columns those the Gale-Ryser test admits, type C
        # boxes every weight of the right norm and parity; a content of
        # another sum, such as (1, 1, 0) for B^{1,2} (x) B^{1,1} of A_2, is
        # off the support too
        monkeypatch.setattr(bosonic, "_SUPER_CACHE", {})
        rows = (FactorDescriptor("A", 2, 1, 2), FactorDescriptor("A", 2))
        assert supernomial(rows, (1, 1, 0)) == ZERO
        for shape in self.SHAPES + [(FactorDescriptor("A", 2, 2, 1),) * 2,
                                    rows]:
            dim = shape[0].n + (shape[0].kind == "A")
            for mu in product(range(-3, 6), repeat=dim):
                supernomial(shape, mu)
        assert bosonic._SUPER_CACHE
        assert not any(s.is_zero() for s in bosonic._SUPER_CACHE.values())

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
                alternating_sum(shape, lam)
                for ell in (2, 3):
                    if _level_of(kind, n, lam) <= ell:
                        alternating_sum(shape, lam, ell)
        assert bosonic._SUPER_CACHE
        assert not any(s.is_zero() for s in bosonic._SUPER_CACHE.values())


class TestBosonicClassical:
    def test_a1_example(self):
        assert str(alternating_sum(boxes("A", 1, 2), (1, 1))) == "q"

    def test_no_paths_gives_zero(self):
        # two height-2 columns of A_2 cannot reach content (4,0,0)
        shape = (FactorDescriptor("A", 2, 2, 1), FactorDescriptor("A", 2, 2, 1))
        assert alternating_sum(shape, (4, 0, 0)).is_zero()

    @pytest.mark.parametrize("kind,n,maxL", [("A", 1, 5), ("A", 2, 4),
                                             ("C", 1, 4), ("C", 2, 4)])
    def test_nonnegative_coefficients(self, kind, n, maxL):
        for L in range(1, maxL + 1):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                p = alternating_sum(shape, lam)
                assert all(c > 0 for _, c in p.terms), (lam, str(p))

    def test_matches_direct_on_mixed_shapes(self):
        shape = (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1))
        for lam in all_contents_A(1, 3):
            if lam[0] < lam[1]:
                continue
            want = direct_sum(shape, lam, "classical")
            assert alternating_sum(shape, lam) == want


class TestBosonicLevel:
    def test_a1_level_one(self):
        shape = boxes("A", 1, 2)
        assert alternating_sum(shape, (1, 1), 1) == \
            direct_sum(shape, (1, 1), "level", 1)

    def test_stabilizes_to_classical(self):
        for kind, n, L in (("A", 1, 4), ("A", 2, 3), ("C", 2, 3)):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                assert alternating_sum(shape, lam, L + 1) == \
                    alternating_sum(shape, lam), (kind, lam)

    @pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("C", 1),
                                         ("C", 2), ("C", 3)])
    def test_pruned_window_matches_unpruned(self, kind, n):
        for L in range(1, 6):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                for ell in range(max(1, _level_of(kind, n, lam)), 4):
                    assert alternating_sum(shape, lam, ell) == \
                        unpruned_bosonic_level(shape, lam, ell), (L, lam, ell)

    def test_skips_dead_translations(self, monkeypatch):
        # C_3, L = 6, (2,2,0), level 2: of 125 translations x 48 elements,
        # 8 images lie within 6 boxes of rho, and each gives a nonzero
        # supernomial; no other term is evaluated
        calls = []
        kernel = bosonic._supernomial

        def counted(data, L, weight):
            calls.append(kernel(data, L, weight))
            return calls[-1]

        monkeypatch.setattr(bosonic, "_supernomial", counted)
        got = alternating_sum(boxes("C", 3, 6), (2, 2, 0), 2)
        assert got == unpruned_bosonic_level(boxes("C", 3, 6), (2, 2, 0), 2)
        assert len(calls) == 8
        assert not any(s.is_zero() for s in calls)

    def test_pruned_window_on_row_shapes(self):
        for n, widths in ((1, (1, 2, 2)), (1, (2, 3)), (2, (1, 2)),
                          (2, (1, 1, 2))):
            shape = tuple(FactorDescriptor("A", n, 1, s) for s in widths)
            for lam in dominant_contents_A(n, sum(widths)):
                for ell in range(max(max(widths), lam[0] - lam[n]), 4):
                    assert alternating_sum(shape, lam, ell) == \
                        unpruned_bosonic_level(shape, lam, ell), \
                        (widths, lam, ell)

    def test_matches_direct_level_enumeration(self):
        for n, maxL, ell in ((1, 5, 1), (1, 4, 2), (2, 4, 1)):
            for L in range(1, maxL + 1):
                shape = boxes("A", n, L)
                for lam in dominant_contents_A(n, L):
                    if lam[0] - lam[n] > ell:
                        continue
                    want = direct_sum(shape, lam, "level", ell)
                    assert alternating_sum(shape, lam, ell) == want, (L, lam)

    @pytest.mark.parametrize("kind,n,maxL", [("A", 1, 6), ("A", 2, 5),
                                             ("C", 1, 6), ("C", 2, 5),
                                             ("C", 3, 4)])
    def test_weight_level_above_the_level_raises(self, kind, n, maxL):
        # above its level the alternating form is not a sum over paths (its
        # terms give -q for A_1, L = 3, (3, 0) at level 1, where no path
        # exists); the sum there, which once raised, is zero by definition,
        # as direct_sum finds
        above = 0
        for L in range(1, maxL + 1):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                for ell in (1, 2, 3):
                    want = direct_sum(shape, lam, "level", ell)
                    assert alternating_sum(shape, lam, ell) == want, \
                        (L, lam, ell)
                    if _level_of(kind, n, lam) > ell:
                        assert want.is_zero()
                        above += 1
        assert above

    def test_factor_wider_than_level_raises(self):
        with pytest.raises(UnsupportedError):
            alternating_sum((FactorDescriptor("A", 1, 1, 2),), (1, 1), 0)
        with pytest.raises(UnsupportedError):
            alternating_sum((FactorDescriptor("A", 1, 1, 3),
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
                    want = direct_sum(shape, lam, "level", ell)
                    assert alternating_sum(shape, lam, ell) == want, \
                        (shape, lam, ell)


class TestInvolution:
    def test_a1_classical_report(self):
        rep = involution_phi(boxes("A", 1, 2), (1, 1))
        assert rep.size == 3 and rep.fixed_points == 1
        assert rep.passed and rep.statistic_preserved

    def test_fixed_points_are_the_paths(self):
        for kind, n in (("A", 2), ("C", 2)):
            for L in (2, 3):
                shape = boxes(kind, n, L)
                lams = (dominant_contents_A(n, L) if kind == "A"
                        else dominant_weights_C(n, L))
                for lam in lams:
                    rep = involution_phi(shape, lam)
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
                    rep = involution_phi(shape, lam, level=1)
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
                    rep = involution_phi(shape, lam, level=ell)
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
                pairs = _pair_set(shape, lam, None)
                assert word_pairs(shape, pairs) == signed_words(
                    scanned_classical_pairs(shape, lam))
                for ell in (1, 2):
                    if _level_of(kind, n, lam) > ell:
                        continue
                    pairs = _pair_set(shape, lam, ell)
                    assert word_pairs(shape, pairs) == signed_words(
                        scanned_level_pairs(shape, lam, ell)), (L, lam, ell)

    def test_non_dominant_weights_are_refused(self):
        # the sums are zero there by definition, and lam + rho need not be
        # regular, so the pair set could not be keyed by word: both modes
        # refuse, before the level checks
        count = 0
        for kind, n in (("A", 1), ("A", 2), ("C", 1), ("C", 2)):
            data = cartan_data(kind, n)
            for L in range(1, 4):
                for lam in product(range(-1, L + 1), repeat=data.dim):
                    if data.is_dominant(lam) or (kind == "A" and (
                            min(lam) < 0 or sum(lam) != L)):
                        continue
                    for ell in (None, 1, 2):
                        with pytest.raises(UnsupportedError):
                            involution_phi(boxes(kind, n, L), lam, ell)
                        count += 1
        assert count == 153

    @pytest.mark.parametrize("level", [
        pytest.param(None, id="classical-None"), pytest.param(2, id="level-2")])
    def test_a_broken_move_leaves_the_pair_set(self, monkeypatch, level):
        # with phi moving no word, (w r_i, b) is not in S, as r_i fixes no
        # regular point: the membership check reads wt(b) + rho, not words
        monkeypatch.setattr(bosonic, "_phi_move", lambda tables, b, i, lv: b)
        rep = involution_phi(boxes("A", 2, 3), (2, 1, 0), level)
        moved = rep.size - rep.fixed_points
        assert moved > 0 and not rep.involution_ok
        assert sum("left the pair set" in f for f in rep.findings) == moved

    def test_level_mode_needs_boxes(self):
        shape = (FactorDescriptor("A", 1, 1, 2),)
        with pytest.raises(UnsupportedError):
            involution_phi(shape, (1, 1), level=1)

    @pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3),
                                        ("C", 1), ("C", 2), ("C", 3)])
    def test_level_mode_refuses_as_the_level_sum(self, kind, n):
        # every level below the weight's level, and level 0, where a box is
        # wider than the level: the involution raises UnsupportedError,
        # where alternating_sum raises it too (level 0) or the level sum is
        # zero by definition (above the level), as direct_sum finds
        zeros = 0
        for L in range(1, 6):
            shape = boxes(kind, n, L)
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                for ell in range(max(1, _level_of(kind, n, lam))):
                    with pytest.raises(UnsupportedError):
                        involution_phi(shape, lam, level=ell)
                    if ell == 0:
                        with pytest.raises(UnsupportedError):
                            alternating_sum(shape, lam, ell)
                        continue
                    assert alternating_sum(shape, lam, ell) == ZERO == \
                        direct_sum(shape, lam, "level", ell), (L, lam, ell)
                    zeros += 1
        assert zeros

    @pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3),
                                        ("C", 1), ("C", 2), ("C", 3)])
    def test_color_fold_matches_the_suffix_scan(self, kind, n):
        table = _letter_table(kind, n)
        shapes = [boxes(kind, n, L) for L in range(1, 5)]
        if kind == "A":
            row, col = FactorDescriptor("A", n, 1, 2), FactorDescriptor(
                "A", n, 2, 1)
            shapes += [(row, col), (col, row, FactorDescriptor("A", n))]
        for shape in shapes:
            single = all(d.boxes == 1 for d in shape)
            for b in shape_elements(shape):
                for level in (None, 0, 1, 2) if single else (None,):
                    assert _select_color(b.flatten(), table, level) == \
                        scanned_color(b, level), (b, level)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pair_sets_match_the_per_word_walk(self, n):
        for inst in _instances("involution", n, 4, 2):
            _, kind, n, L, lam, ell = inst
            shape = boxes(kind, n, L)
            pairs = _pair_set(shape, lam, ell)
            assert word_pairs(shape, pairs) == signed_words(
                per_word_pairs(shape, lam, ell)), inst
        # the type C level mode, which the suite leaves out
        for L in range(1, 5):
            for lam in dominant_weights_C(n, L):
                for ell in (1, 2):
                    if _level_of("C", n, lam) <= ell:
                        shape = boxes("C", n, L)
                        pairs = _pair_set(shape, lam, ell)
                        assert word_pairs(shape, pairs) == signed_words(
                            per_word_pairs(shape, lam, ell))

    def test_pair_sets_stay_exact_across_the_cache(self):
        # the product walk is cached per (shape, level): calls that switch
        # shape, level and weight at every step each read their own group,
        # in product order, and a caller's edits reach no later call
        calls = []
        for kind, n, L in (("A", 1, 3), ("A", 2, 3), ("C", 2, 2),
                           ("A", 2, 2), ("C", 1, 4)):
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            calls.append([(boxes(kind, n, L), lam, ell) for lam in lams
                          for ell in (None, 1, 2)
                          if ell is None or _level_of(kind, n, lam) <= ell])
        calls = [c for row in zip_longest(*calls) for c in row if c]
        assert len({(shape, ell) for shape, _, ell in calls}) == 15
        for shape, lam, ell in calls:
            pairs = _pair_set(shape, lam, ell)
            word_pairs(shape, pairs)  # each word keyed by wt(b) + rho
            got = [(sign, path_word(shape, b))
                   for b, (_, sign) in pairs.items()]
            assert got == [(w.sign, b) for w, b in
                           per_word_pairs(shape, lam, ell)], (shape, lam, ell)
            want = dict(pairs)
            pairs.clear()
            pairs[(-1,) * len(shape)] = ((0,), 1)
            assert _pair_set(shape, lam, ell) == want

    def test_the_cap_holds_past_the_cache(self, monkeypatch):
        shape, lam = boxes("A", 2, 4), (2, 1, 1)
        assert _pair_set(shape, lam, None) == _pair_set(shape, lam, None)
        assert bosonic._pair_sets.cache_info().hits
        monkeypatch.setattr(crystal, "VERTEX_CAP", 3 ** 4 - 1)
        with pytest.raises(CapExceeded):
            _pair_set(shape, lam, None)
        with pytest.raises(CapExceeded):
            involution_phi(shape, lam)

    @pytest.mark.parametrize("n", [1, 2])
    def test_one_color_selection_per_word(self, monkeypatch, n):
        # the involution check reads each image's phi from the first pass,
        # so the pairing color is selected once per word of the pair set
        calls = Counter()
        select = bosonic._select_color

        def counted(letters, table, level):
            calls["select"] += 1
            return select(letters, table, level)

        monkeypatch.setattr(bosonic, "_select_color", counted)
        insts = {i for level in (1, 2)
                 for i in _instances("involution", n, 4, level)}
        insts |= {("involution", "C", n, L, lam, ell) for L in range(1, 5)
                  for lam in dominant_weights_C(n, L) for ell in (1, 2)
                  if _level_of("C", n, lam) <= ell}
        for _, kind, n, L, lam, ell in sorted(insts, key=str):
            calls.clear()
            rep = involution_phi(boxes(kind, n, L), lam, ell)
            assert rep.passed and calls["select"] == rep.size, (kind, L, lam,
                                                                 ell)

    @pytest.mark.parametrize("shape,lam", [
        ((), (0, 0)),
        ((FactorDescriptor("A", 1), FactorDescriptor("A", 2)), (1, 1)),
        ((FactorDescriptor("C", 2), FactorDescriptor("A", 2)), (1, 1)),
    ])
    def test_empty_or_mixed_shapes_are_refused(self, shape, lam):
        with pytest.raises(UnsupportedError):
            involution_phi(shape, lam)

    @pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3),
                                        ("C", 1), ("C", 2), ("C", 3)])
    def test_index_arrows_match_the_word_arrows(self, kind, n):
        # e_i, f_i and s_i on element index tuples, at every color 0..n,
        # against the word-level tensor rule
        shapes = [boxes(kind, n, 3)]
        if kind == "A":
            row, col = FactorDescriptor("A", n, 1, 2), FactorDescriptor(
                "A", n, 2, 1)
            shapes += [(row, FactorDescriptor("A", n, 1, 3)), (col, row),
                       (col, FactorDescriptor("A", n), row)]
        for shape in shapes:
            tables, words = index_words(shape)
            for b in words:
                w = path_word(shape, b)
                for i in range(n + 1):
                    for direction in ("e", "f"):
                        got = _arrow(tables, b, i, direction)
                        want = tensor_arrow(w, i, direction)
                        got = None if got is None else path_word(shape, got)
                        assert got == want, (w, i, direction)
                    assert path_word(shape, _reflect(tables, b, i)) == \
                        reflection_s(w, i), (w, i)

    @pytest.mark.parametrize("shape", [
        boxes("A", 1, 5), boxes("A", 2, 4), boxes("C", 2, 3),
        (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1),
         FactorDescriptor("A", 1, 2, 1), FactorDescriptor("A", 1, 1, 3)),
        (FactorDescriptor("A", 2, 2, 1), FactorDescriptor("A", 2, 1, 2),
         FactorDescriptor("A", 2)),
    ])
    def test_statistic_matches_the_literal_energy(self, shape):
        energy = _word_energy(shape)
        _, words = index_words(shape)
        for b in words:
            w = path_word(shape, b)
            assert energy(b) == energy_EB(w), w
