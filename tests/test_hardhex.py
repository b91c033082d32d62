from functools import cache

import pytest

from crystalsums import hardhex
from crystalsums.errors import CapExceeded
from crystalsums.hardhex import (ENUMERATE_CAP, POLYNOMIAL_CAP, SERIES_CAP,
                                 _alternating_series, _fermionic_series,
                                 _path_energies, _primed_energies,
                                 hh_X, product_series, rr_series_check)
from crystalsums.qpoly import (_LISTS, _PACKED, ONE, QLaurent, ZERO,
                               _walk_kernel, q_power, qbinomial)

from oracles import (as_dict, bosonic_term, box_partitions, hh_energy,
                     hh_paths, hh_X_by_lists, in_strip, partitions_congruent,
                     partitions_gap2,
                     rr_alternating_series, rr_fermionic_series,
                     rr_product_series, strip_energy,
                     strip_inclusion_exclusion, strip_paths, strip_transform)

FIG_PATH = (0, 1, 0, 0, 0, 1, 0, 0, 1, 0)


class TestEnergy:
    def test_figure_example(self):
        assert hh_energy(FIG_PATH) == 14

    def test_ground_state(self):
        for n in range(5):
            sigma = [0] * (2 * n + 2)
            for k in range(n):
                sigma[2 * k + 1] = 1
            assert hh_energy(tuple(sigma)) == n * n

    def test_empty(self):
        assert hh_energy((0,)) == 0


# (L, primed) for each L of a range, in the orders the enumeration must
# not depend on: the kept walk of D'_L is read by the second family of one
# L, or replaced by the next L
ENUMERATION_ORDERS = {
    "unprimed then primed": lambda Ls: [(L, primed) for L in Ls
                                        for primed in (False, True)],
    "primed first": lambda Ls: [(L, primed) for L in Ls
                                for primed in (True, False)],
    "descending L": lambda Ls: [(L, primed) for L in reversed(Ls)
                                for primed in (False, True)],
    "two L interleaved": lambda Ls: [
        call for a, b in zip(Ls, reversed(Ls))
        for call in ((a, False), (b, True), (a, True), (b, False))],
}


@cache
def _enumeration_oracle(L, primed):
    """X(L) by the path listing through L = 20, by the recurrence above."""
    if L <= 20:
        return QLaurent.from_exponents(hh_energy(p)
                                       for p in hh_paths(L, primed))
    return hh_X(L, "recurrence", primed)


class TestConfigurationSums:
    def test_initial_conditions(self):
        assert hh_X(0) == ONE and hh_X(1) == ONE
        assert hh_X(0, primed=True) == ZERO
        assert hh_X(1, primed=True) == ONE

    def test_recurrence_value(self):
        assert as_dict(hh_X(3)) == {0: 1, 1: 1, 2: 1}

    def test_primed_small_values(self):
        # enumeration oracle for X'(2): the single path (1,0,0)
        assert [p for p in hh_paths(2, primed=True)] == [(1, 0, 0)]
        assert hh_X(2, "enumerate", primed=True) == ONE

    def test_recurrence_relation_explicit(self):
        for L in range(2, 15):
            for primed in (False, True):
                assert hh_X(L, primed=primed) == \
                    hh_X(L - 1, primed=primed) + \
                    q_power(L - 1) * hh_X(L - 2, primed=primed)

    @pytest.mark.parametrize("primed", [False, True])
    def test_four_methods_agree(self, primed):
        for L in range(0, 17):
            ref = hh_X(L, "enumerate", primed)
            for method in ("recurrence", "fermionic", "bosonic"):
                assert hh_X(L, method, primed) == ref, (L, method)

    @pytest.mark.parametrize("primed", [False, True])
    def test_stepped_rows_match_recurrence(self, primed):
        for L in range(0, 121):
            want = hh_X(L, "recurrence", primed)
            for method in ("fermionic", "bosonic"):
                assert hh_X(L, method, primed) == want, (L, method)

    def test_stepped_rows_at_200(self):
        for primed in (False, True):
            want = hh_X(200, "recurrence", primed)
            for method in ("fermionic", "bosonic"):
                assert hh_X(200, method, primed) == want, (primed, method)

    def test_kernels_match_list_reference(self):
        # 2^L bounds every coefficient, so hh_X packs through L = 62 and
        # walks lists from L = 63; both sides of the choice, every L up to
        # 70 and L = 200, against the list recurrence (and the path walk)
        assert _walk_kernel(1 << 62) is _PACKED
        assert _walk_kernel(1 << 63) is _LISTS
        for L in [*range(71), 200]:
            for primed in (False, True):
                want = hh_X_by_lists(L, primed)
                methods = ("recurrence", "fermionic", "bosonic")
                if L <= ENUMERATE_CAP:
                    methods += ("enumerate",)
                for method in methods:
                    assert hh_X(L, method, primed) == want, (L, primed, method)

    def test_polynomial_cap(self):
        # the cap itself runs on lists, whose coefficients pass one word,
        # and the three methods agree; one past it is refused before any
        # polynomial is built
        fib = [0, 1]
        while len(fib) < POLYNOMIAL_CAP + 2:
            fib.append(fib[-1] + fib[-2])
        for primed in (False, True):
            want = hh_X(POLYNOMIAL_CAP, "recurrence", primed)
            # X(L) counts F(L + 1) paths at q = 1, X'(L) counts F(L)
            assert sum(want.coeffs) == fib[POLYNOMIAL_CAP + 1 - primed]
            assert max(want.coeffs) >= 1 << 63
            for method in ("fermionic", "bosonic"):
                assert hh_X(POLYNOMIAL_CAP, method, primed) == want, method
            for method in ("recurrence", "fermionic", "bosonic"):
                with pytest.raises(CapExceeded):
                    hh_X(POLYNOMIAL_CAP + 1, method, primed)

    def test_stepped_rows_never_call_qbinomial(self):
        # the large hard-hexagon q-binomials stay out of qbinomial's cache
        before = qbinomial.cache_info()
        for primed in (False, True):
            for method in ("fermionic", "bosonic"):
                hh_X(41, method, primed)
        after = qbinomial.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    @pytest.mark.parametrize("primed", [False, True])
    def test_enumeration_matches_path_listing(self, primed):
        for L in range(0, 21):
            want = QLaurent.from_exponents(hh_energy(p)
                                           for p in hh_paths(L, primed))
            assert hh_X(L, "enumerate", primed) == want, L

    @pytest.mark.parametrize("primed", [False, True])
    def test_enumeration_matches_recurrence_up_to_cap(self, primed):
        for L in range(21, ENUMERATE_CAP + 1):
            assert hh_X(L, "enumerate", primed) == \
                hh_X(L, "recurrence", primed), L

    @pytest.mark.parametrize("order", ENUMERATION_ORDERS)
    def test_enumeration_in_any_call_order(self, order):
        # the kept walk of D'_L serves whichever family comes second, and a
        # call at another L replaces it: the path listing through L = 20,
        # the recurrence up to the cap, from a cold cache
        _primed_energies.cache_clear()
        for L, primed in ENUMERATION_ORDERS[order](range(ENUMERATE_CAP + 1)):
            assert hh_X(L, "enumerate", primed) == _enumeration_oracle(
                L, primed), (order, L, primed)

    def test_one_walk_of_primed_paths_per_length(self, monkeypatch):
        # in the order of `verify rr`, each L walks D'_L (from the entry
        # (2, 0)) once and, unprimed, the paths with a particle at 1 (from
        # (3, 1)); the primed call after it walks nothing
        walks = []

        def counted(L, i, energy, counts):
            walks.append((L, i, energy))
            return _path_energies(L, i, energy, counts)

        monkeypatch.setattr(hardhex, "_path_energies", counted)
        _primed_energies.cache_clear()
        for L in range(ENUMERATE_CAP + 1):
            hh_X(L, "enumerate")
            before = len(walks)
            hh_X(L, "enumerate", primed=True)
            assert len(walks) == before, L
        assert walks == [(0, 1, 0), (1, 2, 0)] + [
            walk for L in range(2, ENUMERATE_CAP + 1)
            for walk in ((L, 2, 0), (L, 3, 1))]
        # primed first: the unprimed call walks only the paths with a
        # particle at 1
        walks.clear()
        hh_X(10, "enumerate", primed=True)
        hh_X(10, "enumerate")
        assert walks == [(10, 2, 0), (10, 3, 1)]

    def test_enumeration_of_no_paths(self):
        assert hh_X(0, "enumerate", primed=True) == ZERO

    def test_enumeration_cap(self):
        with pytest.raises(CapExceeded):
            hh_X(25, "enumerate")

    def test_particle_number_bijection(self):
        # paths with n particles <-> partitions in an n x (L-2n) box
        for L in range(0, 13):
            by_count = {}
            for p in hh_paths(L):
                by_count.setdefault(sum(p), []).append(p)
            for n, paths in by_count.items():
                assert len(paths) == len(box_partitions(L - 2 * n, n))


class TestStrip:
    def test_figure_correspondence(self):
        h = strip_transform(FIG_PATH)
        assert h == (3, 4, 3, 2, 3, 4, 3, 2, 1, 2)
        assert strip_energy(h) == 14

    def test_flat_path_zigzags(self):
        h = strip_transform((0, 0, 0, 0))
        assert h == (3, 2, 3, 2)
        assert strip_energy(h) == 0

    def test_energy_preserved_and_injective(self):
        for L in range(0, 13):
            seen = set()
            for p in hh_paths(L):
                h = strip_transform(p)
                assert h not in seen
                seen.add(h)
                assert in_strip(h)
                assert strip_energy(h) == hh_energy(p)

    def test_term_j0_is_central_binomial(self):
        for L in range(0, 9):
            got = strip_inclusion_exclusion(L, 0)
            k = L // 2
            assert got == qbinomial(L - k, k)

    def test_terms_match_bosonic(self):
        for L in range(0, 11):
            for j in range(-3, 4):
                assert strip_inclusion_exclusion(L, j) == \
                    bosonic_term(L, j), (L, j)

    def test_far_terms_vanish(self):
        assert strip_inclusion_exclusion(6, 3) == ZERO
        assert bosonic_term(4, 2) == ZERO

    def test_signed_sum_recovers_x(self):
        for L in range(0, 17):
            total = ZERO
            strip = ZERO
            for j in range(-5, 6):
                t = strip_inclusion_exclusion(L, j)
                total = total + (t if j % 2 == 0 else -t)
            for h in strip_paths(L):
                if in_strip(h):
                    strip = strip + q_power(strip_energy(h))
            assert total == strip == hh_X(L), L


class TestSeries:
    def test_rr1_lhs_spot_value(self):
        # coefficient of q^4: the two partitions {4, 3+1}
        assert partitions_gap2(4) == 2
        rep = rr_series_check(1, 20)
        assert rep.passed

    def test_fermionic_counts_gap2_partitions(self):
        s = _fermionic_series(1, 24)
        for N in range(25):
            assert s.coeff(N) == partitions_gap2(N)

    def test_product_counts_congruent_parts(self):
        s1 = product_series(1, 20)
        s2 = product_series(2, 20)
        for N in range(21):
            assert s1.coeff(N) == partitions_congruent(N, {1, 4}, 5)
            assert s2.coeff(N) == partitions_congruent(N, {2, 3}, 5)

    @pytest.mark.parametrize("which", [1, 2])
    def test_series_lists_match_per_step_polynomials(self, which):
        # each series on one packed polynomial, against one QLaurent per
        # step
        for cutoff in [*range(61), 200]:
            assert _fermionic_series(which, cutoff) == \
                rr_fermionic_series(which, cutoff), cutoff
            assert product_series(which, cutoff) == \
                rr_product_series(which, cutoff), cutoff
            assert _alternating_series(which, cutoff) == \
                rr_alternating_series(which, cutoff), cutoff

    def test_both_identities_to_100(self):
        for which in (1, 2):
            rep = rr_series_check(which, 100)
            assert rep.passed, rep

    def test_cap(self):
        with pytest.raises(CapExceeded):
            rr_series_check(1, 500)
        # the product side is public, and packed like the other two
        assert product_series(1, SERIES_CAP) == rr_product_series(1,
                                                                 SERIES_CAP)
        with pytest.raises(CapExceeded):
            product_series(1, SERIES_CAP + 1)

    def test_series_cap_fits_one_word(self):
        # the series are packed modulo q^(cutoff + 1) and read back exactly
        # when every coefficient fits a signed word; a coefficient at q^e
        # counts some partitions of e, so p(SERIES_CAP) bounds them all
        p = [1] + [0] * SERIES_CAP  # partitions of e, one part size at a time
        for k in range(1, SERIES_CAP + 1):
            for e in range(k, SERIES_CAP + 1):
                p[e] += p[e - k]
        assert p[SERIES_CAP] < 2 ** 63
        for which in (1, 2):
            for series in (_fermionic_series, product_series,
                           _alternating_series):
                s = series(which, SERIES_CAP)
                assert all(0 <= s.coeff(e) <= p[e]
                           for e in range(SERIES_CAP + 1)), series
