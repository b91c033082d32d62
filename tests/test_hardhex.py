import pytest

from crystalsums.errors import CapExceeded
from crystalsums.hardhex import (hh_X, hh_energy, hh_paths,
                                 in_strip, product_series, rr_series_check,
                                 strip_energy, strip_inclusion_exclusion,
                                 strip_paths, strip_transform)
from crystalsums.qpoly import ONE, QLaurent, ZERO, q_power, qbinomial

from oracles import (bosonic_term, box_partitions, partitions_congruent,
                     partitions_gap2)

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


class TestConfigurationSums:
    def test_initial_conditions(self):
        assert hh_X(0) == ONE and hh_X(1) == ONE
        assert hh_X(0, primed=True) == ZERO
        assert hh_X(1, primed=True) == ONE

    def test_recurrence_value(self):
        assert hh_X(3).as_dict() == {0: 1, 1: 1, 2: 1}

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
        from crystalsums.hardhex import _fermionic_series
        s = _fermionic_series(1, 24)
        for N in range(25):
            assert s.coeff(N) == partitions_gap2(N)

    def test_product_counts_congruent_parts(self):
        s1 = product_series(1, 20)
        s2 = product_series(2, 20)
        for N in range(21):
            assert s1.coeff(N) == partitions_congruent(N, {1, 4}, 5)
            assert s2.coeff(N) == partitions_congruent(N, {2, 3}, 5)

    def test_both_identities_to_100(self):
        for which in (1, 2):
            rep = rr_series_check(which, 100)
            assert rep.passed, rep

    def test_cap(self):
        with pytest.raises(CapExceeded):
            rr_series_check(1, 500)
