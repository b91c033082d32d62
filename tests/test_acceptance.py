"""Acceptance criteria, one test per criterion, at their stated bounds.

Each test prints a single PASS line with its runtime; run with
``pytest tests/test_acceptance.py -v -s`` to see them.
"""
import time
from itertools import combinations_with_replacement, product

from crystalsums.bosonic import (_arrow, _strings, alternating_sum,
                                 involution_phi, supernomial_A_columns,
                                 supernomial_A_rows)
from crystalsums.cartan import cartan_data
from crystalsums.crystal import (FactorDescriptor, _combine_stats,
                                 _factor_table)
from crystalsums.energy import direct_sum
from crystalsums.fermionic import (closed_form_F, closed_form_F_level,
                                   rc_generating_function, vacuum_weight)
from crystalsums.hardhex import hh_X, rr_series_check
from crystalsums.qpoly import qmultinomial

from oracles import (all_contents_A, at_one, bosonic_term,
                     build_component, cc_stat, cc_theta, coroot_weight_pairing,
                     dominant_contents_A, dominant_weights_C, energy_EB,
                     enumerate_rc, letters_word, lr_multiplicity, partitions_gap2,
                     path_word, r_matrix_view, strip_inclusion_exclusion,
                     tensor_arrow, theta, word, word_weight)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


def _report(num, label, t0, budget):
    dt = time.perf_counter() - t0
    print(f"ACCEPTANCE {num} [{label}]: PASS ({dt:.2f}s / budget {budget}s)")
    assert dt < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_rr_polynomial_identity():
    t0 = time.perf_counter()
    for L in range(0, 21):
        for primed in (False, True):
            ref = hh_X(L, "enumerate", primed)
            for method in ("recurrence", "fermionic", "bosonic"):
                assert hh_X(L, method, primed) == ref, (L, primed, method)
    _report(1, "four evaluations of X(L), X'(L), L <= 20", t0, 5)


def test_criterion_2_strip_terms():
    t0 = time.perf_counter()
    for L in range(0, 15):
        top = (L + 4) // 5 + 1
        for j in range(-top, top + 1):
            assert strip_inclusion_exclusion(L, j) == bosonic_term(L, j), \
                (L, j)
    _report(2, "strip path sets match single alternating terms, L <= 14",
            t0, 30)


def test_criterion_3_series_limits():
    t0 = time.perf_counter()
    for which in (1, 2):
        rep = rr_series_check(which, 100)
        assert rep.fermionic_eq_alternating, which   # both sides of (bf)
        assert rep.fermionic_eq_product, which       # product sides
        assert rep.finite_limit_ok, which
    assert partitions_gap2(4) == 2  # spot value: {4, 3+1}
    from crystalsums.hardhex import _fermionic_series
    assert _fermionic_series(1, 4).coeff(4) == 2
    _report(3, "series identities through q^100", t0, 5)


def test_criterion_4_type_A_three_way():
    t0 = time.perf_counter()
    for n in (1, 2):
        for L in range(1, 7):
            shape = boxes("A", n, L)
            Lmap = {(1, 1): L}
            for lam in dominant_contents_A(n, L):
                d = direct_sum(shape, lam, "classical")
                b = alternating_sum(shape, lam)
                f = closed_form_F("A", n, Lmap, lam)
                r = rc_generating_function("A", n, Lmap, lam)
                assert d == b == f == r, (n, L, lam)
    _report(4, "direct = bosonic = fermionic = rigged, type A, L <= 6",
            t0, 120)


def test_criterion_5_supernomial_formulas():
    t0 = time.perf_counter()
    for n in (1, 2):
        # single columns: every multiset of heights with at most 6 boxes
        for k in range(1, 7):
            for mu in combinations_with_replacement(range(1, n + 2), k):
                total = sum(mu)
                if total > 6:
                    continue
                mu = tuple(sorted(mu, reverse=True))
                shape = tuple(FactorDescriptor("A", n, r, 1) for r in mu)
                for lam in all_contents_A(n, total):
                    assert supernomial_A_columns(n, mu, lam) == \
                        direct_sum(shape, lam, "none"), (mu, lam)
        # single rows: every multiset of widths with at most 6 boxes
        for k in range(1, 7):
            for mu in combinations_with_replacement(range(1, 7), k):
                total = sum(mu)
                if total > 6:
                    continue
                mu = tuple(sorted(mu, reverse=True))
                shape = tuple(FactorDescriptor("A", n, 1, s) for s in mu)
                for lam in all_contents_A(n, total):
                    assert supernomial_A_rows(n, mu, lam) == \
                        direct_sum(shape, lam, "none"), (mu, lam)
        # both reduce to the q-multinomial on single boxes
        for total in range(1, 7):
            ones = (1,) * total
            for lam in all_contents_A(n, total):
                want = qmultinomial(total, lam)
                assert supernomial_A_columns(n, ones, lam) == want
                assert supernomial_A_rows(n, ones, lam) == want
    _report(5, "supernomial closed forms match path sums, <= 6 boxes",
            t0, 120)


def test_criterion_6_level_restricted_type_A():
    t0 = time.perf_counter()
    cases = [(1, 1, 6), (1, 2, 6), (2, 1, 4)]
    for n, ell, maxL in cases:
        data = cartan_data("A", n)
        for L in range(1, maxL + 1):
            shape = boxes("A", n, L)
            Lmap = {(1, 1): L}
            for lam in dominant_contents_A(n, L):
                if lam[0] - lam[n] > ell:
                    continue
                d = direct_sum(shape, lam, "level", ell)
                rc = rc_generating_function("A", n, Lmap, lam, ell)
                cf = closed_form_F("A", n, Lmap, lam, ell)
                bl = alternating_sum(shape, lam, ell)
                assert d == rc == cf == bl, (n, ell, L, lam)
                if lam == vacuum_weight(data, Lmap):
                    assert d == closed_form_F_level(data, Lmap, ell), \
                        (n, ell, L)
    _report(6, "level-restricted type A, four ways", t0, 180)


def test_criterion_7_type_C_agreement():
    t0 = time.perf_counter()
    n = 2
    for L in range(1, 6):
        shape = boxes("C", n, L)
        Lmap = {(1, 1): L}
        for lam in dominant_weights_C(n, L):
            b = alternating_sum(shape, lam)
            r = rc_generating_function("C", n, Lmap, lam)
            f = closed_form_F("C", n, Lmap, lam)
            assert b == r == f, (L, lam)
            if not lam or lam[0] <= 1:
                bl = alternating_sum(shape, lam, 1)
                rc = rc_generating_function("C", n, Lmap, lam, 1)
                cf = closed_form_F("C", n, Lmap, lam, 1)
                assert bl == rc == cf, (L, lam)
    _report(7, "type C classical and level-1 sums, three ways", t0, 180)


def test_criterion_8_involution_suite():
    t0 = time.perf_counter()
    for n in (1, 2):
        for L in range(1, 5):
            for kind in ("A", "C"):
                shape = boxes(kind, n, L)
                lams = (dominant_contents_A(n, L) if kind == "A"
                        else dominant_weights_C(n, L))
                for lam in lams:
                    rep = involution_phi(shape, lam)
                    assert rep.passed, (kind, n, L, lam, rep)
            shape = boxes("A", n, L)
            for lam in dominant_contents_A(n, L):
                for ell in (1, 2):
                    if lam[0] - lam[n] > ell:
                        continue
                    rep = involution_phi(shape, lam, level=ell)
                    assert rep.passed, (n, L, lam, ell, rep)
    _report(8, "sign-reversing involutions, classical and level", t0, 60)


def test_criterion_9_structural_suites():
    t0 = time.perf_counter()
    # crystal axioms on every element of small products, through the
    # involution's index arrows
    for kind, n, L in (("A", 2, 3), ("C", 2, 3), ("A", 1, 4)):
        data = cartan_data(kind, n)
        shape = boxes(kind, n, L)
        tables = [_factor_table(d) for d in shape]
        for b in product(*(range(len(t[0])) for t in tables)):
            w = path_word(shape, b)
            for i in range(1, n + 1):
                fb = _arrow(tables, b, i, "f")
                if fb is not None:
                    assert _arrow(tables, fb, i, "e") == b
                    assert tuple(a - c for a, c in zip(
                        word_weight(w), word_weight(path_word(shape, fb)))) \
                        == data.simple_roots[i - 1]
                eps, phi, _ = _combine_stats(_strings(tables, b, i))
                assert phi - eps == coroot_weight_pairing(w, i)

    # R-matrix axioms on several pairs
    pairs = [(FactorDescriptor("A", 1), FactorDescriptor("A", 1)),
             (FactorDescriptor("A", 2), FactorDescriptor("A", 2)),
             (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1)),
             (FactorDescriptor("A", 2, 2, 1), FactorDescriptor("A", 2))]
    for d2, d1 in pairs:
        sigma, H = r_matrix_view(d2, d1)
        _, rev_H = r_matrix_view(d1, d2)
        from crystalsums.crystal import highest_weight_element
        assert H[(highest_weight_element(d2),
                  highest_weight_element(d1))] == 0
        for key, img in sigma.items():
            assert rev_H[img] == H[key]          # H o sigma = H
            src_w, img_w = word(key), word(img)
            for i in range(0, d2.n + 1):
                for direction in ("e", "f"):
                    a = tensor_arrow(src_w, i, direction)
                    b = tensor_arrow(img_w, i, direction)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert sigma[(a.factors[0], a.factors[1])] == \
                            (b.factors[0], b.factors[1])
                        if i != 0 and direction == "f":
                            assert H[(a.factors[0], a.factors[1])] == \
                                H[key]

    # energy constant on classical components
    for seed in ((2, 1, 1), (3, 2, 1)):
        comp = build_component(letters_word("A", 2, seed))
        assert len({energy_EB(v) for v in comp.vertices}) == 1

    # theta involution and the cc identity
    for kind, n, L, lam in (("A", 1, 4, (2, 2)), ("A", 2, 4, (2, 1, 1)),
                            ("C", 2, 4, (1, 1))):
        Lmap = {(1, 1): L}
        for rc in enumerate_rc(kind, n, Lmap, lam):
            tt = theta(rc, Lmap)
            assert theta(tt, Lmap) == rc
            assert cc_stat(tt) == cc_theta(rc, Lmap)

    # q = 1 multiplicities against the character oracle
    for kind, n, maxL in (("A", 1, 5), ("A", 2, 5), ("C", 2, 4)):
        for L in range(1, maxL + 1):
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                want = lr_multiplicity(kind, n, [(1, 1)] * L, lam)
                got = at_one(rc_generating_function(
                    kind, n, {(1, 1): L}, lam))
                assert got == want, (kind, n, L, lam)
    _report(9, "structural property suites", t0, 60)
