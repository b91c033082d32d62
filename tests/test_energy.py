import random

import pytest

import crystalsums.crystal as crystal
from crystalsums.crystal import (FactorDescriptor, factor_elements,
                                 search_paths)
from crystalsums import energy
from crystalsums.cli import compute_sum
from crystalsums.energy import combinatorial_r, direct_sum, energy_extension
from crystalsums.errors import (CapExceeded, EnergyConsistencyError,
                                IsomorphismError, ShapeSyntaxError,
                                UnsupportedError)
from crystalsums.qpoly import QLaurent, invert_q, qmultinomial

from oracles import (all_contents_A, apply_sigma, build_component,
                     coenergy_D, energy_EB, filtered_paths, letters_word,
                     path_word, r_matrix_view, shape_elements,
                     tensor_arrow, word, word_r_matrix)

B11_A1 = FactorDescriptor("A", 1)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


class TestRMatrix:
    def test_identity_on_equal_factors(self):
        sigma, _ = r_matrix_view(B11_A1, B11_A1)
        assert all(k == v for k, v in sigma.items())

    def test_a1_energy_table(self):
        _, H = r_matrix_view(B11_A1, B11_A1)
        d = B11_A1
        def F(b):  # noqa: E743
            from crystalsums.crystal import Factor
            return Factor(d, (b,))
        assert H[(F(1), F(1))] == 0
        assert H[(F(1), F(2))] == 0
        assert H[(F(2), F(2))] == 0
        assert H[(F(2), F(1))] == -1

    @pytest.mark.parametrize("d2,d1", [
        (FactorDescriptor("A", 1), FactorDescriptor("A", 1)),
        (FactorDescriptor("A", 2), FactorDescriptor("A", 2)),
        (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1)),
        (FactorDescriptor("A", 1), FactorDescriptor("A", 1, 1, 2)),
        (FactorDescriptor("A", 2, 2, 1), FactorDescriptor("A", 2)),
        (FactorDescriptor("A", 2, 1, 2), FactorDescriptor("A", 2)),
    ])
    def test_sigma_commutes_with_all_arrows(self, d2, d1):
        sigma, _ = r_matrix_view(d2, d1)
        n = d2.n
        for (x2, x1), (y1, y2) in sigma.items():
            src = word((x2, x1))
            img = word((y1, y2))
            for i in range(0, n + 1):
                for direction in ("e", "f"):
                    a = tensor_arrow(src, i, direction)
                    b = tensor_arrow(img, i, direction)
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert sigma[(a.factors[0], a.factors[1])] == \
                            (b.factors[0], b.factors[1])

    @pytest.mark.parametrize("d2,d1", [
        (FactorDescriptor("A", 1), FactorDescriptor("A", 1, 1, 2)),
        (FactorDescriptor("A", 2), FactorDescriptor("A", 2, 2, 1)),
    ])
    def test_local_energy_rule_on_every_zero_arrow(self, d2, d1):
        # H changes by -1/+1 on 0-arrows exactly per the side condition and
        # is constant on classical arrows
        from crystalsums.crystal import factor_stats
        sigma, H = r_matrix_view(d2, d1)
        for (x2, x1) in sigma:
            src = word((x2, x1))
            for i in range(0, d2.n + 1):
                img = tensor_arrow(src, i, "e")
                if img is None:
                    continue
                h_src = H[(x2, x1)]
                h_img = H[(img.factors[0], img.factors[1])]
                if i != 0:
                    assert h_img == h_src
                    continue
                left_w = factor_stats(x2, 0)[0] > factor_stats(x1, 0)[1]
                y1, y2 = sigma[(x2, x1)]
                left_i = factor_stats(y1, 0)[0] > factor_stats(y2, 0)[1]
                want = -1 if (left_w and left_i) else \
                    1 if (not left_w and not left_i) else 0
                assert h_img - h_src == want

    def test_h_composed_with_sigma(self):
        # H_{B1,B2} o sigma_{B2,B1} = H_{B2,B1}
        d2 = FactorDescriptor("A", 1, 1, 2)
        d1 = FactorDescriptor("A", 1)
        sigma21, H21 = r_matrix_view(d2, d1)
        _, H12 = r_matrix_view(d1, d2)
        for key, img in sigma21.items():
            assert H12[img] == H21[key]

    def test_extremal_normalization(self):
        from crystalsums.crystal import highest_weight_element
        for d2, d1 in [(B11_A1, B11_A1),
                       (FactorDescriptor("A", 2, 1, 2),
                        FactorDescriptor("A", 2))]:
            _, H = r_matrix_view(d2, d1)
            assert H[(highest_weight_element(d2),
                      highest_weight_element(d1))] == 0

    def test_inconsistent_local_energy_is_an_error(self, monkeypatch):
        # raise H by one across the e_0 arrow leaving 2 (x) 1 only (element
        # indices 1 and 0 of A_2's box): that arrow lies on a cycle of A_2's
        # pair graph, so the search reaches one of its ends twice with
        # different energies
        d = FactorDescriptor("A", 2)
        h_step = energy._h_step
        monkeypatch.setattr(energy, "_TABLES", {})
        monkeypatch.setattr(
            energy, "_h_step",
            lambda t2, t1, key, image:
                h_step(t2, t1, key, image) + (key == (1, 0)))
        with pytest.raises(EnergyConsistencyError):
            combinatorial_r(d, d)

    def test_arrow_missing_on_one_side_is_an_error(self, monkeypatch):
        # drop f_1 from the vertex 11 (x) 1 of B2 (x) B1, keeping B1 (x) B2
        # intact: element indices 0 and 0, pair index 0; f_1 is the fourth
        # arrow of a pair (e_0, f_0, e_1, f_1)
        d2, d1 = FactorDescriptor("A", 1, 1, 2), B11_A1
        arrows = energy._product_arrows

        def cut(left, right):
            rows = arrows(left, right)
            if (left[0], right[0]) == (factor_elements(d2),
                                       factor_elements(d1)):
                assert left[0][0].letters == (1, 1)
                assert right[0][0].letters == (1,)
                assert rows[0][3] >= 0
                rows[0] = rows[0][:3] + (-1,) + rows[0][4:]
            return rows

        monkeypatch.setattr(energy, "_TABLES", {})
        monkeypatch.setattr(energy, "_product_arrows", cut)
        with pytest.raises(IsomorphismError, match="only one side"):
            combinatorial_r(d2, d1)

    def test_type_c_identity(self):
        # B^{1,1} (x) B^{1,1} of C_n^(1) is connected under colors 0..n
        for n in (1, 2, 3):
            d = FactorDescriptor("C", n)
            sigma, H = r_matrix_view(d, d)
            assert all(k == v for k, v in sigma.items())
            one = factor_elements(d)[0]
            assert one.letters == (1,) and H[(one, one)] == 0
            assert set(H.values()) == {0, -1}

    @pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3),
                                        ("C", 1), ("C", 2), ("C", 3)])
    def test_index_search_matches_the_word_search(self, kind, n,
                                                  monkeypatch):
        # every supported ordered pair: boxes, rows B^{1,s} with s <= 3 and
        # columns in type A; the box in type C
        descs = [FactorDescriptor(kind, n)]
        if kind == "A":
            descs += [FactorDescriptor("A", n, 1, s) for s in (2, 3)]
            descs += [FactorDescriptor("A", n, r, 1) for r in range(2, n + 2)]
        monkeypatch.setattr(energy, "_TABLES", {})
        for d2 in descs:
            for d1 in descs:
                assert combinatorial_r(d2, d1) == word_r_matrix(d2, d1), \
                    (d2, d1)

    @pytest.mark.parametrize("d2,d1", [
        (FactorDescriptor("A", 1), FactorDescriptor("A", 2)),
        (FactorDescriptor("A", 2, 1, 2), FactorDescriptor("A", 3)),
        (FactorDescriptor("C", 2), FactorDescriptor("A", 2)),
        (FactorDescriptor("C", 1), FactorDescriptor("C", 2)),
    ])
    def test_mixed_types_or_ranks_are_refused(self, d2, d1):
        with pytest.raises(UnsupportedError):
            combinatorial_r(d2, d1)


class TestEnergy:
    def test_zero_on_extremal(self):
        assert energy_EB(letters_word("A", 1, (1, 1))) == 0
        assert energy_EB(letters_word("A", 2, (1, 1, 1, 1))) == 0

    def test_single_pair(self):
        w = letters_word("A", 1, (2, 1))
        assert energy_EB(w) == -1
        assert coenergy_D(w) == 1

    def test_single_factor(self):
        assert energy_EB(letters_word("A", 2, (3,))) == 0

    def test_constant_on_classical_components(self):
        for seed_letters in ((2, 1, 1), (1, 2, 1), (3, 1, 2)):
            seed = letters_word("A", 2, seed_letters)
            comp = build_component(seed)
            values = {energy_EB(v) for v in comp.vertices}
            assert len(values) == 1

    def test_sigma_preserves_energy_value(self):
        # the NY sum is invariant under reordering a pair via sigma
        shape = (FactorDescriptor("A", 1, 1, 2), FactorDescriptor("A", 1),
                 FactorDescriptor("A", 1))
        for w in shape_elements(shape):
            assert energy_EB(apply_sigma(w, 1)) == energy_EB(w)


class TestDirectSums:
    def test_classical_coenergy_example(self):
        assert str(direct_sum(boxes("A", 1, 2), (1, 1))) == "q"

    def test_unrestricted_is_multinomial(self):
        for n in (1, 2):
            for L in range(1, 7):
                shape = boxes("A", n, L)
                for lam in all_contents_A(n, L):
                    assert direct_sum(shape, lam, restricted=False) == \
                        qmultinomial(L, lam), (n, L, lam)

    def test_energy_is_inverse_of_coenergy(self):
        # direct_sum is coenergy graded; the energy grading is compute_sum's
        shape = boxes("A", 2, 3)
        for lam in ((1, 1, 1), (2, 1, 0)):
            x = compute_sum(shape, lam, "classical", "direct", "energy", None)
            xb = direct_sum(shape, lam)
            assert xb == invert_q(x) and x != xb

    def test_bad_statistic(self):
        with pytest.raises(ShapeSyntaxError):
            compute_sum(boxes("A", 1, 2), (1, 1), "none", "direct", "typo",
                        None)


def seeded_shape(seed, n, kind_of_factor):
    """Factors in a seeded order: rows B^{1,s} or columns B^{r,1} of at
    least two sizes, or three to five single boxes."""
    rng = random.Random(f"{kind_of_factor} {n} {seed}")
    if kind_of_factor == "boxes":
        return boxes("A", n, rng.randint(3, 5))
    sizes = [1, 2] + [rng.randint(1, 3 if kind_of_factor == "rows" else n + 1)
                      for _ in range(rng.randint(1, 2))]
    rng.shuffle(sizes)
    if kind_of_factor == "rows":
        return tuple(FactorDescriptor("A", n, 1, s) for s in sizes)
    return tuple(FactorDescriptor("A", n, r, 1) for r in sizes)


class TestIncrementalEnergy:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind_of_factor", ["rows", "columns", "boxes"])
    def test_every_path_scores_its_coenergy(self, seed, n, kind_of_factor):
        # the exponent direct_sum accumulates for a path is minus the
        # energy the search adds up; it must be coenergy_D of that path
        shape = seeded_shape(seed, n, kind_of_factor)
        extend = energy_extension(shape)
        seen = 0
        for lam in all_contents_A(n, sum(d.boxes for d in shape)):
            for b, e in search_paths(shape, lam, restricted=False,
                                     extend=extend):
                w = path_word(shape, b)
                assert -e == coenergy_D(w), w
                seen += 1
        assert seen == sum(1 for _ in shape_elements(shape))

    @pytest.mark.parametrize("seed", range(3))
    def test_direct_sum_matches_the_product_filter(self, seed):
        shape = seeded_shape(seed, 2, "rows")
        for lam in all_contents_A(2, sum(d.boxes for d in shape)):
            for level, restricted in ((None, False), (None, True),
                                      (3, True)):
                want = QLaurent.from_exponents(
                    coenergy_D(b)
                    for b in filtered_paths(shape, lam, level, restricted))
                assert direct_sum(shape, lam, level, restricted) == want, \
                    (shape, lam, level, restricted)


def all_weights_C(n, L):
    """Every weight of (B^{1,1})^{(x)L} of C_n^(1): L1 norm at most L, of
    the parity of L."""
    out = [()]
    for _ in range(n):
        out = [w + (x,) for w in out for x in range(-L, L + 1)]
    return [w for w in out
            if sum(map(abs, w)) <= L and (L - sum(map(abs, w))) % 2 == 0]


# every homogeneous factor the sweep covers, with the largest L whose
# whole tensor product (at most a few hundred words) the oracle filters
HOMOGENEOUS = [
    (FactorDescriptor("A", 1), 7), (FactorDescriptor("A", 2), 5),
    (FactorDescriptor("A", 3), 4), (FactorDescriptor("A", 1, 1, 2), 5),
    (FactorDescriptor("A", 2, 1, 2), 3), (FactorDescriptor("A", 2, 1, 3), 2),
    (FactorDescriptor("A", 2, 2, 1), 5), (FactorDescriptor("A", 3, 2, 1), 3),
    (FactorDescriptor("C", 1), 7), (FactorDescriptor("C", 2), 4),
    (FactorDescriptor("C", 3), 3),
]


class TestTransferMatrix:
    @pytest.mark.parametrize("desc,max_L", HOMOGENEOUS, ids=lambda x: (
        f"{x.kind}{x.n}-B{x.r}{x.s}" if isinstance(x, FactorDescriptor)
        else f"L{x}"))
    def test_sweep_matches_search_and_filter(self, desc, max_L, monkeypatch):
        # direct_sum must sum a homogeneous shape without listing paths
        def no_search(*args, **kwargs):
            raise AssertionError("homogeneous shape reached the path search")

        monkeypatch.setattr(energy, "_search", no_search)
        for L in range(1, max_L + 1):
            shape = (desc,) * L
            extend = energy_extension(shape)
            energies = {w: energy_EB(w) for w in shape_elements(shape)}
            weights = (all_contents_A(desc.n, L * desc.boxes)
                       if desc.kind == "A" else all_weights_C(desc.n, L))
            for lam in weights:
                for level, restricted in ((None, False), (None, True),
                                          (1, True), (2, True)):
                    got = direct_sum(shape, lam, level, restricted)
                    searched = QLaurent.from_exponents(
                        -e for _, e in search_paths(shape, lam, level,
                                                    restricted, extend))
                    filtered = QLaurent.from_exponents(
                        -energies[w] for w in filtered_paths(
                            shape, lam, level, restricted))
                    case = (desc, L, lam, level, restricted)
                    assert got == searched == filtered, case

    def test_sweep_is_capped(self, monkeypatch):
        shape = boxes("A", 1, 6)
        want = direct_sum(shape, (3, 3))
        monkeypatch.setattr(crystal, "VERTEX_CAP", 5)
        with pytest.raises(CapExceeded, match="transitions"):
            direct_sum(shape, (3, 3))
        monkeypatch.setattr(crystal, "VERTEX_CAP", 50)
        assert direct_sum(shape, (3, 3)) == want
