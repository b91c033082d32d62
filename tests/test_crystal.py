import math
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

import crystalsums.crystal as crystal
from crystalsums.bosonic import _arrow, _reflect, _strings, involution_phi
from crystalsums.crystal import (Factor, FactorDescriptor, VERTEX_CAP,
                                 _combine_stats, _factor_table,
                                 enumerate_paths, factor_arrow,
                                 factor_elements, factor_stats, letter_arrow,
                                 letters_of, search_paths)
from crystalsums.errors import (CapExceeded, CrystalStructureError,
                                UnsupportedError)

from oracles import (TensorWord, all_contents_A, build_component,
                     coroot_weight_pairing, crystal_level,
                     dominant_contents_A, dominant_weights_C, filtered_paths,
                     is_classically_restricted, letters_word, lr_multiplicity,
                     path_word, shape_elements, string_stats, tensor_arrow,
                     word_weight)


def boxes(kind, n, L):
    return tuple(FactorDescriptor(kind, n) for _ in range(L))


def paths(shape, *args, **kwargs):
    """``enumerate_paths`` as words."""
    return [path_word(shape, p)
            for p in enumerate_paths(shape, *args, **kwargs)]


def _box_word(kind, n, letters):
    order = letters_of(kind, n)  # the element order of a box
    return ([_factor_table(FactorDescriptor(kind, n))] * len(letters),
            tuple(map(order.index, letters)), order)


def on_boxes(op, kind, n, letters, i, *args):
    """The index arrow or reflection ``op`` of the involution on a word of
    boxes, given and returned as letters (None stays None)."""
    tables, b, order = _box_word(kind, n, letters)
    out = op(tables, b, i, *args)
    return None if out is None else tuple(order[k] for k in out)


def box_strings(kind, n, letters, i):
    """(eps_i, phi_i) of a word of boxes from its index tables."""
    tables, b, _ = _box_word(kind, n, letters)
    return _combine_stats(_strings(tables, b, i))[:2]


class TestLetters:
    def test_table_arrows_A(self):
        assert letter_arrow("A", 2, 1, 1, "f") == 2
        assert letter_arrow("A", 2, 2, 1, "f") is None
        assert letter_arrow("A", 2, 2, 3, "e") == 2

    def test_table_arrows_C(self):
        # 1 -> 2 -> ... -> n -> nbar -> ... -> 1bar
        assert letter_arrow("C", 3, 3, 3, "f") == -3
        assert letter_arrow("C", 3, 1, -2, "f") == -1
        assert letter_arrow("C", 3, 2, -2, "e") == -3
        assert letter_arrow("C", 3, 3, -3, "e") == 3

    def test_c_chain_is_connected(self):
        n = 3
        b = 1
        seen = [b]
        while True:
            for i in range(1, n + 1):
                nxt = letter_arrow("C", n, i, b, "f")
                if nxt is not None:
                    b = nxt
                    seen.append(b)
                    break
            else:
                break
        assert seen == [1, 2, 3, -3, -2, -1]


class TestTensorRule:
    def test_f_on_highest(self):
        assert on_boxes(_arrow, "A", 1, (1, 1), 1, "f") == (1, 2)

    def test_e_kills_highest(self):
        assert on_boxes(_arrow, "A", 1, (1, 1), 1, "e") is None

    def test_e_routes_right_and_dies(self):
        # eps_1(2) = 1 is not greater than phi_1(1) = 1, so e_1 hits the
        # right factor where it vanishes
        assert on_boxes(_arrow, "A", 1, (2, 1), 1, "e") is None

    def test_string_stats(self):
        assert box_strings("A", 1, (1,), 1) == (0, 1)
        assert box_strings("A", 1, (2, 1), 1) == (0, 0)
        assert box_strings("A", 1, (1, 2), 1) == (1, 1)

    def test_reflection(self):
        assert on_boxes(_reflect, "A", 1, (1, 1), 1) == (2, 2)
        assert on_boxes(_reflect, "A", 1, (2, 1), 1) == (2, 1)  # phi = eps

    def test_reflection_involution(self):
        for letters in iproduct((1, 2, 3), repeat=3):
            for i in (1, 2):
                once = on_boxes(_reflect, "A", 2, letters, i)
                assert on_boxes(_reflect, "A", 2, once, i) == letters


words_strategy = st.one_of(
    st.tuples(st.just("A"), st.integers(1, 3), st.integers(1, 5)),
    st.tuples(st.just("C"), st.integers(2, 3), st.integers(1, 4)),
).flatmap(lambda t: st.tuples(
    st.just(t[0]), st.just(t[1]),
    st.lists(st.sampled_from([v for v in range(-t[1], t[1] + 2)
                              if v != 0 and (t[0] == "C" or v > 0)
                              and abs(v) <= (t[1] + 1 if t[0] == "A" else t[1])]),
             min_size=1, max_size=t[2])))


class TestAxioms:
    @given(words_strategy)
    @settings(max_examples=250)
    def test_crystal_axioms(self, knl):
        kind, n, letters = knl
        letters = tuple(letters)
        w = letters_word(kind, n, letters)
        colors = range(1, n + 1)
        for i in colors:
            fw = on_boxes(_arrow, kind, n, letters, i, "f")
            if fw is not None:
                # adjointness and weight shift
                assert on_boxes(_arrow, kind, n, fw, i, "e") == letters
                delta = tuple(a - b for a, b in zip(
                    word_weight(w), word_weight(letters_word(kind, n, fw))))
                from crystalsums.cartan import cartan_data
                assert delta == cartan_data(kind, n).simple_roots[i - 1]
            eps, phi = box_strings(kind, n, letters, i)
            assert phi - eps == coroot_weight_pairing(w, i)

    @given(st.integers(1, 3), st.lists(st.integers(1, 4), min_size=1,
                                       max_size=5))
    @settings(max_examples=150)
    def test_affine_axiom_A(self, n, raw):
        letters = tuple(min(v, n + 1) for v in raw)
        w = letters_word("A", n, letters)
        eps, phi = box_strings("A", n, letters, 0)
        assert phi - eps == coroot_weight_pairing(w, 0)
        fw = on_boxes(_arrow, "A", n, letters, 0, "f")
        if fw is not None:
            assert on_boxes(_arrow, "A", n, fw, 0, "e") == letters

    @given(st.integers(1, 3), st.lists(st.integers(-3, 3).filter(bool),
                                       min_size=1, max_size=5))
    @settings(max_examples=150)
    def test_affine_axiom_C(self, n, raw):
        letters = tuple(max(-n, min(v, n)) for v in raw)
        w = letters_word("C", n, letters)
        eps, phi = box_strings("C", n, letters, 0)
        assert phi - eps == coroot_weight_pairing(w, 0)
        fw = on_boxes(_arrow, "C", n, letters, 0, "f")
        if fw is not None:
            assert on_boxes(_arrow, "C", n, fw, 0, "e") == letters
            # f_0 subtracts alpha_0 = delta - 2 eps_1
            assert tuple(a - b for a, b in zip(
                word_weight(letters_word("C", n, fw)),
                word_weight(w))) == (2,) + (0,) * (n - 1)


class TestComponents:
    def test_a2_lambda2_component(self):
        g = build_component(letters_word("A", 2, (2, 1)))
        assert {str(v) for v in g.vertices} == {"2(x)1", "3(x)1", "3(x)2"}
        assert g.highest == letters_word("A", 2, (2, 1))

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (3, 2), (3, 3)])
    def test_fundamental_dimensions(self, n, k):
        seed = letters_word("A", n, tuple(range(k, 0, -1)))
        g = build_component(seed)
        assert len(g.vertices) == math.comb(n + 1, k)

    def test_b_lambda1_connected(self):
        g = build_component(letters_word("A", 3, (1,)))
        assert len(g.vertices) == 4
        g = build_component(letters_word("C", 2, (1,)))
        assert len(g.vertices) == 4

    def test_components_partition_everything(self):
        shape = boxes("A", 2, 3)
        seen = set()
        for w in shape_elements(shape):
            if w in seen:
                continue
            comp = build_component(w)
            assert not (set(comp.vertices) & seen)
            seen.update(comp.vertices)
        assert len(seen) == 27

    def test_vertex_cap(self, monkeypatch):
        monkeypatch.setattr(crystal, "VERTEX_CAP", 2)
        with pytest.raises(CapExceeded):
            build_component(letters_word("A", 2, (1, 1, 1)))


class TestAffineArrows:
    def test_zero_arrow_on_letters(self):
        d1 = FactorDescriptor("A", 1)
        assert factor_arrow(Factor(d1, (1,)), 0, "e") == Factor(d1, (2,))
        d2 = FactorDescriptor("A", 2)
        assert factor_arrow(Factor(d2, (3,)), 0, "f") == Factor(d2, (1,))

    def test_zero_arrow_adjoint(self):
        for desc in (FactorDescriptor("A", 2, 2, 1),
                     FactorDescriptor("A", 2, 1, 2),
                     FactorDescriptor("A", 1, 1, 3)):
            for x in factor_elements(desc):
                y = factor_arrow(x, 0, "e")
                if y is not None:
                    assert factor_arrow(y, 0, "f") == x

    def test_zero_stats_are_string_lengths(self):
        # eps_0 and phi_0, read through promotion, against walking the e_0
        # and f_0 strings arrow by arrow
        def walk(x, direction):
            steps = 0
            while (x := factor_arrow(x, 0, direction)) is not None:
                steps += 1
            return steps

        for n in (1, 2, 3):
            descs = [FactorDescriptor("A", n, r, 1) for r in range(1, n + 2)]
            descs += [FactorDescriptor("A", n, 1, s) for s in range(2, 5)]
            descs += [FactorDescriptor("C", n)]
            for desc in descs:
                for x in factor_elements(desc):
                    e, f = walk(x, "e"), walk(x, "f")
                    assert factor_stats(x, 0) == (e, f, f - e), x

    def test_type_c_zero_arrow(self):
        # B^{1,1} of C_n^(1): f_0 takes 1bar to 1, e_0 takes 1 to 1bar, and
        # no other letter has a 0-arrow
        for n in (1, 2, 3):
            d = FactorDescriptor("C", n)
            one, one_bar = Factor(d, (1,)), Factor(d, (-1,))
            assert factor_arrow(one_bar, 0, "f") == one
            assert factor_arrow(one, 0, "e") == one_bar
            for x in factor_elements(d):
                if x not in (one, one_bar):
                    assert factor_stats(x, 0) == (0, 0, 0), x

    def test_levels(self):
        assert crystal_level((FactorDescriptor("A", 1),)) == 1
        assert crystal_level((FactorDescriptor("A", 2),)) == 1
        assert crystal_level((FactorDescriptor("A", 2, 2, 1),)) == 1
        assert crystal_level((FactorDescriptor("A", 1, 1, 2),)) == 2
        assert crystal_level((FactorDescriptor("A", 2, 1, 3),)) == 3
        for n in (1, 2, 3):
            assert crystal_level((FactorDescriptor("C", n),)) == 1
        # tensor of level-1 factors still has a level >= 1 witness
        assert crystal_level(boxes("A", 1, 2)) >= 1


class TestPathSets:
    def test_classical_unique(self):
        assert [str(p) for p in
                paths(boxes("A", 1, 2), (1, 1))] == ["2(x)1"]

    def test_unrestricted_unique_content(self):
        assert [str(p) for p in paths(boxes("A", 1, 2), (2, 0), restricted=False)] \
            == ["1(x)1"]

    def test_level_restricted_count(self):
        got = enumerate_paths(boxes("A", 1, 4), (2, 2), level=1)
        assert len(got) == 1

    def test_level_paths_for_C(self):
        for n, max_L in ((1, 6), (2, 4)):
            for L in range(1, max_L + 1):
                shape = boxes("C", n, L)
                for lam in dominant_weights_C(n, L):
                    for level in (0, 1, 2):
                        got = paths(shape, lam, level)
                        want = filtered_paths(shape, lam, level)
                        assert sorted(got, key=str) == \
                            sorted(want, key=str), (n, L, lam, level)

    def test_total_path_count(self):
        for kind, n, L in (("A", 2, 3), ("C", 2, 2)):
            shape = boxes(kind, n, L)
            dim = n + 1 if kind == "A" else 2 * n
            total = sum(1 for _ in shape_elements(shape))
            assert total == dim ** L

    @pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("C", 2)])
    def test_multiplicities_match_character_oracle(self, kind, n):
        for L in range(1, 6 if kind == "A" else 5):
            shape = boxes(kind, n, L)
            raw = [(1, 1)] * L
            lams = (dominant_contents_A(n, L) if kind == "A"
                    else dominant_weights_C(n, L))
            for lam in lams:
                got = len(enumerate_paths(shape, lam))
                assert got == lr_multiplicity(kind, n, raw, lam), (lam, L)


@st.composite
def search_inputs(draw):
    """A small shape (type A rows, columns or both; type C boxes), one of
    its weights, a level or None and whether the paths are restricted."""
    kind = draw(st.sampled_from("AC"))
    n = draw(st.integers(1, 2))
    if kind == "A":
        rows = [(1, s) for s in (1, 2, 3)]
        cols = [(r, 1) for r in range(2, n + 2)]
        pool = draw(st.sampled_from((rows, cols, rows + cols)))
        L = draw(st.integers(1, 4))
    else:
        pool = [(1, 1)]
        L = draw(st.integers(1, 5))
    shape = tuple(FactorDescriptor(kind, n, r, s) for r, s in
                  draw(st.lists(st.sampled_from(pool), min_size=L,
                                max_size=L)))
    total = sum(d.boxes for d in shape)
    if kind == "A":
        weight = draw(st.sampled_from(all_contents_A(n, total)))
    else:
        weight = tuple(draw(st.lists(st.integers(-total, total),
                                     min_size=n, max_size=n)))
    level = draw(st.one_of(st.none(), st.integers(0, 3)))
    return shape, weight, level, draw(st.booleans())


class TestPathSearch:
    @given(search_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_product_filter(self, case):
        shape, weight, level, restricted = case
        got = paths(shape, weight, level, restricted)
        want = filtered_paths(shape, weight, level, restricted)
        assert sorted(got, key=str) == sorted(want, key=str)

    @pytest.mark.parametrize("n,max_L", [(1, 6), (2, 4)])
    def test_boxes_match_the_product_filter(self, n, max_L):
        for L in range(1, max_L + 1):
            shape = boxes("A", n, L)
            for lam in all_contents_A(n, L):
                for level, restricted in ((None, False), (None, True),
                                          (0, True), (1, True), (2, True),
                                          (3, True)):
                    got = paths(shape, lam, level, restricted)
                    want = filtered_paths(shape, lam, level, restricted)
                    assert sorted(got, key=str) == sorted(want, key=str), \
                        (L, lam, level, restricted)

    @pytest.mark.parametrize("shape", [
        boxes("A", 2, 5),
        (FactorDescriptor("A", 2, 1, 2), FactorDescriptor("A", 2),
         FactorDescriptor("A", 2, 1, 3), FactorDescriptor("A", 2, 2, 1)),
        (FactorDescriptor("A", 3, 3, 1), FactorDescriptor("A", 3, 2, 1),
         FactorDescriptor("A", 3, 2, 1)),
        boxes("C", 2, 4),
    ])
    def test_right_suffixes_of_restricted_paths_are_highest(self, shape):
        # the lemma behind the highest weight pruning
        seen = 0
        for w in shape_elements(shape):
            if is_classically_restricted(w):
                seen += 1
                for k in range(1, len(shape)):
                    suffix = TensorWord(w.kind, w.n, w.factors[k:])
                    assert is_classically_restricted(suffix), (w, k)
        assert seen > 1

    def test_cap_counts_search_nodes(self, monkeypatch):
        monkeypatch.setattr(crystal, "VERTEX_CAP", 5)
        with pytest.raises(CapExceeded):
            enumerate_paths(boxes("A", 1, 6), (3, 3))
        monkeypatch.setattr(crystal, "VERTEX_CAP", 50)
        assert len(enumerate_paths(boxes("A", 1, 6), (3, 3))) == 5

    @pytest.mark.parametrize("shape,weight", [
        # a content sum above the boxes: B^{1,2} (x) (B^{1,1})^{(x)10} of
        # A_3 walked its whole prefix tree into CapExceeded before
        ((FactorDescriptor("A", 3, 1, 2),) + boxes("A", 3, 10), (20,) * 4),
        (boxes("A", 2, 4), (3, 1, 1)),
        # an L1 norm above the boxes in type C
        (boxes("C", 2, 3), (3, 1)),
    ])
    @pytest.mark.parametrize("restricted", [False, True],
                             ids=["none", "classical"])
    def test_weight_beyond_the_boxes_visits_no_node(self, monkeypatch, shape,
                                                    weight, restricted):
        # the L1 rule of _place holds at the empty suffix already
        monkeypatch.setattr(crystal, "VERTEX_CAP", 0)
        assert search_paths(shape, weight, restricted=restricted) == []

    def test_product_beyond_the_cap(self):
        shape = boxes("A", 1, 21)
        assert 2 ** 21 > VERTEX_CAP
        # the involution lists the whole product, so it refuses it
        with pytest.raises(CapExceeded):
            involution_phi(shape, (21, 0))
        assert [str(w) for w in paths(shape, (21, 0))] \
            == ["(x)".join(["1"] * 21)]


class TestDescriptors:
    def test_rejects_unsupported(self):
        with pytest.raises(UnsupportedError):
            FactorDescriptor("A", 2, 2, 2)
        with pytest.raises(UnsupportedError):
            FactorDescriptor("C", 2, 2, 1)
        with pytest.raises(UnsupportedError):
            FactorDescriptor("A", 2, 4, 1)

    def test_full_column_is_trivial(self):
        desc = FactorDescriptor("A", 2, 3, 1)
        assert len(factor_elements(desc)) == 1

    def test_no_highest_weight_element_raises(self, monkeypatch):
        # broken arrows: every element has an e-arrow; the factor's index
        # table is rebuilt from them, past its cache
        monkeypatch.setattr(crystal, "factor_arrow", lambda x, i, d: x)
        monkeypatch.setattr(crystal, "_factor_table",
                            crystal._factor_table.__wrapped__)
        with pytest.raises(CrystalStructureError):
            crystal.highest_weight_element.__wrapped__(
                FactorDescriptor("A", 2))

    def test_empty_word(self):
        w = TensorWord("A", 1, ())
        assert word_weight(w) == (0, 0)
        assert string_stats(w, 1) == (0, 0)
        assert tensor_arrow(w, 1, "f") is None
        assert _arrow([], (), 1, "f") is None
