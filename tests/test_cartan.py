import random
from collections import Counter
from itertools import product

import pytest

from crystalsums import cartan
from crystalsums.cartan import (_act, cartan_data, reduce_to_alcove,
                                simple_reflections, weyl_images)
from crystalsums.errors import CapExceeded, ShapeSyntaxError, UnsupportedError

from oracles import (coroot_pairing, element, translation_lattice_box,
                     weyl_enumerate)

CARTAN_A = {
    1: [[2]],
    2: [[2, -1], [-1, 2]],
    3: [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
}
# rows are <h_a, alpha_b>: the -2 sits in the short-root row next to the
# long root
CARTAN_C = {
    2: [[2, -2], [-1, 2]],
    3: [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
}


def test_weyl_sizes_and_signs():
    a2 = weyl_enumerate(cartan_data("A", 2))
    assert len(a2) == 6
    c2 = weyl_enumerate(cartan_data("C", 2))
    assert len(c2) == 8
    assert sum(w.sign for w in a2) == 0
    r1 = next(w for w in a2 if w.word == (1,))
    assert r1.sign == -1


def test_weyl_rank_cap(monkeypatch):
    with pytest.raises(CapExceeded):
        weyl_images(cartan_data("A", 7), tuple(range(8, 0, -1)), 0)
    monkeypatch.setattr(cartan, "WEYL_RANK_CAP", 2)
    with pytest.raises(CapExceeded):
        weyl_images(cartan_data("C", 3), (3, 2, 1), 0)


def _live(kind, mu, b):
    """supernomial's cheap support test: a nonnegative content (A), an L1
    norm within the boxes (C)."""
    return min(mu) >= 0 if kind == "A" else sum(map(abs, mu)) <= b


@pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("A", 3),
                                     ("C", 1), ("C", 2), ("C", 3)])
def test_walk_lists_the_live_images(kind, n):
    # (sign(w), 0, w(v) - rho) over the whole group, kept when the image
    # passes the support test, with multiplicity: a v with equal
    # coordinates, or a zero in type C, has repeated images
    data = cartan_data(kind, n)
    elements = weyl_enumerate(data)
    zero = (0,) * data.dim
    for v in product(range(-4, 5), repeat=data.dim):
        images = [(w.sign, tuple(a - r for a, r in zip(w.apply(v), data.rho)))
                  for w in elements]
        for b in range(7):
            want = Counter((s, zero, mu) for s, mu in images
                           if _live(kind, mu, b))
            assert Counter(weyl_images(data, v, b)) == want, (v, b)


@pytest.mark.parametrize("kind, n", [("A", 1), ("A", 2), ("A", 3),
                                     ("C", 1), ("C", 2), ("C", 3)])
def test_walk_lists_the_live_translates(kind, n):
    # with c = level + h_dual: (sign(w), beta, w(v) - c beta - rho) over
    # the whole group times a translation window, kept when the image
    # passes the support test; the window holds every beta with
    # |c beta_k| <= |v|_max + rho_1 + the largest image coordinate, which
    # is sum(v) - sum(rho) in type A and the boxes in type C
    data = cartan_data(kind, n)
    elements = weyl_enumerate(data)
    rng = random.Random(f"translates {kind}{n}")
    for level in range(4):
        c = level + data.h_dual
        for _ in range(12 if n == 3 else 30):
            v = tuple(rng.randint(-3, 6) for _ in range(data.dim))
            reach = sum(v) - sum(data.rho) if kind == "A" else 6
            bound = max(map(abs, v)) + data.rho[0] + max(reach, 0)
            window = translation_lattice_box(data, level, bound)
            terms = []
            for w in elements:
                wv = w.apply(v)
                terms += [(w.sign, beta,
                           tuple(a - c * x - r
                                 for a, x, r in zip(wv, beta, data.rho)))
                          for beta in window]
            for b in range(7):
                want = Counter(t for t in terms if _live(kind, t[2], b))
                got = Counter(weyl_images(data, v, b, c))
                assert got == want, (v, level, b)


def test_weyl_action_consistent_with_reflections():
    for kind, n in (("A", 2), ("C", 2), ("C", 3)):
        data = cartan_data(kind, n)
        gens = simple_reflections(data)
        v = tuple(range(5, 5 - data.dim, -1))
        for w in weyl_enumerate(data):
            out = v
            for i in reversed(w.word):
                out = _act(gens[i], out)
            assert out == w.apply(v)
            assert element(data, w.word) == w


def test_simple_reflection_examples():
    a2 = cartan_data("A", 2)
    assert _act(simple_reflections(a2)[1], (3, 1, 0)) == (1, 3, 0)
    c2 = cartan_data("C", 2)
    assert _act(simple_reflections(c2)[2], (3, 1)) == (3, -1)
    a1 = cartan_data("A", 1)
    assert _act(simple_reflections(a1, 1)[0], (1, 0)) == (3, -2)
    # type C: v_1 -> 2c - v_1 with c = level + h_dual
    assert _act(simple_reflections(c2, 1)[0], (3, 1)) == (5, 1)


def test_reflections_are_involutions():
    for kind, n in (("A", 2), ("C", 3)):
        data = cartan_data(kind, n)
        v = tuple(range(7, 7 - data.dim, -1))
        for level in (None, 0, 1, 3):
            for i in range(level is None, data.n + 1):
                r = simple_reflections(data, level)[i]
                assert _act(r, _act(r, v)) == v
                assert element(data, (i, i), level) == element(data, ())
                assert element(data, (i,), level).sign == -1


def test_affine_reflection_needs_level():
    a1 = cartan_data("A", 1)
    assert simple_reflections(a1)[0] is None
    with pytest.raises(IndexError):
        simple_reflections(a1)[2]
    with pytest.raises(ShapeSyntaxError):
        simple_reflections(a1, -1)


def test_alcove_walk_refuses_a_negative_level():
    # simple_reflections' level check is reduce_to_alcove's only refusal of
    # a negative level; at -1 the walk would end (one r_0 step), so this
    # cannot hang, while at a level <= -h_dual it would never end
    with pytest.raises(ShapeSyntaxError):
        reduce_to_alcove(cartan_data("A", 1), (3, 1), -1)


def test_unsupported_rank_or_type():
    for kind in ("A", "C"):
        for n in (0, -1):
            with pytest.raises(UnsupportedError):
                cartan_data(kind, n)
    with pytest.raises(UnsupportedError):
        cartan_data("B", 2)


def _in_alcove(data, v, level):
    c = None if level is None else level + data.h_dual
    return data.is_dominant(v) and (c is None or data.theta_pairing(v) <= c)


@pytest.mark.parametrize("kind,n", [("A", 1), ("A", 2), ("A", 3), ("C", 1),
                                    ("C", 2), ("C", 3)])
def test_walk_element_maps_onto_the_point_reached(kind, n):
    data = cartan_data(kind, n)
    rng = random.Random(f"{kind}{n}")
    for _ in range(200):
        v = tuple(rng.randint(-12, 12) for _ in range(data.dim))
        for level in (None, 0, 1, 2):
            reached, word = reduce_to_alcove(data, v, level)
            w = element(data, word, level)
            assert w.apply(v) == reached, (v, level, word)
            assert w.sign == (-1) ** len(word)
            assert _in_alcove(data, reached, level), (v, level, reached)
            # the point reached is the orbit's only point in the closed
            # chamber or alcove, so walking it again does nothing
            assert reduce_to_alcove(data, reached, level) == (reached, ())


def test_walk_inverts_every_weyl_element():
    for kind, n in (("A", 2), ("C", 2), ("C", 3)):
        data = cartan_data(kind, n)
        target = tuple(x + 3 for x in data.rho)
        for w in weyl_enumerate(data):
            reached, word = reduce_to_alcove(data, w.apply(target))
            assert reached == target
            assert element(data, word).compose(w) == element(data, ())


@pytest.mark.parametrize("kind,table", [("A", CARTAN_A), ("C", CARTAN_C)])
def test_cartan_matrix_reproduced(kind, table):
    for n, want in table.items():
        data = cartan_data(kind, n)
        got = [[coroot_pairing(data, a, data.simple_roots[b - 1])
                for b in range(1, n + 1)] for a in range(1, n + 1)]
        assert got == want


def test_cartan_matrix_ranks_up_to_five():
    for kind in ("A", "C"):
        for n in range(1 if kind == "A" else 2, 6):
            data = cartan_data(kind, n)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    got = coroot_pairing(data, a, data.simple_roots[b - 1])
                    if a == b:
                        assert got == 2
                    elif abs(a - b) > 1:
                        assert got == 0
                    else:
                        assert got in (-1, -2)


def test_rho_pairing():
    for kind, n in (("A", 3), ("C", 3), ("A", 5), ("C", 5)):
        data = cartan_data(kind, n)
        for a in range(1, n + 1):
            assert coroot_pairing(data, a, data.rho) == 1


def test_t_normalization():
    assert cartan_data("A", 4).t == (1, 1, 1, 1)
    assert cartan_data("C", 3).t == (2, 2, 1)
    # long roots have squared length 2: the integer form 2(v|w) reads 4
    c3 = cartan_data("C", 3)
    assert c3.form(c3.simple_roots[2], c3.simple_roots[2]) == 4
    assert c3.form(c3.simple_roots[0], c3.simple_roots[0]) == 2


def test_dual_coxeter():
    for n in (1, 2, 4):
        assert cartan_data("A", n).h_dual == n + 1
        assert cartan_data("A", n).a0 == 1
    for n in (2, 3):
        assert cartan_data("C", n).h_dual == n + 1


def test_lattice_box():
    a1 = cartan_data("A", 1)
    box = translation_lattice_box(a1, 2, 0)
    assert (0, 0) in box
    assert all(sum(b) == 0 for b in box)
    a2 = cartan_data("A", 2)
    assert all(sum(b) == 0 for b in translation_lattice_box(a2, 1, 5))
    c2 = cartan_data("C", 2)
    assert all(x % 2 == 0 for b in translation_lattice_box(c2, 1, 5)
               for x in b)
