import pytest

from crystalsums.cartan import (apply_simple_reflection, cartan_data,
                                translation_lattice_box, weyl_enumerate)
from crystalsums.errors import CapExceeded

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


def test_weyl_rank_cap():
    with pytest.raises(CapExceeded):
        weyl_enumerate(cartan_data("A", 7), rank_cap=6)


def test_weyl_action_consistent_with_reflections():
    for kind, n in (("A", 2), ("C", 2), ("C", 3)):
        data = cartan_data(kind, n)
        v = tuple(range(5, 5 - data.dim, -1))
        for w in weyl_enumerate(data):
            out = v
            for i in reversed(w.word):
                out = apply_simple_reflection(data, i, out)
            assert out == w.apply(v)


def test_simple_reflection_examples():
    a2 = cartan_data("A", 2)
    assert apply_simple_reflection(a2, 1, (3, 1, 0)) == (1, 3, 0)
    c2 = cartan_data("C", 2)
    assert apply_simple_reflection(c2, 2, (3, 1)) == (3, -1)
    a1 = cartan_data("A", 1)
    assert apply_simple_reflection(a1, 0, (1, 0), level=1) == (3, -2)


def test_reflections_are_involutions():
    for kind, n in (("A", 2), ("C", 3)):
        data = cartan_data(kind, n)
        v = tuple(range(7, 7 - data.dim, -1))
        for i in range(1, n + 1):
            assert apply_simple_reflection(
                data, i, apply_simple_reflection(data, i, v)) == v
        for level in (0, 1, 3):
            w = apply_simple_reflection(data, 0, v, level=level)
            assert apply_simple_reflection(data, 0, w, level=level) == v


def test_affine_reflection_needs_level():
    with pytest.raises(ValueError):
        apply_simple_reflection(cartan_data("A", 1), 0, (1, 0))
    with pytest.raises(IndexError):
        apply_simple_reflection(cartan_data("A", 1), 2, (1, 0))


@pytest.mark.parametrize("kind,table", [("A", CARTAN_A), ("C", CARTAN_C)])
def test_cartan_matrix_reproduced(kind, table):
    for n, want in table.items():
        data = cartan_data(kind, n)
        got = [[data.coroot_pairing(a, data.simple_roots[b - 1])
                for b in range(1, n + 1)] for a in range(1, n + 1)]
        assert got == want


def test_cartan_matrix_ranks_up_to_five():
    for kind in ("A", "C"):
        for n in range(1 if kind == "A" else 2, 6):
            data = cartan_data(kind, n)
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    got = data.coroot_pairing(a, data.simple_roots[b - 1])
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
            assert data.coroot_pairing(a, data.rho) == 1


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
