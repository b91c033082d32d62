"""Every route at q = 1 against the route-free count oracle.

At q = 1 a classical sum is a tensor-product multiplicity and a level sum
a fusion multiplicity.  ``oracles.count_oracle`` computes them by
Brauer-Klimyk and Kac-Walton folding, with no supernomial, rigged
configuration or energy, so it checks the four routes of ``compute_sum``
at lengths well beyond the oracles that list paths.  Each route runs at
the largest length it clears in a fraction of a second.
"""
from collections import Counter

import pytest

from crystalsums.cli import compute_sum
from crystalsums.crystal import FactorDescriptor
from crystalsums.fermionic import closed_form_F, rc_generating_function

from oracles import (at_one, count_oracle, dominant_contents_A,
                     dominant_weights_C, filtered_paths, lr_multiplicity)

# (type, n, level or None for the classical sum, the factors (r, s) other
# than the B^{1,1} boxes) -> the number of boxes per method
CASES = {
    ("C", 2, 1, ()): {"direct": 60, "bosonic": 28, "fermionic": 60,
                      "rc": 28},
    ("C", 2, 2, ()): {"direct": 40, "bosonic": 28, "fermionic": 20,
                      "rc": 16},
    ("C", 3, 1, ()): {"direct": 60, "bosonic": 16, "fermionic": 40,
                      "rc": 24},
    ("A", 1, 3, ()): {"direct": 60, "bosonic": 60, "fermionic": 60,
                      "rc": 24},
    ("A", 1, 3, ((1, 3), (1, 2))): {"direct": 16, "bosonic": 16,
                                    "fermionic": 16, "rc": 12},
    ("A", 2, 2, ()): {"direct": 40, "bosonic": 28, "fermionic": 40,
                      "rc": 24},
    ("C", 2, None, ()): {"direct": 14, "bosonic": 20, "fermionic": 12,
                         "rc": 12},
    ("C", 3, None, ()): {"direct": 10, "bosonic": 12, "fermionic": 8,
                         "rc": 8},
    ("A", 1, None, ()): {"direct": 28, "bosonic": 40, "fermionic": 28,
                         "rc": 14},
    ("A", 2, None, ()): {"direct": 16, "bosonic": 24, "fermionic": 14,
                         "rc": 12},
    ("A", 2, None, ((2, 1), (2, 1))): {"direct": 10, "bosonic": 10,
                                       "fermionic": 10, "rc": 8},
}


def _case_id(case):
    kind, n, level, extra = case
    out = f"{kind}{n}-" + ("classical" if level is None else f"level{level}")
    return out + "".join(f"-B{r}{s}" for r, s in extra)


def _dominant(kind, n, boxes):
    return (dominant_contents_A(n, boxes) if kind == "A"
            else dominant_weights_C(n, boxes))


@pytest.mark.parametrize("method", ["direct", "bosonic", "fermionic", "rc"])
@pytest.mark.parametrize("case", list(CASES), ids=_case_id)
def test_sum_at_one_is_the_multiplicity(case, method):
    kind, n, level, extra = case
    rs = extra + ((1, 1),) * (CASES[case][method] - len(extra))
    shape = tuple(FactorDescriptor(kind, n, r, s) for r, s in rs)
    want = count_oracle(kind, n, rs, level)
    restriction = "classical" if level is None else "level"
    boxes = sum(r * s for r, s in rs)
    got = {lam: at_one(compute_sum(shape, lam, restriction, method,
                                   "coenergy", level))
           for lam in _dominant(kind, n, boxes)}
    assert {lam: m for lam, m in got.items() if m} == want


@pytest.mark.parametrize("kind,n,level", [
    ("A", 1, None), ("A", 2, None), ("C", 2, None), ("C", 3, None),
    ("A", 1, 3), ("A", 2, 2), ("C", 2, 1), ("C", 2, 2), ("C", 3, 1)])
def test_count_oracle_matches_the_listing_oracles(kind, n, level):
    # the multiplicities by Weyl alternation of the weight multiset, and
    # the level ones by filtering every word of the product
    for L in range(1, 5):
        rs = ((1, 1),) * L
        want = count_oracle(kind, n, rs, level)
        shape = (FactorDescriptor(kind, n),) * L
        for lam in _dominant(kind, n, L):
            if level is None:
                got = lr_multiplicity(kind, n, rs, lam)
            else:
                got = len(filtered_paths(shape, lam, "level", level))
            assert want.get(lam, 0) == got, (L, lam)


# type C columns B^{r,1}: no factor crystal of the package takes them, so
# only the two fermionic evaluations reach these sums; (n, the columns (r,
# 1), the number of B^{1,1} boxes beside them)
COLUMN_CASES = [
    (2, ((2, 1),), 6), (2, ((2, 1),) * 2, 8), (2, ((2, 1),) * 6, 2),
    (3, ((2, 1),), 5), (3, ((2, 1),) * 2, 5), (3, ((3, 1),), 5),
    (3, ((3, 1),) * 2, 5), (3, ((3, 1), (2, 1)), 5)]


@pytest.mark.parametrize("level", [None, 1], ids=["classical", "level1"])
@pytest.mark.parametrize("evaluator", [closed_form_F, rc_generating_function],
                         ids=["closed_form_F", "rc"])
@pytest.mark.parametrize("n,columns,boxes", COLUMN_CASES,
                         ids=[f"C{n}-" + "-".join(f"B{r}{s}" for r, s in cols)
                              + f"-{b}boxes" for n, cols, b in COLUMN_CASES])
def test_type_c_columns_at_one_are_the_multiplicity(n, columns, boxes,
                                                    evaluator, level):
    rs = columns + ((1, 1),) * boxes
    want = count_oracle("C", n, rs, level)
    assert want
    got = {lam: at_one(evaluator("C", n, dict(Counter(rs)), lam, level))
           for lam in dominant_weights_C(n, sum(r for r, _ in rs))
           if level is None or lam[0] <= level}
    assert {lam: m for lam, m in got.items() if m} == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_type_c_column_is_one_irreducible(n):
    # B^{r,1} of C_n is classically V(varpi_r) alone: Brauer-Klimyk on the
    # weights of Lambda^r - Lambda^(r-2) leaves the one highest weight
    for r in range(1, n + 1):
        varpi = (1,) * r + (0,) * (n - r)
        assert count_oracle("C", n, ((r, 1),)) == {varpi: 1}
