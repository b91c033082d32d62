"""Every route's entry point refuses malformed input as compute_sum does,
and returns what direct_sum does where the sum vanishes by definition.

compute_sum is what ``crystalsums sum`` runs; the class it raises is the
exit code (ShapeSyntaxError 2, UnsupportedError 3).  Each library entry
point of the direct, bosonic and fermionic routes must raise the same
class for the same input, and never return a polynomial, a path list or a
report for it.  The message is compared too: every refusal comes from the
one check in ``cartan``, not from a check of the route's own.  A sum that
is zero by definition (``cartan.vanishes``) is ZERO from every route that
covers its input, not an error, and not a signed alternating sum.
"""
import sys

import pytest

from crystalsums import bosonic, cartan
from crystalsums.bosonic import alternating_sum, involution_phi, supernomial
from crystalsums.cartan import cartan_data, shape_type, vanishes
from crystalsums.cli import compute_sum, parse_shape
from crystalsums.crystal import FactorDescriptor, search_paths
from crystalsums.energy import direct_sum
from crystalsums.errors import (CrystalSumsError, ShapeSyntaxError,
                                UnsupportedError)
from crystalsums.fermionic import closed_form_F, rc_generating_function
from crystalsums.hardhex import hh_X, product_series, rr_series_check
from crystalsums.qpoly import ONE, ZERO

A1, A2 = FactorDescriptor("A", 1), FactorDescriptor("A", 2)
C2 = FactorDescriptor("C", 2)

# name -> (shape, weight, level, class refused with): (B^{1,1} of
# A_1)^{(x)2} at weight (1, 1) and level 1, with one thing wrong
INPUTS = {
    "short weight": ((A1, A1), (2,), 1, ShapeSyntaxError),
    "long weight": ((A1, A1), (1, 1, 0), 1, ShapeSyntaxError),
    "negative level": ((A1, A1), (1, 1), -1, ShapeSyntaxError),
    "empty shape": ((), (0, 0), 1, UnsupportedError),
    "mixed ranks": ((A1, A2), (1, 1), 1, UnsupportedError),
}


def _type(shape):
    return shape[0].kind, shape[0].n


def _lmap(shape):
    return shape_type(shape)[2]


# entry point -> (restriction of its sum, the inputs it takes, call); the
# fermionic functions take an L-map, which has no empty or mixed shape.  A
# function with a level argument is listed twice, once without a level
# (the classical sum) and once with one.  The keys are test ids, kept
# stable: bosonic_classical and bosonic_level name alternating_sum's two
# sums, and level_restricted rc_generating_function's level sum
WEIGHTS = ("short weight", "long weight")
SHAPES = ("empty shape", "mixed ranks")
ROUTES = {
    "direct_sum none": ("none", WEIGHTS + SHAPES, lambda s, w, lv:
                        direct_sum(s, w, restricted=False)),
    "direct_sum": ("classical", WEIGHTS + SHAPES,
                   lambda s, w, lv: direct_sum(s, w)),
    "direct_sum level": ("level", WEIGHTS + SHAPES + ("negative level",),
                         lambda s, w, lv: direct_sum(s, w, lv)),
    "search_paths": ("classical", WEIGHTS + SHAPES,
                     lambda s, w, lv: search_paths(s, w)),
    "search_paths level": ("level", WEIGHTS + SHAPES + ("negative level",),
                           lambda s, w, lv: search_paths(s, w, lv)),
    "supernomial": ("none", WEIGHTS + SHAPES,
                    lambda s, w, lv: supernomial(s, w)),
    "bosonic_classical": ("classical", WEIGHTS + SHAPES,
                          lambda s, w, lv: alternating_sum(s, w)),
    "bosonic_level": ("level", WEIGHTS + SHAPES + ("negative level",),
                      lambda s, w, lv: alternating_sum(s, w, lv)),
    "involution_phi": ("classical", WEIGHTS + SHAPES,
                       lambda s, w, lv: involution_phi(s, w)),
    "involution_phi level": ("level", WEIGHTS + SHAPES + ("negative level",),
                             lambda s, w, lv: involution_phi(s, w, lv)),
    "closed_form_F": ("classical", WEIGHTS, lambda s, w, lv: closed_form_F(
        *_type(s), _lmap(s), w)),
    "closed_form_F level": ("level", WEIGHTS + ("negative level",),
                            lambda s, w, lv: closed_form_F(*_type(s),
                                                           _lmap(s), w, lv)),
    "rc_generating_function": ("classical", WEIGHTS, lambda s, w, lv:
                               rc_generating_function(*_type(s), _lmap(s), w)),
    "level_restricted": ("level", WEIGHTS + ("negative level",),
                         lambda s, w, lv: rc_generating_function(
                             *_type(s), _lmap(s), w, lv)),
}


def outcome(call):
    """The class and message of the package error ``call`` raises, or what
    it returns."""
    try:
        return call()
    except (CrystalSumsError, ShapeSyntaxError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("route,bad", [
    (route, bad) for route, (_, takes, _) in ROUTES.items() for bad in takes])
def test_every_route_refuses_as_compute_sum(route, bad):
    restriction, _, call = ROUTES[route]
    shape, weight, level, refused = INPUTS[bad]
    want = outcome(lambda: compute_sum(
        shape, weight, restriction, "direct", "coenergy",
        level if restriction == "level" else None))
    assert want[0] is refused, want
    assert outcome(lambda: call(shape, weight, level)) == want


# name -> (shape, weight, level): every level-restricted sum of these
# vanishes by definition, and so does every classical one but that of
# "above the level"
VANISHING = {
    "non-dominant": ((A1,) * 3, (0, 3), 1),
    "above the level": ((A1,) * 3, (3, 0), 1),
    "type C above the level": ((C2,) * 2, (2, 0), 1),
    "wrong box count": ((A1,) * 3, (2, 2), 1),
    "negative content": ((A1,) * 3, (4, -1), 1),
    "type C parity": ((C2,) * 3, (1, 1), 1),
    "mixed shape": ((FactorDescriptor("A", 2, 1, 2),
                     FactorDescriptor("A", 2, 2, 1)), (0, 2, 2), 2),
    # a column holds each letter once: no path has three 1s
    "column bound": ((FactorDescriptor("A", 2, 2, 1), A2), (3, 0, 0), 2),
}

# the library entry points that take a weight, as keyed in ROUTES
LIBRARY = ("supernomial", "bosonic_classical", "bosonic_level",
           "involution_phi", "involution_phi level", "closed_form_F",
           "closed_form_F level", "rc_generating_function",
           "level_restricted")


@pytest.mark.parametrize("route,case", [
    (route, case) for route in LIBRARY for case in VANISHING])
def test_every_route_is_zero_where_the_sum_vanishes(route, case):
    # each route equals direct_sum, or raises UnsupportedError where it
    # does not cover the input: the bosonic route a shape mixing rows and
    # columns, the involution a sum with no pair set to report on
    restriction, _, call = ROUTES[route]
    shape, weight, level = VANISHING[case]
    want = direct_sum(shape, weight, level if restriction == "level"
                      else None, restricted=restriction != "none")
    if restriction == "level":
        assert want == ZERO
    got = outcome(lambda: call(shape, weight, level))
    if route.startswith("involution_phi"):
        if want.is_zero():
            assert got[0] is UnsupportedError, got
        else:
            assert got.passed, got
    elif case == "mixed shape" and route in ("supernomial",
                                             "bosonic_classical",
                                             "bosonic_level"):
        assert got[0] is UnsupportedError, got
    else:
        assert got == want


# B^{2,1} (x) B^{1,1} of C_2 as an L-map, which no shape can carry
# (FactorDescriptor refuses type C columns): the column holds at most one
# of the letters 1 and 1-bar, so no path has the weight (3, 0); the keys
# are test ids, as in ROUTES
COLUMN_BOUND_C = {
    "closed_form_F": lambda L, w: closed_form_F("C", 2, L, w),
    "closed_form_F level": lambda L, w: closed_form_F("C", 2, L, w, 3),
    "rc_generating_function":
        lambda L, w: rc_generating_function("C", 2, L, w),
    "level_restricted": lambda L, w: rc_generating_function("C", 2, L, w, 3),
}


@pytest.mark.parametrize("route", sorted(COLUMN_BOUND_C))
def test_fermionic_sums_are_zero_past_the_column_bound(route):
    L = {(2, 1): 1, (1, 1): 1}
    assert vanishes(cartan_data("C", 2), L, (3, 0), 3)
    assert COLUMN_BOUND_C[route](L, (3, 0)) == ZERO
    # the bound reads the columns: at (2, 1) the sums are not zero
    assert not vanishes(cartan_data("C", 2), L, (2, 1), 3)
    assert COLUMN_BOUND_C[route](L, (2, 1)) != ZERO


@pytest.mark.parametrize("case", sorted(VANISHING))
@pytest.mark.parametrize("restriction", ["none", "classical", "level"])
def test_direct_sum_vanishes_where_the_walk_finds_no_path(case, restriction):
    # direct_sum returns ZERO by the rule, without a walk; the walk itself
    # finds no path on just those inputs, so the rule drops no path
    shape, weight, level = VANISHING[case]
    level = level if restriction == "level" else None
    restricted = restriction != "none"
    paths = search_paths(shape, weight, level, restricted)
    assert direct_sum(shape, weight, level, restricted).is_zero() \
        == (not paths)


def test_direct_sum_walks_no_vanishing_sum():
    # no path reaches a content sum above the boxes, but a walk sees that
    # only late: without the rule, the walk of the first of these ran for
    # over ten minutes on a 2-core host
    A3 = FactorDescriptor("A", 3)
    for shape, weight in (((A3,) * 60, (60,) * 4),
                          ((FactorDescriptor("A", 3, 1, 2),) + (A3,) * 10,
                           (20,) * 4)):
        assert compute_sum(shape, weight, "none", "direct", "coenergy",
                           None) == ZERO


# a type C L-map with a factor B^{1,2}: no route covers it, and no shape of
# it can be built (FactorDescriptor refuses it, with its own message); the
# keys are test ids, as in ROUTES
TYPE_C_ROW = {
    "closed_form_F": lambda L: closed_form_F("C", 2, L, (2, 0)),
    "closed_form_F level": lambda L: closed_form_F("C", 2, L, (2, 0), 2),
    "rc_generating_function":
        lambda L: rc_generating_function("C", 2, L, (2, 0)),
    "level_restricted": lambda L: rc_generating_function("C", 2, L, (2, 0),
                                                         2),
}


@pytest.mark.parametrize("route", sorted(TYPE_C_ROW))
def test_type_c_rows_are_refused_as_by_compute_sum(route):
    want = outcome(lambda: compute_sum(parse_shape("C:2;1,2*2"), (2, 0),
                                       "level", "rc", "coenergy", 2))
    assert want[0] is UnsupportedError
    got = outcome(lambda: TYPE_C_ROW[route]({(1, 2): 2}))
    assert got == (UnsupportedError, "type C factors must be single columns")


# the restriction string is compute_sum's alone, as the routes take a level
# and whether the sum is restricted (``cartan.vanishes``): it refuses one it
# does not know, or a level restriction without a level, for every method
@pytest.mark.parametrize("method", ["direct", "bosonic", "fermionic", "rc"])
@pytest.mark.parametrize("restriction", ["bogus", "level"])
def test_compute_sum_refuses_a_restriction(method, restriction):
    got = outcome(lambda: compute_sum((A1, A1), (1, 1), restriction, method,
                                      "coenergy", None))
    assert got[0] is UnsupportedError, got


# one valid input per route of ROUTES, as (shape, weight, level): rows of
# two widths, which the level involution, on single boxes only, does not
# take
ROWS = ((FactorDescriptor("A", 1, 1, 2), A1), (2, 1), 2)
CHECKED_ONCE = {route: ((A1,) * 3, (2, 1), 1) if route ==
                "involution_phi level" else ROWS for route in ROUTES}


@pytest.mark.parametrize("route", sorted(CHECKED_ONCE))
def test_every_route_checks_its_input_once(route, monkeypatch):
    # each entry point calls cartan.check_sum once per call, and nothing
    # past it checks again: not the closed forms on a cache miss, not the
    # path search of a mixed direct sum or of the involution's fixed
    # points.  check_sum is counted through every module that imports it;
    # cartan's own cached simple_reflections checks its level on a miss,
    # as an entry of its own
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return cartan.check_sum(*args, **kwargs)

    for module in sys.modules.values():
        if (getattr(module, "__name__", "").startswith("crystalsums.")
                and module is not cartan
                and getattr(module, "check_sum", None) is cartan.check_sum):
            monkeypatch.setattr(module, "check_sum", counted)
    bosonic._supernomial_closed_form.cache_clear()
    bosonic._pair_sets.cache_clear()
    shape, weight, level = CHECKED_ONCE[route]
    ROUTES[route][2](shape, weight, level)
    assert len(calls) == 1, calls


# the hard-hexagon entry points take no shape, so they refuse on their own,
# with the classes compute_sum raises (exit 2 and 3): a negative length or
# series cutoff is malformed, and its message names the value the caller
# passed; an unknown method or identity is out of scope
HARDHEX = {
    "hh_X negative L": (lambda: hh_X(-1), ShapeSyntaxError, "-1"),
    "hh_X negative L primed": (lambda: hh_X(-2, "bosonic", True),
                               ShapeSyntaxError, "-2"),
    "hh_X unknown method": (lambda: hh_X(3, "bogus"), UnsupportedError,
                            "bogus"),
    "rr_series_check negative cutoff": (lambda: rr_series_check(1, -5),
                                        ShapeSyntaxError, "-5"),
    "rr_series_check identity 0": (lambda: rr_series_check(0, 10),
                                   UnsupportedError, "0"),
    "rr_series_check identity 3": (lambda: rr_series_check(3, 10),
                                   UnsupportedError, "3"),
    "product_series negative cutoff": (lambda: product_series(2, -1),
                                       ShapeSyntaxError, "-1"),
    "product_series identity 3": (lambda: product_series(3, 10),
                                  UnsupportedError, "3"),
}


@pytest.mark.parametrize("case", sorted(HARDHEX))
def test_hard_hexagon_refuses_with_package_errors(case):
    call, refused, value = HARDHEX[case]
    got = outcome(call)
    assert isinstance(got, tuple) and got[0] is refused, got
    assert value in got[1], got
    if refused is ShapeSyntaxError:
        assert "negative" in got[1], got


# L-maps that no factor crystal has, as (type, rank, L-map, weight, class
# refused with): a negative multiplicity is malformed, a key (r, s) with
# s < 1 or r outside 1..n+1 (type A) or 1..n (type C) is no factor
NO_FACTOR = {
    "B^{0,1} of A_1": ("A", 1, {(0, 1): 1}, (0, 0), UnsupportedError),
    "B^{1,0} of A_1": ("A", 1, {(1, 0): 1}, (0, 0), UnsupportedError),
    "multiplicity -2": ("A", 1, {(1, 1): -2}, (0, 0), ShapeSyntaxError),
    "B^{5,1} of A_2": ("A", 2, {(5, 1): 1}, (2, 2, 1), UnsupportedError),
    "B^{3,1} of C_2": ("C", 2, {(3, 1): 1}, (1, 0), UnsupportedError),
}

FERMIONIC = {"closed_form_F": closed_form_F,
             "rc_generating_function": rc_generating_function}


@pytest.mark.parametrize("level", [None, 2], ids=["classical", "level"])
@pytest.mark.parametrize("route", sorted(FERMIONIC))
@pytest.mark.parametrize("case", sorted(NO_FACTOR))
def test_fermionic_sums_refuse_an_l_map_with_no_factor(case, route, level):
    kind, n, L, weight, refused = NO_FACTOR[case]
    got = outcome(lambda: FERMIONIC[route](kind, n, L, weight, level))
    assert isinstance(got, tuple) and got[0] is refused, got


@pytest.mark.parametrize("level", [None, 2], ids=["classical", "level"])
@pytest.mark.parametrize("route", sorted(FERMIONIC))
@pytest.mark.parametrize("kind,n", [("A", 1), ("C", 2)])
def test_fermionic_sums_take_a_zero_multiplicity(kind, n, route, level):
    # no factor at all: the empty product, whose only path has weight 0
    weight = (0,) * cartan_data(kind, n).dim
    assert FERMIONIC[route](kind, n, {(1, 1): 0}, weight, level) == ONE
