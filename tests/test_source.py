import ast
import inspect
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "crystalsums"


def nodes():
    """(file name, node) for every AST node of the package source."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_no_assert_statements():
    # python -O strips asserts; invariants must raise package errors
    found = [f"{name}:{node.lineno}" for name, node in nodes()
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_assertion_errors():
    # invariants raise package errors, which the CLI maps to exit codes
    found = []
    for name, node in nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_no_fractions():
    # all arithmetic is on integers; exact quotients go through one helper
    found = []
    for name, node in nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        if any(m.split(".")[0] == "fractions" for m in modules):
            found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_one_residue_class_division():
    # the list step, which every list walk and qbinomial share, keeps the
    # one running-sum division
    found = [node.lineno for name, node in nodes() if name == "qpoly.py"
             and isinstance(node, ast.Name) and node.id == "accumulate"
             and isinstance(node.ctx, ast.Load)]
    assert len(found) == 1, found


def test_enumeration_reads_no_other_route():
    # the enumerate route of hh_X walks paths on its own: it names nothing
    # defined or imported at the top of hardhex, so no other route's code
    tree = ast.parse((PACKAGE / "hardhex.py").read_text())
    top = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            top |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            top.add(node.name)
        elif isinstance(node, ast.Assign):
            top |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    walk = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "_path_energies")
    used = {node.id for node in ast.walk(walk) if isinstance(node, ast.Name)}
    assert not used & top, used & top


def test_direct_route_reads_no_other_route():
    # the direct route (crystal paths and R-matrix energies) is one of the
    # independent evaluations: it imports no bosonic, fermionic or
    # hard-hexagon code
    others = {"bosonic", "fermionic", "hardhex"}
    found = []
    for name in ("crystal.py", "energy.py"):
        for node in ast.walk(ast.parse((PACKAGE / name).read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
                if not node.module or node.module == "crystalsums":
                    modules += [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[-1] in others for m in modules):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def _top_functions(tree):
    """The top-level function definitions of a module, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_hard_hexagon_rows_use_the_one_division():
    # the stepped rows divide through qpoly, which keeps the one running sum
    tree = ast.parse((PACKAGE / "hardhex.py").read_text())
    found = [getattr(node, "lineno", None) for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id == "accumulate")
             or (isinstance(node, ast.Attribute)
                 and node.attr == "accumulate")
             or (isinstance(node, ast.alias) and node.name == "accumulate")]
    assert not found, found


def test_hard_hexagon_loops_build_no_polynomial():
    # every loop of hardhex steps coefficient lists or packed ints; a
    # QLaurent is built once, after the loop, so no step copies a
    # polynomial
    tree = ast.parse((PACKAGE / "hardhex.py").read_text())
    found = set()  # a nested loop's calls are also in its outer loop
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in (n for stmt in loop.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in ("QLaurent", "div_one_minus_q", "shift",
                        "from_exponents", "poly", "_dense"):
                found.add(f"{name}:{node.lineno}")
    assert not found, sorted(found)


def test_only_qpoly_packs():
    # the packed format (q -> 2^64) is qpoly's: no other module converts
    # between ints and bytes or casts a buffer, and hardhex shifts nothing
    found = [f"{name}:{node.lineno}" for name, node in nodes()
             if name != "qpoly.py" and isinstance(node, ast.Attribute)
             and node.attr in ("to_bytes", "from_bytes", "cast")]
    assert not found, found
    tree = ast.parse((PACKAGE / "hardhex.py").read_text())
    shifts = [node.lineno for node in ast.walk(tree)
              if isinstance(node, (ast.BinOp, ast.AugAssign))
              and isinstance(node.op, (ast.LShift, ast.RShift))]
    assert not shifts, shifts


def test_hard_hexagon_walks_take_the_one_kernel_choice():
    # hh_X and the series check take the kernel of their polynomial walks
    # from qpoly._walk_kernel, and the walks name no kernel of their own;
    # qbinomial stays bound, as perfbench/selftest.py reads that alias
    from crystalsums import hardhex, qpoly
    assert hardhex.qbinomial is qpoly.qbinomial
    defs = _top_functions(ast.parse((PACKAGE / "hardhex.py").read_text()))
    for entry in ("hh_X", "rr_series_check"):
        names = {node.id for node in ast.walk(defs[entry])
                 if isinstance(node, ast.Name)}
        assert "_walk_kernel" in names, entry
    kernels = {"_PACKED", "_LISTS", "_binomial_step", "_add_at",
               "_packed_step", "_packed_div", "_pack"}
    for walk in ("_x_recurrence", "_x_fermionic", "_x_bosonic"):
        names = {node.id for node in ast.walk(defs[walk])
                 if isinstance(node, ast.Name)}
        assert "kernel" in names and not names & kernels, (walk, names)


def _reached(module: str, roots: list[str]) -> tuple[set, set]:
    """The top-level functions of ``module`` reachable from ``roots``
    through the names they use, and every name those functions use."""
    defs = _top_functions(ast.parse((PACKAGE / module).read_text()))
    todo = list(roots)
    reached, used = set(), set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        names = {node.id for node in ast.walk(defs[name])
                 if isinstance(node, ast.Name)}
        used |= names
        todo += [n for n in names if n in defs]
    return reached, used


def test_rc_walk_reads_no_closed_form():
    # the rigged-configuration route lists riggings: neither the closed
    # forms' q-binomials nor their bilinear-form vacancies and charges are
    # reachable from its functions
    # (nor the generic min-sum tables and the row function that reads them)
    reached, used = _reached("fermionic.py", [
        "_admitted_shapes", "rc_generating_function", "_level_rc_sum"])
    assert {"_riggings", "vacancy", "_rc_row", "_column_counts"} <= reached
    closed_form = used & {"qbinomial", "_vacancy_generic", "_cc_generic",
                          "_min_sums", "_generic_row", "_occupied_row_sites",
                          "_grid_row_sites"}
    assert not closed_form, closed_form


def test_closed_forms_read_no_rc_walk():
    # the mirror of test_rc_walk_reads_no_closed_form: the closed forms
    # share only the shape walk with the rigged-configuration route, and
    # reach neither its column-count vacancies and charges (nor their
    # tables and row function) nor its riggings
    reached, used = _reached("fermionic.py", [
        "closed_form_F", "_closed_form_sum"])
    assert {"_live_shapes", "_vacancy_generic", "_generic_row",
            "_min_sums"} <= reached
    rc_walk = used & {"vacancy", "_column_counts", "_rc_row", "cc_shape",
                      "_riggings", "partitions_in_box"}
    assert not rc_walk, rc_walk


def test_one_vanishing_rule():
    # a sum is zero by definition through cartan.vanishes alone: no other
    # module defines it or reads dominance, compute_sum only dispatches,
    # and every route's entry point reads the rule itself
    defined = [name for name, node in nodes()
               if isinstance(node, ast.FunctionDef)
               and node.name in ("vanishes", "_is_zero_by_definition",
                                 "_refuse_above_level")]
    assert defined == ["cartan.py"], defined
    dominance = [f"{name}:{node.lineno}" for name, node in nodes()
                 if isinstance(node, ast.Attribute)
                 and node.attr == "is_dominant" and name != "cartan.py"]
    assert not dominance, dominance
    defs = _top_functions(ast.parse((PACKAGE / "cli.py").read_text()))
    reached, used = _reached("cli.py", ["compute_sum"])
    attrs = {node.attr for name in reached for node in ast.walk(defs[name])
             if isinstance(node, ast.Attribute)}
    rule = (used | attrs) & {"vanishes", "is_dominant", "theta_pairing"}
    assert not rule, rule
    for module, route in (("energy.py", "direct_sum"),
                          ("bosonic.py", "supernomial"),
                          ("bosonic.py", "alternating_sum"),
                          ("bosonic.py", "involution_phi"),
                          ("fermionic.py", "closed_form_F"),
                          ("fermionic.py", "rc_generating_function")):
        assert "vanishes" in _reached(module, [route])[1], route


def test_one_shape_reading():
    # a shape is read once, by cartan.shape_type, into its factor
    # multiplicities L: the fermionic rows of cli._ROUTES pass that L on,
    # with no helper of their own that strips the determinant columns, and
    # supernomial's zeros come from the rule, which reads L, not from a
    # column test of its own
    defined = [f"{name}:{node.lineno}" for name, node in nodes()
               if isinstance(node, ast.FunctionDef)
               and node.name in ("shape_L", "_fermionic_sum")]
    assert not defined, defined
    reached, used = _reached("bosonic.py", ["supernomial"])
    assert "_check_bosonic" in reached and "vanishes" in used
    assert "accumulate" not in used
    defs = _top_functions(ast.parse((PACKAGE / "bosonic.py").read_text()))
    entry = {node.id for name in ("supernomial", "_check_bosonic")
             for node in ast.walk(defs[name]) if isinstance(node, ast.Name)}
    assert not entry & {"conjugate", "part"}, entry & {"conjugate", "part"}
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets]
                 == ["_ROUTES"])
    rows = {k.value: v for k, v in zip(table.keys, table.values)}
    for method in ("fermionic", "rc"):
        names = {node.id for node in ast.walk(rows[method])
                 if isinstance(node, ast.Name)}
        assert "shape_type" in names, (method, names)


def test_r_matrix_search_builds_no_word():
    # combinatorial_r searches pairs of element indices: it applies the
    # two-factor tensor rule itself and builds no tensor word
    # it reads each factor through crystal's one index table
    reached, used = _reached("energy.py", ["combinatorial_r"])
    assert {"_product_arrows", "_h_step"} <= reached
    assert "_factor_table" in used
    words = used & {"tensor_arrow", "word", "TensorWord", "_route"}
    assert not words, words


def test_factor_crystal_is_read_through_one_table():
    # one representation of a factor crystal: its cached index table is
    # defined in crystal.py alone; the R-matrices and the involution read a
    # factor only through it, and an R-matrix is an index table, not a
    # class keyed by Factor pairs
    defined = [name for name, node in nodes()
               if isinstance(node, ast.FunctionDef)
               and node.name == "_factor_table"]
    assert defined == ["crystal.py"], defined
    per_factor = [f"{name}:{node.lineno}" for name, node in nodes()
                  if name in ("energy.py", "bosonic.py")
                  and {getattr(node, a, None) for a in ("id", "attr", "name")}
                  & {"factor_arrow", "factor_stats"}]
    assert not per_factor, per_factor
    classes = [f"{name}:{node.lineno}" for name, node in nodes()
               if isinstance(node, ast.ClassDef)
               and node.name == "RMatrixTable"]
    assert not classes, classes


def test_pair_set_lists_the_whole_product():
    # the fixed points are checked against enumerate_paths, so the pair
    # set must not be built by the path search it would then vouch for
    reached, used = _reached("bosonic.py", ["_pair_set"])
    assert "reduce_to_alcove" in used
    search = used & {"search_paths", "_place", "enumerate_paths"}
    assert not search, search


WORD_LEVEL = {"TensorWord", "string_stats", "tensor_arrow", "reflection_s",
              "apply_sigma", "local_h", "energy_EB", "coenergy_D"}


def test_word_level_reference_is_not_in_the_package():
    # one representation of a path: the word-level reference lives in
    # tests/oracles.py, and no module of the package defines it
    found = [f"{name}:{node.lineno}" for name, node in nodes()
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in WORD_LEVEL]
    assert not found, found


TEST_ONLY = {"WeylElement", "element", "compose", "coroot_pairing",
             "RiggedConfiguration", "enumerate_rc", "hh_paths", "hh_energy"}

# the former per-restriction entry points: each route has one public
# function, whose level argument None means the classical sum (the level
# form at the vacuum weight is closed_form_F there)
MERGED = {"bosonic_classical", "bosonic_level", "level_restricted",
          "closed_form_F_level"}


def test_test_only_helpers_are_not_in_the_package():
    # the Weyl group element type and the listings that only tests read
    # live in tests/oracles.py as references; the merged entry points are
    # gone
    found = [f"{name}:{node.lineno}" for name, node in nodes()
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name in TEST_ONLY | MERGED]
    assert not found, found


def test_involution_builds_no_word():
    # the involution moves element index tuples through the factors' index
    # tables and scores them by the direct sum's energy pass
    reached, used = _reached("bosonic.py", ["involution_phi"])
    assert {"_pair_set", "_phi_move", "_arrow", "_reflect",
            "_word_energy"} <= reached
    words = used & {"TensorWord", "tensor_arrow", "reflection_s",
                    "energy_EB", "apply_sigma"}
    assert not words, words


def _cache_bounds(module: str, function: str) -> list:
    """The maxsize of each lru_cache decorating ``function``, read through
    the module constant it names; None where it names none."""
    tree = ast.parse((PACKAGE / module).read_text())
    defs = _top_functions(tree)
    constants = {t.id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) for t in node.targets
                 if isinstance(t, ast.Name)}
    bounds = []
    for dec in defs[function].decorator_list:
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) \
                == "lru_cache":
            args = [k.value for k in dec.keywords if k.arg == "maxsize"]
            arg = (args or dec.args)[0]
            arg = constants.get(arg.id) if isinstance(arg, ast.Name) else None
            bounds.append(arg.value if isinstance(arg, ast.Constant) else None)
    return bounds


def test_qbinomial_cache_is_bounded():
    # qbinomial's lru_cache holds a module constant's number of entries
    bounds = _cache_bounds("qpoly.py", "qbinomial")
    assert len(bounds) == 1 and isinstance(bounds[0], int) \
        and bounds[0] > 0, bounds


def test_row_table_caches_are_bounded():
    # the fermionic row tables outlive a sum: each is an lru_cache of a
    # module constant's size, and private, so no tracer wraps a row check
    from crystalsums import fermionic
    for name in ("_column_counts", "_min_sums"):
        bounds = _cache_bounds("fermionic.py", name)
        assert len(bounds) == 1 and isinstance(bounds[0], int) \
            and bounds[0] > 0, (name, bounds)
        assert getattr(fermionic, name).cache_info().maxsize == bounds[0]


@pytest.mark.parametrize("name", ["_pair_sets", "_supernomial_closed_form"])
def test_bosonic_caches_are_bounded(name):
    # the involution's walk of the product and the supernomial closed forms
    # outlive a call: each is an lru_cache of a module constant's size,
    # private, so no tracer wraps it
    from crystalsums import bosonic
    bounds = _cache_bounds("bosonic.py", name)
    assert len(bounds) == 1 and isinstance(bounds[0], int) \
        and bounds[0] > 0, bounds
    assert getattr(bosonic, name).cache_info().maxsize == bounds[0]


def test_direct_walk_cache_is_bounded():
    # the direct route's walk of every weight outlives a call: an lru_cache
    # of a module constant's size, private, so no tracer wraps it
    from crystalsums import energy
    bounds = _cache_bounds("energy.py", "_direct_sums")
    assert len(bounds) == 1 and isinstance(bounds[0], int) \
        and bounds[0] > 0, bounds
    assert energy._direct_sums.cache_info().maxsize == bounds[0]


def test_primed_walk_cache_is_bounded():
    # the hard-hexagon enumeration's walk of D'_L outlives a call: an
    # lru_cache of a module constant's size, private, so no tracer wraps
    # it; the walk it keeps, _path_energies, is undecorated (see
    # test_enumeration_reads_no_other_route)
    from crystalsums import hardhex
    bounds = _cache_bounds("hardhex.py", "_primed_energies")
    assert len(bounds) == 1 and isinstance(bounds[0], int) \
        and bounds[0] > 0, bounds
    assert hardhex._primed_energies.cache_info().maxsize == bounds[0]
    tree = ast.parse((PACKAGE / "hardhex.py").read_text())
    assert not _top_functions(tree)["_path_energies"].decorator_list


# where malformed input may be refused, with the text its message must
# hold: the one input check, and the command line's own parsing of flags,
# shapes, weights and config files; compute_sum refuses its statistic
# argument, which no route takes; the hard hexagon, which shares no input
# with the crystal routes, refuses a negative length or series cutoff (the
# series check's input through the product side, which it calls first)
SYNTAX_CHECKS = {
    ("cartan.py", "check_sum"): "", ("cli.py", "parse_shape"): "",
    ("cli.py", "parse_weight"): "", ("cli.py", "_nonnegative"): "",
    ("cli.py", "cmd_verify"): "", ("cli.py", "cmd_rr"): "",
    ("cli.py", "_config_flags"): "",
    ("cli.py", "compute_sum"): "unknown statistic",
    ("hardhex.py", "hh_X"): "negative",
    ("hardhex.py", "product_series"): "negative",
}


def test_one_input_check():
    # every route refuses malformed input and a factor wider than the level
    # through cartan.check_sum, not by a check of its own
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", None))
            for node in ast.walk(top):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                text = " ".join(c.value for c in ast.walk(node)
                                if isinstance(c, ast.Constant)
                                and isinstance(c.value, str))
                syntax = getattr(exc, "id", None) == "ShapeSyntaxError"
                if where == ("cartan.py", "check_sum") or (
                        syntax and where in SYNTAX_CHECKS
                        and SYNTAX_CHECKS[where] in text):
                    continue
                if syntax or "wider than" in text:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_one_check_per_route():
    # each route checks its input once, at its entry, from the factor
    # multiplicities L: the Weyl-term loop of alternating_sum calls the
    # cached kernel, which neither reads the shape nor runs the entry
    # check again, nor do the closed forms it evaluates on a cache miss;
    # direct_sum takes the root data and L from the walk's setup, and
    # check_sum reads the widest factor from L itself, so no caller works a
    # width out
    defs = _top_functions(ast.parse((PACKAGE / "bosonic.py").read_text()))
    loop = next(node for node in ast.walk(defs["alternating_sum"])
                if isinstance(node, ast.For))
    names = {node.id for node in ast.walk(loop) if isinstance(node, ast.Name)}
    assert "_supernomial" in names, names
    reached, used = _reached("bosonic.py", sorted(names & set(defs)))
    assert "_supernomial_closed_form" in reached, reached
    again = (reached | used | names) & {"supernomial", "_check_bosonic",
                                        "shape_type", "check_sum"}
    assert not again, again
    defs = _top_functions(ast.parse((PACKAGE / "energy.py").read_text()))
    names = {node.id for node in ast.walk(defs["direct_sum"])
             if isinstance(node, ast.Name)}
    assert not names & {"shape_type", "cartan_data"}, names
    defined = [f"{name}:{node.lineno}" for name, node in nodes()
               if isinstance(node, ast.FunctionDef) and node.name == "_widest"]
    assert not defined, defined

    def l_or_none(arg):
        if isinstance(arg, ast.IfExp):
            return l_or_none(arg.body) and l_or_none(arg.orelse)
        return isinstance(arg, ast.Name) or (
            isinstance(arg, ast.Constant) and arg.value is None)

    calls = [(name, node) for name, node in nodes()
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "check_sum"]
    assert len(calls) > 5, calls
    widths = [f"{name}:{node.lineno}" for name, node in calls
              if not all(map(l_or_none, node.args[4:] + [
                  k.value for k in node.keywords if k.arg == "L"]))]
    assert not widths, widths


def test_path_walks_take_no_restriction_string():
    # the direct route reads a level and whether the sum is restricted, as
    # cartan.vanishes does; the restriction string is compute_sum's alone
    found = [f"{name}:{node.lineno}" for name, node in nodes()
             if name in ("crystal.py", "energy.py")
             and isinstance(node, ast.FunctionDef)
             and "restriction" in {a.arg for a in node.args.args}]
    assert not found, found
    from crystalsums import cartan, crystal, energy

    def convention(f, at):
        params = list(inspect.signature(f).parameters.values())[at:at + 2]
        return [(p.name, p.default) for p in params]

    want = convention(cartan.vanishes, 3)
    for walk in (energy.direct_sum, crystal.search_paths,
                 crystal.enumerate_paths):
        assert convention(walk, 2) == want, walk.__name__
