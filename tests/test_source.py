import ast
from pathlib import Path

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
    # div_one_minus_q and qbinomial share the one running-sum division
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


def test_rc_walk_reads_no_closed_form():
    # the rigged-configuration route lists riggings: neither the closed
    # forms' q-binomials nor their bilinear-form vacancies and charges are
    # reachable from its functions
    defs = _top_functions(ast.parse((PACKAGE / "fermionic.py").read_text()))
    todo = ["_admitted_shapes", "enumerate_rc", "rc_generating_function",
            "_level_rc_sum"]
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
    assert "_riggings" in reached and "vacancy" in reached
    closed_form = used & {"qbinomial", "_vacancy_generic", "_cc_generic"}
    assert not closed_form, closed_form


def test_qbinomial_cache_is_bounded():
    # qbinomial's lru_cache holds a module constant's number of entries
    tree = ast.parse((PACKAGE / "qpoly.py").read_text())
    defs = _top_functions(tree)
    constants = {t.id: node.value for node in tree.body
                 if isinstance(node, ast.Assign) for t in node.targets
                 if isinstance(t, ast.Name)}
    bounds = []
    for dec in defs["qbinomial"].decorator_list:
        if isinstance(dec, ast.Call) and getattr(dec.func, "id", None) \
                == "lru_cache":
            args = [k.value for k in dec.keywords if k.arg == "maxsize"]
            arg = (args or dec.args)[0]
            if isinstance(arg, ast.Name):
                arg = constants[arg.id]
            bounds.append(arg.value if isinstance(arg, ast.Constant) else None)
    assert len(bounds) == 1 and isinstance(bounds[0], int) \
        and bounds[0] > 0, bounds
