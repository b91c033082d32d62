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
