"""Every top-level import in ``src/gwlab`` has a reader, only
``states.py`` tells block weights from dense states, no module calls the
builtin ``sum``, the checkers read every squared concurrence from
``measures._pair_table``, only ``convex_roof_bounds`` builds a
``RoofEstimate``, and ``measures._order`` is the one order validator.

An import counts as read when the module uses the name, lists it in
``__all__`` or is named as ``<module>.<name>`` in ``SEED_IMPORT_SITES`` of
``bench/tracer.py``, the import sites the benchmark tracer wraps.  The
package ``__init__`` re-exports by importing, so its imports are its public
names.  The tracer's tuple is read from its source, never edited.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gwlab").glob("*.py"))


def _literal(tree: ast.Module, name: str):
    """The literal assigned to ``name`` at module level, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


SEED_IMPORT_SITES = _literal(
    ast.parse((ROOT / "bench" / "tracer.py").read_text()), "SEED_IMPORT_SITES"
)


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return names


def _read_names(tree: ast.Module) -> set[str]:
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_has_a_reader(path):
    assert SEED_IMPORT_SITES, "bench/tracer.py defines no SEED_IMPORT_SITES"
    tree = ast.parse(path.read_text())
    imported = _imported_names(tree)
    if path.name == "__init__.py":
        assert all(not name.startswith("_") for name in imported)
        return
    module = path.stem
    sites = {s.split(".")[1] for s in SEED_IMPORT_SITES if s.split(".")[0] == module}
    allowed = _read_names(tree) | set(_literal(tree, "__all__") or ()) | sites
    unread = [name for name in imported if name not in allowed]
    assert unread == [], f"{path.name} imports {unread} and never reads them"


def _is_gwblocks_check(node: ast.AST) -> bool:
    """Whether ``node`` is a call ``isinstance(x, ...)`` naming GWBlocks."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    return any(
        getattr(n, "id", None) == "GWBlocks" or getattr(n, "attr", None) == "GWBlocks"
        for n in ast.walk(node.args[1])
    )


def test_only_states_branches_on_block_weights():
    # GWBlocks.from_state turns every state into block weights; no other
    # module may tell the two kinds apart
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "states.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _is_gwblocks_check(node)
    ]
    assert found == [], f"isinstance(..., GWBlocks) outside states.py at {found}"


def test_no_builtin_sum():
    # CPython 3.12 made the builtin sum of floats compensated, so a result
    # summed by it would depend on the interpreter; sums add left to right
    # with np.add.accumulate or functools.reduce(operator.add, ..., 0.0)
    # instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
    ]
    assert found == [], f"builtin sum called at {found}"


#: Public closed forms that give a squared concurrence without the checkers'
#: pair table: a second formula, or a round trip through a Schmidt spectrum.
OTHER_C2_SOURCES = ("cut_spectrum", "gw_one_to_rest_concurrence_sq",
                    "gw_pairwise_concurrence")


def test_checkers_read_c2_from_the_pair_table():
    # every checker C^2 is (4 t_s) t_k of block weights, from one function
    checkers = [p for p in SOURCES if p.stem in ("inequalities", "games", "cli")]
    assert len(checkers) == 3
    found = [
        f"{path.name}:{node.lineno}"
        for path in checkers
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        in OTHER_C2_SOURCES
    ]
    assert found == [], f"C^2 taken past measures._pair_table at {found}"


#: Names of the checker internals: only ``inequalities.py`` builds checks.
CHECK_INTERNALS = ("Prepared", "_fold", "_relation")
#: Preparers of verify's suite that ``cli`` leaves to ``prepare_checks``.
SUITE_PREPARERS = ("_reoa_triangle", "_tightened", "_monogamy_cap", "_trace_bound_renyi")


def _names(tree: ast.Module) -> set[str]:
    """Every name a module imports, reads, binds or takes as an attribute."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            found.add(node.asname or node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_only_inequalities_builds_checks():
    found = [
        f"{path.name}: {name}"
        for path in SOURCES
        if path.name != "inequalities.py"
        for name in sorted(_names(ast.parse(path.read_text())) & set(CHECK_INTERNALS))
    ]
    assert found == [], f"checker internals named outside inequalities.py: {found}"
    cli = ast.parse((ROOT / "src" / "gwlab" / "cli.py").read_text())
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(cli)
        if isinstance(node, ast.Call)
    }
    assert called & set(SUITE_PREPARERS) == set(), "cli builds part of verify's suite itself"


def test_only_convex_roof_bounds_builds_roof_estimates():
    # the oracle's roof runs come back as columns; a RoofEstimate per run on
    # its path would be the per-target object round trip again
    found = [
        f"{path.name}: {getattr(scope, 'name', '<module>')}"
        for path in SOURCES
        for scope in ast.parse(path.read_text()).body
        for node in ast.walk(scope)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "RoofEstimate"
    ]
    assert found == ["roof.py: convex_roof_bounds"], f"RoofEstimate built in {found}"


def test_one_writer():
    # every line reaches its file or stdout through cli._write_lines, one
    # writelines of what it is given; no module prints or writes to stdout
    # itself (main's refusals go to stderr)
    writers, printers = [], []
    for path in SOURCES:
        for scope in ast.parse(path.read_text()).body:
            where = f"{path.name}: {getattr(scope, 'name', '<module>')}"
            calls = [n.func for n in ast.walk(scope) if isinstance(n, ast.Call)]
            writers += [where for func in calls if getattr(func, "attr", None) == "writelines"]
            printers += [where for func in calls
                         if ast.unparse(func) in ("print", "sys.stdout.write")]
    assert writers == ["cli.py: _write_lines"], f"writelines called in {writers}"
    assert printers == [], f"stdout written past the writer in {printers}"


def test_one_order_validator():
    # an order is a float everywhere: no module defines or imports the old
    # wrapper, and measures._order is the only function that raises the
    # invalid-order message
    gone = {"RenyiOrder", "OrderLike", "_as_order"}
    wrappers, raisers = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            names = set()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            wrappers += [f"{path.name}: {name}" for name in sorted(names & gone)]
            if isinstance(node, ast.FunctionDef):
                raisers += [f"{path.name}: {node.name}" for n in ast.walk(node)
                            if isinstance(n, ast.Raise) and n.exc is not None
                            and "must be positive and finite" in ast.unparse(n.exc)]
    assert wrappers == [], f"the order wrapper survives in {wrappers}"
    assert raisers == ["measures.py: _order"], f"orders are validated in {raisers}"
