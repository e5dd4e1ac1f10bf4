"""Every module-level function and class in src/svjack, and every method
other than a dunder, is reached from elsewhere in src/svjack, unless it is
an entry point: a command-line handler, a reproduce-paper section or a name
kept on purpose.  Helpers only the tests call live in tests/oracles.py."""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "svjack"

# exported although nothing in src/svjack reaches them yet, with the reason
KEEP = {
    "uglov.uglov_limit_check": "certifies the eigenvalue-tied gamma-family "
                               "shapes against the Macdonald limit; no "
                               "reproduce-paper section runs it yet",
}


def _referenced_names(node):
    """Names and attribute names used inside a statement; import statements
    hold no Name nodes, so they reference nothing."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _entry_point(module, name):
    if "%s.%s" % (module, name) in KEEP:
        return True
    if module == "cli":
        return name in ("main", "build_parser") or name.startswith(("cmd_", "_parse_"))
    return module == "reproduce" and name.startswith("run_")


def _unreached():
    """Each module-level function and class that no other module-level
    statement names, and each non-dunder method whose name no statement
    but its own definition uses (matched by attribute name)."""
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names = [_referenced_names(stmt) for _, stmt in statements]

    def named_elsewhere(name, skip, extra=()):
        return (any(name in used for i, used in enumerate(names) if i != skip)
                or any(name in _referenced_names(node) for node in extra))

    out = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not _entry_point(module, stmt.name) and not named_elsewhere(stmt.name, i):
            out.append("%s.%s" % (module, stmt.name))
        if not isinstance(stmt, ast.ClassDef):
            continue
        for meth in stmt.body:
            if (isinstance(meth, ast.FunctionDef)
                    and not (meth.name.startswith("__") and meth.name.endswith("__"))
                    and not named_elsewhere(meth.name, i,
                                            [m for m in stmt.body if m is not meth])):
                out.append("%s.%s.%s" % (module, stmt.name, meth.name))
    return out


def test_src_defines_nothing_only_tests_reach():
    assert _unreached() == []


def test_failures_come_in_three_kinds():
    """Bad input raises the builtin ValueError; the package defines only
    KernelError, for arithmetic that cannot go on, and its subclass
    VerificationFailure, for an identity that does not hold."""
    import importlib
    import inspect
    defined = set()
    for path in SRC.glob("*.py"):
        name = "svjack" if path.stem == "__init__" else "svjack." + path.stem
        module = importlib.import_module(name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__.startswith("svjack"):
                defined.add(cls.__qualname__)
    assert defined == {"KernelError", "VerificationFailure"}


def test_each_exact_arithmetic_rule_is_written_once():
    """The scalar classes take their derived operators from one base class,
    and det reads the determinant off the one Bareiss loop."""
    from svjack.kernel import Jet, Poly, RatFun, Sqrt2Ext
    derived = {"__sub__", "__rsub__", "__rtruediv__", "__pow__"}
    for cls in (Poly, RatFun, Sqrt2Ext, Jet):
        assert not derived & set(vars(cls)), cls.__name__
    tree = ast.parse((SRC / "linalg.py").read_text())
    det = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "det")
    called = {node.func.id for node in ast.walk(det)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "bareiss_echelon" in called


def _function(module, name, root=SRC):
    tree = ast.parse((root / (module + ".py")).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called(node):
    return [sub.func.id for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)]


def test_each_symmetric_function_construction_is_written_once():
    """Both power-sum-diagonal forms call the one loop, singular_vector builds
    its blocks with the one operator-matrix builder, fermion_act makes one
    vertex extraction, ff_act applies every mode through one dispatch, and
    the second copies are gone."""
    for root, module, name in ((TESTS, "oracles", "inner_qt"), (SRC, "uglov", "uglov_inner")):
        form = _function(module, name, root)
        assert "diagonal_form" in _called(form), name
        assert not any(isinstance(node, ast.For) for node in ast.walk(form)), name
    assert "operator_matrix" in _called(_function("svir", "singular_vector"))
    assert _called(_function("fock", "fermion_act")).count("apply_vertex_mode") == 1
    ff = _called(_function("fock", "ff_act"))
    assert (ff.count("fermion_act"), ff.count("boson_act")) == (1, 1)
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_fermion_vertex", "_p_to_e_single", "_p_lam_to_e",
                          "_falling", "_apply_a", "_max_degree"}


def test_operator_matrices_only_where_linear_algebra_needs_them():
    """Operators are applied as functions; only the nullspace of
    singular_vector and the finite-N cells build their matrices."""
    callers = {path.stem for path in SRC.glob("*.py")
               if "operator_matrix" in _called(ast.parse(path.read_text()))}
    assert callers == {"svir", "finiten"}
