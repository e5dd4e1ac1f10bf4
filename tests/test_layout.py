"""Every module-level function and class in src/svjack is reached from
elsewhere in src/svjack, unless it is an entry point: a name in
svjack.__all__, a command-line handler or a reproduce-paper section.
Helpers only the tests call live in tests/oracles.py."""

import ast
import pathlib

import svjack

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "svjack"


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
    if name in svjack.__all__:
        return True
    if module == "cli":
        return name in ("main", "build_parser") or name.startswith(("cmd_", "_parse_"))
    return module == "reproduce" and name.startswith("run_")


def test_src_defines_nothing_only_tests_reach():
    statements = []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            statements.append((module, stmt, _referenced_names(stmt)))
    unreached = [
        "%s.%s" % (module, stmt.name)
        for module, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not _entry_point(module, stmt.name)
        # a reference from the definition's own body does not count
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert unreached == []


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
