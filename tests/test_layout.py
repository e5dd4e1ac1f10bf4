"""Every module-level function and class in src/svjack, and every method
other than a dunder, is reached from elsewhere in src/svjack, unless it is
an entry point: a command-line handler, a reproduce-paper section or a name
kept on purpose.  Helpers only the tests call live in tests/oracles.py."""

import ast
import pathlib

from fresh import run_fresh

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "svjack"

# exported although nothing in src/svjack reaches them yet, or reached from
# outside it, with the reason
KEEP = {
    "uglov.uglov_limit_check": "certifies the eigenvalue-tied gamma-family "
                               "shapes against the Macdonald limit; no "
                               "reproduce-paper section runs it yet",
    "cli._Parser.error": "argparse calls it on a bad argument",
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
                    and "%s.%s.%s" % (module, stmt.name, meth.name) not in KEEP
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


def _swaps_two_entries(node):
    """Whether node holds an assignment a[i], a[j] = a[j], a[i]: the row
    exchange of a pivoting elimination."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Assign) and isinstance(sub.targets[0], ast.Tuple)
                and isinstance(sub.value, ast.Tuple)):
            left = [ast.unparse(x) for x in sub.targets[0].elts]
            right = [ast.unparse(x) for x in sub.value.elts]
            if (len(left) == 2 and left == right[::-1]
                    and all(isinstance(x, ast.Subscript) for x in sub.value.elts)):
                return True
    return False


def _for_depth(node):
    """How deep for loops nest inside node."""
    inner = max((_for_depth(child) for child in ast.iter_child_nodes(node)), default=0)
    return inner + isinstance(node, ast.For)


def test_each_exact_arithmetic_rule_is_written_once():
    """The scalar classes take their derived operators from one base class;
    det and nullspace read the one Bareiss loop, and linalg has no second
    elimination: only bareiss_echelon exchanges rows, and only it and
    nullspace's back-substitution nest loops three deep."""
    from svjack.kernel import Jet, Poly, RatFun, Sqrt2Ext
    derived = {"__sub__", "__rsub__", "__rtruediv__", "__pow__"}
    for cls in (Poly, RatFun, Sqrt2Ext, Jet):
        assert not derived & set(vars(cls)), cls.__name__
    for name in ("det", "nullspace"):
        assert "bareiss_echelon" in _called(_function("linalg", name)), name
    functions = [node for node in ast.parse((SRC / "linalg.py").read_text()).body
                 if isinstance(node, ast.FunctionDef)]
    assert {fn.name for fn in functions if _swaps_two_entries(fn)} == {"bareiss_echelon"}
    assert ({fn.name for fn in functions if _for_depth(fn) >= 3}
            == {"bareiss_echelon", "nullspace"})


def test_elimination_enters_the_integers_at_one_point():
    """Rows reach Z or Z[t] in one step, linalg._integer_rows: no module
    keeps a RatFun clearing step beside it, and det reaches the integers
    only through bareiss_echelon."""
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert "_clear_denominators" not in defined
    assert "_integer_rows" in _called(_function("linalg", "bareiss_echelon"))
    assert not ({"_integer_rows", "_clear_denominators"}
                & _referenced_names(_function("linalg", "det")))


def _function(module, name, root=SRC):
    tree = ast.parse((root / (module + ".py")).read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called(node):
    return [sub.func.id for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)]


def _reached(module, name, stop):
    """The functions of src/svjack/<module>.py that name reaches by calls
    within the module, name included, not looking inside those in stop."""
    tree = ast.parse((SRC / (module + ".py")).read_text())
    defined = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [name]
    while todo:
        fn = todo.pop()
        if fn in seen:
            continue
        seen.add(fn)
        if fn not in stop:
            todo.extend(c for c in _called(defined[fn]) if c in defined)
    return seen


def test_each_symmetric_function_construction_is_written_once():
    """Both power-sum-diagonal forms call the one loop, singular_vector builds
    its blocks with the one operator-matrix builder, fermion_act makes one
    vertex extraction, ff_act applies every mode kind through one call on
    exterior states, verma_to_lambda reaches fermion_act only through the
    cached fermion monomials, the gamma-family ladder is the one triangular
    back-substitution, and the second copies are gone."""
    for root, module, name in ((TESTS, "oracles", "inner_qt"), (SRC, "uglov", "uglov_inner")):
        form = _function(module, name, root)
        assert "diagonal_form" in _called(form), name
        assert not any(isinstance(node, ast.For) for node in ast.walk(form)), name
    assert "operator_matrix" in _called(_function("svir", "singular_vector"))
    assert _called(_function("fock", "fermion_act")).count("apply_vertex_mode") == 1
    ff = _called(_function("fock", "ff_act"))
    assert (ff.count("_fermion_mode"), ff.count("_boson_mode")) == (1, 1)
    monomial = _function("fock", "_fermion_monomial")
    assert [d.func.id for d in monomial.decorator_list] == ["lru_cache"]
    assert _called(monomial).count("fermion_act") == 1
    image_path = _reached("fock", "verma_to_lambda", stop={"_fermion_monomial"})
    assert {"ff_act", "_fermion_mode", "_boson_mode", "_fermion_monomial"} <= image_path
    assert "fermion_act" not in image_path
    assert not any("apply_vertex_mode" in _called(_function("fock", fn))
                   for fn in image_path - {"_fermion_monomial"})
    assert "_back_substitute" in _called(_function("uglov", "_ladder"))
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_fermion_vertex", "_p_to_e_single", "_p_lam_to_e",
                          "_falling", "_apply_a", "_max_degree", "_gram_schmidt",
                          "_expand_product", "boson_act", "p_derivative"}


def test_verify_certifies_without_the_ladder():
    """verify_conjecture certifies the identification by orthogonality to the
    lower monomials: fock never names the gamma-family ladder uglov2_orth."""
    assert "uglov2_orth" not in (SRC / "fock.py").read_text()


def test_certificate_solves_against_the_p_to_m_rows():
    """_first_unorthogonal solves L x = w over the cached p -> m rows: it
    expands no m_mu in power sums, so it builds no m -> p inverse."""
    called = _called(_function("fock", "_first_unorthogonal"))
    assert "_p_to_m_row" in called
    assert not {"to_p", "convert"} & set(called)


def test_verify_checks_the_image_on_one_denominator():
    """verify_conjecture puts the image on one denominator and runs to m, the
    certificate and the eigencheck on its integer numerators: neither it nor
    any fock function it reaches after the image calls convert, to_p,
    monic_image or c1_apply."""
    reached = _reached("fock", "verify_conjecture", stop={"verma_to_lambda"})
    called = {name for fn in reached for name in _called(_function("fock", fn))}
    assert not called & {"convert", "to_p", "monic_image", "c1_apply"}
    assert {"_one_denominator", "_p_to_m_row", "_c1_rows"} <= called


def test_image_checks_run_on_the_image_as_computed():
    """src/ names neither monic_image nor screening_series: the annihilation
    check applies the current modes up to rs to the image as computed,
    without converting it, and the screening residue builds only the w^s
    coefficient."""
    for path in SRC.glob("*.py"):
        text = path.read_text()
        assert "monic_image" not in text and "screening_series" not in text, path.name
    check = _function("fock", "t1_annihilation_check")
    args = check.args
    assert [a.arg for a in args.args] == ["r", "s"]
    assert not (args.defaults or args.kwonlyargs or args.vararg or args.kwarg)
    assert "convert" not in _called(check)


def test_p_to_m_and_c1_rows_are_built_once_in_ints():
    """_p_to_m_row and _c1_rows alone make their tables, and neither calls
    Fraction: src/ keeps no Fraction twin of either.  The p -> m rows count
    parts without a multiplicities dict per term, and the eigencheck and
    c1_apply both read _c1_rows."""
    defined = {node.name for path in SRC.glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    assert {name for name in defined if "p_to_m" in name} == {"_p_to_m_row"}
    assert {name for name in defined if "c1_row" in name} == {"_c1_rows"}
    assert not {"Fraction", "multiplicities"} & set(_called(_function("symfunc", "_p_to_m_row")))
    assert "Fraction" not in _called(_function("vertexops", "_c1_rows"))
    assert "_c1_rows" in _called(_function("vertexops", "c1_apply"))
    assert "_c1_rows" in _called(_function("fock", "_is_c1_eigenfunction"))


def test_c1_shares_the_vertex_weight_rule():
    """C^1 = gamma A + B is priced by the strip, weigh and create steps of
    apply_vertex_mode, not assembled from whole C^0 modes."""
    for name in ("apply_vertex_mode", "_c1_rows"):
        called = _called(_function("vertexops", name))
        assert {"_annihilations", "_create"} <= set(called), name
    assert _reached("vertexops", "c1_apply", stop=set()) >= {"_c1_rows"}
    assert not {"c0_apply", "apply_vertex_mode"} & _reached("vertexops", "c1_apply", stop=set())


def _module_operators(module):
    """The names src/svjack/<module>.py binds at module level to a value
    built by VertexOperator calls."""
    tree = ast.parse((SRC / (module + ".py")).read_text())
    return {target.id for node in tree.body if isinstance(node, ast.Assign)
            and "VertexOperator" in _called(node.value)
            for target in node.targets if isinstance(target, ast.Name)}


def test_vertex_operators_are_built_once():
    """apply_vertex_mode reads the caches its operator keeps and builds none,
    and c0_apply, fermion_act and _exp_series apply operators bound at module
    level rather than build coefficient functions on every call."""
    body = _function("vertexops", "apply_vertex_mode")
    assert not _referenced_names(body) & {"lru_cache", "cache"}
    for module, name in (("vertexops", "c0_apply"), ("fock", "fermion_act"),
                         ("fock", "_exp_series")):
        fn = _function(module, name)
        assert not any(isinstance(node, (ast.Lambda, ast.FunctionDef))
                       for node in ast.walk(fn) if node is not fn), name
        assert "VertexOperator" not in _called(fn), name
        calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "apply_vertex_mode"]
        assert len(calls) == 1, name
        op = calls[0].args[0]
        if isinstance(op, ast.Subscript):
            op = op.value
        assert isinstance(op, ast.Name) and op.id in _module_operators(module), name


def test_operator_matrices_only_where_linear_algebra_needs_them():
    """Operators are applied as functions; only the nullspace of
    singular_vector and the finite-N cells build their matrices."""
    callers = {path.stem for path in SRC.glob("*.py")
               if "operator_matrix" in _called(ast.parse(path.read_text()))}
    assert callers == {"svir", "finiten"}


def _imports(module):
    """(imported module, inside a function) for each import statement of
    src/svjack/<module>.py; a relative import names the svjack module."""
    out = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom):
                name = child.module if child.level == 0 else "svjack." + child.module
                out.append((name, nested))
            elif isinstance(child, ast.Import):
                out.extend((alias.name, nested) for alias in child.names)
            visit(child, nested or isinstance(child, (ast.FunctionDef, ast.Lambda)))

    visit(ast.parse((SRC / (module + ".py")).read_text()), False)
    return out


MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def test_only_cli_imports_inside_a_function():
    """Imports sit at the top of every module but cli, which defers only the
    modules that `import svjack` does not load, and one in selberg: its
    Gauss-Jacobi nodes at (alpha, beta) != (1, 1) are all it takes from
    scipy.special, so only selberg_quadrature away from alpha = beta = 1
    loads it, and the Monte Carlo, closed form, recursion, vanishing checks
    and the Gauss-Legendre quadrature start without its 25 MB.  The
    quadrature stays in selberg, where the tracer finds
    selberg.selberg_quadrature."""
    nested = {(module, name) for module in MODULES
              for name, inside in _imports(module) if inside}
    assert nested == {("cli", "svjack.finiten"), ("cli", "svjack.selberg"),
                      ("cli", "svjack.reproduce"), ("selberg", "scipy.special")}


def test_only_cli_touches_the_collector():
    """Only the process entry, cli, imports gc: library functions leave the
    collector's global state (on or off, thresholds, frozen objects) to the
    process that calls them."""
    importers = {module for module in MODULES
                 for name, _ in _imports(module) if name == "gc"}
    assert importers == {"cli"}


def test_svjack_import_graph_has_no_cycle():
    """The svjack modules, nested imports included, import each other along
    a DAG."""
    edges = {module: {name[len("svjack."):] for name, _ in _imports(module)
                      if name.startswith("svjack.")} for module in MODULES}
    done, path = set(), []

    def visit(module):
        assert module not in path, "import cycle: %s" % " -> ".join(path + [module])
        if module not in done:
            path.append(module)
            for dep in sorted(edges[module]):
                visit(dep)
            path.pop()
            done.add(module)

    for module in MODULES:
        visit(module)


def test_cli_start_up_loads_no_numeric_or_deferred_module():
    """A fresh `import svjack.cli` leaves numpy, scipy, the record-class
    generator and the three modules cli defers unloaded."""
    deferred = ["numpy", "scipy", "dataclasses",
                "svjack.finiten", "svjack.selberg", "svjack.reproduce"]
    code = ("import sys, svjack.cli; print([m for m in %r if m in sys.modules])"
            % deferred)
    assert run_fresh(code).strip() == "[]"
