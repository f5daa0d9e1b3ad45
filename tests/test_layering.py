"""Package layering: every in-package import sits at module level, no
module imports scipy, and the exported API has no private parameters."""

import ast
import importlib
import inspect
from pathlib import Path

import qubocut

SOURCES = sorted(Path(qubocut.__file__).parent.glob("*.py"))


def test_no_relative_import_inside_a_function():
    # a relative import in a function body hides a cycle between modules;
    # third-party imports deferred for start-up time are allowed
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno} in {fn.name}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.ImportFrom) and node.level > 0
                ]
    assert found == []


def _package_imports(path: Path) -> set[str]:
    """Modules of this package that ``path`` imports, relative or absolute."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0:
                parts = node.module.split(".") if node.module else []
                found.update(parts[:1] or [alias.name for alias in node.names])
            elif node.module and node.module.split(".")[0] == "qubocut":
                parts = node.module.split(".")[1:]
                found.update(parts[:1] or [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("qubocut.")
            )
    return found


def test_polynomial_imports_only_the_kernels():
    # the exhaustive minimiser that quench, lifting and the pipeline share
    # sits below them: no import of solvers, reducer, community, qaoa or cli
    path = Path(qubocut.__file__).parent / "polynomial.py"
    assert _package_imports(path) <= {"bitops", "errors", "wht"}
    assert _package_imports(Path(qubocut.__file__).parent / "solvers.py") >= {"polynomial"}


def test_wcnf_imports_only_the_polynomial_layer():
    # the MaxSAT export sits below the reducer, the pipeline and the CLI
    path = Path(qubocut.__file__).parent / "wcnf.py"
    assert _package_imports(path) <= {"bitops", "errors", "polynomial"}


def test_no_module_imports_scipy():
    # scipy is a test dependency only: the optimizer is a port of its Nelder-Mead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def _exported_callables():
    """``(label, function)`` for every function in a module's ``__all__`` and
    every public method defined on an exported class."""
    for path in SOURCES:
        module = importlib.import_module(f"qubocut.{path.stem}".removesuffix(".__init__"))
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr in vars(obj):
                    method = getattr(obj, attr)
                    if not attr.startswith("_") and inspect.isroutine(method):
                        yield f"{path.stem}.{name}.{attr}", method
            elif inspect.isroutine(obj):
                yield f"{path.stem}.{name}", obj


def test_exported_api_has_no_private_parameters():
    # a parameter named ``_x`` is a hook for tests, not a part of the API
    found = [
        f"{label}({param})"
        for label, fn in _exported_callables()
        for param in inspect.signature(fn).parameters
        if param.startswith("_")
    ]
    assert found == []


def _is_power_of_two_test(node) -> bool:
    """Whether ``node`` is ``x & (x - 1)``, in either operand order."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for x, other in ((node.left, node.right), (node.right, node.left)):
        if (
            isinstance(other, ast.BinOp)
            and isinstance(other.op, ast.Sub)
            and isinstance(other.right, ast.Constant)
            and other.right.value == 1
            and ast.dump(other.left) == ast.dump(x)
        ):
            return True
    return False


def test_power_of_two_length_check_lives_in_wht():
    # tables and states share wht's one check for a 1-D power-of-two vector,
    # so no second copy of the test can drift from it
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if _is_power_of_two_test(node)
    ]
    assert found and all(place.startswith("wht.py:") for place in found)


def test_qaoa_transforms_only_inside_the_mixer():
    # the mixer has one kernel, which the batched runner and ``mixer_layer``
    # share, so hoisting the phases out of it cannot fork a second copy
    path = Path(qubocut.__file__).parent / "qaoa.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def uses(root):
        return [
            node for node in ast.walk(root)
            if (isinstance(node, ast.Name) and node.id == "_fwht_rows")
            or (isinstance(node, ast.Attribute) and node.attr == "_fwht_rows")
        ]

    [mix] = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == "_mix"]
    assert uses(mix) and len(uses(mix)) == len(uses(tree))


def test_community_reads_couplings_only_through_adjacency():
    # detection, refinement and the boundary share Graph.adjacency's rule for
    # which pairs couple; only modularity, defined over every edge, reads them
    path = Path(qubocut.__file__).parent / "community.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.lineno} .{node.attr} in {top.name}"
        for top in tree.body
        if not (isinstance(top, ast.FunctionDef) and top.name == "modularity")
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr in ("edges", "weights", "weight")
    ]
    assert found == []
