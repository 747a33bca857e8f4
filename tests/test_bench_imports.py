"""The names `bench/bench.py` imports from localelab, and the package's `__all__`.

The bench script runs outside the Tier-1 suite and imports private kernels
by name inside its timing functions, and its cold-start probe imports
inside a child interpreter, so a renamed or deleted kernel would break it
only when it runs. Every import of localelab in it is checked here.
"""
import ast
import importlib
import inspect
import os

import localelab

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench", "bench.py")


def _localelab_imports(tree):
    """(module, name) of each `from localelab... import name` in tree, and
    (module, None) of each `import localelab...`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "localelab":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "localelab")


def test_every_name_bench_imports_from_localelab_exists():
    with open(BENCH) as fh:
        tree = ast.parse(fh.read())
    # the child interpreters' code is in module-level string constants
    children = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)]
                in (["COLD_PROBE"], ["WALL_CHILD"])]
    assert len(children) == 2
    found = [*_localelab_imports(tree), *(name for code in children
                                          for name in _localelab_imports(ast.parse(code)))]
    assert ("localelab.interior", "_lift") in found and ("localelab.cli", None) in found
    for module, name in found:
        imported = importlib.import_module(module)
        assert name is None or hasattr(imported, name), (module, name)


def test_all_lists_exactly_the_public_names():
    """Every name in `__all__` resolves, and every public name the package
    binds, its submodules aside, is listed."""
    assert all(hasattr(localelab, name) for name in localelab.__all__)
    public = {name for name, value in vars(localelab).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public <= set(localelab.__all__)
