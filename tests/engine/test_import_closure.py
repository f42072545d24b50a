"""The serving import closure: what ``repro.engine`` and ``repro.net`` pull in.

Walks the transitive ``repro.*`` imports of the two serving packages by
parsing their source (nothing is imported), and pins that the closure
holds one executor: no shared-memory data plane (the ``shm`` subpackage
the process backend used) and no process pool (``multiprocessing``,
``concurrent.futures.process``, ``ProcessPoolExecutor``).
"""

import ast
import importlib.util
import os

import pytest

ROOTS = ("repro.engine", "repro.net")

#: ``repro`` subpackages outside the serving closure
FORBIDDEN_SUBPACKAGES = ("shm",)
#: modules and names no serving module may import
FORBIDDEN_MODULES = ("multiprocessing", "concurrent.futures.process")
FORBIDDEN_NAMES = ("ProcessPoolExecutor",)


#: the directory of the ``repro`` package (found, not imported)
PACKAGE_DIR = importlib.util.find_spec("repro").submodule_search_locations[0]


def _source_path(module: str):
    """The file defining a ``repro.*`` module; ``None`` when the name is
    no module (``from pkg import SomeClass``)."""
    base = os.path.join(PACKAGE_DIR, *module.split(".")[1:])
    for path in (os.path.join(base, "__init__.py"), base + ".py"):
        if os.path.isfile(path):
            return path
    return None


def _imports(module: str):
    """``(imported module, imported names)`` for every import statement
    of ``module``, relative imports resolved."""
    path = _source_path(module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    package = (module if os.path.basename(path) == "__init__.py"
               else module.rpartition(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([base] if base else []))
            names = tuple(alias.name for alias in node.names)
            yield base, names
            for name in names:   # ``from pkg import submodule``
                yield f"{base}.{name}", ()


def closure():
    """Every ``repro.*`` module reachable from :data:`ROOTS`, and every
    ``(importer, module, names)`` import edge leaving one of them."""
    seen, edges, todo = set(), [], list(ROOTS)
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        for target, names in _imports(module):
            edges.append((module, target, names))
            if target.split(".")[0] == "repro" and target not in seen \
                    and _source_path(target) is not None:
                todo.append(target)
                # importing a submodule runs its packages' __init__ too
                parent = target.rpartition(".")[0]
                while parent:
                    todo.append(parent)
                    parent = parent.rpartition(".")[0]
    return seen, edges


def _forbidden(target: str, names) -> bool:
    if any(target == m or target.startswith(m + ".")
           for m in FORBIDDEN_MODULES):
        return True
    if target == "concurrent.futures" and "process" in names:
        return True
    return any(name in FORBIDDEN_NAMES for name in names)


def test_serving_closure_has_no_shm_and_no_process_pool():
    modules, edges = closure()
    assert {"repro.engine.engine", "repro.net.server",
            "repro.engine.executor"} <= modules   # the walk reached them
    assert not [m for m in modules
                if m.partition(".")[2].split(".")[0] in FORBIDDEN_SUBPACKAGES]
    bad = [(importer, target, names) for importer, target, names in edges
           if _forbidden(target, names)]
    assert not bad


@pytest.mark.parametrize("target, names, forbidden", [
    ("multiprocessing", (), True),
    ("multiprocessing.shared_memory", (), True),
    ("concurrent.futures", ("Future", "ProcessPoolExecutor"), True),
    ("concurrent.futures", ("process",), True),
    ("concurrent.futures.process", (), True),
    ("concurrent.futures", ("Future", "wait"), False),
    ("threading", (), False),
])
def test_forbidden_imports_are_recognised(target, names, forbidden):
    assert _forbidden(target, names) is forbidden
