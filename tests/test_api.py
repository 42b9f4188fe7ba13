import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import dwigner

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_api_names():
    """Backticked names of the bullet list under README's "Library API" heading."""
    section = README.read_text(encoding="utf-8").split("### Library API\n", 1)[1]
    bullets = section.split("\n* ", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", bullets)


def test_all_matches_readme_library_api():
    names = readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(dwigner.__all__)
    assert all(hasattr(dwigner, name) for name in names)


def _decorator_name(node):
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_every_lru_cache_is_bounded():
    # memory must be predictable from N, so no cache may grow without bound;
    # a cached function the walk below cannot reach fails the count
    caches = {}
    for info in pkgutil.iter_modules(dwigner.__path__, "dwigner."):
        module = importlib.import_module(info.name)
        decorated = {
            node.name
            for node in ast.walk(ast.parse(inspect.getsource(module)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
        }
        namespaces = [vars(module)]
        namespaces += [vars(c) for c in vars(module).values() if isinstance(c, type)]
        found = {
            name: obj
            for namespace in namespaces
            for name, obj in namespace.items()
            if hasattr(obj, "cache_info") and obj.__module__ == info.name
        }
        assert set(found) == decorated, info.name
        caches.update({f"{info.name}.{name}": obj for name, obj in found.items()})
    assert "dwigner.wigner._kernel" in caches
    unbounded = [name for name, obj in caches.items() if obj.cache_info().maxsize is None]
    assert unbounded == []
