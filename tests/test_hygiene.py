"""Static checks over the source tree, written with the standard library's ``ast``.

They stand in for the two linter rules that deleting code most often
breaks: an import that nothing uses any more, and a private helper that
nothing calls any more.  A third keeps the public names, those exported
and every public top-level function or class, to names that the package,
the benchmark or a demo calls.
"""

import ast
from pathlib import Path

import factoralign

ROOT = Path(__file__).resolve().parent.parent


def _modules(*patterns: str) -> dict[Path, ast.Module]:
    paths = sorted({path for pattern in patterns for path in ROOT.glob(pattern)})
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in paths}


def _loaded_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a bare name or an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, as a bare name or an attribute, or exports in ``__all__``."""
    names = _loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign)) and "__all__" in {
            target.id for target in ast.walk(node) if isinstance(target, ast.Name)
        }:
            names.update(
                item.value
                for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return names


def _imported_names(tree: ast.Module):
    """``(line, name)`` for each name an import statement binds, star imports aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    scanned = _modules(
        "src/**/*.py", "bench/**/*.py", "tests/**/*.py", "demos/*.py", "tools/*.py"
    )
    for path, tree in scanned.items():
        read = _read_names(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for line, name in _imported_names(tree)
            if name not in read
        ]
    assert unused == []


def test_every_private_top_level_name_is_referenced():
    referenced = set()
    for tree in _modules("src/**/*.py", "bench/**/*.py", "tests/**/*.py").values():
        referenced |= _read_names(tree)
        referenced |= {name for _, name in _imported_names(tree)}
    unreferenced = []
    for path, tree in _modules("src/factoralign/*.py").items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            unreferenced += [
                f"{path.relative_to(ROOT)}:{node.lineno}: {name}"
                for name in defined
                if name.startswith("_") and not name.startswith("__") and name not in referenced
            ]
    assert unreferenced == []


def test_every_public_name_has_a_caller():
    # A name the package exports, and every public top-level function or class
    # of a module, must be read by the package, the benchmark or a demo; tests
    # alone do not keep it, nor does its place in __all__.
    read = set()
    for tree in _modules("src/**/*.py", "bench/*.py", "demos/*.py").values():
        read |= _loaded_names(tree)
    unread = sorted(set(factoralign.__all__) - read)
    for path, tree in _modules("src/factoralign/*.py").items():
        unread += [
            f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and node.name not in read
        ]
    assert unread == []


def test_the_power_of_two_rescaling_rule_has_one_implementation():
    # Every stage that rescales to stay finite calls core.scale_exponent.
    users = {
        path.name
        for path, tree in _modules("src/factoralign/*.py").items()
        if "frexp" in _read_names(tree)
    }
    assert users == {"core.py"}
