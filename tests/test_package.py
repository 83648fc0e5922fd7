"""The package holds only what it runs: code that only tests call lives in
`tests/` (`references.py`), not in `src/akregime`."""

import ast
from pathlib import Path

import akregime

PACKAGE = Path(akregime.__file__).resolve().parent


def _referenced_names(node) -> set[str]:
    """Every name `node` reads, as a bare name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_module_level_definition_is_reached_from_the_package():
    # Each module-level statement reads its names; a definition is reached
    # when some other statement, in any package module, reads its name.
    definitions = []  # (module, name, statement)
    statements = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).with_suffix("").as_posix()
        for statement in ast.parse(path.read_text(), str(path)).body:
            statements.append(statement)
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((module, statement.name, statement))
    assert len(definitions) > 50
    reads = [(statement, _referenced_names(statement)) for statement in statements]
    unreached = [
        f"{module}.{name}"
        for module, name, definition in definitions
        if name not in akregime.__all__
        and not any(name in names for statement, names in reads if statement is not definition)
    ]
    assert unreached == []
