"""The package holds only what its commands reach.

Every module-level function or class in `src/wcr` must be referenced by
other package code or be exported in `wcr.__all__`. Code that only tests
call belongs in `tests/helpers.py`, not in the package.
"""

import ast
from pathlib import Path

import wcr

PACKAGE = Path(wcr.__file__).parent

# name -> why it stays although no package code references it
ALLOWED_UNREFERENCED = {
    "cachesim.simulate": "perfbench/tracing.py wraps it by name, and the tests use it as "
                         "the per-segment API",
}


def _definitions_and_references():
    definitions: dict[str, ast.AST] = {}
    references: list[tuple[ast.AST, str]] = []  # (top-level statement, name it mentions)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{top.name}"] = top
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    references.append((top, node.id))
                elif isinstance(node, ast.Attribute):
                    references.append((top, node.attr))
    return definitions, references


def unreferenced_definitions() -> list[str]:
    definitions, references = _definitions_and_references()
    found = []
    for qualified, node in definitions.items():
        name = qualified.split(".", 1)[1]
        # a definition's mentions of itself (recursion, a classmethod's
        # return annotation) do not count
        used = any(ref == name and top is not node for top, ref in references)
        if not used and name not in wcr.__all__:
            found.append(qualified)
    return sorted(found)


def test_every_definition_is_reached_or_exported():
    found = unreferenced_definitions()
    unexpected = [q for q in found if q not in ALLOWED_UNREFERENCED]
    assert unexpected == [], (
        "module-level code that no package code reaches and `wcr.__all__` does not "
        f"export: {unexpected}; move it to tests/helpers.py or delete it"
    )
    # an exception that package code now reaches no longer needs its entry
    assert sorted(set(ALLOWED_UNREFERENCED) - set(found)) == []
