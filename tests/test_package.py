"""The package holds only what its commands reach, and one function writes files.

Every module-level function or class in `src/wcr`, and every method or
property of its classes that is not a dunder or an override, must be
referenced by other package code or be exported in `wcr.__all__`. Code that
only tests call belongs in `tests/helpers.py`, not in the package.

Only `cli._publish` may create a directory or write a file: every other
writer fills a text stream, so a run that fails leaves `--out` untouched.

`model` imports no package module but `errors`, not even inside a function,
so the package has no import cycle through its base layer.

Only the code that opens a file names it in an error: `model.open_binary`,
which every reader of a file and `cli` open files through, sets a
`DataError`'s `source`. Every reader reports only the line and the field.
"""

import ast
import importlib
from pathlib import Path

import wcr

PACKAGE = Path(wcr.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# name -> why it stays although no package code references it
ALLOWED_UNREFERENCED: dict[str, str] = {}


def _definitions_and_references():
    """The package's definitions by qualified name: module-level ones, and the
    methods of its classes but for dunders and overrides; and each name the
    package mentions, with the definitions it is mentioned inside."""
    definitions: dict[str, ast.AST] = {}
    references: list[tuple[tuple[ast.AST, ...], str]] = []

    def visit(node: ast.AST, enclosing: tuple[ast.AST, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                references.append((enclosing, child.id))
            elif isinstance(child, ast.Attribute):
                references.append((enclosing, child.attr))
            is_definition = isinstance(child, DEFINITIONS)
            visit(child, (*enclosing, child) if is_definition else enclosing)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            if isinstance(top, DEFINITIONS):
                definitions[f"{path.stem}.{top.name}"] = top
            if isinstance(top, ast.ClassDef):
                for member in top.body:
                    if isinstance(member, DEFINITIONS) and not _dunder_or_override(
                            path.stem, top.name, member.name):
                        definitions[f"{path.stem}.{top.name}.{member.name}"] = member
        visit(tree, ())
    return definitions, references


def _dunder_or_override(module: str, cls: str, name: str) -> bool:
    """Whether a method is called by Python or by a base class (`_Parser.error`)."""
    if name.startswith("__") and name.endswith("__"):
        return True
    owner = getattr(importlib.import_module(f"wcr.{module}"), cls)
    return any(name in vars(base) for base in owner.__mro__[1:])


def unreferenced_definitions() -> list[str]:
    definitions, references = _definitions_and_references()
    found = []
    for qualified, node in definitions.items():
        name = qualified.rsplit(".", 1)[1]
        # a definition's mentions of itself (recursion, a classmethod's
        # return annotation) do not count
        used = any(ref == name and node not in enclosing for enclosing, ref in references)
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


def test_scan_sees_methods_but_not_dunders_or_overrides():
    definitions, _ = _definitions_and_references()
    assert {"model.Codec.to_dict", "cachesim.CacheConfig.set_count"} <= set(definitions)
    # argparse calls `error`; Python calls `__post_init__`
    assert not {"cli._Parser.error", "model.MetricSchema.__post_init__"} & set(definitions)


# method calls that create a directory or write a file
WRITE_METHODS = {"write_text", "write_bytes", "mkdir", "makedirs", "tofile"}


def _writes(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in WRITE_METHODS
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:  # the default mode, "r"
        return False
    # a mode the scan cannot read counts as a write
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writers() -> list[tuple[str, int]]:
    """(`module.function`, line) of each call in the package that writes."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _writes(node):
                    found.append((f"{path.stem}.{getattr(top, 'name', '<module>')}", node.lineno))
    return found


def test_only_publish_writes_files():
    writers = file_writers()
    assert [f"{name}:{line}" for name, line in writers if name != "cli._publish"] == [], (
        "a file write or mkdir outside `cli._publish`; write to a text stream instead"
    )
    # the scan sees the one writer, so it is not blind
    assert {name for name, _ in writers} == {"cli._publish"}


def test_write_scan_flags_each_kind_of_write():
    calls = ["open(p, 'w')", "open(p, mode='a', encoding='utf-8')", "open(p, 'r+')",
             "open(p, 'xb')", "open(p, m)", "p.write_text(s)", "p.write_bytes(b)",
             "p.mkdir()", "os.makedirs(p)", "a.tofile(p)"]
    reads = ["open(p)", "open(p, 'r', encoding='utf-8')", "open(p, mode='rb')",
             "outputs.open(name)", "p.read_text()"]
    for source, expected in [(c, True) for c in calls] + [(r, False) for r in reads]:
        assert _writes(ast.parse(source, mode="eval").body) is expected, source


def package_imports(path: Path) -> list[tuple[str, int]]:
    """(`wcr` module, line) of each import of a package module anywhere in `path`,
    function bodies included."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import is from the package; the package is flat
            module = ".".join(filter(None, ("wcr" if node.level else "", node.module)))
            # `from wcr import x` and `from . import x` import the modules they name
            modules = [f"{module}.{a.name}" for a in node.names] if module == "wcr" else [module]
        else:
            continue
        found += [(m, node.lineno) for m in modules if m.split(".")[0] == "wcr"]
    return found


def test_model_imports_only_errors():
    # `model` is the base layer: every other module builds on it, so an import
    # of one of them, even inside a function, is a cycle
    imports = package_imports(PACKAGE / "model.py")
    assert [f"{name}:{line}" for name, line in imports if name != "wcr.errors"] == []
    # the scan sees the one import `model` does make, so it is not blind
    assert {name for name, _ in imports} == {"wcr.errors"}


def test_import_scan_names_each_kind_of_import(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .errors import DataError\nimport wcr.ingest\n"
                      "from wcr import reduction\nfrom wcr.cli import main\n"
                      "def f():\n    from . import cachesim\n    import numpy\n"
                      "    from .ingest import FORMULAS\n")
    assert package_imports(source) == [
        ("wcr.errors", 1), ("wcr.ingest", 2), ("wcr.reduction", 3), ("wcr.cli", 4),
        ("wcr.cachesim", 6), ("wcr.ingest", 8)]


def _names_a_file(node: ast.AST) -> bool:
    """Whether `node` builds a `DataError` or `ParseError` with a source or stores
    an error's `.source`."""
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in ("DataError", "ParseError") and (
            len(node.args) > 2 or any(k.arg == "source" for k in node.keywords))
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
    return any(isinstance(t, ast.Attribute) and t.attr == "source"
               for target in targets for t in ast.walk(target))


def file_namers() -> list[tuple[str, int]]:
    """(`module.definition`, line) of each place in the package that names a file
    in an error."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if _names_a_file(node):
                    found.append((f"{path.stem}.{getattr(top, 'name', '<module>')}", node.lineno))
    return found


# the one opener that names a file, and the class that stores the name
FILE_NAMERS = {"model.open_binary", "errors.DataError"}


def test_only_the_openers_name_a_file():
    namers = file_namers()
    assert [f"{name}:{line}" for name, line in namers if name not in FILE_NAMERS] == [], (
        "a reader names its file; raise the `DataError` with the line and field only, "
        "and let `model.open_binary`, which opened the file, name it"
    )
    # the scan sees the opener and the class, so it is not blind
    assert {name for name, _ in namers} == FILE_NAMERS


def test_name_scan_flags_each_way_of_naming_a_file():
    namers = ["ParseError('m', 2, p)", "ParseError('m', source=p)", "DataError('m', None, p)",
              "errors.ParseError('m', line=2, source=p)", "errors.DataError('m', source=p)",
              "e.source = p", "e.source += p", "e.source: str = p", "e.line, e.source = 2, p"]
    others = ["ParseError('m')", "ParseError('m', 2)", "ParseError('m', line=2)",
              "DataError('m', 2)", "DataError(f'{p}: m')", "x = e.source"]
    for source, expected in [(c, True) for c in namers] + [(c, False) for c in others]:
        node = ast.parse(source).body[0]
        assert _names_a_file(node.value if isinstance(node, ast.Expr) else node) is expected, source
