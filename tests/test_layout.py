"""Layout rules, checked on the source text: the package imports only
itself and the standard library, the brute-force oracle and the test
helpers stay independent of the code they check, the CLI uses only the
public names of the modules it calls, the package namespace imports none
of its modules eagerly, only `tilings` imports the growth engine, and only
inside a function, `ZonoTile` is the package's one tile class, and every
`functools` cache in the package is bounded."""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "elnitsky"
TESTS = ROOT / "tests"
HELPERS = TESTS / "helpers.py"
CLI = PACKAGE / "io_cli.py"
INIT = PACKAGE / "__init__.py"


def imports(path, nodes=ast.walk):
    """(module, level, names) of every import in a file, or of those among
    `nodes` of its tree; `from . import x` gives the module "" at level 1."""
    for node in nodes(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, 0, ()
        elif isinstance(node, ast.ImportFrom):
            yield node.module or "", node.level, tuple(a.name for a in node.names)


def module_level(tree):
    """The nodes of a tree that run when the module is imported: all but
    those inside a function."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def caches(path):
    """(function, maxsize) of every `functools.lru_cache` or `cache` in a
    file: the name of the function it decorates (None if it decorates
    none) and the node of the maxsize it is given (None if none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    owners = {
        id(decorator): node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for decorator in node.decorator_list
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            kind = names.get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            kind = node.attr if node.value.id == "functools" else None
        else:
            continue
        if kind not in {"lru_cache", "cache"}:
            continue
        call = calls.get(id(node))
        size = None
        if kind == "lru_cache" and call:
            given = call.args + [k.value for k in call.keywords if k.arg == "maxsize"]
            size = given[0] if given else None
        yield owners.get(id(call or node)), size


def package_modules(module, level, names):
    """The `elnitsky` modules an import names: relative ones, or absolute
    ones under `elnitsky`."""
    if level == 0:
        parts = module.split(".")
        return {parts[1] if len(parts) > 1 else ""} if parts[0] == "elnitsky" else set()
    return {module.split(".")[0]} if module else set(names)


def test_package_imports_only_itself_and_the_standard_library():
    outside = [
        (path.name, module)
        for path in sorted(PACKAGE.glob("*.py"))
        for module, level, _ in imports(path)
        if level == 0 and module.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_oracle_imports_only_permutations_and_errors():
    used = set().union(*(package_modules(*i) for i in imports(PACKAGE / "oracle.py")))
    assert used <= {"permutations", "errors"}


def test_helpers_import_no_private_names():
    private = [
        (module, name)
        for module, level, names in imports(HELPERS)
        if module.split(".")[0] == "elnitsky"
        for name in (*module.split("."), *names)
        if name.startswith("_")
    ]
    assert private == []


def test_cli_uses_no_private_names_of_other_modules():
    """io_cli imports no `_`-prefixed name and reads no `_`-prefixed
    attribute, so what it needs from the library is public API."""
    private = [
        name
        for module, level, names in imports(CLI)
        for name in (*module.split("."), *names)
        if name.startswith("_") and name != "__future__"
    ]
    private += [
        node.attr
        for node in ast.walk(ast.parse(CLI.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
    ]
    assert private == []


def test_namespace_imports_no_package_module_at_module_level():
    """`elnitsky/__init__.py` loads its modules lazily, on first use of a
    name, so that a process loads only the modules it uses."""
    eager = [
        (module, level, names)
        for module, level, names in imports(INIT, module_level)
        if package_modules(module, level, names)
    ]
    assert eager == []


def test_only_tilings_imports_the_growth_engine_inside_a_function():
    """`tilings._table` is the one way into E(w): it runs the guards and
    only then imports `growth`, so that a refusal never compiles the
    engine.  No other package module imports `growth`, and nothing else,
    in the package or the tests, reaches `_canonical_paths` past the
    guards; the tests may build one block's graph with `_block_graph`."""

    def growth_imports(path, nodes=ast.walk):
        return [
            (path.name, module, names)
            for module, level, names in imports(path, nodes)
            if "growth" in package_modules(module, level, names)
        ]

    engine = {"tilings.py", "growth.py"}
    others = [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in engine]
    outside = [i for path in others for i in growth_imports(path)]
    eager = growth_imports(PACKAGE / "tilings.py", module_level)
    unguarded = [
        path.name
        for path in [*others, *sorted(TESTS.glob("*.py"))]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if "_canonical_paths" in {getattr(node, "attr", None), getattr(node, "id", None)}
        or isinstance(node, ast.ImportFrom)
        and "_canonical_paths" in {a.name for a in node.names}
    ]
    assert outside == eager == unguarded == []


def test_no_package_class_subclasses_the_tile():
    """A rhombus is the two-label `ZonoTile`, not a class of its own."""
    subclasses = [
        (path.name, node.name)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
        for base in node.bases
        if "ZonoTile" in {getattr(base, "id", None), getattr(base, "attr", None)}
    ]
    assert subclasses == []


def test_every_cache_in_the_package_has_an_integer_maxsize():
    """A cache that lives as long as the process holds what it saw for as
    long, so each `lru_cache` names an integer bound; `cache`, which has
    none, is not used."""
    unbounded = [
        (path.name, function)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, size in caches(path)
        if not (isinstance(size, ast.Constant) and type(size.value) is int)
    ]
    assert unbounded == []
