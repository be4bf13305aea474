"""The package ships only what runs: every name the benchmark harness
imports from it exists, and every module-level function or class and
every public method in ``src/ahspringer`` has a user.  The checks read
the source with ``ast`` and import nothing from ``perfbench/``."""

import ast
from pathlib import Path

import ahspringer

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ahspringer"
HOOKS = {"__getattr__", "__dir__"}  # module hooks Python calls by name
# public methods whose only callers are tests, left for a later change
PENDING = set()


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def module_names(tree: ast.Module) -> set:
    """Names bound at module level: defs, classes, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def imported_names(tree: ast.Module) -> set:
    """Names bound by an import anywhere in a module, function-local ones too."""
    return {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def source_of(module: str) -> Path:
    """The file of ahspringer or of one of its submodules."""
    parts = module.split(".")[1:]
    return PACKAGE.joinpath(*parts).with_suffix(".py") if parts else PACKAGE / "__init__.py"


def perfbench_imports():
    """(file, module, name) of every import of ahspringer in perfbench/*.py;
    name is None for a plain ``import ahspringer.<module>``."""
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ahspringer":
                yield from ((path.name, node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                yield from ((path.name, alias.name, None) for alias in node.names
                            if alias.name.split(".")[0] == "ahspringer")


def read_off_package(node: ast.AST) -> bool:
    """Whether node is an attribute read that may reach the package: any
    but one on numpy (``np.trace`` is no use of a method named trace)."""
    return isinstance(node, ast.Attribute) and not (isinstance(node.value, ast.Name) and node.value.id == "np")


def references(tree: ast.Module) -> set:
    """Names read anywhere in a module, except a function's or class's reads
    of its own name: every attribute not read on numpy, and a bare name
    only where the module defines or imports it at module level, or
    imports it inside a function (a local variable that happens to share a
    definition's name is no use of it)."""
    bound, used = module_names(tree) | imported_names(tree), set()
    for node in tree.body:
        own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
        used |= {n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node)
                 if read_off_package(n) or isinstance(n, ast.Name) and n.id in bound} - own
    return used


def test_perfbench_imports_resolve_and_every_definition_has_a_user():
    imported, unresolved = set(), []
    for where, module, name in perfbench_imports():
        path = source_of(module)
        if not path.exists():
            unresolved.append((where, module))
        elif name is not None:
            imported.add(name)
            known = module_names(parse(path))
            if module == "ahspringer":
                known |= set(ahspringer.__all__) | {p.stem for p in PACKAGE.glob("*.py")}
            if name not in known:
                unresolved.append((where, f"{module}.{name}"))
    assert unresolved == []

    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | set(ahspringer.__all__) | imported | HOOKS
    ]
    assert unused == []


def test_every_public_method_has_a_user():
    trees = {path.stem: parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    # the harness spans methods by qualified name, such as "rng.Stream.below"
    spanned = {n.value for path in sorted((ROOT / "perfbench").glob("*.py")) for n in ast.walk(parse(path))
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    unused = {
        f"{module}.{cls.name}.{node.name}"
        for module, tree in trees.items() for cls in tree.body if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in used
    }
    assert unused - spanned == PENDING
