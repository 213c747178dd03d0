"""Every top-level name the package defines is used by the program.

The package is read with `ast`, not imported.  A function, class or
module constant defined in `src/fslat/*.py` must be loaded by name
somewhere in the package (its `__init__.py` re-exports do not count) or
in `bench/harness.py`, as a bare name or as an attribute of an fslat
module.  Likewise each method a package class defines, dunders aside,
must be read as an attribute (of anything) somewhere in the package or
in `bench/harness.py`.  A name that only tests call belongs in
`tests/util.py`; a name that nothing calls is deleted.
"""

import ast
from pathlib import Path

from .test_bench_surface import dotted, fslat_modules

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fslat"
HARNESS = ROOT / "bench" / "harness.py"

#: Kept although the program never loads them.
EXEMPT = {
    # the automata-free referee that pins the rule semantics in tests
    "brute_force_accepts",
    # the listing round-trip of the lexicon format (acceptance 5)
    "serialize_lexicon",
}


def modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def defined_names():
    """`(module, name)` for each top-level function, class and assigned
    constant."""
    names = set()
    for path in modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            names.update((path.stem, name) for name in targets)
    return names


def loaded_names():
    """Every bare name read in the package modules and the harness, and
    every name in an attribute chain they read on an fslat module, such
    as `automata.intersect`.  An attribute read on anything else, such as
    `json.dump`, counts for nothing."""
    loaded = set()
    for path in [*modules(), HARNESS]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        fslat = fslat_modules(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = dotted(node, fslat)
                if name:
                    loaded.update(name.split(".")[1:])
    return loaded


def test_every_package_name_is_used_by_the_program():
    defined = defined_names()
    assert EXEMPT <= {name for _, name in defined}
    loaded = loaded_names()
    unused = sorted(
        f"{module}.{name}"
        for module, name in defined
        if name not in loaded and name not in EXEMPT
    )
    assert unused == []


def defined_methods():
    """`(module, class, name)` for each method of a top-level class,
    dunders aside."""
    methods = set()
    for path in modules():
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (path.stem, node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
    return methods


def read_attributes():
    """Every attribute name read in the package modules and the harness,
    on any object: a method is called or passed on as `x.name`."""
    return {
        node.attr
        for path in [*modules(), HARNESS]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_package_method_is_used_by_the_program():
    read = read_attributes()
    unused = sorted(
        f"{module}.{cls}.{name}"
        for module, cls, name in defined_methods()
        if name not in read
    )
    assert unused == []
