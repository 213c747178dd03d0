"""Every name the benchmark harness reads from fslat exists.

`bench/harness.py` is parsed, not imported, so this runs with the unit
tests: deleting a name the harness still uses fails here, not only in
`pytest bench`.
"""

import ast
import importlib
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1] / "bench" / "harness.py"


def fslat_modules(tree):
    """Local name -> dotted module, for `import fslat` and
    `from fslat import module`."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name == "fslat")
        elif isinstance(node, ast.ImportFrom) and node.module == "fslat":
            modules.update((a.asname or a.name, f"fslat.{a.name}") for a in node.names)
    return modules


def dotted(node, modules):
    """`fslat.module.attr...` for an attribute chain on an fslat module,
    else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in modules:
        return ".".join([modules[node.id], *reversed(attrs)])
    return None


def harness_reads():
    """Each fslat name the harness reads: attribute chains such as
    `engine.Pipeline.build`, and `(owner, "name", ...)` tuples that it
    hands to `getattr`."""
    tree = ast.parse(HARNESS.read_text(encoding="utf-8"))
    modules = fslat_modules(tree)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            name = dotted(node, modules)
        elif (
            isinstance(node, ast.Tuple)
            and len(node.elts) >= 2
            and isinstance(node.elts[1], ast.Constant)
            and isinstance(node.elts[1].value, str)
        ):
            owner = dotted(node.elts[0], modules)
            name = owner and f"{owner}.{node.elts[1].value}"
        else:
            continue
        if name:
            names.add(name)
    return sorted(names)


def resolve(name):
    """The object `name` denotes: its longest importable module prefix,
    then one attribute per remaining part."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(name)


def test_every_name_the_harness_reads_exists():
    names = harness_reads()
    assert names
    missing = []
    for name in names:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert missing == []
