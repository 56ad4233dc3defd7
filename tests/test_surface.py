"""Every public top-level function and class of the package has a use.

The scan reads ``src/rieszgibbs/*.py`` and ``demos/*.py`` with ``ast``.  A
use is a ``Name`` that resolves to the definition (in its own module, outside
the definition itself, or through a ``from ... import``) or a ``module.attr``
whose ``module`` is bound to the defining module.  Import statements and
docstring mentions are not uses, and neither are the tests: a name that only
tests call is dead code.

Likewise every annotated field of a dataclass or ``NamedTuple`` is read as
``obj.<field>`` somewhere in the package or the demos; a field nothing reads
is dead data that each constructor still has to fill.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "rieszgibbs"

#: public names kept without a use, each with the open work that needs it
ALLOWED = {
    ("numerics", "svd"): "the factor SVD behind thermal and modular data (ROADMAP item 1)",
    ("models", "random_unitary"): "the seeded random-frame preset option (ROADMAP item 2)",
}


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _import_base(node, in_package):
    """Package module an import reads from ("" for the package itself), or None."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1 and in_package:
            return node.module or ""
        if node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
            return node.module[len(PACKAGE) :].lstrip(".")
    return None


def _bindings(tree, modules, in_package):
    """Local name -> ("module", m) or ("name", m, attr) for each package import."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and alias.asname:
                    out[alias.asname] = ("module", ".".join(parts[1:]))
                elif alias.name == PACKAGE:
                    out[PACKAGE] = ("module", "")
        base = _import_base(node, in_package)
        if base is None:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if base == "" and alias.name in modules:
                out[local] = ("module", alias.name)
            else:
                out[local] = ("name", base, alias.name)
    return out


def _scan():
    """(public definitions, resolved uses), both as sets of (module, name)."""
    files = {
        path.stem if path.stem != "__init__" else "": _parse(path)
        for path in sorted((ROOT / "src" / PACKAGE).glob("*.py"))
    }
    modules = set(files) - {""}
    defs = {
        mod: {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        for mod, tree in files.items()
    }
    binds = {mod: _bindings(tree, modules, True) for mod, tree in files.items()}

    def resolve(mod, name):
        if name in defs.get(mod, ()):
            return (mod, name)
        bound = binds.get(mod, {}).get(name)
        if bound and bound[0] == "name":
            return resolve(bound[1], bound[2])
        return None

    public = {
        (mod, name) for mod in modules for name in defs[mod] if not name.startswith("_")
    }
    sources = [(mod, tree, binds[mod]) for mod, tree in files.items()]
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = _parse(path)
        sources.append((None, tree, _bindings(tree, modules, False)))

    uses = set()
    for mod, tree, bound in sources:
        for stmt in tree.body:
            own = (mod, stmt.name) if mod is not None and hasattr(stmt, "name") else None
            for node in ast.walk(stmt):
                target = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if mod is not None and node.id in defs[mod]:
                        target = (mod, node.id)
                    elif node.id in bound and bound[node.id][0] == "name":
                        target = resolve(bound[node.id][1], bound[node.id][2])
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    holder = bound.get(node.value.id)
                    if holder and holder[0] == "module":
                        target = resolve(holder[1], node.attr)
                if target is not None and target != own:
                    uses.add(target)
    return public, uses


def test_every_public_name_has_a_use():
    public, uses = _scan()
    unused = sorted(f"{mod}.{name}" for mod, name in public - uses - set(ALLOWED))
    assert unused == [], f"public names nothing in src/ or demos/ uses: {unused}"


def test_allowed_names_exist_and_are_still_unused():
    # an allowed name that gains a use, or goes, leaves the list
    public, uses = _scan()
    for key in ALLOWED:
        assert key in public and key not in uses, key


#: record types whose fields are written by position, never read by name
POSITIONAL_RECORDS = {
    ("kms", "KmsRow"): "a kms_*.csv row, written whole by position",
    ("models", "SweepRow"): "a sweep_*.csv row, written whole by position",
    ("entropy", "SummabilityRow"): "a summability.csv row, written whole by position",
}


def _is_record(node):
    """Is a class definition a dataclass or a ``NamedTuple``?"""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    named = [n.id for n in decorators + node.bases if isinstance(n, ast.Name)]
    return "dataclass" in named or "NamedTuple" in named


def _record_fields():
    """(module, class, field) for every annotated field of a record type in the package."""
    out = set()
    for path in sorted((ROOT / "src" / PACKAGE).glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and _is_record(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        out.add((path.stem, node.name, stmt.target.id))
    return out


def _attribute_reads():
    """Every attribute name read as ``obj.name`` in the package or the demos."""
    paths = sorted((ROOT / "src" / PACKAGE).glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    return {
        node.attr
        for path in paths
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_record_field_is_read():
    # name-based: a field counts as read when any ``obj.<field>`` load exists
    reads = _attribute_reads()
    unread = sorted(
        f"{mod}.{cls}.{name}"
        for mod, cls, name in _record_fields()
        if (mod, cls) not in POSITIONAL_RECORDS and name not in reads
    )
    assert unread == [], f"record fields nothing in src/ or demos/ reads: {unread}"


def test_positional_records_exist():
    records = {(mod, cls) for mod, cls, _ in _record_fields()}
    assert set(POSITIONAL_RECORDS) <= records
