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

And every defaulted parameter of a public function, public method or record
constructor is set, by keyword or by position, by some call in the package or
the demos: a switch no caller sets is a second code path that only tests run.
A record field's default is also left to its default by some constructor call:
a default every call overrides is a second copy of the callers' value.
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


def _package():
    """Parsed package modules by name, the names each defines at top level,
    every source (package modules and demos) with its import bindings, and a
    resolver from a load in a source to the definition it names."""
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

    sources = [(mod, tree, binds[mod]) for mod, tree in files.items()]
    for path in sorted((ROOT / "demos").glob("*.py")):
        tree = _parse(path)
        sources.append((None, tree, _bindings(tree, modules, False)))

    def target(node, mod, bound):
        """The (module, name) definition a ``Name`` or ``module.attr`` load refers to."""
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if mod is not None and node.id in defs[mod]:
                return (mod, node.id)
            if node.id in bound and bound[node.id][0] == "name":
                return resolve(bound[node.id][1], bound[node.id][2])
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            holder = bound.get(node.value.id)
            if holder and holder[0] == "module":
                return resolve(holder[1], node.attr)
        return None

    return files, defs, sources, target


def _walk_sources(sources):
    """(module, source bindings, owning top-level definition, node) for every node."""
    for mod, tree, bound in sources:
        for stmt in tree.body:
            own = (mod, stmt.name) if mod is not None and hasattr(stmt, "name") else None
            for node in ast.walk(stmt):
                yield mod, bound, own, node


def _scan():
    """(public definitions, resolved uses), both as sets of (module, name)."""
    _, defs, sources, target = _package()
    public = {(mod, name) for mod in defs if mod for name in defs[mod] if not name.startswith("_")}
    uses = set()
    for mod, bound, own, node in _walk_sources(sources):
        found = target(node, mod, bound)
        if found is not None and found != own:
            uses.add(found)
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


#: defaulted parameters no call in src/ or demos/ sets, each with the reason it stays
UNSET_ALLOWED = {
    ("cli", "main", "argv"): "the entry point: tests and perfbench/worker.py pass argv",
}


def _defaulted(args, skip_self):
    """(position, or None for keyword-only, and name) of each defaulted parameter."""
    pos = (args.posonlyargs + args.args)[1 if skip_self else 0 :]
    first = len(pos) - len(args.defaults)
    out = [(i, a.arg) for i, a in enumerate(pos) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]


def _record_defaulted(node):
    """(position, name) of each defaulted constructor parameter of a record;
    a ``field(init=False)`` is no parameter."""
    params = []
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value, default = stmt.value, stmt.value is not None
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            kw = {k.arg: k.value for k in value.keywords}
            if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                continue
            default = "default" in kw or "default_factory" in kw
        params.append((stmt.target.id, default))
    return [(i, name) for i, (name, default) in enumerate(params) if default]


def _signatures(files):
    """Defaulted parameters of every public callable: functions and record
    constructors by (module, name), methods by name alone (a call
    ``obj.method(...)`` does not say which class it reaches), and the records."""
    callables, methods, records = {}, {}, set()
    for mod, tree in files.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                callables[(mod, node.name)] = _defaulted(node.args, skip_self=False)
                continue
            if _is_record(node):
                records.add((mod, node.name))
                callables[(mod, node.name)] = _record_defaulted(node)
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in stmt.decorator_list)
                    methods.setdefault(stmt.name, []).append(
                        ((mod, f"{node.name}.{stmt.name}"), _defaulted(stmt.args, not static))
                    )
    return callables, methods, records


def _passed(call, params):
    """Names among ``params`` that ``call`` sets; ``*args`` or ``**kwargs`` set them all."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return {name for _, name in params}
    keys = {k.arg for k in call.keywords}
    return {name for i, name in params if name in keys or (i is not None and i < len(call.args))}


def _switch_scan():
    """(every defaulted parameter, the ones some call sets, the record defaults,
    the record defaults some constructor call leaves unset), each a set of
    (module, qualified name, parameter).  A function's calls to itself do not count."""
    files, _, sources, target = _package()
    callables, methods, records = _signatures(files)
    defaulted = {(*key, name) for key, params in callables.items() for _, name in params}
    defaulted |= {(*key, name) for found in methods.values() for key, params in found for _, name in params}
    given, left = set(), set()
    for mod, bound, own, node in _walk_sources(sources):
        if not isinstance(node, ast.Call):
            continue
        key = target(node.func, mod, bound)
        if key in callables and key != own:
            passed = _passed(node, callables[key])
            given |= {(*key, name) for name in passed}
            if key in records:
                left |= {(*key, name) for _, name in callables[key] if name not in passed}
        elif key is None and isinstance(node.func, ast.Attribute):
            for method, params in methods.get(node.func.attr, ()):
                given |= {(*method, name) for name in _passed(node, params)}
    record_defaults = {k for k in defaulted if k[:2] in records}
    return defaulted, given, record_defaults, left


def test_every_switch_is_set():
    defaulted, given, _, _ = _switch_scan()
    unset = sorted(".".join(k) for k in defaulted - given - set(UNSET_ALLOWED))
    assert unset == [], f"defaulted parameters no call in src/ or demos/ sets: {unset}"


def test_unset_allowed_exist_and_are_still_unset():
    # an allowed parameter that gains a caller, or goes, leaves the list
    defaulted, given, _, _ = _switch_scan()
    for key in UNSET_ALLOWED:
        assert key in defaulted and key not in given, key


def test_every_record_default_is_used():
    _, _, record_defaults, left = _switch_scan()
    overridden = sorted(".".join(k) for k in record_defaults - left)
    assert overridden == [], f"record defaults every constructor call overrides: {overridden}"
