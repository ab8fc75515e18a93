"""The public surface is what its callers use.

The package root exports exactly the names that README, the demos, the
acceptance battery and the benchmark reach as ``lfmhd.<name>``; they
import everything else from its module.  Every public module-level name
of ``src/lfmhd`` has a caller other than a unit test: the library
itself, a demo, an acceptance test of a paper claim, or the benchmark.
So the root cannot grow a name nobody reaches through it, and an entry
point that only its own unit test calls fails here.  The same rule holds
for options: every defaulted parameter of a function is set to another
value by some call other than a unit test, and left at its default by
some call.  And for records: every dataclass field is read by some code
other than a unit test, and every field default is left in place by some
construction.
"""

import ast
import re
from pathlib import Path

import lfmhd

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "lfmhd").glob("*.py") if p.name != "__init__.py")
# the callers that are not unit tests
OUTSIDE = (
    sorted((ROOT / "demos").rglob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
    + sorted((ROOT / "perfbench").rglob("*.py"))
)
ROOT_IMPORT = re.compile(r"^\s*from lfmhd import (?:\(([^)]*)\)|(.*))$", re.M)


def _root_names_used() -> set[str]:
    """Names taken from the package root, submodules and dunders aside."""
    names = set()
    for path in OUTSIDE + [ROOT / "README.md"]:
        text = path.read_text()
        names.update(re.findall(r"\blfmhd\.(\w+)", text))
        for group in ROOT_IMPORT.findall(text):
            names.update(re.findall(r"\w+", re.sub(r"#.*", "", "".join(group))))
    return {n for n in names if not n.startswith("__")} - {p.stem for p in MODULES}


def _public_names(path: Path) -> list[str]:
    """Functions, classes and variables bound at the top level of a module."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("_")]


def _uses(name: str, lines: list[str]) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^(\s*(def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=])")
    return any(word.search(line) and not definition.match(line) for line in lines)


def test_every_export_has_a_caller():
    used = _root_names_used()
    unreached = sorted(set(lfmhd.__all__) - used)
    missing = sorted(used - set(lfmhd.__all__))
    assert unreached == [], f"exported but reached through the root by no caller: {unreached}"
    assert missing == [], f"reached through the root but not exported: {missing}"


def test_every_public_module_name_has_a_caller():
    lines = [line for path in MODULES + OUTSIDE for line in path.read_text().splitlines()]
    unused = [f"{path.stem}.{name}" for path in MODULES for name in _public_names(path)
              if not _uses(name, lines)]
    assert unused == [], f"public but called only by unit tests: {unused}"


# where a call may set a defaulted parameter
CALLERS = (
    sorted((ROOT / "src" / "lfmhd").glob("*.py"))
    + sorted((ROOT / "demos").rglob("*.py"))
    + sorted((ROOT / "tests").rglob("*.py"))
    + sorted((ROOT / "perfbench").rglob("*.py"))
)


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position, default) of every defaulted parameter
    of a function or method; position counts the positional arguments a
    call passes (self and cls aside), and is None for a keyword-only one."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, ast.FunctionDef)
               and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)}
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        positional = f.args.posonlyargs + f.args.args
        skip = 1 if id(f) in methods else 0
        first = len(positional) - len(f.args.defaults)
        for i, default in enumerate(f.args.defaults, start=first):
            yield f.name, positional[i].arg, i - skip, default
        for arg, default in zip(f.args.kwonlyargs, f.args.kw_defaults):
            if default is not None:
                yield f.name, arg.arg, None, default


def _calls(tree: ast.Module):
    """(called name, positional arguments, keyword arguments by name, unpacks)
    of every call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            unpacks = (any(isinstance(a, ast.Starred) for a in node.args)
                       or any(k.arg is None for k in node.keywords))
            yield name, node.args, {k.arg: k.value for k in node.keywords}, unpacks


def _calls_by_name() -> dict:
    """called name -> [(caller path, positional arguments, keyword arguments
    by name, unpacks), per call] over every caller."""
    calls = {}
    for path in CALLERS:
        for name, args, keywords, unpacks in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append((path, args, keywords, unpacks))
    return calls


def _defaulted_parameter_calls():
    """(parameter label, default, [(caller path, unpacks, the argument the
    call passes for it or None), per call]) of every defaulted parameter;
    a call that unpacks arguments may set it."""
    calls = _calls_by_name()
    for path in MODULES:
        for func, param, pos, default in _defaulted_parameters(ast.parse(path.read_text())):
            yield f"{path.stem}.{func}({param}=)", default, [
                (caller, unpacks, keywords.get(param, args[pos] if pos is not None
                                                and len(args) > pos else None))
                for caller, args, keywords, unpacks in calls.get(func, [])]


# the callers whose settings count: the package and every caller that is
# not a unit test
SETTERS = set(MODULES) | set(OUTSIDE)


def test_every_defaulted_parameter_is_set_by_some_call():
    # set means set outside the unit tests, to something other than the
    # default's own literal
    unset = [label for label, default, sets in _defaulted_parameter_calls()
             if not any(caller in SETTERS and (unpacks or (
                 passed is not None and ast.dump(passed) != ast.dump(default)))
                 for caller, unpacks, passed in sets)]
    assert unset == [], f"defaulted parameters no call outside the unit tests sets: {unset}"


def test_every_default_is_relied_on_by_some_call():
    # a default that every call overrides is a required parameter in disguise
    always = [label for label, _, sets in _defaulted_parameter_calls()
              if sets and all(passed is not None and not unpacks for _, unpacks, passed in sets)]
    assert always == [], f"defaulted parameters every call sets: {always}"


# where a record field may be read: everything but the unit tests
READERS = MODULES + [ROOT / "src" / "lfmhd" / "__init__.py"] + OUTSIDE


def _dataclass_fields(tree: ast.Module):
    """(class, field, position, default or None) of every annotated field of
    a dataclass; position counts the fields before it."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            annotated = [stmt for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for position, stmt in enumerate(annotated):
                yield node.name, stmt.target.id, position, stmt.value


def _reads(tree: ast.Module):
    """Attribute names loaded, and names taken by ``getattr`` with a literal."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_record_field_is_read():
    read = {name for path in READERS for name in _reads(ast.parse(path.read_text()))}
    unread = [f"{path.stem}.{cls}.{name}" for path in MODULES
              for cls, name, _, _ in _dataclass_fields(ast.parse(path.read_text()))
              if name not in read]
    assert unread == [], f"record fields no code outside the unit tests reads: {unread}"


def test_every_field_default_is_relied_on_by_some_construction():
    # a field default that every construction sets is a required field in
    # disguise; a construction that unpacks arguments may leave it unset
    calls = _calls_by_name()
    always = [f"{path.stem}.{cls}.{name}" for path in MODULES
              for cls, name, pos, default in _dataclass_fields(ast.parse(path.read_text()))
              if default is not None and calls.get(cls) and all(
                  not unpacks and (name in keywords or len(args) > pos)
                  for _, args, keywords, unpacks in calls[cls])]
    assert always == [], f"dataclass defaults every construction sets: {always}"
