"""Every option of the library is set by some caller, every export and every
public method of an exported class is read outside the tests, and the
array-point layers do not name BlockPoint.

An option is a parameter with a default on a module-level function, or on a
non-dunder method of a module-level class, in ``src/solvrigid``. A call sets
it when a call of the same name (in ``src/``, ``tests/`` or ``perfbench/``)
passes it by keyword or reaches its position. An option that no call sets
selects a branch that nothing runs.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "solvrigid"


def _options():
    """(module, callee, parameter, position or None) for each parameter with a default."""
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text()).body
        defs = [(f, 0) for f in body if isinstance(f, ast.FunctionDef)]
        for cls in (c for c in body if isinstance(c, ast.ClassDef)):
            for f in cls.body:
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("__"):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
                    defs.append((f, 0 if static else 1))
        for f, skip in defs:
            positional = f.args.posonlyargs + f.args.args
            first = len(positional) - len(f.args.defaults)
            for i in range(first, len(positional)):
                yield path.stem, f.name, positional[i].arg, i - skip
            for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults):
                if d is not None:
                    yield path.stem, f.name, a.arg, None


def _set_arguments():
    """Per callee name: the keywords its calls pass, and the most positional arguments."""
    keywords, most = defaultdict(set), defaultdict(int)
    for path in (p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))):
        for call in (n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)):
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            keywords[name].update(k.arg for k in call.keywords)
            most[name] = max(most[name], len(call.args))
    return keywords, most


def test_every_option_is_set_by_some_caller():
    keywords, most = _set_arguments()
    unset = [
        f"{module}.{fn}({name})"
        for module, fn, name, pos in _options()
        if name not in keywords[fn] and (pos is None or most[fn] <= pos)
    ]
    print("\n".join(unset))
    assert not unset, f"{len(unset)} options no caller sets: {', '.join(unset)}"


# Exports that only tests call, each waiting for the roadmap item that gives it a
# caller or deletes it.
WAITING = {
    **dict.fromkeys(["AbsPow", "Clamp", "Lin", "PMax", "PMin", "Pwl"], "ROADMAP item 9"),
    "dilatation": "ROADMAP item 5",
    "invariant_structure": "ROADMAP item 5",
    "normalize_stretch": "ROADMAP item 5",
    "radial_conjugator": "ROADMAP item 5",
    "rotation_rigidity_witness": "ROADMAP item 5",
}
MODULES = {"solvrigid"} | {p.stem for p in SRC.glob("*.py")}


def _names_read(tree, outside: bool):
    """Names a tree reads: bare names and ``module.name`` attributes; from outside the
    package also the names it imports and the ``module.name`` paths its strings spell.
    A name that is a key of a dict display is not read: a table keyed by class, as
    ``funcexpr._CHILDREN``, looks nodes up and constructs none."""
    keys = {id(k) for n in ast.walk(tree) if isinstance(n, ast.Dict) for k in n.keys}
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and id(n) not in keys:
            yield n.id
        elif isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in MODULES:
            yield n.attr
        elif outside and isinstance(n, ast.ImportFrom):
            yield from (a.name for a in n.names)
        elif outside and isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield from (m[2] for m in re.finditer(r"(\w+)\.(\w+)", n.value) if m[1] in MODULES)


def _has_reader(name, readers, seen) -> bool:
    """Whether a definition other than ``name`` reads it; a ``_``-prefixed reader counts
    only through readers of its own, so a private helper that only ``name`` calls does not."""
    seen = seen | {name}
    return any(r not in seen and (not (r or "").startswith("_") or _has_reader(r, readers, seen))
               for r in readers[name])


def _exports() -> set[str]:
    init = ast.parse((SRC / "__init__.py").read_text())
    return {a.name for n in init.body if isinstance(n, ast.ImportFrom) and n.level
            for a in n.names}


def _unread_exports(src: dict[str, str], perfbench: dict[str, str]) -> set[str]:
    """The exports that no definition of ``src`` but the export itself, and no module of
    ``perfbench``, reads."""
    readers = defaultdict(set)  # per name, the top-level definitions that read it
    for name, text in src.items():
        if name != "__init__.py":
            for stmt in ast.parse(text).body:
                for read in _names_read(stmt, False):
                    readers[read].add(getattr(stmt, "name", None))
    for text in perfbench.values():
        for read in _names_read(ast.parse(text), True):
            readers[read].add("perfbench")
    return {name for name in _exports() if not _has_reader(name, readers, set())}


def test_every_export_has_a_caller_outside_the_tests():
    unread = _unread_exports(_sources(SRC), _sources(ROOT / "perfbench"))
    # a new test-only export fails here, and so does a waiting one that found a caller
    assert sorted(unread - WAITING.keys()) == []
    assert sorted(WAITING.keys() - unread) == []


def test_a_table_keyed_by_an_export_does_not_hide_it():
    src, perfbench = _sources(SRC), _sources(ROOT / "perfbench")
    unread = _unread_exports(src, perfbench)
    assert "AbsPow" in unread
    # keyed by it, as funcexpr._CHILDREN, the table reads nothing: without its WAITING
    # entry the guard fails
    keyed = {**src, "fixtures.py": src["fixtures.py"] + "\n_PLANTED = {AbsPow: 'child'}\n"}
    assert _unread_exports(keyed, perfbench) == unread
    # holding it as a value, the same table is a reader
    held = {**src, "fixtures.py": src["fixtures.py"] + "\n_PLANTED = {'child': AbsPow}\n"}
    assert _unread_exports(held, perfbench) == unread - {"AbsPow"}


def _sources(directory: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(directory.glob("*.py"))}


def _attributes_read(text: str):
    """The attribute names a module reads, and the words of its strings other than
    docstrings (a path such as ``"mapalg.SimMap.compose"`` or a ``getattr`` name)."""
    tree = ast.parse(text)
    docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
    for n in ast.walk(tree):
        if isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and id(n) not in docs:
            yield from re.findall(r"\w+", n.value)


def _unread_methods(src: dict[str, str], perfbench: dict[str, str]) -> list[str]:
    """``Class.method`` for each public method of an exported class whose name no
    module of ``src`` or ``perfbench`` reads as an attribute."""
    exports = _exports()
    read = {a for text in [*src.values(), *perfbench.values()] for a in _attributes_read(text)}
    return sorted(f"{c.name}.{f.name}" for text in src.values() for c in ast.parse(text).body
                  if isinstance(c, ast.ClassDef) and c.name in exports
                  for f in c.body if isinstance(f, ast.FunctionDef)
                  and not f.name.startswith("_") and f.name not in read)


def test_every_public_method_of_an_export_has_a_reader_outside_the_tests():
    assert _unread_methods(_sources(SRC), _sources(ROOT / "perfbench")) == []


def test_the_method_guard_finds_a_planted_method_without_a_reader():
    src = _sources(SRC)
    anchor = "    def _nearest(self"
    assert anchor in src["conformal.py"]
    src["conformal.py"] = src["conformal.py"].replace(
        anchor, "    def planted_probe(self):\n        return 0\n\n" + anchor, 1)
    assert _unread_methods(src, _sources(ROOT / "perfbench")) == ["ConfField.planted_probe"]


# The metric, model-space, conformal and CLI layers take points as (total_dim,) or
# (N, total_dim) arrays only; a BlockPoint is the boundary maps' one-point call form.
ARRAY_POINT_MODULES = ("quasimetric", "solvgroup", "conformal", "cli")


def test_array_point_layers_do_not_name_block_points():
    named = [f"{module}:{n.lineno}" for module in ARRAY_POINT_MODULES
             for n in ast.walk(ast.parse((SRC / f"{module}.py").read_text()))
             if "BlockPoint" in (getattr(n, "id", None), getattr(n, "attr", None),
                                 n.name if isinstance(n, ast.alias) else None)]
    assert named == [], f"a second point form is back: {named}"
