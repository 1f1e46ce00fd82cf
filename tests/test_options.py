"""Every option of the library is set by some caller.

An option is a parameter with a default on a module-level function, or on a
non-dunder method of a module-level class, in ``src/solvrigid``. A call sets
it when a call of the same name (in ``src/``, ``tests/`` or ``perfbench/``)
passes it by keyword or reaches its position. An option that no call sets
selects a branch that nothing runs.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _options():
    """(module, callee, parameter, position or None) for each parameter with a default."""
    for path in sorted((ROOT / "src" / "solvrigid").glob("*.py")):
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
