"""Every defaulted parameter of the public API has a caller that sets it.

A keyword that no caller in the library or its benchmarks passes is a
setting with no effect in practice: tests must cover it and readers must
rule it out. This test parses `src/pddopt` and `benchmarks` with `ast`
and fails naming each such parameter that is not on `ALLOWED`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pddopt"
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py"))

# (module.function or module.Class.method, parameter) -> why it stays
ALLOWED = {
    ("objective.check_gradient", "h"): "the step of a test oracle",
    ("optimizers.pdd_step", "grad"): "it is called as Rule.step, which passes it",
}


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def defaulted_parameters():
    """(qualified name, name, positional parameters after self or cls,
    defaulted parameters) of each function and method that a module's
    ``__all__`` names; dunder methods are skipped, and a dataclass's fields
    are no function."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        public = _exported(tree)
        funcs = [(f"{path.stem}.{n.name}", n, 0) for n in tree.body
                 if isinstance(n, ast.FunctionDef) and n.name in public]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name in public:
                funcs += [
                    (f"{path.stem}.{cls.name}.{n.name}", n, int(not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in n.decorator_list)))
                    for n in cls.body if isinstance(n, ast.FunctionDef)
                    and not (n.name.startswith("__") and n.name.endswith("__"))]
        for qual, fn, skip in funcs:
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args][skip:]
            defaulted = positional[len(positional) - len(a.defaults):] \
                if a.defaults else []
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            out += [(qual, fn.name, positional, p) for p in defaulted]
    return out


def set_parameters():
    """name -> what some call of a function or attribute of that name
    passes: positions (ints) and keywords. A ``**`` splat may pass any key
    that the scanned code builds a mapping with, a string key of a dict
    display or a keyword of ``dict(...)``; the config tables, whose
    sections reach callees as in ``rosenbrock(**p)``, are built so."""
    trees = [ast.parse(path.read_text(), str(path)) for path in SCANNED]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    splat = {k.value for node in nodes if isinstance(node, ast.Dict)
             for k in node.keys
             if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    splat |= {k.arg for node in nodes if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "dict"
              for k in node.keywords if k.arg}
    passed = {}
    for node in nodes:
        if not isinstance(node, ast.Call) or not isinstance(
                node.func, (ast.Name, ast.Attribute)):
            continue
        f = node.func
        got = passed.setdefault(f.id if isinstance(f, ast.Name) else f.attr, set())
        for i, arg in enumerate(node.args):
            # a *args splat may fill every later position
            got |= set(range(i, 64)) if isinstance(arg, ast.Starred) else {i}
        for kw in node.keywords:
            got |= {kw.arg} if kw.arg else splat
    return passed


def unset_parameters():
    passed = set_parameters()
    return [(qual, p) for qual, name, positional, p in defaulted_parameters()
            if not passed.get(name, set()) & {p, positional.index(p)
                                              if p in positional else p}]


def test_every_defaulted_public_parameter_is_set_by_some_caller():
    unset = [f"{qual}({p})" for qual, p in unset_parameters()
             if (qual, p) not in ALLOWED]
    assert not unset, ("defaulted parameters that no call in src/ or "
                       f"benchmarks/ sets: {', '.join(unset)}")


def test_the_allowlist_holds_only_unset_parameters():
    # an allowed parameter that gains a caller, or goes, leaves the list
    assert len(ALLOWED) <= 2
    assert set(ALLOWED) <= set(unset_parameters())
