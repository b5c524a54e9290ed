"""Every parameter of a function of the package is read in its body.

A parameter that no line reads is an argument every caller passes for
nothing. A function's body reads a parameter when some name in it,
nested functions and lambdas included, loads that name. The few
parameters that a fixed signature needs are allowed below. Read with
the standard library's ast alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mrexplore"

# the unread parameters a fixed signature needs, each with its reason
ALLOWED = {
    "_offer_raw.sim": "every offer policy takes (sim, robot)",
    "_rank_nearest.sim": "every rank policy takes (sim, robot, points, paths)",
    "_rank_nearest.paths": "every rank policy takes (sim, robot, points, paths)",
    "trajectory_gain.graph": "perfbench's gain counter reads its node_count",
}


def unread_params(source: str) -> list[str]:
    """`function.parameter` of every parameter that the function's body
    never loads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{node.name}.{p}" for p in params if p not in read]
    return sorted(out)


def test_every_parameter_is_read():
    # an allowed entry whose parameter is read again, or gone, fails too
    found = [name for p in sorted(PACKAGE.glob("*.py"))
             for name in unread_params(p.read_text())]
    assert sorted(found) == sorted(ALLOWED)


def test_finds_unread_params():
    source = ("def f(a, b, *args, c, **kw):\n"
              "    '''a b c'''\n"
              "    return [lambda: b for _ in args]\n"
              "class C:\n"
              "    def m(self, x, y=1):\n"
              "        def inner(z):\n"
              "            return x\n"
              "        y = 2\n"
              "        return inner\n"
              "    def n(self):\n"
              "        return self\n")
    assert unread_params(source) == ["f.a", "f.c", "f.kw", "inner.z", "m.self", "m.y"]
