"""Every public top-level function or class of the package has a user.

A public name (one not led by an underscore) that a module under
src/mrexplore defines at top level must be named somewhere else in the
package, in perfbench/ or in tools/, or in backticks in README.md. A
module names a function by reading it, importing it, reading it as an
attribute, or in a string that is a dotted name, as perfbench's table of
wrapped calls and mrexplore.__all__ do; a docstring's prose names
nothing. Read with the standard library's ast alone."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mrexplore"
USERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
         + sorted((ROOT / "tools").glob("*.py")))
DOTTED = re.compile(r"[A-Za-z_]\w*(?:[.:][A-Za-z_]\w*)*")


def public_defs(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_in(tree: ast.Module) -> set[str]:
    """Every name the module reads, imports or spells as a dotted string;
    a def's own name is none of these."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            names.update(re.split(r"[.:]", node.value))
    return names


def in_backticks(markdown: str) -> set[str]:
    """The names in the markdown's code spans and fenced blocks: a run of
    backticks up to the next run of as many."""
    return {name for _, span in re.findall(r"(`+)(.+?)\1", markdown, re.S)
            for name in re.findall(r"[A-Za-z_]\w*", span)}


def unused_public(modules: dict[str, str], users: list[str], allowed: set[str]) -> list[str]:
    """`module.name` of every public top-level def of the modules (name to
    source) that no user's source names and that is not allowed."""
    named = set().union(*(names_in(ast.parse(source)) for source in users))
    return sorted(f"{module}.{name}" for module, source in modules.items()
                  for name in public_defs(ast.parse(source))
                  if name not in named and name not in allowed)


def test_every_public_def_has_a_user():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    users = [p.read_text() for p in USERS]
    documented = in_backticks((ROOT / "README.md").read_text())
    assert unused_public(modules, users, documented) == []


def test_finds_unused_defs():
    lib = ("def used(): pass\n"
           "def spanned(): pass\n"
           "def listed(): pass\n"
           "def documented(): pass\n"
           "class Dead:\n"
           "    def helper(self): pass\n"
           "def dead():\n"
           "    '''dead is named only here'''\n"
           "def _private(): pass\n")
    user = ("from lib import used\n"
            "SPANS = [('lib', 'spanned', 'lib.spanned')]\n"
            "'see dead, Dead and helper'\n")
    init = "__all__ = ['listed']\n"
    documented = in_backticks("```\nx = 1\n```\ncall `documented(x)`, not dead")
    assert unused_public({"lib": lib}, [lib, user, init], documented) == [
        "lib.Dead", "lib.dead"]
