"""Every module-level private name of the package is used somewhere in
it beyond its own definition, so dead helpers and constants are found
as soon as their last caller goes."""

import ast
import os
import re

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "wamkit")


def _sources():
    """{module file name: source text} of the package."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as handle:
                out[name] = handle.read()
    return out


def _private_bindings(source):
    """{name: the number of module-level statements that bind it} over
    the private names of a module, dunder names left out."""
    counts = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                counts[name] = counts.get(name, 0) + 1
    return counts


def test_every_private_module_name_is_used():
    sources = _sources()
    text = "\n".join(sources.values())
    unused = ["%s.%s" % (module[:-3], name)
              for module, source in sources.items()
              for name, bindings in _private_bindings(source).items()
              if len(re.findall(r"\b%s\b" % name, text)) <= bindings]
    assert unused == []
