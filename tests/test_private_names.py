"""Every module-level private name of the package is used somewhere in
it beyond its own definition, and so is every public function and
method that the package neither exports nor documents as an entry
point, so dead helpers and constants are found as soon as their last
caller goes, and test-only helpers live with the tests.  Every export
has a caller in the package or is named in README.md."""

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


def _unread_imports(source):
    """The names that a module's imports bind but that it never reads."""
    tree = ast.parse(source)
    bound = {(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_every_import_is_read():
    # __init__.py imports the package's exports
    unread = ["%s.%s" % (module[:-3], name)
              for module, source in _sources().items()
              if module != "__init__.py"
              for name in sorted(_unread_imports(source))]
    assert unread == []


# documented entry points that nothing in the package calls, each with
# the reason it stays
ENTRY_POINTS = {
    "formats.structured_to_matrix": "reads a structured WAM document back "
                                    "(README, structured format)",
    "formats.structured_to_poly": "reads a structured polynomial document "
                                  "back",
    "poly.WeightPoly.truncated": "the D^d truncation that truncated_mul is "
                                 "defined by (README)",
    "poly.WeightPoly.coefficient": "reads one coefficient of an exported "
                                   "WeightPoly by variable names",
    "poly.WeightPoly.substitute": "the checked substitution of an exported "
                                  "WeightPoly (README); the transforms map "
                                  "through one cached monomial_map",
    "polymatrix.PolyMatrix.substitute": "the same over every stored cell of "
                                        "an exported PolyMatrix",
    "pauli.PauliWord.weight": "the weight of an exported PauliWord, the "
                              "quantity a quantum WAM counts",
}


def _public_definitions(source):
    """The public module-level functions and class methods of a module,
    as "name" and "Class.name", private and dunder names left out."""
    out = []
    for node in ast.parse(source).body:
        if (isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")):
            out.append(node.name)
        elif isinstance(node, ast.ClassDef):
            out += ["%s.%s" % (node.name, item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and not item.name.startswith("_")]
    return out


def _exports(sources):
    """The names that __init__.py imports, the package's exports."""
    return {alias.name for node in ast.walk(ast.parse(sources["__init__.py"]))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_public_function_and_method_is_used_or_exported():
    sources = _sources()
    # every name the package reads, as a bare name or an attribute
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for source in sources.values()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))}
    exported = _exports(sources)
    unused = ["%s.%s" % (module[:-3], name)
              for module, source in sources.items()
              for name in _public_definitions(source)
              if name.rsplit(".", 1)[-1] not in used
              and name not in exported]
    assert sorted(unused) == sorted(ENTRY_POINTS)


def test_every_export_has_a_caller_or_a_documented_use():
    # an export is read by some module other than __init__.py outside the
    # statement that defines it, or README.md names it
    sources = _sources()
    read = set()
    for module, source in sources.items():
        if module == "__init__.py":
            continue
        for statement in ast.parse(source).body:
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(statement)
                     if isinstance(node, (ast.Name, ast.Attribute))
                     } - {getattr(statement, "name", None)}
    with open(os.path.join(SRC, os.pardir, os.pardir, "README.md"),
              encoding="utf-8") as handle:
        readme = handle.read()
    unused = [name for name in sorted(_exports(sources) - read)
              if not re.search(r"\b%s\b" % name, readme)]
    assert unused == []
