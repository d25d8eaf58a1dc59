"""Public surface: every public module-level function or class is used in
src/, no src/ definition builds a ProjPoint, and none converts a form's
coefficient array back into another container.

A name counts as used when some line of another definition in
`src/kstfree` names it (a call, an annotation, an attribute or a base
class).  `__init__.py` re-exports do not count: re-exporting a helper
is not a use of it.  A name that only the benchmark reads belongs in
ALLOWED with the bench file that needs it; one that only tests read
belongs in `tests/references.py`.

The benchmark's own files are read here too, without importing them:
every `kstfree` name they import, reach by attribute or wrap must still
resolve.
"""
import ast
import importlib
import os
import typing

import pytest

import kstfree

SRC = os.path.dirname(kstfree.__file__)
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")

ALLOWED = {
    "evaluate": "bench/workloads.py: checks builder points with it",
    "eval_hom_many": "bench/tracing.py: wraps it (TARGETS)",
    "variety_to_json": "bench/workloads.py: serialises builder varieties",
}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            path = os.path.join(SRC, name)
            with open(path) as fh:
                yield name, ast.parse(fh.read(), filename=path)


def public_definitions():
    """(module file, name, first line, last line) of each public top-level def."""
    for fname, tree in _modules():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield fname, node.name, node.lineno, node.end_lineno


def references():
    """(module file, line, name) of every identifier that is read."""
    for fname, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield fname, node.lineno, node.id
            elif isinstance(node, ast.Attribute):
                yield fname, node.lineno, node.attr


def unreferenced():
    """{name: "file:line"} of public definitions that nothing else reads."""
    refs = list(references())
    out = {}
    for fname, name, first, last in public_definitions():
        if not any(ref == name and not (rf == fname and first <= line <= last)
                   for rf, line, ref in refs):
            out[name] = "%s:%d" % (fname, first)
    return out


def test_every_public_name_is_used_in_src():
    unused = {name: where for name, where in unreferenced().items()
              if name not in ALLOWED}
    assert unused == {}


def test_allowlist_names_only_unused_definitions():
    # an entry whose name src/ now uses, or that no longer exists, is stale
    assert set(ALLOWED) <= set(unreferenced())


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks
    # `from kstfree import *`
    missing = [name for name in kstfree.__all__ if not hasattr(kstfree, name)]
    assert missing == []
    assert len(set(kstfree.__all__)) == len(kstfree.__all__)


def projpoint_calls():
    """"file:line" of each call that builds a ProjPoint in `src/kstfree`."""
    return ["%s:%d" % (fname, node.lineno)
            for fname, tree in _modules() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (_dotted(node.func) or "").split(".")[-1] == "ProjPoint"]


def test_src_builds_no_projpoint():
    # a point set is an (n, b+1) array of encodings everywhere in src/;
    # ProjPoint is only what the scalar evaluators take
    assert projpoint_calls() == []


CONVERTERS = {"tuple", "list", "np.array", "np.asarray"}


def coeffs_conversions():
    """"file:line" of each `src/kstfree` call of a CONVERTERS name with a
    `.coeffs` attribute anywhere in its arguments."""
    out = []
    for fname, tree in _modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _dotted(node.func) in CONVERTERS):
                continue
            args = node.args + [kw.value for kw in node.keywords]
            if any(isinstance(sub, ast.Attribute) and sub.attr == "coeffs"
                   for arg in args for sub in ast.walk(arg)):
                out.append("%s:%d" % (fname, node.lineno))
    return out


def test_src_keeps_coefficients_as_arrays():
    # a form's coeffs is already a read-only int64 array; field data
    # crosses module boundaries in that one form
    assert coeffs_conversions() == []


def scipy_importers():
    """Files of `src/kstfree` that import scipy, at any depth of the file."""
    out = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "scipy" for m in mods):
                out.add(name)
    return out


def test_no_module_imports_scipy():
    # the package depends on numpy alone
    assert scipy_importers() == set()


# ---------------------------------------------------------------------------
# the benchmark's import surface


def _bench_tree(name):
    path = os.path.join(BENCH, name)
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def _dotted(node):
    """"a.b.c" of a chain of Name and Attribute nodes, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _resolve(dotted):
    """The object a dotted kstfree name leads to, importing submodules."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


def bench_references(name):
    """Dotted kstfree names a bench file imports or reads as attributes."""
    names = set()
    for node in ast.walk(_bench_tree(name)):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names
                         if a.name.split(".")[0] == "kstfree")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "kstfree"):
            names.update(node.module + "." + a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.startswith("kstfree."):
                names.add(dotted)
    return names


def tracing_targets():
    """(defining module, attribute path) of each bench/tracing.py TARGET."""
    for node in _bench_tree("tracing.py").body:
        if (isinstance(node, ast.Assign)
                and [_dotted(t) for t in node.targets] == ["TARGETS"]):
            return [(row.elts[1].value, row.elts[2].value)
                    for row in node.value.elts]
    raise AssertionError("bench/tracing.py defines no TARGETS")


def returned_attributes(name):
    """(kstfree function, attribute) read off what each call returns.

    Only direct bindings are followed: `f = field_for_order(q)` then
    `f.mul(...)` gives ("kstfree.field_for_order", "mul").
    """
    tree = _bench_tree(name)
    imported = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "kstfree"):
            imported.update((a.asname or a.name, node.module + "." + a.name)
                            for a in node.names)
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and _dotted(node.value.func) in imported):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = imported[_dotted(node.value.func)]
    return {(bound[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in bound}


@pytest.mark.parametrize("name", ["workloads.py", "tracing.py",
                                  "setup_probe.py"])
def test_bench_imports_resolve(name):
    names = bench_references(name)
    assert names
    for dotted in sorted(names):
        _resolve(dotted)


def test_bench_tracing_targets_resolve():
    targets = tracing_targets()
    assert ("kstfree.projgeom", "monomial_matrix") in targets
    for modname, path in targets:
        owner = importlib.import_module(modname)
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        if cls_path:
            # tracing replaces methods in the class's own __dict__
            assert attr in vars(owner), path
        else:
            assert callable(getattr(owner, attr)), path


def test_bench_reads_fieldspec_members():
    seen = returned_attributes("setup_probe.py")
    assert seen >= {("kstfree.field_for_order", "mul"),
                    ("kstfree.field_for_order", "one")}
    for func, attr in seen:
        cls = typing.get_type_hints(_resolve(func))["return"]
        assert hasattr(cls, attr), (func, attr)
