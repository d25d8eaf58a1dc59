"""Public surface: every public module-level function or class is used in src/.

A name counts as used when some line of another definition in
`src/kstfree` names it (a call, an annotation, an attribute or a base
class).  `__init__.py` re-exports do not count: re-exporting a helper
is not a use of it.  A name that only tests or the benchmark call
belongs in ALLOWED with its reason, or should go.
"""
import ast
import os

import kstfree

SRC = os.path.dirname(kstfree.__file__)

ALLOWED = {
    # scalar references the tests hold the bulk kernels to
    "evaluate": "tests: scalar reference for eval_hom_many and zero sets",
    "evaluate_bi": "tests: scalar reference for eval_bihom_grid",
    "eval_hom_many": "tests: bulk reference for fq_point_array",
    "verify_witness": "tests: re-checks a K_{s,t} violation witness",
    # the benchmark writes each builder variety into its op record
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
