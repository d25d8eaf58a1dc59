"""JSON discipline for on-disk artifacts.

Every artifact is JSON with sorted keys.  Exact quantities live as
integers or "p/q" rational strings; statistics live as 12-digit decimal
strings.  A raw float in a document is treated as an authoring bug and
rejected before anything touches disk, so two runs of the same build can
be compared byte for byte.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile

from .projgeom import parse_ids


_ESCAPE = json.encoder.encode_basestring_ascii


class _NotPlain(Exception):
    """A value that `_render` leaves to `_reject_floats` and `json.dumps`."""


def _render(x, nl: str) -> str:
    """x as json.dumps(sort_keys=True, indent=2) writes it at indent nl.

    Plain values only: str-keyed dicts, lists, tuples, str, int, bool and
    None, tested by exact type.  Anything else, subclasses included,
    raises _NotPlain.  A list of ints or of strs is one join, and a list
    of equal-length int lists (an edge list) one format of a repeated row
    template, so the common documents never reach json's Python encoder.
    """
    t = type(x)
    if t is str:
        return _ESCAPE(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if t is bool:
        return "true" if x else "false"
    inner = nl + "  "
    sep = "," + inner
    if t is dict:
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise _NotPlain
        return "{%s%s%s}" % (inner, sep.join([
            _ESCAPE(k) + ": " + _render(x[k], inner) for k in sorted(x)]), nl)
    if t is not list and t is not tuple:
        raise _NotPlain
    if not x:
        return "[]"
    kinds = set(map(type, x))
    if kinds == {int}:
        body = sep.join(map(int.__repr__, x))
    elif kinds == {str}:
        body = sep.join(map(_ESCAPE, x))
    elif kinds == {list} and len(set(map(len, x))) == 1 and set(
            map(type, itertools.chain.from_iterable(x))) <= {int}:
        width = len(x[0])
        cell = inner + "  "
        row = ("[%s%s%s]" % (cell, ("," + cell).join(["%d"] * width), inner)
               if width else "[]")
        body = sep.join([row] * len(x)) % tuple(
            itertools.chain.from_iterable(x))
    else:
        body = sep.join([_render(v, inner) for v in x])
    return "[%s%s%s]" % (inner, body, nl)


def _reject_floats(doc, path="$"):
    # bool is an int subclass, check it first
    if isinstance(doc, bool) or doc is None or isinstance(doc, (int, str)):
        return
    if isinstance(doc, float):
        raise TypeError("raw float at %s; use a decimal string or rational"
                        % path)
    if isinstance(doc, dict):
        for k, v in doc.items():
            if not isinstance(k, str):
                raise TypeError("non-string key at %s: %r" % (path, k))
            _reject_floats(v, "%s.%s" % (path, k))
        return
    if isinstance(doc, (list, tuple)):
        for i, v in enumerate(doc):
            _reject_floats(v, "%s[%d]" % (path, i))
        return
    raise TypeError("unserializable value at %s: %r" % (path, type(doc)))


def dump_doc(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline.

    The bytes are those of json.dumps(doc, sort_keys=True, indent=2); a
    document that is not plain goes through `_reject_floats` and then
    json.dumps itself, which raise what they raised before the render
    (an int past the str conversion limit is a ValueError either way).
    """
    try:
        return _render(doc, "\n") + "\n"
    except (_NotPlain, ValueError):
        pass
    _reject_floats(doc)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_doc(path: str, doc) -> None:
    """Atomic write: serialize, write to a temp file, rename into place.

    The file gets the mode open() would give it (0o666 less the umask),
    not mkstemp's 0o600.
    """
    text = dump_doc(doc)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
    try:
        # reading the umask means setting it; the package starts no threads
        umask = os.umask(0o022)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _unique_keys(pairs) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError("duplicate key %r in a JSON object" % key)
        doc[key] = value
    return doc


def _no_constant(name: str):
    raise ValueError("%s is not a JSON value" % name)


def read_doc(path: str):
    """Load a JSON document, refusing duplicate keys and NaN/Infinity.

    json.load would keep the last of two equal keys and read the
    constants as floats; both would reinterpret the file silently.
    """
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys,
                         parse_constant=_no_constant)


def report_path_for(graph_path: str) -> str:
    """Sibling report file: g.json -> g.report.json."""
    base = graph_path
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".report.json"


def read_points_file(spec, path: str):
    """Rows of the canonical points, one per line; blank lines and #
    comments skipped.

    The first point sets the dimension; a refusal names the first line
    that is not a canonical point of that space (`projgeom.parse_ids`).
    """
    with open(path) as fh:
        kept = [(lineno, line) for lineno, line in
                enumerate(map(str.strip, fh), 1)
                if line and not line.startswith("#")]
    ids = [line for _, line in kept]
    dim = ids[0].count(":") if ids else 0
    rows, n = parse_ids(spec, ids, dim)
    if n < len(ids):
        raise ValueError("%s:%d: %r is not a canonical point of P^%d(F_%d)"
                         % (path, kept[n][0], ids[n], dim, spec.order))
    return rows
