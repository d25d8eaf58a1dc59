"""JSON discipline for on-disk artifacts.

Every artifact is JSON with sorted keys.  Exact quantities live as
integers or "p/q" rational strings; statistics live as 12-digit decimal
strings.  A raw float in a document is treated as an authoring bug and
rejected before anything touches disk, so two runs of the same build can
be compared byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile


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
    """Canonical serialization: sorted keys, two-space indent, newline."""
    _reject_floats(doc)
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_doc(path: str, doc) -> None:
    """Atomic write: serialize, write to a temp file, rename into place."""
    text = dump_doc(doc)
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_doc(path: str):
    with open(path) as fh:
        return json.load(fh)


def report_path_for(graph_path: str) -> str:
    """Sibling report file: g.json -> g.report.json."""
    base = graph_path
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".report.json"


def read_points_file(spec, path: str):
    """One canonical point per line; blank lines and # comments skipped."""
    from .projgeom import point_from_str

    pts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                pts.append(point_from_str(spec, line))
            except ValueError as e:
                raise ValueError("%s:%d: %s" % (path, lineno, e)) from None
    return pts
