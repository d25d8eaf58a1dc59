"""Spans and counters around kstfree's public functions, from outside the package.

`Tracer.op(label)` installs a wrapper for every function in TARGETS for the
length of one op, then restores the originals.  The modules import each
other's functions by name (`graphs` holds its own reference to
`polyrand.eval_hom_many`, `variety` to `independence.s_wise_independent`), so a
module-level function is replaced wherever a `kstfree.*` module holds it, not
only in the module that defines it.  Methods are replaced on their class.

Each call records a span (op, id, parent, name, start, end); spans stay in
memory until `write_jsonl`.  Alongside, `stats` accumulates per name the
inclusive time `s`, the self time `self_s` (duration minus the time its child
spans cover), `calls`, and the counts each target's counter reads off the
call's arguments and return value.  Byte counts are computed from array sizes,
except the jsonio ones, which are file sizes on disk.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import defaultdict

import kstfree.cli  # loads every module the workloads reach
from kstfree.graphs import CommonNbhd
from kstfree.projgeom import projective_count


def _arr_mul(out, spec, a, b):
    return {"cells": out.size // out.shape[-1],
            "bytes": a.nbytes + b.nbytes + out.nbytes}


def _monomial_matrix(out, *args, **kwargs):
    return {"cells": out.shape[0] * out.shape[1], "bytes_out": out.nbytes}


def _eval_hom_many(out, *args, **kwargs):
    return {"points": out.shape[0], "forms": out.shape[1]}


def _eval_bihom_grid(out, *args, **kwargs):
    return {"pairs": out.size}


def _fq_point_array(out, *args, **kwargs):
    return {"points_kept": len(out)}


def _count_points(out, var, *args, **kwargs):
    return {"points": projective_count(var.spec.order, var.b)}


def _count_points_ext(out, var, ext_degree, *args, **kwargs):
    return {"points": projective_count(var.spec.order ** ext_degree, var.b)}


def _build(out, *args, **kwargs):
    counts = {"attempts": out.attempts, "certified": int(out.certified is True)}
    for reason, n in out.failure_tally.items():
        counts["rejections." + reason] = n
    return counts


def _search(out, *args, **kwargs):
    return {"checked": out.checked, "total": out.total, "mode." + out.mode: 1}


def _kst_verdict(out, *args, **kwargs):
    counts = defaultdict(int)
    for side in out.sides.values():
        mode = side.mode if isinstance(side, CommonNbhd) else side["mode"]
        counts["mode." + mode] += 1
    return counts


def _file_bytes(out, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (metric prefix, defining module, attribute path, counter or None)
TARGETS = (
    ("gf.arr_mul", "kstfree.gf", "FieldSpec.arr_mul", _arr_mul),
    ("gf.arr_dot", "kstfree.gf", "FieldSpec.arr_dot", None),
    ("gf.field_for_order", "kstfree.gf", "field_for_order", None),
    ("projgeom.projective_chunks", "kstfree.projgeom", "projective_chunks", None),
    ("projgeom.monomial_matrix", "kstfree.projgeom", "monomial_matrix",
     _monomial_matrix),
    ("polyrand.eval_hom_many", "kstfree.polyrand", "eval_hom_many",
     _eval_hom_many),
    ("polyrand.eval_bihom_grid", "kstfree.polyrand", "eval_bihom_grid",
     _eval_bihom_grid),
    ("variety.fq_point_array", "kstfree.variety", "fq_point_array",
     _fq_point_array),
    ("variety.count_points", "kstfree.variety", "count_points", _count_points),
    ("variety.count_points_ext", "kstfree.variety", "count_points_ext",
     _count_points_ext),
    ("variety.dimension_probe", "kstfree.variety", "dimension_probe", None),
    ("variety.build_independent_variety", "kstfree.variety",
     "build_independent_variety", _build),
    ("independence.s_wise_independent", "kstfree.independence",
     "s_wise_independent", _search),
    ("linalg.rank", "kstfree.linalg", "rank", None),
    ("graphs.max_common_neighborhood", "kstfree.graphs",
     "max_common_neighborhood", _search),
    ("graphs.kst_verdict", "kstfree.graphs", "kst_verdict", _kst_verdict),
    ("graphs.construct_turan", "kstfree.graphs", "construct_turan", None),
    ("graphs.construct_zar", "kstfree.graphs", "construct_zar", None),
    ("graphs.density_report", "kstfree.graphs", "density_report", None),
    ("graphs.SidedGraph.to_json", "kstfree.graphs", "SidedGraph.to_json", None),
    ("graphs.SidedGraph.from_json", "kstfree.graphs", "SidedGraph.from_json",
     None),
    ("jsonio.write_doc", "kstfree.jsonio", "write_doc", _file_bytes),
    ("jsonio.read_doc", "kstfree.jsonio", "read_doc", _file_bytes),
    ("cli.cmd_construct", "kstfree.cli", "cmd_construct", None),
    ("cli.cmd_verify", "kstfree.cli", "cmd_verify", None),
)

GENERATORS = {"projgeom.projective_chunks"}


def _kstfree_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kstfree"
                                  or name.startswith("kstfree."))]


class Tracer:
    """Collects spans and per-name stats for the ops run under `op()`."""

    def __init__(self):
        self.spans = []       # (op, id, parent, name, start, end)
        self.stats = defaultdict(float)
        self.ops = []         # op labels, indexed by op id
        self._stack = []      # open spans: [id, name, start, child time]
        self._saved = None
        self._origin = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _enter(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([sid, name, time.perf_counter(), 0.0])

    def _exit(self, counts):
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[sid] = (len(self.ops) - 1, sid, parent, name,
                           start - self._origin, end - self._origin)
        st = self.stats
        st[name + ".s"] += dur
        st[name + ".self_s"] += dur - child
        st[name + ".calls"] += 1
        if counts:
            for key, value in counts.items():
                st[name + "." + key] += value

    def _wrap(self, name, fn, counter):
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per yielded block: the work happens in next()
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        self._enter(name)
                        try:
                            block = next(gen)
                        except StopIteration:
                            self._exit(None)
                            return
                        except BaseException:
                            self._exit(None)
                            raise
                        self._exit({"points": len(block)})
                        yield block
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._exit(None)
                raise
            self._exit(counter(out, *args, **kwargs) if counter else None)
            return out
        return wrapper

    # -- installation ----------------------------------------------------------

    def _install(self):
        saved = []
        modules = _kstfree_modules()
        for name, modname, path, counter in TARGETS:
            owner = sys.modules[modname]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                # methods live on the class: replace the class attribute
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    new = self._wrap(name, raw, counter)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, key, orig))
                        setattr(mod, key, new)
        self._saved = saved

    def _uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved = None

    @contextlib.contextmanager
    def op(self, label):
        """Trace one op: wrappers are installed only inside this block."""
        self.ops.append(label)
        self._install()
        try:
            yield len(self.ops) - 1
        finally:
            self._uninstall()
            if self._stack:
                raise RuntimeError("spans left open: %r" % self._stack)

    def write_jsonl(self, path):
        """One line per op ({"op", "label"}), then one per span."""
        with open(path, "w") as fh:
            for op, label in enumerate(self.ops):
                fh.write(json.dumps({"op": op, "label": label}) + "\n")
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def root_seconds(spans) -> dict:
    """Op id -> total duration of its root spans."""
    out = defaultdict(float)
    for op, sid, parent, name, start, end in spans:
        if parent is None:
            out[op] += end - start
    return out


def self_time_violations(spans, tol=1e-6):
    """Ops whose non-root spans' self times sum to more than their roots' time.

    Recomputed from the spans alone: a span's self time is its duration
    minus the durations of its direct children.
    """
    child = defaultdict(float)
    for op, sid, parent, name, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    root_time = root_seconds(spans)
    inner_self = defaultdict(float)
    for op, sid, parent, name, start, end in spans:
        if parent is not None:
            inner_self[op] += end - start - child[sid]
    return [op for op in root_time if inner_self[op] > root_time[op] + tol]

