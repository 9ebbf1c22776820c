"""Spans and counters around the public entry points of hpe's layers.

The wrappers live here, outside the package: `install` patches module and
class attributes of an imported `hpe`, and `uninstall` puts the originals
back, so untraced work runs the unmodified code.  Spans are kept in memory
as lists and written out once, at the end of a run.

Hot leaf calls (field multiply, alphabet decode, hashing) are counted and
timed per (name, op) instead of recorded as spans; their time still counts
as child time of the enclosing span, so self times stay consistent.
"""

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict

_now = time.perf_counter_ns

# span record fields
NAME, OP, OP_ID, PARENT, START, END, CHILD, ERROR = range(8)


class Tracer:
    """Collects spans, leaf-call totals and counters for one process."""

    def __init__(self, op: str):
        self.spans = []          # [name, op, op_id, parent, start, end, child_ns, error]
        self.leaves = defaultdict(lambda: [0, 0])   # (name, op) -> [calls, ns]
        self.counts = defaultdict(float)            # (name, op) -> total
        self.op = op
        self.op_id = -1
        self._stack = []
        self._leaf_depth = 0
        self._patches = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, self.op_id, parent, _now(), 0, 0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        rec = self.spans[idx]
        rec[END] = _now()
        rec[ERROR] = error
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD] += rec[END] - rec[START]

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[(name, self.op)] += value

    # -- patching ------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(wrapper(orig)))

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span around owner.attr; after(tracer, result, args) on return.

        An exception is recorded on the span by class name and re-raised.
        """
        def wrapper(fn):
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self.close(idx, type(exc).__name__)
                    raise
                self.close(idx)
                if after is not None:
                    after(self, result, args)
                return result
            return traced
        self._patch(owner, attr, wrapper)

    def leaf(self, owner, attr: str, name: str, after=None) -> None:
        """Count and time owner.attr per (name, op) without a span."""
        def wrapper(fn):
            def counted(*args, **kwargs):
                t0 = _now()
                self._leaf_depth += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._leaf_depth -= 1
                dt = _now() - t0
                tot = self.leaves[(name, self.op)]
                tot[0] += 1
                tot[1] += dt
                if self._leaf_depth == 0 and self._stack:
                    self.spans[self._stack[-1]][CHILD] += dt
                if after is not None:
                    after(self, result, args)
                return result
            return counted
        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- exchange with child processes --------------------------------

    def dump(self, path) -> None:
        data = {
            "spans": self.spans,
            "leaves": [[k[0], k[1], v[0], v[1]] for k, v in self.leaves.items()],
            "counts": [[k[0], k[1], v] for k, v in self.counts.items()],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)

    def merge_child(self, path, parent: int, op: str) -> None:
        """Adopt a child process's dump under span `parent`, as op `op`."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for rec in data["spans"]:
            rec[OP] = op
            rec[OP_ID] = self.spans[parent][OP_ID]
            if rec[PARENT] < 0:
                rec[PARENT] = parent
                self.spans[parent][CHILD] += rec[END] - rec[START]
            else:
                rec[PARENT] += offset
            self.spans.append(rec)
        for name, _op, calls, ns in data["leaves"]:
            tot = self.leaves[(name, op)]
            tot[0] += calls
            tot[1] += ns
        for name, _op, value in data["counts"]:
            self.counts[(name, op)] += value


# ---------------------------------------------------------------------------
# the layer map


def _after_roots(t, result, args):
    t.count("upoly.degree", len(args[1]) - 1)
    t.count("upoly.roots_found", len(result))


def _after_solve(t, result, args):
    if result is None:
        t.count("linalg.inconsistent")
    else:
        t.count("linalg.nullity", len(result.nullspace))


def _after_decrypt_raw(t, result, args):
    t.count("protocol.candidates", len(result))


def _after_decrypt_messages(t, result, args):
    if len(result) > 1:
        t.count("protocol.ambiguous")


def _after_decode(t, result, args):
    if result is not None:
        t.count("alphabet.decode_valid")


def keygen_module():
    """hpe.core.keygen; the package re-exports a function under that name."""
    return importlib.import_module("hpe.core.keygen")


def install(t: Tracer) -> None:
    """Wrap the entry points of every layer of an imported hpe."""
    from hpe import cli, fields, sigs
    from hpe.core import alphabet, keys, linearize, protocol, serial
    from hpe.mvpoly import linalg

    keygen = keygen_module()

    t.leaf(fields.ExtensionField, "mul", "fields.mul")
    t.leaf(fields.ExtensionField, "inv", "fields.inv")
    t.leaf(fields.ExtensionField, "frob", "fields.frob")
    # roots is bound by name into the two modules that call it
    t.span(protocol, "upoly_roots", "upoly.roots", _after_roots)
    t.span(sigs, "upoly_roots", "upoly.roots", _after_roots)

    t.span(keys.PublicKey, "linear_system", "keys.linear_system")
    t.span(keys.PublicKey, "eval_at", "keys.eval_at")
    t.span(keys.PublicKey, "shape_violations", "keys.shape_violations")
    t.span(linalg, "solve", "linalg.solve", _after_solve)
    t.span(protocol, "encrypt", "protocol.encrypt")
    t.span(protocol, "encrypt_raw", "protocol.encrypt_raw")
    t.span(protocol, "decrypt_messages", "protocol.decrypt_messages",
           _after_decrypt_messages)
    t.span(protocol, "decrypt_raw", "protocol.decrypt_raw", _after_decrypt_raw)
    t.leaf(alphabet.Alphabet, "decode", "alphabet.decode", _after_decode)

    t.span(sigs, "sign", "sigs.sign")
    t.span(sigs, "_invert_target", "sigs.invert_target")
    t.span(sigs, "verify", "sigs.verify")
    t.leaf(sigs, "hash_to_y", "sigs.hash_to_y")

    t.span(keygen, "keygen", "keygen.keygen")
    t.span(cli, "keygen", "keygen.keygen")
    t.span(keygen, "sample_private", "keygen.sample_private")
    t.span(keygen, "expand_keypair", "keygen.expand_keypair")
    t.span(serial, "expand_keypair", "keygen.expand_keypair")
    t.span(linearize, "expand_product", "linearize.expand_product")
    for attr in ("records_q2", "records_general"):
        t.span(linearize, attr, "linearize.records")
    for attr in ("merge_q2", "merge_general"):
        t.span(linearize, attr, "linearize.merge")

    for attr in ("load_public", "load_private", "dump_public", "dump_private"):
        t.span(serial, attr, "serial." + attr)


# ---------------------------------------------------------------------------
# reading a trace


class TraceView:
    """Aggregates over a finished tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.by_name = defaultdict(list)
        self.roots = defaultdict(int)
        for rec in tracer.spans:
            self.by_name[rec[NAME]].append(rec)
            if rec[PARENT] < 0:
                self.roots[rec[OP]] += 1

    def select(self, name: str, op: str | None = None) -> list:
        return [r for r in self.by_name.get(name, ()) if op is None or r[OP] == op]

    def n(self, name: str, op: str | None = None) -> int:
        return len(self.select(name, op))

    def ops(self, op: str) -> int:
        """How many traced operations of this kind ran (root spans)."""
        return self.roots.get(op, 0)

    def mean_ms(self, name: str, op: str | None = None) -> float:
        recs = self.select(name, op)
        return _mean([(r[END] - r[START]) / 1e6 for r in recs])

    def total_ms(self, name: str, op: str | None = None) -> float:
        return sum((r[END] - r[START]) / 1e6 for r in self.select(name, op))

    def self_ms(self, name: str, op: str | None = None) -> float:
        recs = self.select(name, op)
        return _mean([(r[END] - r[START] - r[CHILD]) / 1e6 for r in recs])

    def errors(self, name: str, op: str | None = None) -> int:
        return sum(1 for r in self.select(name, op) if r[ERROR])

    def leaf(self, name: str, op: str | None = None) -> tuple[int, int]:
        calls = ns = 0
        for (lname, lop), (c, t) in self.t.leaves.items():
            if lname == name and (op is None or lop == op):
                calls += c
                ns += t
        return calls, ns

    def counted(self, name: str, op: str | None = None) -> float:
        return sum(v for (cname, cop), v in self.t.counts.items()
                   if cname == name and (op is None or cop == op))

    def self_table(self) -> list[tuple]:
        """(name, op, calls, total ms, self ms) per span name and op."""
        acc = defaultdict(lambda: [0, 0, 0])
        for rec in self.t.spans:
            a = acc[(rec[NAME], rec[OP])]
            a[0] += 1
            a[1] += rec[END] - rec[START]
            a[2] += rec[END] - rec[START] - rec[CHILD]
        return sorted(
            ((name, op, c, tot / 1e6, slf / 1e6)
             for (name, op), (c, tot, slf) in acc.items()),
            key=lambda row: -row[4])


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0
