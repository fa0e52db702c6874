"""Spans and counters around calls into the hmgroups layers.

The benchmark wraps the layers' public functions at run time; nothing in
the package changes.  Modules import names with ``from .x import y``, so
a wrapper replaces every module attribute that holds the original function
object, and methods are replaced on the class.  Spans stay in memory
(name, start, end, parent span, op id) until the run writes them out.
The hottest kernel helpers (compose, perm_order, generated_subgroup) get
call counters instead of spans, so that the trace stays small.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute) -> span name.  Group methods are given as "Group.<name>".
SPANNED = {
    ("cli", "parse_expr"): "cli.parse_expr",
    ("catalog", "validate_catalog"): "catalog.validate_catalog",
    ("statistics", "eval_expr"): "statistics.eval_expr",
    ("statistics", "realize"): "statistics.realize",
    ("statistics", "m_of_spectrum"): "statistics.m_of_spectrum",
    ("statistics", "m_cyclic_closed"): "statistics.m_cyclic_closed",
    ("statistics", "h_m_dihedral_closed"): "statistics.h_m_dihedral_closed",
    ("exactmath", "factorize"): "exactmath.factorize",
    ("exactmath", "divisors"): "exactmath.divisors",
    ("exactmath", "euler_phi"): "exactmath.euler_phi",
    ("exactmath", "is_prime"): "exactmath.is_prime",
    ("exactmath", "smallest_prime_divisor"): "exactmath.smallest_prime_divisor",
    ("groupkernel", "Group.from_generators"): "groupkernel.from_generators",
    ("groupkernel", "Group.order_spectrum"): "groupkernel.order_spectrum",
    ("groupkernel", "Group._ensure_table"): "groupkernel.ensure_table",
    ("groupkernel", "Group.all_subgroups"): "groupkernel.all_subgroups",
    ("groupkernel", "Group.cyclic_subgroups"): "groupkernel.cyclic_subgroups",
    ("groupkernel", "Group.is_normal"): "groupkernel.is_normal",
    ("groupkernel", "Group.quotient"): "groupkernel.quotient",
    ("groupkernel", "direct_product"): "groupkernel.direct_product",
    ("groupkernel", "is_isomorphic"): "groupkernel.is_isomorphic",
    ("verifier", "scan_integer_hm"): "verifier.scan_integer_hm",
}
FAMILY_CONSTRUCTORS = ("cyclic", "dihedral", "dicyclic", "generalized_quaternion",
                       "semidihedral", "elementary_abelian", "symmetric", "sl23")
COUNTED = {
    ("groupkernel", "compose"): "groupkernel.compose",
    ("groupkernel", "perm_order"): "groupkernel.perm_order",
    ("groupkernel", "Group.generated_subgroup"): "groupkernel.generated_subgroup",
}


def check_functions(verifier) -> dict[str, str]:
    """Check id -> name of the verifier function its registry entry calls."""
    out = {}
    for check_id, entry in verifier.CHECKS.items():
        names = [n for n in entry.__code__.co_names if n.startswith("check_")]
        if len(names) != 1:
            raise RuntimeError(f"cannot tell which function check {check_id} calls")
        out[check_id] = names[0]
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        """Wrap `fn` in a span.  `before(args)`, if given, runs before the
        call, and `after(args, result, state)` after it, with what `before`
        returned."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, active = self._stack, self._active
        names, starts, ends = self.name, self.start, self.end
        parents, ops = self.parent, self.op

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            active[name] += 1
            state = before(args) if before else None
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
                active[name] -= 1
            if after:
                after(args, result, state)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts, active = self.counts, self._active
        key = name + ".calls"
        if name == "groupkernel.generated_subgroup":
            def wrapper(*args):
                counts[key] += 1
                if active["groupkernel.all_subgroups"]:
                    counts["groupkernel.generated_subgroup.in_all_subgroups"] += 1
                return fn(*args)
        else:
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
        return wrapper

    def _hooks(self) -> dict[str, tuple]:
        """Span name -> (before, after) for the spans that also count: the
        sizes of closures, products and subgroup lists, and the tables
        `_ensure_table` actually builds, with their cells."""
        counts = self.counts

        def add_len(key):
            def after(args, result, state):
                counts[key] += len(result)
            return None, after

        def table_missing(args):
            return args[0]._table is None

        def count_build(args, result, was_missing):
            g = args[0]
            if was_missing and g._table is not None:
                counts["groupkernel.ensure_table.builds"] += 1
                counts["groupkernel.ensure_table.cells"] += g.size * g.size

        return {"groupkernel.from_generators": add_len("groupkernel.from_generators.elements"),
                "groupkernel.direct_product": add_len("groupkernel.direct_product.elements"),
                "groupkernel.all_subgroups": add_len("groupkernel.all_subgroups.subgroups"),
                "groupkernel.ensure_table": (table_missing, count_build)}

    # -- installation ------------------------------------------------------------

    def install(self, pkg):
        """Wrap the package's layer functions; `pkg` maps short module names
        to the imported hmgroups modules."""
        group = pkg["groupkernel"].Group
        hooks = self._hooks()

        def span(name):
            return lambda fn: self._span(name, fn, *hooks.get(name, ()))

        def counter(name):
            return lambda fn: self._counter(name, fn)

        targets = [(mod, attr, span(name)) for (mod, attr), name in SPANNED.items()]
        targets += [("families", attr, span("families.construct"))
                    for attr in FAMILY_CONSTRUCTORS]
        targets += [("verifier", attr, span(f"verifier.check.{check_id}"))
                    for check_id, attr in check_functions(pkg["verifier"]).items()]
        targets += [(mod, attr, counter(name)) for (mod, attr), name in COUNTED.items()]
        for mod, attr, wrap in targets:
            if attr.startswith("Group."):
                meth = attr[len("Group."):]
                raw = group.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(wrap(raw.__func__))
                else:
                    new = wrap(raw)
                self._undo.append((group, meth, raw))
                setattr(group, meth, new)
                continue
            original = getattr(pkg[mod], attr)
            wrapped = wrap(original)
            for module in [m for k, m in sys.modules.items()
                           if k == "hmgroups" or k.startswith("hmgroups.")]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name, the sum of span durations minus the time covered
        by their direct child spans."""
        n = len(self.start)
        covered = [0.0] * n
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        out: dict[str, float] = defaultdict(float)
        names = self.names
        for i in range(n):
            out[names[self.name[i]]] += ends[i] - starts[i] - covered[i]
        return out

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for nid in self.name:
            out[self.names[nid]] += 1
        return out

    def write_spans(self, path, t0: float):
        with open(path, "w") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.op[i]}\t{self.parent[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n")
