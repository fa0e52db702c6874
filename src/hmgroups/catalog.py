"""Small-group catalog: load, validate and serve permutation-generator data.

File format ("hmcat v1"): UTF-8, one JSON object per line,

    {"order": 12, "id": 1, "name": "Dic3", "degree": 12, "gens": [[...], ...]}

`gens` are 0-based image arrays of length `degree`; the trivial group has
an empty generator list.  Lines starting with '#' are comments.  The
embedded default catalog carries every group of order <= 16 (42 groups)
plus a few larger named groups used in tests; ids follow file order
within each order (for order 12, id 1 is the dicyclic group of order 12).
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from .groupkernel import CapExceeded, Group, is_isomorphic, is_permutation

HEADER = "# hmcat v1"

# orders 1..16 -> number of isomorphism classes (standard classification,
# taken as an external assumption; distinctness is what we can verify)
SMALL_GROUP_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5,
    9: 2, 10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14,
}
CATALOG_EXHAUSTIVE_LIMIT = 16


class MissingEntry(KeyError):
    """No catalog entry has the requested (order, id)."""

    def __str__(self):  # KeyError's own quotes its message
        return str(self.args[0])


class InvalidEntry(ValueError):
    """A catalog entry whose generators name no group of its declared order."""


class CatalogFormatError(ValueError):
    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass(frozen=True)
class CatalogEntry:
    order: int
    id: int
    name: str
    degree: int
    gens: tuple[tuple[int, ...], ...]

    @property
    def ref(self) -> str:
        """The entry as validate_catalog names it: (order,id) name."""
        return f"({self.order},{self.id}) {self.name}"

    @cached_property
    def _group(self) -> Group:
        try:
            grp = Group.from_generators(self.degree, self.gens, label=self.name)
        except ValueError as exc:  # a generator that is not a permutation
            raise InvalidEntry(f"{self.ref}: {exc}") from None
        if grp.size != self.order:
            raise InvalidEntry(f"{self.ref}: closure has {grp.size} elements, "
                               f"declared order is {self.order}")
        return grp

    def group(self) -> Group:
        return self._group

    def to_json_line(self) -> str:
        return json.dumps({
            "order": self.order, "id": self.id, "name": self.name,
            "degree": self.degree, "gens": [list(g) for g in self.gens],
        }, separators=(",", ":"))


def _parse_line(line: str, line_no: int) -> CatalogEntry:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CatalogFormatError(f"invalid JSON ({exc.msg})", line_no) from exc
    if not isinstance(obj, dict):
        raise CatalogFormatError("expected a JSON object", line_no)
    try:
        order = obj["order"]
        gid = obj["id"]
        name = obj["name"]
        degree = obj["degree"]
        gens = obj["gens"]
    except KeyError as exc:
        raise CatalogFormatError(f"missing key {exc.args[0]!r}", line_no) from exc
    if not (isinstance(order, int) and order >= 1):
        raise CatalogFormatError(f"bad order {order!r}", line_no)
    if not (isinstance(gid, int) and gid >= 1):
        raise CatalogFormatError(f"bad id {gid!r}", line_no)
    if not isinstance(name, str):
        raise CatalogFormatError(f"bad name {name!r}", line_no)
    if not (isinstance(degree, int) and degree >= 1):
        raise CatalogFormatError(f"bad degree {degree!r}", line_no)
    if not isinstance(gens, list):
        raise CatalogFormatError("gens must be a list of image arrays", line_no)
    parsed_gens = []
    for k, g in enumerate(gens):
        if not (isinstance(g, list) and len(g) == degree
                and all(isinstance(x, int) for x in g)):
            raise CatalogFormatError(
                f"generator {k} must be an integer array of length {degree}", line_no)
        parsed_gens.append(tuple(g))
    return CatalogEntry(order, gid, name, degree, tuple(parsed_gens))


def load_catalog(source) -> list[CatalogEntry]:
    """Parse catalog text, as bytes or str.

    Syntax-level checks only; generator bijectivity and closure sizes are
    the validator's job.  Duplicate (order, id) pairs are rejected here.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    entries: list[CatalogEntry] = []
    seen: dict[tuple[int, int], int] = {}
    for line_no, raw in enumerate(io.StringIO(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        entry = _parse_line(line, line_no)
        key = (entry.order, entry.id)
        if key in seen:
            raise CatalogFormatError(
                f"duplicate (order, id) = {key}, first seen at line {seen[key]}",
                line_no)
        seen[key] = line_no
        entries.append(entry)
    return entries


def load_catalog_file(path) -> list[CatalogEntry]:
    with open(path, "rb") as fh:
        return load_catalog(fh.read())


_DEFAULT: list[CatalogEntry] | None = None


def default_catalog() -> list[CatalogEntry]:
    """The embedded catalog (cached)."""
    global _DEFAULT
    if _DEFAULT is None:
        data = resources.files("hmgroups.data").joinpath("small_groups.jsonl")
        _DEFAULT = load_catalog(data.read_bytes())
    return _DEFAULT


def get(entries: list[CatalogEntry], order: int, gid: int) -> Group:
    for e in entries:
        if e.order == order and e.id == gid:
            return e.group()
    raise MissingEntry(f"no catalog entry ({order}, {gid})")


def missing_orders(entries: list[CatalogEntry],
                   limit: int = CATALOG_EXHAUSTIVE_LIMIT) -> list[int]:
    """Orders <= limit with fewer entries than the expected class count."""
    have: dict[int, int] = {}
    for e in entries:
        if e.order <= limit:
            have[e.order] = have.get(e.order, 0) + 1
    return [n for n in range(1, limit + 1)
            if have.get(n, 0) < SMALL_GROUP_COUNTS[n]]


@dataclass
class ValidationReport:
    entry_count: int
    findings: list[str]

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> str:
        if self.ok:
            return f"catalog OK ({self.entry_count} entries)"
        lines = [f"catalog has {len(self.findings)} problem(s):"]
        lines += [f"  - {f}" for f in self.findings]
        return "\n".join(lines)


def validate_catalog(entries: list[CatalogEntry]) -> ValidationReport:
    """Closure sizes, group axioms, and pairwise non-isomorphism per order."""
    findings: list[str] = []
    groups: dict[tuple[int, int], Group] = {}
    for e in entries:
        bad_gens = [f"{e.ref}: generator {k} is not a permutation of 0..{e.degree - 1}"
                    for k, g in enumerate(e.gens) if not is_permutation(g, e.degree)]
        findings += bad_gens
        if bad_gens:
            continue
        try:
            grp = e.group()
        except InvalidEntry as exc:  # the closure has another order
            findings.append(str(exc))
            continue
        except CapExceeded as exc:
            findings.append(f"{e.ref}: {exc}")
            continue
        problems = grp.validate()
        findings += [f"{e.ref}: {p}" for p in problems]
        if not problems:
            groups[(e.order, e.id)] = grp
    by_order: dict[int, list[tuple[int, Group, str]]] = {}
    for e in entries:
        key = (e.order, e.id)
        if key in groups:
            by_order.setdefault(e.order, []).append((e.id, groups[key], e.name))
    for order, items in sorted(by_order.items()):
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                id_a, ga, name_a = items[i]
                id_b, gb, name_b = items[j]
                if is_isomorphic(ga, gb):
                    findings.append(
                        f"order {order}: ({order},{id_a}) {name_a} is isomorphic "
                        f"to ({order},{id_b}) {name_b}")
    return ValidationReport(entry_count=len(entries), findings=findings)
