#!/usr/bin/env python3
"""Regenerate the embedded small-groups catalog (src/hmgroups/data/).

Constructions are standard presentations realized as permutation groups:
families for the named groups, pair actions for semidirect products, and
a central-product quotient for the order-16 Pauli-type group.  The script
validates everything it writes (closure sizes, pairwise non-isomorphism
within each order) before touching the data file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hmgroups import families as fam
from hmgroups.catalog import HEADER, load_catalog, validate_catalog
from hmgroups.groupkernel import Group, direct_product

OUT = Path(__file__).resolve().parent.parent / "src" / "hmgroups" / "data" / "small_groups.jsonl"


def gens_of(g: Group) -> list[tuple[int, ...]]:
    return [g.perms[i] for i in g.generators]


def semidirect_cyclic(a: int, b: int, k: int, label: str) -> Group:
    """<x, y | x^a = y^b = 1, y x y^-1 = x^k> via left-regular pair action."""
    assert pow(k, b, a) == 1 % a

    def idx(i: int, j: int) -> int:
        return (i % a) * b + (j % b)

    px = [0] * (a * b)
    py = [0] * (a * b)
    for i in range(a):
        for j in range(b):
            px[idx(i, j)] = idx(i + 1, j)
            py[idx(i, j)] = idx(i * k, j + 1)
    return Group.from_generators(a * b, [tuple(px), tuple(py)], label=label)


def swap_semidirect_16() -> Group:
    """(C2 x C2) : C4 where the C4 swaps the two C2 coordinates."""
    def idx(v1: int, v2: int, j: int) -> int:
        return (2 * v1 + v2) * 4 + (j % 4)

    pe = [0] * 16   # left mult by ((1,0), 0)
    py = [0] * 16   # left mult by ((0,0), 1)
    for v1 in range(2):
        for v2 in range(2):
            for j in range(4):
                pe[idx(v1, v2, j)] = idx(v1 ^ 1, v2, j)
                py[idx(v1, v2, j)] = idx(v2, v1, j + 1)
    return Group.from_generators(16, [tuple(pe), tuple(py)], label="(C2^2):C4")


def pauli_16() -> Group:
    """Central product D8 o C4: quotient of D8 x C4 by <(r^2, z^2)>."""
    d8 = fam.dihedral(8)
    c4 = fam.cyclic(4)
    prod = direct_product(d8, c4)
    r = d8.generators[0]
    r2 = d8.op(r, r)
    z = c4.generators[0]
    z2 = c4.op(z, z)
    center_elem = r2 * c4.size + z2
    sub = prod.subgroup(prod.generated_subgroup((center_elem,)))
    assert sub.size == 2
    q = prod.quotient(sub, label="D8oC4")
    assert q.size == 16
    return q


def build_entries():
    groups: list[tuple[int, int, str, Group]] = []

    def add(order: int, gid: int, name: str, g: Group):
        assert g.size == order, (name, g.size, order)
        groups.append((order, gid, name, g))

    c = fam.cyclic
    add(1, 1, "1", c(1))
    add(2, 1, "C2", c(2))
    add(3, 1, "C3", c(3))
    add(4, 1, "C4", c(4))
    add(4, 2, "C2^2", fam.elementary_abelian(2, 2))
    add(5, 1, "C5", c(5))
    add(6, 1, "S3", fam.symmetric(3))
    add(6, 2, "C6", c(6))
    add(7, 1, "C7", c(7))
    add(8, 1, "C8", c(8))
    add(8, 2, "C4xC2", direct_product(c(4), c(2), label="C4xC2"))
    add(8, 3, "D8", fam.dihedral(8))
    add(8, 4, "Q8", fam.generalized_quaternion(8))
    add(8, 5, "C2^3", fam.elementary_abelian(2, 3))
    add(9, 1, "C9", c(9))
    add(9, 2, "C3^2", fam.elementary_abelian(3, 2))
    add(10, 1, "D10", fam.dihedral(10))
    add(10, 2, "C10", c(10))
    add(11, 1, "C11", c(11))
    add(12, 1, "Dic3", fam.dicyclic(3))
    add(12, 2, "C12", c(12))
    add(12, 3, "A4", Group.from_generators(
        4, [(1, 2, 0, 3), (1, 0, 3, 2)], label="A4"))
    add(12, 4, "D12", fam.dihedral(12))
    add(12, 5, "C6xC2", direct_product(c(6), c(2), label="C6xC2"))
    add(13, 1, "C13", c(13))
    add(14, 1, "D14", fam.dihedral(14))
    add(14, 2, "C14", c(14))
    add(15, 1, "C15", c(15))
    add(16, 1, "C16", c(16))
    add(16, 2, "C4xC4", direct_product(c(4), c(4), label="C4xC4"))
    add(16, 3, "(C2^2):C4", swap_semidirect_16())
    add(16, 4, "C4:C4", semidirect_cyclic(4, 4, 3, "C4:C4"))
    add(16, 5, "C8xC2", direct_product(c(8), c(2), label="C8xC2"))
    add(16, 6, "C8:C2", semidirect_cyclic(8, 2, 5, "C8:C2"))
    add(16, 7, "D16", fam.dihedral(16))
    add(16, 8, "SD16", fam.semidihedral(16))
    add(16, 9, "Q16", fam.generalized_quaternion(16))
    add(16, 10, "C4xC2^2", direct_product(
        c(4), fam.elementary_abelian(2, 2), label="C4xC2^2"))
    add(16, 11, "D8xC2", direct_product(fam.dihedral(8), c(2), label="D8xC2"))
    add(16, 12, "Q8xC2", direct_product(
        fam.generalized_quaternion(8), c(2), label="Q8xC2"))
    add(16, 13, "D8oC4", pauli_16())
    add(16, 14, "C2^4", fam.elementary_abelian(2, 4))
    add(24, 1, "SL(2,3)", fam.sl23())
    add(24, 2, "S4", fam.symmetric(4))
    return groups


def main():
    groups = build_entries()
    lines = [
        HEADER,
        "# every group of order <= 16 (42 classes) plus SL(2,3) and S4.",
        "# ids follow file order within each order; (12,1) is the dicyclic",
        "# group of order 12.  ids of the order-24 extras are file-local.",
    ]
    for order, gid, name, g in groups:
        lines.append(json.dumps({
            "order": order, "id": gid, "name": name,
            "degree": g.degree, "gens": [list(p) for p in gens_of(g)],
        }, separators=(",", ":")))
    text = "\n".join(lines) + "\n"

    entries = load_catalog(text)
    assert len(entries) == 44, len(entries)
    report = validate_catalog(entries)
    if not report.ok:
        print(report.summary())
        raise SystemExit(1)
    for e in entries:
        g = e.group()
        spec = dict(g.order_spectrum().entries)
        print(f"({e.order:2d},{e.id:2d}) {e.name:12s} degree {e.degree:2d} "
              f"spectrum {spec}")
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")
    print(f"\nwrote {OUT} ({len(entries)} entries)")


if __name__ == "__main__":
    main()
