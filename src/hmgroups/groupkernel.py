"""Concrete finite groups with dense element indices.

Every group is realized as a set of permutations: constructors take
permutation generators and enumerate the closure breadth-first, so the
element at index 0 is always the identity and enumeration order is
deterministic for a fixed generator list.  Groups built from an abstract
multiplication table (quotients) store the rows of that table as their
permutations -- the left-regular representation -- which keeps a single
code path for everything downstream.

Element orders come from the permutations alone: up to degree 256 by
stepping the powers as byte strings (one translation per power), above it
or for an order above the degree from the cycle lengths.  A full
multiplication table is materialized lazily and only for groups small
enough to need one (subgroup lattices, quotients, isomorphism search,
validation).  `Group.validate` reads every axiom from the table, built up to
order 512 or held at any order; associativity there is exhaustive by
Light's test, |G|*|S| row compositions for a generating set S.  Without a
table the product is composition of maps, which is associative.
All objects are immutable after construction, so concurrent reads are
safe.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from . import caps
from .caps import CapExceeded  # noqa: F401 -- the refusal type callers catch here
from .exactmath import factorize, phi_from_primes

Perm = tuple[int, ...]

# validate() builds the multiplication table up to this order and checks
# every axiom on it
VALIDATION_TABLE = 512


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p.q)[i] = p[q[i]]."""
    return tuple(map(p.__getitem__, q))


def perm_inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


# the identity of each degree up to 256 as a byte string
_BYTE_IDENTITIES = tuple(bytes(range(n)) for n in range(257))


def perm_order(p: Perm) -> int:
    """The least k >= 1 with p^k the identity.

    Up to degree 256 the powers are byte strings: power.translate(table)
    applies p to every point at once, so an element of order k costs k
    translations, tried up to k = degree.  An order above the degree, or a
    larger degree, takes the lcm of the cycle lengths instead."""
    n = len(p)
    if n <= 256:
        identity = _BYTE_IDENTITIES[n]
        power = bytes(p)
        table = power + _BYTE_IDENTITIES[256][n:]  # fixes the points n..255
        for k in range(1, n + 1):
            if power == identity:
                return k
            power = power.translate(table)
    return _cycle_order(p)


def _cycle_order(p: Perm) -> int:
    """lcm of cycle lengths."""
    seen = bytearray(len(p))
    order = 1
    for start in range(len(p)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = 1
            x = p[x]
            length += 1
        order = math.lcm(order, length)
    return order


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def is_permutation(images, degree: int) -> bool:
    return len(images) == degree and sorted(images) == list(range(degree))


@dataclass(frozen=True)
class OrderSpectrum:
    """Multiset of element orders: ((d1, n1), (d2, n2), ...), d1 < d2 < ..."""

    entries: tuple[tuple[int, int], ...]

    @classmethod
    def from_orders(cls, orders) -> "OrderSpectrum":
        return cls(tuple(sorted(Counter(orders).items())))

    def __iter__(self):
        return iter(self.entries)

    def total(self) -> int:
        return sum(n for _, n in self.entries)

    def exponent(self) -> int:
        return math.lcm(*(d for d, _ in self.entries)) if self.entries else 1

    def cyclic_counts(self, primes=None) -> tuple[tuple[int, int], ...]:
        """Per order d, the number n_d / phi(d) of cyclic subgroups of order d;
        phi(d) comes from `primes`, the primes of |G|, or else from one
        factorization of the exponent, which has the same primes."""
        if primes is None:
            primes = factorize(self.exponent()).primes()
        out = []
        for d, n in self.entries:
            phi = phi_from_primes(d, primes)
            if n % phi:
                raise ValueError(f"phi({d}) = {phi} does not divide n_{d} = {n}")
            out.append((d, n // phi))
        return tuple(out)

    def cyclic_count(self, primes=None) -> int:
        """|C(G)|, the trivial subgroup included (the d = 1 term)."""
        return sum(c for _, c in self.cyclic_counts(primes))


@dataclass(frozen=True)
class Subgroup:
    parent: "Group"
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, idx: int) -> bool:
        return idx in self._member_set

    def is_trivial(self) -> bool:
        return self.members == (0,)

    def is_whole_group(self) -> bool:
        return len(self.members) == self.parent.size

    def is_cyclic(self) -> bool:
        return any(self.parent.element_order(i) == len(self.members)
                   for i in self.members)


class Group:
    """Finite group on indices 0..size-1, index 0 the identity."""

    def __init__(self, perms: list[Perm], label: str | None = None,
                 gen_indices: tuple[int, ...] = ()):
        self.perms = tuple(perms)
        self.degree = len(perms[0]) if perms else 0
        self.label = label or f"G{len(perms)}"
        self._index = {p: i for i, p in enumerate(self.perms)}
        if len(self._index) != len(self.perms):
            raise ValueError("duplicate permutations in element list")
        if self.perms[0] != identity_perm(self.degree):
            raise ValueError("element 0 must be the identity")
        self._gen_indices = tuple(gen_indices)
        self._table: list[Perm] | None = None

    # -- construction ----------------------------------------------------

    @classmethod
    def from_generators(cls, degree: int, gens, label: str | None = None) -> "Group":
        """BFS closure of permutation generators; deterministic ordering."""
        gen_perms = []
        for k, g in enumerate(gens):
            g = tuple(g)
            if not is_permutation(g, degree):
                raise ValueError(
                    f"generator {k} is not a permutation of 0..{degree - 1}: {g}")
            gen_perms.append(g)
        limit = caps.LIMITS["closure"]
        subject = f"the partial closure of {label or 'the generators'}"
        ident = identity_perm(degree)
        elems = [ident]
        index = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gen_perms:
                    q = compose(p, g)
                    if q not in index:
                        index[q] = len(elems)
                        elems.append(q)
                        nxt.append(q)
                        if len(elems) > limit:
                            caps.check("closure", len(elems), subject)
            frontier = nxt
        gen_idx = tuple(index[g] for g in gen_perms)
        return cls(elems, label=label, gen_indices=gen_idx)

    @classmethod
    def from_table(cls, rows, label: str | None = None) -> "Group":
        """Group from a multiplication table; rows become the permutations."""
        perms = [tuple(r) for r in rows]
        n = len(perms)
        for i, r in enumerate(perms):
            if not is_permutation(r, n):
                raise ValueError(f"table row {i} is not a permutation of 0..{n - 1}")
        g = cls(perms, label=label)
        g._table = perms
        return g

    # -- basic structure -------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.perms)

    def __len__(self) -> int:
        return len(self.perms)

    def __repr__(self) -> str:
        return f"<Group {self.label}: order {self.size}, degree {self.degree}>"

    def op(self, i: int, j: int) -> int:
        if self._table is not None:
            return self._table[i][j]
        return self._index[compose(self.perms[i], self.perms[j])]

    def inverse(self, i: int) -> int:
        return self._index[perm_inverse(self.perms[i])]

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """The generators the group was built from; for a group built
        without them (a quotient), the greedy generating set."""
        return self._gen_indices or self.generating_set()

    def _ensure_table(self):
        """Build the table from the Cayley graph of the generators: if
        y = x*g, then column y is column x mapped through right
        multiplication by g, so the table costs one composition per element
        and generator instead of one per cell."""
        if self._table is not None:
            return
        caps.check("table", self.size, self.label)
        idx = self._index
        gens = self.generators
        right = [tuple(idx[compose(p, self.perms[g])] for p in self.perms)
                 for g in gens]
        cols: list[Perm | None] = [None] * self.size
        cols[0] = tuple(range(self.size))
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                col = cols[x]
                for r in right:
                    y = r[x]
                    if cols[y] is None:
                        cols[y] = tuple(map(r.__getitem__, col))
                        nxt.append(y)
            frontier = nxt
        if None in cols:
            raise ValueError(f"generators {gens} reach {self.size - cols.count(None)} "
                             f"of {self.size} elements")
        self._table = list(zip(*cols))

    def element_order(self, i: int) -> int:
        return self._orders[i]

    @cached_property
    def _orders(self) -> tuple[int, ...]:
        return tuple(perm_order(p) for p in self.perms)

    @cached_property
    def _classes(self) -> tuple[tuple[int, int, int], ...]:
        """Per element: its order, centralizer size and number of square
        roots.  Isomorphisms preserve all three."""
        self._ensure_table()
        table = self._table
        roots = [0] * self.size
        for x, row in enumerate(table):
            roots[row[x]] += 1
        return tuple((o, sum(map(operator.eq, row, col)), r)
                     for o, row, col, r in zip(self._orders, table, zip(*table), roots))

    @cached_property
    def _spectrum(self) -> OrderSpectrum:
        return OrderSpectrum.from_orders(self._orders)

    def order_spectrum(self) -> OrderSpectrum:
        return self._spectrum

    def exponent(self) -> int:
        return self.order_spectrum().exponent()

    def is_cyclic(self) -> bool:
        return self.size == 1 or max(self._orders) == self.size

    # -- cyclic subgroups ------------------------------------------------

    def cyclic_subgroup_count(self) -> int:
        """|C(G)| from the spectrum: sum over d of n_d / phi(d)."""
        return self.order_spectrum().cyclic_count()

    def cyclic_subgroups(self) -> list[tuple[int, ...]]:
        """Distinct sets <a>, sorted; the independent count of C(G).

        The powers of a are walked only when a generates no set found so
        far; a walk a^0..a^(n-1) marks every a^k with gcd(k, n) = 1, the
        generators of the same set."""
        found = []
        covered = bytearray(self.size)
        for a in range(self.size):
            if covered[a]:
                continue
            walk = [0]
            x = a
            while x != 0:
                walk.append(x)
                x = self.op(x, a)
            n = len(walk)
            for k in range(1, n):
                if math.gcd(k, n) == 1:
                    covered[walk[k]] = 1
            found.append(tuple(sorted(walk)))
        return sorted(found, key=lambda t: (len(t), t))

    # -- subgroup lattice ------------------------------------------------

    def generated_subgroup(self, gens: tuple[int, ...]) -> tuple[int, ...]:
        """Members of <gens>, sorted."""
        table = self._table
        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                row = None if table is None else table[x]
                for g in gens:
                    y = self.op(x, g) if row is None else row[g]
                    if y not in members:
                        members.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(members))

    def all_subgroups(self) -> list[Subgroup]:
        """Every subgroup, as the join-closure of the cyclic subgroups.

        <x1..xk> is reached by joining one cyclic <xi> at a time, so each
        subgroup found is joined with each cyclic <c>, c outside it, by
        adding c to the generators it was found with."""
        caps.check("subgroups", self.size, self.label)
        self._ensure_table()
        orders = self._orders
        cyclic = self.cyclic_subgroups()
        # one generator of each cyclic subgroup; the trivial one needs none
        cyclic_gens = [next(x for x in c if orders[x] == len(c)) for c in cyclic[1:]]
        gens_of = {cyclic[0]: ()}
        gens_of.update((c, (g,)) for c, g in zip(cyclic[1:], cyclic_gens))
        worklist = list(gens_of)
        while worklist:
            fresh = []
            for a in worklist:
                inside = set(a)
                for c in cyclic_gens:
                    if c in inside:
                        continue
                    gens = gens_of[a] + (c,)
                    join = self.generated_subgroup(gens)
                    if join not in gens_of:
                        gens_of[join] = gens
                        fresh.append(join)
            worklist = fresh
        return [Subgroup(self, m) for m in sorted(gens_of, key=lambda t: (len(t), t))]

    def subgroup(self, members) -> Subgroup:
        """Wrap a member list as a Subgroup after checking closure."""
        mem = tuple(sorted(set(members)))
        mset = set(mem)
        if 0 not in mset:
            raise ValueError("subgroup must contain the identity")
        for a in mem:
            if self.inverse(a) not in mset:
                raise ValueError("subgroup not closed under inverse")
            for b in mem:
                if self.op(a, b) not in mset:
                    raise ValueError("subgroup not closed under multiplication")
        return Subgroup(self, mem)

    def is_normal(self, sub: Subgroup) -> bool:
        """g H g^-1 within H for each generator g; in a finite group that
        makes H normal."""
        mset = sub._member_set
        for g in self.generators:
            ginv = self.inverse(g)
            for h in sub.members:
                if self.op(self.op(g, h), ginv) not in mset:
                    return False
        return True

    def cosets(self, sub: Subgroup) -> tuple[list[int], list[int]]:
        """Left cosets xH: (coset id of each element, representative of each
        coset); ids number the cosets by their smallest element."""
        coset_of = [-1] * self.size
        reps: list[int] = []
        for x in range(self.size):
            if coset_of[x] == -1:
                cid = len(reps)
                reps.append(x)
                for h in sub.members:
                    coset_of[self.op(x, h)] = cid
        return coset_of, reps

    def quotient(self, sub: Subgroup, label: str | None = None) -> "Group":
        """Group on the cosets of a normal subgroup."""
        if sub.parent is not self:
            raise ValueError("subgroup belongs to a different group")
        if not self.is_normal(sub):
            raise ValueError("quotient requires a normal subgroup")
        coset_of, reps = self.cosets(sub)
        rows = [
            tuple(coset_of[self.op(a, b)] for b in reps) for a in reps
        ]
        return Group.from_table(rows, label=label or f"{self.label}/H{sub.size}")

    def center(self) -> Subgroup:
        """The elements that commute with each generator."""
        members = [z for z in range(self.size)
                   if all(self.op(z, g) == self.op(g, z) for g in self.generators)]
        return Subgroup(self, tuple(members))

    def is_nilpotent(self) -> bool:
        """Every pair of elements of coprime orders commutes."""
        orders = self._orders
        for i in range(self.size):
            for j in range(i + 1, self.size):
                if math.gcd(orders[i], orders[j]) == 1 and self.op(i, j) != self.op(j, i):
                    return False
        return True

    # -- generators ------------------------------------------------------

    def generating_set(self) -> tuple[int, ...]:
        """Small generating set: the generators the group was built from,
        then high-order elements first, greedily, with redundant picks
        dropped."""
        if self.size == 1:
            return ()
        chosen: list[int] = []
        closure: set[int] = {0}
        candidates = [g for g in self._gen_indices if g != 0] + sorted(
            range(1, self.size), key=lambda i: (-self._orders[i], i))
        for c in candidates:
            if c not in closure:
                chosen.append(c)
                closure = set(self.generated_subgroup(tuple(chosen)))
                if len(closure) == self.size:
                    break
        # drop generators made redundant by later picks
        k = 0
        while k < len(chosen):
            trimmed = chosen[:k] + chosen[k + 1:]
            if trimmed and len(self.generated_subgroup(tuple(trimmed))) == self.size:
                chosen = trimmed
            else:
                k += 1
        return tuple(chosen)

    # -- validation ------------------------------------------------------

    def validate(self) -> list[str]:
        """Check group axioms on the realized elements; returns problems found.

        Up to VALIDATION_TABLE elements the multiplication table is built
        first.  Whenever a table is held, from `from_table` at any order or
        built earlier, every axiom is read from it, associativity
        exhaustively by Light's test.  A larger group without a table
        multiplies by composing its permutations, and composition of maps is
        associative, so it needs no associativity test.
        """
        problems = []
        n = self.size
        if n <= VALIDATION_TABLE:
            self._ensure_table()
        for i in range(n):
            if self.op(0, i) != i or self.op(i, 0) != i:
                problems.append(f"identity fails at element {i}")
            try:
                if self.op(i, self.inverse(i)) != 0:
                    problems.append(f"inverse fails at element {i}")
            except KeyError:
                problems.append(f"element {i} has no inverse in the element set")
        if self._table is not None:
            full = set(range(n))
            for i, (row, col) in enumerate(zip(self._table, zip(*self._table))):
                if set(row) != full:
                    problems.append(f"row {i} is not a permutation")
                if set(col) != full:
                    problems.append(f"column {i} is not a permutation")
            failure = self._associativity_failure()
            if failure is not None:
                problems.append("associativity fails at ({},{},{})".format(*failure))
        return problems

    def _associativity_failure(self):
        """A triple (a, b, c) of the table with (ab)c != a(bc), or None.

        Whatever the order, this is Light's test (Clifford and
        Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2): b
        ranges over a generating set S only, and for every a, row ab of the
        table must be row a after row b.  That is |G|*|S| row compositions,
        and it is exhaustive.  Let B be the set of b with (ab)c = a(bc) for
        all a and c.  B is closed under the table's product: a(b1b2) =
        (ab1)b2, then ((ab1)b2)c = (ab1)(b2c) = a(b1(b2c)) = a((b1b2)c).  So
        B holds every element but 0 once it holds an S of which they are all
        products under the table's own product: `_ensure_table` reaches
        every element as a left-normed product of the generators, and
        `generating_set` (for a group without generators) closes under table
        rows.  Then 0 is in B too.  Write L_x for row x: the rows are
        distinct and L_0 is the identity permutation.  L_ab = L_a L_b for
        b != 0, so the rows are closed under composition and form a group.
        Fix b != 0 and let p = L_b^-1(b).  For each x, the a with
        L_a = L_x L_b^-1 has L_ab = L_x, so x = ab = L_a(b) = L_x(p).  x = 0
        gives p = 0, so x0 = L_x(0) = x for every x, and (a0)c = ac = a(0c).
        """
        self._ensure_table()
        table = self._table
        for b in self.generators:
            row_b = table[b]
            for a, row_a in enumerate(table):
                # (ab)c = a(bc) for every c: row ab is row a after row b
                row_ab = table[row_a[b]]
                if row_ab != compose(row_a, row_b):
                    c = next(c for c in range(self.size) if row_ab[c] != row_a[row_b[c]])
                    return a, b, c
        return None


# -- two-group operations ---------------------------------------------------


def direct_product(a: Group, b: Group, label: str | None = None) -> Group:
    """Componentwise product on pairs, realized on the disjoint point sets."""
    label = label or f"{a.label} x {b.label}"
    caps.check("enumeration", a.size * b.size, label)
    da = a.degree
    shifted = [tuple(x + da for x in p) for p in b.perms]
    perms = [pa + pb for pa in a.perms for pb in shifted]
    # pair (i, j) sits at index i*|B| + j; embedded generators stay generators
    gen_indices = tuple(g * b.size for g in a.generators) + b.generators
    return Group(perms, label=label, gen_indices=gen_indices)


def is_isomorphic(a: Group, b: Group) -> bool:
    """Backtracking over generator images of the same element class.

    Level k maps gens[k] to a candidate and extends the partial map from
    <g1..gk> to <g1..gk+1> along right multiplication by the generators,
    giving up on the first edge whose images disagree or the first repeated
    image.  A map that reaches full depth agrees on every edge and is
    injective, so it is an isomorphism."""
    for g in (a, b):
        caps.check("iso", g.size, g.label)
    if a.size != b.size or a.order_spectrum() != b.order_spectrum():
        return False
    if sorted(a._classes) != sorted(b._classes):
        return False
    gens = a.generating_set()
    candidates = [[y for y, c in enumerate(b._classes) if c == a._classes[g]]
                  for g in gens]
    ta, tb = a._table, b._table
    phi = [-1] * a.size
    phi[0] = 0
    used = bytearray(b.size)
    used[0] = 1
    domain = [0]

    def visit(x: int, edges) -> bool:
        """Check or set phi(x*g) = phi(x)*h on each edge (g, h); newly mapped
        elements are appended to the domain."""
        for g, h in edges:
            z, w = ta[x][g], tb[phi[x]][h]
            if phi[z] == -1:
                if used[w]:
                    return False
                phi[z] = w
                used[w] = 1
                domain.append(z)
            elif phi[z] != w:
                return False
        return True

    def search(k: int, edges: list[tuple[int, int]]) -> bool:
        if k == len(gens):
            return True
        size = len(domain)
        for y in candidates[k]:
            grown = edges + [(gens[k], y)]
            # the old domain already agrees on the old edges; each element
            # added while the domain grows is checked on every edge
            i, ok = 0, True
            while ok and i < len(domain):
                ok = visit(domain[i], grown if i >= size else grown[k:])
                i += 1
            if ok and search(k + 1, grown):
                return True
            for z in domain[size:]:
                used[phi[z]] = 0
                phi[z] = -1
            del domain[size:]
        return False

    return search(0, [])
