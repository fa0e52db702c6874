"""Seeded input generation for the three workloads.

A run is a stream of blocks.  Every block of a workload has the same
composition (the same op classes, in a shuffled order) and draws its
parameters from stratified or antithetic samples, so a block costs about
the same whatever the seed; runs stop at a block boundary.  No input
repeats within a run.  Generation happens before any op of its block is
timed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import oracle

WORKLOADS = ("stats-stream", "structure", "family-scan")

CHECK_IDS = ("thm2.2", "thm2.5", "thm2.8", "prop2.9-2.10", "lemma2.1", "eq9",
             "congruences", "prop2.1-2.2", "c-convention")


@dataclass(frozen=True)
class Op:
    kind: str            # stats | check | validate | iso | prop2.6 | scan
    text: str = ""       # stats: the expression; iso: the left expression
    atoms: tuple = ()    # stats: the atoms of `text`, for the oracle
    other: str = ""      # iso: the right expression
    expect: bool = False  # iso: the known verdict
    check_id: str = ""
    perm_seed: int = 0   # check/validate: seed of the catalog permutation
    bounds: tuple = ()   # prop2.6: (nmax,); scan: (cyclic_max, dihedral_max)
    cls: str = ""        # the op class within its block, for the run record

    @property
    def key(self):
        return (self.kind, self.text, self.other, self.check_id, self.perm_seed,
                self.bounds)


def render(atoms) -> str:
    """Canonical expression text, as hmgroups prints labels."""
    parts = []
    for a in atoms:
        kind = a[0]
        if kind == "SL23":
            parts.append("SL23")
        elif kind in ("E", "Cat"):
            parts.append(f"{kind}({a[1]},{a[2]})")
        else:
            parts.append(f"{kind}({a[1]})")
    return " x ".join(parts)


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not oracle.is_prime(n):
        n += 1
    return n


def _antithetic(rng, lo: float, hi: float) -> tuple[float, float]:
    """Two draws from [lo, hi] whose sum is lo + hi."""
    x = rng.uniform(lo, hi)
    return x, lo + hi - x


def _strata(rng, k: int) -> list[float]:
    """k draws from [0, 1), one in each of k equal strata, shuffled."""
    out = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(out)
    return out


FRESH_TRIES = 200  # draws before a stream gives up finding an unused input


class _Stream:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.used: set = set()

    def fresh(self, make) -> Op:
        """An op from `make()` whose input has not appeared in this run."""
        for _ in range(FRESH_TRIES):
            op = make()
            if op.key not in self.used:
                self.used.add(op.key)
                return op
        raise RuntimeError("input space exhausted; the run is too long for it")

    def exhausted(self) -> bool:
        """True when another block would have to repeat an input."""
        return False

    def shuffled(self, ops: list[Op]) -> list[Op]:
        self.rng.shuffle(ops)
        return ops


# -- stats-stream -------------------------------------------------------------------
#
# One block is 20 `hm stats` expressions, one of them above the enumeration cap
# (5%).  The classes fall into three cost tiers, so that the median op lands
# in the middle tier and the 90th percentile among the heavy ones:
#   cheap (8): 2 small closed forms C(n)/D(2n), n in [1e3, 1e7]; 2 smooth
#     closed forms, n in [1e11, 1e13] with many small prime factors; 2 coprime
#     products of small factors (the multiplicative path); 2 non-coprime
#     products of order <= 256 on the brute path
#   middle (4): D(2n) x C(2) or D(2n) x E(2,1), either order, n in [140, 170]
#   heavy (7): 2 huge closed forms, n a prime or a balanced semiprime in
#     [1e12, 1e13], an antithetic pair in sqrt(n) (trial-division cost);
#     2 Dic(n), n in [120, 240], and 2 D(2n) x C(2), n in [256, 512], each
#     an antithetic pair in n^2 (closure cost; the larger D(2n) x C(2) is
#     written C(2) first); 1 Q(1024) or SD(1024) times a coprime cyclic factor
#   refused (1): an expression above the cap of 4096

_SMALL_PRIMES = [p for p in range(2, 100) if oracle.is_prime(p)]
_CATALOG_KEYS = [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (6, 1), (6, 2), (7, 1)] + \
    [(8, i) for i in range(1, 6)] + [(9, 1), (9, 2), (10, 1), (10, 2), (11, 1)] + \
    [(12, i) for i in range(1, 6)] + [(13, 1), (14, 1), (14, 2), (15, 1)] + \
    [(16, i) for i in range(1, 15)] + [(24, 1), (24, 2)]


def _small_atom(rng):
    """An atom of order at most 120, for the brute-path products."""
    kind = rng.choice(["Cat", "Cat", "Cat", "S", "SL23", "Q", "SD", "Dic", "D", "C",
                       "E"])
    if kind == "Cat":
        return ("Cat",) + rng.choice(_CATALOG_KEYS)
    if kind == "S":
        return ("S", rng.randint(3, 5))
    if kind == "SL23":
        return ("SL23",)
    if kind == "Q":
        return ("Q", 2 ** rng.randint(3, 6))
    if kind == "SD":
        return ("SD", 2 ** rng.randint(4, 6))
    if kind == "Dic":
        return ("Dic", rng.randint(2, 16))
    if kind == "D":
        return ("D", 2 * rng.randint(2, 32))
    if kind == "C":
        return ("C", rng.randint(2, 32))
    p = rng.choice([2, 3])
    return ("E", p, rng.randint(1, 4 if p == 2 else 3))


def _pairwise_coprime(atoms) -> bool:
    orders = [oracle.atom_order(a) for a in atoms]
    return all(math.gcd(orders[i], orders[j]) == 1
               for i in range(len(orders)) for j in range(i + 1, len(orders)))


def _first_power_above(a: int, bound: int) -> int:
    k = 1
    while a ** k <= bound:
        k += 1
    return k


def _odd_coprime_to(rng, n: int, lo: int, hi: int) -> int:
    while True:
        m = rng.randrange(lo, hi) | 1
        if math.gcd(m, n) == 1:
            return m


class StatsStream(_Stream):
    def __init__(self, seed: int):
        super().__init__(seed, "stats-stream")
        self._dxc2_u: list[float] = []

    def _dxc2_squares(self) -> tuple[float, float]:
        """n^2 for the two D(2n) x C(2) ops of a block: an antithetic pair in
        [256^2, 512^2], the smaller first, with the pair's offset from the
        middle stratified over every 8 blocks.  The larger op puts C(2) first,
        which takes the most memory of any op in the stream (C(2) x D(1000)
        peaks some 9 MB above D(1024) x C(2) today), so every run reaches
        about the same peak memory whatever the seed."""
        if not self._dxc2_u:
            self._dxc2_u = [u / 2 for u in _strata(self.rng, 8)]
        u = self._dxc2_u.pop()
        lo, hi = 256 ** 2, 512 ** 2
        return lo + u * (hi - lo), hi - u * (hi - lo)

    def _op(self, cls: str, atoms) -> Op:
        atoms = tuple(atoms)
        return Op("stats", text=render(atoms), atoms=atoms, cls=cls)

    def _hard_n(self, s: float) -> int:
        """A prime or balanced semiprime near s^2; trial division costs ~s."""
        rng = self.rng
        if rng.random() < 0.5:
            return next_prime(int(s * s) + rng.randrange(1000))
        r = rng.uniform(1.0, 1.1)
        p = next_prime(int(s * r))
        q = next_prime(int(s / r) + rng.randrange(1000))
        return p * q if p != q else p * next_prime(q + 1)

    def _closed(self, n: int) -> tuple:
        return ("C", n) if self.rng.random() < 0.5 else ("D", 2 * n)

    def _smooth_n(self) -> int:
        rng = self.rng
        while True:
            n = 1
            for p in rng.sample(_SMALL_PRIMES[:15], rng.randint(4, 9)):
                e = rng.randint(1, 4)
                if n * p ** e > 10 ** 13:
                    break
                n *= p ** e
            if n >= 10 ** 11:
                return n

    def _coprime_product(self):
        rng = self.rng
        two = rng.choice([("Q", 2 ** rng.randint(3, 6)), ("SD", 2 ** rng.randint(4, 6)),
                          ("C", 2 ** rng.randint(1, 40)), ("D", 2 ** rng.randint(2, 12)),
                          ("E", 2, rng.randint(1, 6)), ("Dic", 2 ** rng.randint(1, 4)),
                          ("Cat", 8, rng.randint(1, 5)), ("Cat", 16, rng.randint(1, 14))])
        three = rng.choice([("C", 3 ** rng.randint(1, 25)), ("E", 3, rng.randint(1, 4)),
                            ("Cat", 9, rng.randint(1, 2))])
        six = rng.choice([("S", 3), ("S", 4), ("SL23",), ("Dic", 3),
                          ("Cat", 12, rng.randint(1, 5)), ("Cat", 24, rng.randint(1, 2))])
        odd = rng.choice([("C", _odd_coprime_to(rng, 15, 5, 10 ** 7)),
                          ("E", 5, rng.randint(1, 3)), ("E", 7, rng.randint(1, 2)),
                          ("Cat", rng.choice([5, 7, 11, 13]), 1)])
        if odd[0] == "C" and rng.random() < 0.5:
            odd = ("C", odd[1] * 5 ** rng.randint(1, 6))
        atoms = rng.choice([[two, three, odd], [six, odd], [two, odd], [two, three]])
        rng.shuffle(atoms)
        return atoms if _pairwise_coprime(atoms) else [two, three]

    def _brute_small(self):
        rng = self.rng
        while True:
            atoms = [_small_atom(rng) for _ in range(rng.randint(2, 3))]
            order = math.prod(oracle.atom_order(a) for a in atoms)
            if 16 <= order <= 256 and not _pairwise_coprime(atoms):
                return atoms

    def _over_cap(self):
        rng = self.rng
        kind = rng.randrange(7)
        if kind == 0:
            p = rng.choice(_SMALL_PRIMES[:8])
            return [("E", p, _first_power_above(p, 4096) + rng.randrange(12))]
        if kind == 1:
            a = rng.choice([2, 3, 4, 6, 8, 9, 10, 12])
            return [("C", a)] * (_first_power_above(a, 4096) + rng.randrange(4))
        if kind == 2:
            return [("Dic", rng.randint(1025, 10 ** 6))]
        if kind == 3:
            return [("S", rng.randint(7, 12))]
        if kind == 4:
            atoms = [("D", 2 * rng.randint(1025, 2 * 10 ** 6)), ("C", 2)]
            rng.shuffle(atoms)
            return atoms
        if kind == 5:
            return [(rng.choice(["Q", "SD"]), 2 ** rng.randint(13, 40))]
        return [("Cat", 16, rng.randint(1, 14)), ("D", 2 * rng.randint(129, 10 ** 6))]

    def block(self) -> list[Op]:
        rng = self.rng
        ops = []
        for _ in range(2):
            ops.append(self.fresh(lambda: self._op(
                "small-closed", [self._closed(rng.randint(10 ** 3, 10 ** 7))])))
            ops.append(self.fresh(lambda: self._op("smooth", [self._closed(self._smooth_n())])))
            ops.append(self.fresh(lambda: self._op("coprime", self._coprime_product())))
            ops.append(self.fresh(lambda: self._op("brute-small", self._brute_small())))
        for sq in _antithetic(rng, 140 ** 2, 170 ** 2) + _antithetic(rng, 140 ** 2, 170 ** 2):
            n = round(math.sqrt(sq))
            ops.append(self.fresh(lambda: self._op("middle", rng.sample(
                [("D", 2 * (n + rng.randint(-2, 2))), rng.choice([("C", 2), ("E", 2, 1)])],
                2))))
        for s in _antithetic(rng, 1.0e6, math.sqrt(1e13)):
            ops.append(self.fresh(lambda: self._op("huge", [self._closed(self._hard_n(s))])))
        for sq in _antithetic(rng, 120 ** 2, 240 ** 2):
            n = round(math.sqrt(sq))
            ops.append(self.fresh(lambda: self._op("dic", [("Dic", n + rng.randint(-3, 3))])))
        for sq, c2_first in zip(self._dxc2_squares(), (False, True)):
            n = round(math.sqrt(sq))

            def dxc2():
                d = ("D", 2 * (n + rng.randint(-3, 3)))
                return self._op("dxc2", [("C", 2), d] if c2_first else [d, ("C", 2)])
            ops.append(self.fresh(dxc2))
        ops.append(self.fresh(lambda: self._op("q-sd", [
            (rng.choice(["Q", "SD"]), 1024), ("C", _odd_coprime_to(rng, 2, 3, 10 ** 6))])))
        ops.append(self.fresh(lambda: self._op("over-cap", self._over_cap())))
        return self.shuffled(ops)


# -- structure --------------------------------------------------------------------------
#
# One block is the nine catalog-bound checks and three validate_catalog calls
# (each on its own permutation of the catalog), and 14 isomorphism questions of
# order <= 128: 11 isomorphic pairs (factor reordering, or two constructions of
# one group) and 3 non-isomorphic twin pairs (two non-abelian groups of order 16
# with equal spectra, times a common factor; Krull-Schmidt keeps them apart, and
# equal invariants force the full search).  The two slow checks are 2 of the 26
# ops, so the 90th percentile falls among the validate_catalog calls, and the
# five pairs of order 33-64 hold the median.

# Twin pairs: the left side is built from one of four non-abelian groups of
# order 16 (two pairs with equal spectra) and a common factor, the right side
# from its twin and the same factor in any order.  Only the left sides below
# keep the full search under about 0.2 s today; the search cost depends on
# the left side's generators, and other sides (C(2) x (16,12), (16,13) x C(2),
# C(9) x (16,13), E(3,2) x (16,12), C(11) and up) take 0.3 s to over a minute.
_TWIN_OF = {(16, 3): (16, 13), (16, 13): (16, 3), (16, 4): (16, 12), (16, 12): (16, 4)}
_TWIN_LEFTS = (
    [[("Cat",) + t] for t in _TWIN_OF]
    + [[("Cat",) + t, ("C", k)] for t in _TWIN_OF for k in (3, 5, 7)]
    + [[("C", k), ("Cat",) + t] for t in _TWIN_OF for k in (3, 5)]
    + [[("C", 7), ("Cat",) + t] for t in ((16, 3), (16, 4))]
    + [[("Cat",) + t, k] for t in ((16, 4), (16, 12)) for k in (("C", 9), ("E", 3, 2))]
    + [[("Cat",) + t, ("C", 2)] for t in ((16, 3), (16, 4), (16, 12))]
    + [[("Cat",) + t] + k for t in ((16, 3), (16, 4))
       for k in ([("C", 6)], [("S", 3)], [("E", 2, 2)], [("C", 2), ("C", 2)])]
    + [[("C", 2), ("Cat",) + t] for t in ((16, 3), (16, 4))])


def _twin_pairs() -> list[tuple[int, str, str]]:
    """(order, left, right) of every twin pair, sorted."""
    out = set()
    for left in _TWIN_LEFTS:
        cat = next(a for a in left if a[0] == "Cat")
        rest = [a for a in left if a[0] != "Cat"]
        order = math.prod(oracle.atom_order(a) for a in left)
        for right in set(itertools.permutations([("Cat",) + _TWIN_OF[cat[1:]]] + rest)):
            out.add((order, render(left), render(right)))
    return sorted(out)


# small atoms for the isomorphic pairs; groups rich in involutions (elementary
# abelian 2-groups and their products) are left out, because the search over
# their generator images takes minutes
_ISO_ATOMS = [("C", n) for n in range(2, 17)] + \
    [("D", 2 * n) for n in range(3, 17)] + \
    [("Q", 8), ("Q", 16), ("Q", 32), ("SD", 16), ("SD", 32), ("Dic", 3), ("Dic", 5),
     ("Dic", 6), ("S", 3), ("S", 4), ("SL23",), ("E", 3, 2)] + \
    [("Cat",) + k for k in _CATALOG_KEYS
     if k[0] >= 6 and k not in ((8, 5), (12, 5), (16, 10), (16, 11), (16, 14))]


def _equivalent(atom, rng):
    """Another construction of the same group, or None."""
    kind = atom[0]
    if kind == "Q":
        return [("Dic", atom[1] // 4)]
    if kind == "Dic" and atom[1] & (atom[1] - 1) == 0:
        return [("Q", 4 * atom[1])]
    if kind == "D" and atom[1] % 4 == 0 and (atom[1] // 4) % 2 == 1:
        # D_4n = D_2n x C_2 for odd n
        parts = [("D", atom[1] // 2), ("C", 2)]
        rng.shuffle(parts)
        return parts
    if kind == "C":
        n = atom[1]
        splits = [(a, n // a) for a in range(2, n) if n % a == 0 and math.gcd(a, n // a) == 1]
        if splits:
            a, b = rng.choice(splits)
            return [("C", a), ("C", b)]
    if kind == "E" and atom[1] > 2 and atom[2] >= 2:
        j = rng.randint(1, atom[2] - 1)
        return [("E", atom[1], j), ("E", atom[1], atom[2] - j)]
    if kind == "S" and atom[1] == 3:
        return [("D", 6)]
    return None


class Structure(_Stream):
    # The twin pairs, sorted by order, are cut into three decks of 28, from
    # orders 16-48 to orders 96-144, and every block deals one pair from each
    # shuffled deck.  The search cost grows with the order (3 ms to 0.2 s
    # today), so every block holds one of the dearest searches whatever the
    # seed, and the 90th percentile, which falls among them, moves with the
    # seed less.  A run holds at most 28 blocks, more than twice what 25 s needs.
    TWIN_DECKS = 3

    def __init__(self, seed: int):
        super().__init__(seed, "structure")
        pairs = _twin_pairs()
        size = len(pairs) // self.TWIN_DECKS
        self.decks = [pairs[k * size:(k + 1) * size] for k in range(self.TWIN_DECKS)]
        for deck in self.decks:
            self.rng.shuffle(deck)

    def exhausted(self) -> bool:
        return not all(self.decks)

    def _perm_seed(self) -> int:
        return self.rng.getrandbits(48)

    def _iso_pair(self, lo: int, hi: int) -> Op:
        rng = self.rng
        while True:
            atoms = [rng.choice(_ISO_ATOMS) for _ in range(rng.randint(2, 3))]
            order = math.prod(oracle.atom_order(a) for a in atoms)
            if not lo <= order <= hi:
                continue
            other = list(atoms)
            k = rng.randrange(len(other))
            eq = _equivalent(other[k], rng)
            # above order 32 a second construction can send the search through
            # seconds of candidates (Q(16) against Dic(4) times D(8) takes
            # minutes), so larger pairs only reorder factors
            if hi <= 32 and eq is not None and rng.random() < 0.5:
                other[k:k + 1] = eq
            rng.shuffle(other)
            a, b = render(atoms), render(other)
            if a != b:
                return Op("iso", text=a, other=b, expect=True, cls=f"iso-{hi}")

    def block(self) -> list[Op]:
        ops = [self.fresh(lambda c=c: Op("check", check_id=c, perm_seed=self._perm_seed(),
                                           cls=c))
               for c in CHECK_IDS]
        for _ in range(3):
            ops.append(self.fresh(lambda: Op("validate", perm_seed=self._perm_seed(),
                                             cls="validate")))
        for lo, hi in ((8, 32), (8, 32), (8, 32), (33, 64), (33, 64), (33, 64), (33, 64),
                       (33, 64), (65, 128), (65, 128), (65, 128)):
            ops.append(self.fresh(lambda: self._iso_pair(lo, hi)))
        for deck in self.decks:
            _, a, b = deck.pop()
            ops.append(self.fresh(lambda: Op("iso", text=a, other=b, expect=False,
                                             cls="twin")))
        return self.shuffled(ops)


# -- family-scan --------------------------------------------------------------------------
#
# One block is 10 check_prop_2_6(nmax) and 10 scan_integer_hm(entries,
# cyclic_max, dihedral_max) calls, every bound log-uniform in [1e3, 2e4] and
# stratified: each tenth of the log range gets one draw per block.  A scan's
# two bounds come from the same tenth, so that the scans of every block span
# the same range of cost.

FAMILY_LO, FAMILY_HI = 1_000, 20_000


def _log_bound(u: float, rng) -> int:
    """A bound at log-position u, jittered within its stratum so that
    retries after a repeated input find a new value."""
    u = min(1.0, max(0.0, u + (rng.random() - 0.5) / 100))
    return round(FAMILY_LO * (FAMILY_HI / FAMILY_LO) ** u)


class FamilyScan(_Stream):
    def __init__(self, seed: int):
        super().__init__(seed, "family-scan")

    def block(self) -> list[Op]:
        rng = self.rng
        ops = []
        for u in _strata(rng, 10):
            ops.append(self.fresh(lambda: Op("prop2.6", bounds=(_log_bound(u, rng),),
                                                     cls="prop2.6")))
        for u in _strata(rng, 10):
            ops.append(self.fresh(lambda: Op("scan", bounds=(_log_bound(u, rng),
                                                             _log_bound(u, rng)), cls="scan")))
        return self.shuffled(ops)


def stream(workload: str, seed: int):
    return {"stats-stream": StatsStream, "structure": Structure,
            "family-scan": FamilyScan}[workload](seed)
