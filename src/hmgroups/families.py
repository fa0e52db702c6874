"""Constructors for the named group families.

Each constructor emits permutation generators and hands them to the
kernel, so all families share one closure/enumeration path.  Dicyclic,
generalized quaternion and semidihedral groups are realized through the
left-regular action on their a^i b^j normal forms.
"""

from __future__ import annotations

from . import caps
from .exactmath import is_prime
from .groupkernel import Group


def _power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def cyclic(n: int) -> Group:
    """Cyclic group of order n as the closure of one n-cycle."""
    if n < 1:
        raise ValueError(f"cyclic order must be >= 1, got {n}")
    if n == 1:
        return Group.from_generators(1, [], label="C1")
    gen = tuple(list(range(1, n)) + [0])
    return Group.from_generators(n, [gen], label=f"C{n}")


def dihedral_n(two_n: int) -> int:
    """n for the dihedral group of order 2n; ValueError unless the order
    is even and at least 2."""
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"dihedral order must be even and >= 2, got {two_n}")
    return two_n // 2


def dihedral(two_n: int) -> Group:
    """Dihedral group of order 2n: rotations of an n-gon plus reflections."""
    n = dihedral_n(two_n)
    lbl = f"D{two_n}"
    if n == 1:
        return Group.from_generators(2, [(1, 0)], label=lbl)
    if n == 2:
        # the 2-gon action is not faithful; use two disjoint swaps
        return Group.from_generators(4, [(1, 0, 2, 3), (0, 1, 3, 2)], label=lbl)
    rot = tuple(list(range(1, n)) + [0])
    ref = tuple((n - i) % n for i in range(n))
    return Group.from_generators(n, [rot, ref], label=lbl)


def dicyclic(n: int) -> Group:
    """Dicyclic group of order 4n: <a, b | a^(2n) = 1, b^2 = a^n, bab^-1 = a^-1>.

    Realized by left multiplication on the 4n normal forms a^i b^j.
    """
    if n < 2:
        raise ValueError(f"dicyclic parameter must be >= 2, got {n}")
    return _dicyclic(n, f"Dic{n}")


def _dicyclic(n: int, label: str) -> Group:
    """dicyclic(n) under `label`, the name its closure cap reports."""
    big_n = 2 * n
    caps.check("closure", 4 * n, label)

    def idx(i: int, j: int) -> int:
        return 2 * (i % big_n) + j

    # a . a^i b^j = a^(i+1) b^j;  b . a^i b^j = a^(n? ...) handled by cases
    perm_a = [0] * (4 * n)
    perm_b = [0] * (4 * n)
    for i in range(big_n):
        for j in range(2):
            perm_a[idx(i, j)] = idx(i + 1, j)
            if j == 0:
                perm_b[idx(i, j)] = idx(-i, 1)
            else:
                perm_b[idx(i, j)] = idx(n - i, 0)
    return Group.from_generators(4 * n, [tuple(perm_a), tuple(perm_b)], label=label)


def generalized_quaternion(two_pow_n: int) -> Group:
    """Generalized quaternion group of order 2^n, n >= 3."""
    if not _power_of_two(two_pow_n) or two_pow_n < 8:
        raise ValueError(
            f"generalized quaternion order must be a power of two >= 8, got {two_pow_n}")
    return _dicyclic(two_pow_n // 4, f"Q{two_pow_n}")


def semidihedral(two_pow_n: int) -> Group:
    """Semidihedral group of order 2^n, n >= 4:
    <a, b | a^(2^(n-1)) = b^2 = 1, bab^-1 = a^(2^(n-2) - 1)>.
    """
    if not _power_of_two(two_pow_n) or two_pow_n < 16:
        raise ValueError(
            f"semidihedral order must be a power of two >= 16, got {two_pow_n}")
    m = two_pow_n // 2
    t = m // 2 - 1

    def idx(i: int, j: int) -> int:
        return 2 * (i % m) + j

    perm_a = [0] * two_pow_n
    perm_b = [0] * two_pow_n
    for i in range(m):
        for j in range(2):
            perm_a[idx(i, j)] = idx(i + 1, j)
            perm_b[idx(i, j)] = idx(t * i, 1 - j)
    return Group.from_generators(two_pow_n, [tuple(perm_a), tuple(perm_b)],
                                 label=f"SD{two_pow_n}")


def elementary_abelian(p: int, k: int) -> Group:
    """C_p^k: k commuting p-cycles on disjoint blocks."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"rank must be >= 1, got {k}")
    label = f"C{p}^{k}"
    caps.check("closure", p ** k, label)
    degree = p * k
    gens = []
    for block in range(k):
        images = list(range(degree))
        base = block * p
        for x in range(p):
            images[base + x] = base + (x + 1) % p
        gens.append(tuple(images))
    return Group.from_generators(degree, gens, label=label)


def symmetric(n: int) -> Group:
    """Symmetric group on n points."""
    if n < 1:
        raise ValueError(f"symmetric degree must be >= 1, got {n}")
    lbl = f"S{n}"
    if n == 1:
        return Group.from_generators(1, [], label=lbl)
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    gens = [cycle, swap] if n > 2 else [swap]
    return Group.from_generators(n, gens, label=lbl)


def sl23() -> Group:
    """SL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    vectors = [(x, y) for x in range(3) for y in range(3) if (x, y) != (0, 0)]
    pos = {v: i for i, v in enumerate(vectors)}

    def action(matrix):
        (a, b), (c, d) = matrix
        return tuple(pos[((a * x + b * y) % 3, (c * x + d * y) % 3)]
                     for x, y in vectors)

    gen_a = action(((1, 1), (0, 1)))
    gen_b = action(((0, 2), (1, 0)))
    return Group.from_generators(8, [gen_a, gen_b], label="SL(2,3)")
