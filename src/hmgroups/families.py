"""Constructors for the named group families, and the rule of each.

Each constructor emits permutation generators and hands them to the
kernel, so all families share one closure/enumeration path.  Dicyclic,
generalized quaternion and semidihedral groups are realized through the
left-regular action on their a^i b^j normal forms.  Each family's rule is
stated once, as a check raising ValueError in the grammar's notation; the
constructors, the expression classes of `statistics` and the parser read it.
"""

from __future__ import annotations

from . import caps
from .exactmath import is_prime
from .groupkernel import Group


def check_cyclic(n: int) -> None:
    if n < 1:
        raise ValueError("C(n) needs n >= 1")


def dihedral_n(two_n: int) -> int:
    """n for the dihedral group of order 2n, an even order of at least 2."""
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError(f"D(n) needs an even order >= 2, got {two_n}")
    return two_n // 2


def check_generalized_quaternion(order: int) -> None:
    if order < 8 or order & (order - 1):
        raise ValueError(f"Q(n) needs a power of two >= 8, got {order}")


def check_semidihedral(order: int) -> None:
    if order < 16 or order & (order - 1):
        raise ValueError(f"SD(n) needs a power of two >= 16, got {order}")


def check_elementary_abelian(p: int, k: int) -> None:
    if not is_prime(p):
        raise ValueError(f"E(p,k) needs p prime, got {p}")
    if k < 1:
        raise ValueError(f"E(p,k) needs k >= 1, got {k}")


def check_symmetric(n: int) -> None:
    if n < 1:
        raise ValueError(f"S(n) needs n >= 1, got {n}")


def check_dicyclic(n: int) -> None:
    if n < 2:
        raise ValueError(f"Dic(n) needs n >= 2, got {n}")


def cyclic(n: int) -> Group:
    """Cyclic group of order n as the closure of one n-cycle."""
    check_cyclic(n)
    if n == 1:
        return Group.from_generators(1, [], label="C1")
    gen = tuple(list(range(1, n)) + [0])
    return Group.from_generators(n, [gen], label=f"C{n}")


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
    """Dicyclic group of order 4n: <a, b | a^(2n) = 1, b^2 = a^n, bab^-1 = a^-1>."""
    check_dicyclic(n)
    return _dicyclic(n, f"Dic{n}")


def _dicyclic(n: int, label: str) -> Group:
    """dicyclic(n) under `label`, the name its closure cap reports."""
    caps.check("closure", 4 * n, label)
    # b a^i = a^-i b, and b a^i b = a^(n-i) as b^2 = a^n
    return _on_normal_forms(2 * n, lambda i, j: (n - i, 0) if j else (-i, 1), label)


def _on_normal_forms(m: int, b_image, label: str) -> Group:
    """The group <a, b> of order 2m by left multiplication on its normal
    forms a^i b^j (i mod m, j = 0, 1): a takes a^i b^j to a^(i+1) b^j, and
    b takes it to a^i' b^j' for (i', j') = b_image(i, j)."""
    def idx(i: int, j: int) -> int:
        return 2 * (i % m) + j

    perm_a = [0] * (2 * m)
    perm_b = [0] * (2 * m)
    for i in range(m):
        for j in range(2):
            perm_a[idx(i, j)] = idx(i + 1, j)
            perm_b[idx(i, j)] = idx(*b_image(i, j))
    return Group.from_generators(2 * m, [tuple(perm_a), tuple(perm_b)], label=label)


def generalized_quaternion(two_pow_n: int) -> Group:
    """Generalized quaternion group of order 2^n, n >= 3."""
    check_generalized_quaternion(two_pow_n)
    return _dicyclic(two_pow_n // 4, f"Q{two_pow_n}")


def semidihedral(two_pow_n: int) -> Group:
    """Semidihedral group of order 2^n, n >= 4:
    <a, b | a^(2^(n-1)) = b^2 = 1, bab^-1 = a^(2^(n-2) - 1)>."""
    check_semidihedral(two_pow_n)
    t = two_pow_n // 4 - 1  # b a^i = a^(ti) b
    return _on_normal_forms(two_pow_n // 2, lambda i, j: (t * i, 1 - j),
                            f"SD{two_pow_n}")


def elementary_abelian(p: int, k: int) -> Group:
    """C_p^k: k commuting p-cycles on disjoint blocks."""
    check_elementary_abelian(p, k)
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
    check_symmetric(n)
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
