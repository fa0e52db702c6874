"""Answer oracle for the benchmark, written without any use of hmgroups.

Spectra come from per-atom formulas plus lcm-convolution; catalog atoms
are closed from the generators in the catalog data file by a small BFS of
their own; factorizations use deterministic Miller-Rabin and Pollard-Brent
rho.  Every check here runs outside the timed interval of an op.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

# -- number theory -------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # bases above are exact below this
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n below _MR_LIMIT."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A nontrivial factor of the odd composite n (Brent's variant)."""
    rng = random.Random(n)
    while True:
        y, c, m = rng.randrange(1, n), rng.randrange(1, n), 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {p: e}."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho(m)
            stack += [f, m // f]
    return dict(sorted(out.items()))


def merge_factorizations(*fs: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for f in fs:
        for p, e in f.items():
            out[p] = out.get(p, 0) + e
    return dict(sorted(out.items()))


def divisors_with_phi(f: dict[int, int]) -> list[tuple[int, int]]:
    """(d, phi(d)) for every divisor d of the number factored as f."""
    out = [(1, 1)]
    for p, e in f.items():
        out = [(d * p ** k, ph * (p - 1) * p ** (k - 1) if k else ph)
               for d, ph in out for k in range(e + 1)]
    return out


def phi_of(d: int) -> int:
    result = 1
    for p, e in factorize(d).items():
        result *= (p - 1) * p ** (e - 1)
    return result


# -- spectra -------------------------------------------------------------------
#
# A spectrum is {element order: number of elements of that order}.  Atoms are
# tuples built by the workload generator: ("C", n), ("D", order), ("Q", order),
# ("SD", order), ("Dic", n), ("E", p, k), ("S", n), ("SL23",), ("Cat", order, id).

SL23_SPECTRUM = {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def _add(spec: dict[int, int], d: int, n: int):
    spec[d] = spec.get(d, 0) + n


def cyclic_spectrum(n: int) -> dict[int, int]:
    return dict(divisors_with_phi(factorize(n)))


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for k in range(min(n, largest), 0, -1):
        for rest in _partitions(n - k, k):
            yield (k,) + rest


def symmetric_spectrum(n: int) -> dict[int, int]:
    """Sum over cycle types: n!/z_lambda permutations of order lcm(lambda)."""
    spec: dict[int, int] = {}
    for lam in _partitions(n):
        z = 1
        for part in set(lam):
            mult = lam.count(part)
            z *= part ** mult * math.factorial(mult)
        _add(spec, math.lcm(*lam), math.factorial(n) // z)
    return spec


class CatalogClosure:
    """Spectra of catalog entries from their generators, by the oracle's own BFS."""

    def __init__(self, data: bytes):
        self.gens: dict[tuple[int, int], tuple[int, list]] = {}
        self.names: dict[tuple[int, int], str] = {}
        for line in data.decode("utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            obj = json.loads(line)
            key = (obj["order"], obj["id"])
            self.gens[key] = (obj["degree"], [tuple(g) for g in obj["gens"]])
            self.names[key] = obj["name"]
        self._spectra: dict[tuple[int, int], dict[int, int]] = {}

    def spectrum(self, order: int, gid: int) -> dict[int, int]:
        key = (order, gid)
        if key not in self._spectra:
            degree, gens = self.gens[key]
            ident = tuple(range(degree))
            seen = {ident}
            frontier = [ident]
            while frontier:
                nxt = []
                for p in frontier:
                    for g in gens:
                        q = tuple(p[i] for i in g)
                        if q not in seen:
                            seen.add(q)
                            nxt.append(q)
                frontier = nxt
            spec: dict[int, int] = {}
            for p in seen:
                _add(spec, _perm_order(p), 1)
            self._spectra[key] = spec
        return self._spectra[key]


def _perm_order(p) -> int:
    seen = [False] * len(p)
    order = 1
    for s in range(len(p)):
        length, x = 0, s
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def atom_order(atom) -> int:
    kind = atom[0]
    if kind in ("C", "D", "Q", "SD", "Cat"):
        return atom[1]
    if kind == "Dic":
        return 4 * atom[1]
    if kind == "E":
        return atom[1] ** atom[2]
    if kind == "S":
        return math.factorial(atom[1])
    if kind == "SL23":
        return 24
    raise ValueError(f"unknown atom {atom!r}")


def atom_factorization(atom) -> dict[int, int]:
    kind = atom[0]
    if kind == "E":
        return {atom[1]: atom[2]}
    if kind == "S":
        return merge_factorizations(*(factorize(k) for k in range(2, atom[1] + 1)))
    return factorize(atom_order(atom))


def atom_spectrum(atom, catalog: CatalogClosure) -> dict[int, int]:
    kind = atom[0]
    if kind == "C":
        return cyclic_spectrum(atom[1])
    if kind == "D":
        n = atom[1] // 2
        spec = cyclic_spectrum(n)
        _add(spec, 2, n)
        return spec
    if kind in ("Dic", "Q"):
        n = atom[1] if kind == "Dic" else atom[1] // 4
        spec = cyclic_spectrum(2 * n)
        _add(spec, 4, 2 * n)
        return spec
    if kind == "SD":
        half = atom[1] // 2
        spec = cyclic_spectrum(half)
        _add(spec, 2, half // 2)
        _add(spec, 4, half // 2)
        return spec
    if kind == "E":
        p, k = atom[1], atom[2]
        return {1: 1, p: p ** k - 1}
    if kind == "S":
        return symmetric_spectrum(atom[1])
    if kind == "SL23":
        return dict(SL23_SPECTRUM)
    if kind == "Cat":
        return dict(catalog.spectrum(atom[1], atom[2]))
    raise ValueError(f"unknown atom {atom!r}")


def convolve(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Spectrum of a direct product: (x, y) has order lcm(o(x), o(y))."""
    out: dict[int, int] = {}
    for d1, n1 in a.items():
        for d2, n2 in b.items():
            _add(out, math.lcm(d1, d2), n1 * n2)
    return out


EVAL_CAP = 4096  # the enumeration cap of `hm stats`


def must_refuse(atoms) -> bool:
    """Whether `hm stats` must refuse the product of `atoms` as over the cap:
    a lone C or D atom has a closed form, a pairwise-coprime product is
    answered factor by factor, and anything else is enumerated, which is
    refused above EVAL_CAP."""
    if len(atoms) == 1 and atoms[0][0] in ("C", "D"):
        return False
    orders = [atom_order(a) for a in atoms]
    if len(atoms) > 1 and all(math.gcd(a, b) == 1
                              for i, a in enumerate(orders) for b in orders[i + 1:]):
        return any(must_refuse([a]) for a in atoms)
    return math.prod(orders) > EVAL_CAP


def product_spectrum(atoms, catalog: CatalogClosure) -> dict[int, int]:
    spec = {1: 1}
    for atom in atoms:
        spec = convolve(spec, atom_spectrum(atom, catalog))
    return spec


def spectrum_invariant_problems(spec: dict[int, int],
                                order_factorization: dict[int, int]) -> list[str]:
    """phi(d) | n_d for every d, and Frobenius: #{x : x^d = 1} = 0 (mod d) for
    every d dividing |G|.  The Frobenius sums are a zeta transform over the
    divisor lattice of |G|, so the cost is O(divisors * primes)."""
    problems = [f"phi({d}) does not divide n_{d} = {n}"
                for d, n in spec.items() if n % phi_of(d)]
    primes = list(order_factorization)
    exps = [order_factorization[p] for p in primes]
    strides, size = [], 1
    for e in exps:
        strides.append(size)
        size *= e + 1
    counts = [0] * size
    for d, n in spec.items():
        idx, rest = 0, d
        for p, stride, e in zip(primes, strides, exps):
            k = 0
            while rest % p == 0:
                rest //= p
                k += 1
            if k > e:
                rest = 0
                break
            idx += k * stride
        if rest != 1:
            return problems + [f"element order {d} does not divide |G|"]
        counts[idx] += n
    for stride, e in zip(strides, exps):
        block = stride * (e + 1)
        for idx in range(size):
            if idx % block >= stride:
                counts[idx] += counts[idx - stride]
    for idx, total in enumerate(counts):
        d, rest = 1, idx
        for p, e in zip(primes, exps):
            rest, k = divmod(rest, e + 1)
            d *= p ** k
        if total % d:
            problems.append(f"Frobenius fails at d = {d}: {total} solutions of x^d = 1")
    return problems


# -- expected statistics ---------------------------------------------------------


def decimal_half_up(q: Fraction, digits: int = 6) -> str:
    scale = 10 ** digits
    scaled, rem = divmod(q.numerator * scale, q.denominator)
    if 2 * rem >= q.denominator:
        scaled += 1
    whole, frac = divmod(scaled, scale)
    return f"{whole}.{frac:0{digits}d}"


def expected_report(label: str, atoms, catalog: CatalogClosure) -> dict:
    """The `hm stats --format json` fields an exact evaluator must produce."""
    spec = product_spectrum(atoms, catalog)
    order = sum(spec.values())
    m = sum((Fraction(n, d) for d, n in spec.items()), Fraction(0))
    h = Fraction(order) / m
    return {
        "label": label,
        "order": order,
        "exponent": math.lcm(*spec),
        "spectrum": [[d, spec[d]] for d in sorted(spec)],
        "m": f"{m.numerator}/{m.denominator}",
        "m_approx": decimal_half_up(m),
        "h_m": f"{h.numerator}/{h.denominator}",
        "h_m_approx": decimal_half_up(h),
        "c_count": sum(n // phi_of(d) for d, n in spec.items()),
        "integer": h.denominator == 1,
    }


STAT_FIELDS = ("label", "order", "exponent", "spectrum", "m", "m_approx", "h_m",
               "h_m_approx", "c_count", "integer")


def _short(value, limit: int = 120) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def _mismatch(field: str, got, want) -> str:
    if field == "spectrum" and isinstance(got, list):
        g, w = {d: n for d, n in got}, {d: n for d, n in want}
        diff = {d: (g.get(d), w.get(d)) for d in sorted(set(g) | set(w))
                if g.get(d) != w.get(d)}
        return f"spectrum differs, order: (got, want) {_short(diff)}"
    return f"{field}: got {_short(got)}, want {_short(want)}"


def check_stats_json(text: str, label: str, atoms, catalog: CatalogClosure) -> list[str]:
    """Problems with one `stats` answer, given as its JSON text."""
    got = json.loads(text)
    want = expected_report(label, atoms, catalog)
    problems = [_mismatch(k, got.get(k), want[k])
                for k in STAT_FIELDS if got.get(k) != want[k]]
    if got.get("spectrum") is not None:
        spec = {d: n for d, n in got["spectrum"]}
        order_f = merge_factorizations(*(atom_factorization(a) for a in atoms))
        problems += spectrum_invariant_problems(spec, order_f)
    return problems


# -- family-scan answers ----------------------------------------------------------


class FamilyTable:
    """h_m of C_n and D_2n from the definition m(C_n) = sum_{d | n} phi(d)/d,
    with phi and the divisors taken from the oracle's own smallest-prime-factor
    sieve."""

    def __init__(self, limit: int):
        spf = list(range(limit + 1))
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == p:
                for q in range(p * p, limit + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        self.spf = spf
        self._cyc: dict[int, Fraction] = {}
        self._dih: dict[int, Fraction] = {}

    def _factor(self, n: int) -> dict[int, int]:
        out: dict[int, int] = {}
        while n > 1:
            p = self.spf[n]
            out[p] = out.get(p, 0) + 1
            n //= p
        return out

    def _m_num(self, n: int) -> int:
        """n * m(C_n), an integer."""
        return sum(ph * (n // d) for d, ph in divisors_with_phi(self._factor(n)))

    def h_cyclic(self, n: int) -> Fraction:
        if n not in self._cyc:
            self._cyc[n] = Fraction(n * n, self._m_num(n))
        return self._cyc[n]

    def h_dihedral(self, n: int) -> Fraction:
        """h_m of the dihedral group of order 2n: 2n / (m(C_n) + n/2)."""
        if n not in self._dih:
            self._dih[n] = Fraction(4 * n * n, 2 * self._m_num(n) + n * n)
        return self._dih[n]


def catalog_h_m(catalog: CatalogClosure) -> dict[tuple[int, int], Fraction]:
    out = {}
    for key in catalog.gens:
        spec = catalog.spectrum(*key)
        m = sum((Fraction(n, d) for d, n in spec.items()), Fraction(0))
        out[key] = Fraction(key[0]) / m
    return out


def check_scan_rows(rows, cyclic_max: int, dihedral_max: int, table: FamilyTable,
                    catalog: CatalogClosure, catalog_h: dict) -> list[str]:
    """Rows of scan_integer_hm(entries, cyclic_max, dihedral_max): every row
    exact, none missing or extra, and sorted by order."""
    want = {(catalog.names[k], k[0], "catalog"): h for k, h in catalog_h.items()}
    for n in range(1, cyclic_max + 1):
        want[(f"C{n}", n, "cyclic-family")] = table.h_cyclic(n)
    for n in range(2, dihedral_max + 1):
        want[(f"D{2 * n}", 2 * n, "dihedral-family")] = table.h_dihedral(n)
    problems = []
    if len(rows) != len(want):
        problems.append(f"{len(rows)} rows, want {len(want)}")
    last = 0
    for r in rows:
        key = (r.label, r.order, r.source)
        h = want.pop(key, None)
        if h is None:
            problems.append(f"unexpected or duplicate row {key}")
        elif r.h_m != h or r.integer != (h.denominator == 1):
            problems.append(f"row {key}: h_m = {r.h_m}, integer = {r.integer}; want {h}")
        if r.order < last:
            problems.append(f"row {key} out of order")
        last = r.order
        if len(problems) > 5:
            break
    if want and len(problems) <= 5:
        problems.append(f"missing rows, e.g. {next(iter(want))}")
    return problems


def check_prop26_result(result, nmax: int) -> list[str]:
    """prop2.6 passes, and D8 (n = 4) is its only integer witness."""
    problems = []
    if result.check_id != "prop2.6" or not result.passed:
        problems.append(f"prop2.6 at nmax = {nmax}: passed = {result.passed}")
    if [(label, detail) for label, detail in result.witnesses] != [("D8", "h_m = 2/1")]:
        problems.append(f"prop2.6 witnesses {result.witnesses}, want only D8 with h_m = 2/1")
    return problems


# -- structure answers ---------------------------------------------------------------

LEMMA_VIOLATIONS = frozenset({"S3", "C10", "D10", "C14", "D14", "A4", "S4"})
LEMMA_EQUALITIES = frozenset({"C6", "C15", "D12", "Dic3", "SL(2,3)"})


def check_check_result(check_id: str, result) -> list[str]:
    """Known answers on the default catalog: every check passes except
    lemma2.1, which stays red with the documented witnesses."""
    if result.check_id != check_id:
        return [f"ran {result.check_id}, asked for {check_id}"]
    if check_id != "lemma2.1":
        return [] if result.passed else [f"{check_id} failed: {result.witnesses}"]
    if result.passed:
        return ["lemma2.1 passed; the bound is known to be false"]
    violations = {label for label, detail in result.witnesses
                  if detail.startswith("bound violated")}
    equalities = {label for label, detail in result.witnesses
                  if detail.startswith("equality at non-prime-power order")}
    problems = []
    if violations != LEMMA_VIOLATIONS:
        problems.append(f"lemma2.1 violations {sorted(violations)}")
    if equalities != LEMMA_EQUALITIES:
        problems.append(f"lemma2.1 equalities {sorted(equalities)}")
    if len(result.witnesses) != len(LEMMA_VIOLATIONS) + len(LEMMA_EQUALITIES):
        problems.append(f"lemma2.1 has {len(result.witnesses)} witnesses")
    return problems
