#!/usr/bin/env python3
"""Regenerate src/bistlab/_polytab.py.

Searches for maximal-length feedback polynomials (trinomials first,
then pentanomials) and PROVES each one primitive before it is emitted,
with the package's own ``bistlab.registers.is_primitive``: Rabin
irreducibility plus an order test against the full factorization of
2^n - 1. That factorization is computed here and handed over as
``group_primes``; is_primitive checks that the primes are prime and
multiply out to 2^n - 1, so an incomplete list cannot bless an entry.
Degrees whose 2^n - 1 cannot be fully factored in budget are simply
left out of the table; nothing unproven ships.

Factoring uses sympy with a per-degree time budget, assisted by the
classical Fermat-number factorizations for n = 2^k (each remembered
factor is itself re-verified by multiplication and a primality test
before use, so a corrupted constant cannot bless a bad entry).

    python tools/gen_polytab.py    # from any directory; rewrites the table

The tool finds src/ and the table relative to its own file, and
importing it has no side effect beyond putting src/ on sys.path.
Dev tool only; the shipped package does not import sympy.
"""

import os
import signal
import sys
import time

from sympy import factorint, isprime

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
TABLE = os.path.join(SRC, "bistlab", "_polytab.py")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from bistlab.registers import is_primitive  # noqa: E402


# Classical complete factorizations of Fermat numbers F5..F9. Each is
# re-verified below; a wrong constant just disables the fast path.
FERMAT_FACTORS = {
    5: [641, 6700417],
    6: [274177, 67280421310721],
    7: [59649589127497217, 5704689200685129054721],
    8: [1238926361552897,
        93461639715357977769163558199606896584051237541638188580280321],
    9: [2424833,
        7455602825647884208337395736200454918783366342657,
        int("7416400626275308015247871419019374740599407810975190239058213161"
            "44415759504705008092818711693940737")],
}


def fermat_assist(num):
    """Verified factor list if num is a Fermat number we know, else None."""
    for j, facs in FERMAT_FACTORS.items():
        if num == (1 << (1 << j)) + 1:
            prod = 1
            for p in facs:
                if not isprime(p):
                    print(f"  [!] claimed factor of F{j} is not prime, dropping")
                    return None
                prod *= p
            if prod != num:
                print(f"  [!] claimed factorization of F{j} does not multiply out")
                return None
            return list(facs)
    return None


def cyclotomic_value(d):
    """Phi_d(2) via the Moebius product over divisors of d."""
    from sympy import divisors, mobius

    num = den = 1
    for e in divisors(d):
        mu = mobius(d // e)
        if mu == 1:
            num *= (1 << e) - 1
        elif mu == -1:
            den *= (1 << e) - 1
    assert num % den == 0
    return num // den


def mersenne_prime_factors(n, budget):
    """Prime factors of 2^n - 1, factoring each cyclotomic part alone."""
    from collections import Counter

    from sympy import divisors

    counts = Counter()
    for d in divisors(n):
        part = cyclotomic_value(d)
        if part == 1:
            continue
        assist = fermat_assist(part)
        if assist is not None:
            counts.update(assist)
            continue
        if isprime(part):
            counts[part] += 1
            continue
        facs = factor_with_budget(part, budget)
        if facs is None:
            return None
        for p, e in facs.items():
            counts[p] += e
    prod = 1
    for p, e in counts.items():
        prod *= p ** e
    assert prod == (1 << n) - 1, f"factor recombination failed for n={n}"
    return sorted(counts)


class Timeout(Exception):
    pass


def factor_with_budget(num, seconds):
    def alarm(_sig, _frm):
        raise Timeout

    old = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(seconds)
    try:
        return factorint(num)
    except Timeout:
        return None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# Known published tap candidates tried before scanning. Candidates are
# only hints; every one still goes through the full proof.
SEEDED = {
    89: [(89, 38)],
    107: [(107, 105, 44, 42)],
    127: [(127, 1), (127, 7)],
    521: [(521, 32), (521, 48), (521, 158), (521, 168)],
    607: [(607, 105), (607, 147), (607, 273)],
    1024: [(1024, 19, 6, 1), (1024, 27, 2, 1)],
    512: [(512, 8, 5, 2), (512, 67, 56, 35)],
    256: [(256, 10, 5, 2), (256, 16, 3, 1)],
    128: [(128, 7, 2, 1), (128, 29, 9, 2)],
}


def candidates(n, limit_penta=20000):
    for taps in SEEDED.get(n, []):
        mask = 1
        for t in taps[1:]:
            mask |= 1 << t
        yield taps, mask
    for k in range(1, n):
        yield (n, k), (1 << k) | 1
    count = 0
    for c in range(3, n):
        for b in range(2, c):
            for a in range(1, b):
                count += 1
                if count > limit_penta:
                    return
                yield (n, c, b, a), (1 << c) | (1 << b) | (1 << a) | 1


def find_polys(n, factors, want=2, budget_s=120):
    found = []
    masks = set()
    t0 = time.time()
    for taps, mask in candidates(n):
        if time.time() - t0 > budget_s:
            break
        if mask in masks:
            continue
        if is_primitive(n, mask, factors)[0]:
            found.append((taps, mask))
            masks.add(mask)
            if len(found) >= want:
                break
    return found


def main():
    sys.setrecursionlimit(10000)
    degrees = list(range(2, 65))
    degrees += list(range(65, 129))
    degrees += [150, 168, 214, 256, 300, 512, 521, 607, 611, 700, 1024]
    degrees = sorted(set(degrees))

    table = {}
    skipped = []
    for n in degrees:
        primes = mersenne_prime_factors(n, budget=10 if n <= 80 else 45)
        if primes is None:
            skipped.append(n)
            print(f"degree {n:4d}: 2^n-1 not factored in budget, skipped")
            continue
        polys = find_polys(n, primes, budget_s=30 if n < 256 else 300)
        if not polys:
            skipped.append(n)
            print(f"degree {n:4d}: no primitive polynomial found in budget")
            continue
        table[n] = polys
        taps = ", ".join(str(t) for t, _ in polys)
        print(f"degree {n:4d}: {taps}")

    lines = [
        '"""Verified maximal-length feedback taps.',
        "",
        "Generated by tools/gen_polytab.py; do not edit by hand. Every",
        "entry was proven primitive (irreducibility plus order test",
        "against the full factorization of 2^n - 1) before being written",
        "here. Masks hold coefficients x^0..x^(n-1); see registers.py.",
        '"""',
        "",
        "TAPS = {",
    ]
    for n in sorted(table):
        masks = ", ".join(f"0x{mask:x}" for _, mask in table[n])
        exps = "; ".join("(" + ",".join(map(str, t)) + ",0)" for t, _ in table[n])
        lines.append(f"    {n}: ({masks},),  # {exps}")
    lines.append("}")
    lines.append("")
    out = "\n".join(lines)
    with open(TABLE, "w") as fh:
        fh.write(out)
    print(f"\nwrote {len(table)} degrees; skipped: {skipped}")


if __name__ == "__main__":
    main()
