"""Feedback shift registers and the reseeding pattern generator.

Conventions, pinned here and relied on everywhere else:

- A feedback polynomial p(x) = x^n + sum(x^j for j in taps) + 1 is held
  as an integer mask of its low coefficients: bit j of ``mask`` is the
  coefficient of x^j, for j in 0..n-1. The constant term is mandatory;
  without it the register leaks state instead of cycling.
- A register state is an integer whose bit j is cell j. Cell 0 is the
  shift-out end.
- One LFSR clock: feedback f = parity(state AND mask), then the state
  shifts right one place and f enters at the top: next = (state >> 1) OR
  (f << (n-1)).
- One MISR clock is an LFSR clock with a word XORed in afterwards.
- The combined generator/compactor register has two reseeding modes.
  Indirect (ms=0, control bits b2 b1 = 0 1): one clock compresses the
  folded response into the state, a second clock generates the next
  pattern; two polynomials from the schedule are consumed. Direct
  (ms=1, b2 b1 = 0 0): a single clock does both, consuming one
  polynomial. Responses wider than the register fold by XOR of n-bit
  chunks (response bit i lands on cell i mod n).

This module is the one home of register and GF(2) polynomial
arithmetic: the campaign's generator, the signature overlay's faulty
registers (scheduler.py) and the table generator tools/gen_polytab.py
all step and prove polynomials through the functions here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _polytab


class DegreeMismatch(ValueError):
    """Register width and polynomial degree (or word width) disagree."""


class GeneratorCycleDetected(Exception):
    """The generator revisited a (mode, state, schedule) configuration."""


@dataclass(frozen=True)
class Polynomial:
    """Feedback polynomial of the stated degree.

    ``primitive`` is a verified claim, not a wish: it is set by the
    shipped table (entries proven maximal-length offline) or by
    from_exponents(check_primitive=True), which proves it on the spot.
    """
    degree: int
    mask: int
    primitive: bool = False

    def __post_init__(self):
        if self.degree < 2:
            raise ValueError(f"degree {self.degree} too small, need >= 2")
        if not (self.mask & 1):
            raise ValueError("constant term x^0 is required, register would "
                             "leak state instead of cycling")
        if self.mask >> self.degree:
            raise ValueError("mask has coefficients at or above the degree")

    @classmethod
    def from_exponents(cls, exps, check_primitive=False):
        """Build from an exponent list like [n, j, 0].

        The list must contain the degree and 0; duplicates are an error.
        check_primitive proves maximal length (see is_primitive) and
        raises ValueError if the proof fails or cannot be carried out.
        """
        exps = list(exps)
        if len(set(exps)) != len(exps):
            raise ValueError(f"duplicate exponents in {exps}")
        degree = max(exps)
        if 0 not in exps:
            raise ValueError("exponent list must include 0 (constant term)")
        mask = 0
        for e in exps:
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e < degree:
                mask |= 1 << e
        prim = False
        if check_primitive:
            ok, why = is_primitive(degree, mask)
            if not ok:
                raise ValueError(f"x^{degree}+... not verified primitive: {why}")
            prim = True
        return cls(degree, mask, prim)

    def exponents(self):
        exps = [self.degree]
        exps += [j for j in range(self.degree - 1, -1, -1) if (self.mask >> j) & 1]
        return exps

    def __str__(self):
        return " + ".join("1" if e == 0 else "x" if e == 1 else f"x^{e}"
                          for e in self.exponents())


@dataclass(frozen=True)
class RegisterState:
    width: int
    bits: int

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("empty register")
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"state {self.bits:#x} does not fit {self.width} cells")


def next_lfsr(s, poly):
    """One autonomous clock."""
    if s.width != poly.degree:
        raise DegreeMismatch(f"register width {s.width} vs degree {poly.degree}")
    f = (s.bits & poly.mask).bit_count() & 1
    return RegisterState(s.width, (s.bits >> 1) | (f << (s.width - 1)))


def next_misr(s, poly, word):
    """One compacting clock; the word must fit the register."""
    if word < 0 or word >> s.width:
        raise DegreeMismatch(f"word {word:#x} wider than {s.width} cells")
    nxt = next_lfsr(s, poly)
    return RegisterState(s.width, nxt.bits ^ word)


def fold_response(word, width):
    """XOR-fold an arbitrary-width response word to the register width."""
    folded = 0
    while word:
        folded ^= word & ((1 << width) - 1)
        word >>= width
    return folded


@dataclass(frozen=True)
class BilboMode:
    """Reseeding mode. ms=0 indirect (2 clocks), ms=1 direct (1 clock)."""
    ms: int

    def __post_init__(self):
        if self.ms not in (0, 1):
            raise ValueError(f"ms must be 0 or 1, got {self.ms}")

    @property
    def cycles_per_pattern(self):
        return 2 if self.ms == 0 else 1


@dataclass(frozen=True)
class IpBilboConfig:
    """Static generator configuration.

    poly_schedule is consumed round-robin, one polynomial per clock, so
    indirect-mode patterns use two schedule entries and direct-mode
    patterns one.
    """
    poly_schedule: tuple

    def __post_init__(self):
        sched = tuple(self.poly_schedule)
        object.__setattr__(self, "poly_schedule", sched)
        if not sched:
            raise ValueError("empty polynomial schedule")
        if len({p.degree for p in sched}) != 1:
            raise DegreeMismatch("schedule polynomials must share one degree")

    @property
    def width(self):
        return self.poly_schedule[0].degree


def ipbilbo_next_pattern(s, cfg, mode, response, schedule_index=0):
    """Advance the generator by one pattern.

    ``response`` is the circuit's output word under the currently
    applied pattern ``s``; it may be wider than the register and is
    folded down first. Returns (next_state, cycles_consumed); the
    schedule index advances by exactly cycles_consumed.
    """
    if s.width != cfg.width:
        raise DegreeMismatch(f"register width {s.width} vs schedule degree {cfg.width}")
    sched = cfg.poly_schedule
    folded = fold_response(response, s.width)
    if mode.ms == 0:
        compress = next_misr(s, sched[schedule_index % len(sched)], folded)
        generate = next_lfsr(compress, sched[(schedule_index + 1) % len(sched)])
        return generate, 2
    return next_misr(s, sched[schedule_index % len(sched)], folded), 1


class IpBilbo:
    """Stateful wrapper: running state, schedule position, cycle guard.

    The guard raises GeneratorCycleDetected when a (mode, state,
    schedule position) triple repeats, which would otherwise replay an
    identical pattern stream forever. Scan-loading a deterministic
    vector resets both the state and the guard memory.
    """

    def __init__(self, cfg, seed_bits=None):
        self.cfg = cfg
        n = cfg.width
        if seed_bits is None:
            seed_bits = (1 << n) - 1
        if seed_bits == 0:
            raise ValueError("all-zero seed locks the generator at zero")
        self.state = RegisterState(n, seed_bits)
        self.schedule_index = 0
        self._seen = set()

    def load(self, bits):
        self.state = RegisterState(self.cfg.width, bits)
        self._seen.clear()

    def next_pattern(self, mode, response):
        key = (mode.ms, self.state.bits,
               self.schedule_index % len(self.cfg.poly_schedule))
        if key in self._seen:
            raise GeneratorCycleDetected(
                f"state {self.state.bits:#x} at schedule position {key[2]} "
                f"revisited in mode ms={mode.ms}")
        self._seen.add(key)
        nxt, cycles = ipbilbo_next_pattern(self.state, self.cfg, mode,
                                           response, self.schedule_index)
        self.state = nxt
        self.schedule_index = (self.schedule_index + cycles) % len(self.cfg.poly_schedule)
        return cycles


def default_schedule(width):
    """Two verified maximal-length polynomials of the given degree.

    Raises ValueError when the shipped table has no entry, with enough
    context to fix the run (supply explicit exponent lists).
    """
    try:
        entries = _polytab.TAPS[width]
    except KeyError:
        have = sorted(_polytab.TAPS)
        near = [n for n in have if abs(n - width) <= 8]
        raise ValueError(
            f"no verified maximal-length polynomial of degree {width} is "
            f"shipped (nearby degrees: {near or 'none'}); pass explicit "
            f"exponent lists like [{width}, j, 0]") from None
    return tuple(Polynomial(width, mask, primitive=True)
                 for mask in entries)


# GF(2) polynomial arithmetic on ints (bit i = coefficient of x^i).
# tools/gen_polytab.py proves the shipped table with is_primitive too.

_VERIFY_CAP = 64


def _pmod(a, m, n):
    """a modulo m, where m has degree n."""
    while a.bit_length() > n:
        a ^= m << (a.bit_length() - 1 - n)
    return a


def _pmulmod(a, b, m, n):
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() > n:
            a ^= m << (a.bit_length() - 1 - n)
    return _pmod(r, m, n)


# squaring spreads bit i to bit 2i; one table lookup per byte
_SPREAD = tuple(int(f"{v:b}", 4) for v in range(256))


def _psqrmod(a, m, n):
    s = shift = 0
    while a:
        s |= _SPREAD[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return _pmod(s, m, n)


def _ppowmod(a, e, m, n):
    r = 1
    for bit in f"{e:b}":
        r = _psqrmod(r, m, n)
        if bit == "1":
            r = _pmulmod(r, a, m, n)
    return r


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b, b.bit_length() - 1)
    return a


def _is_probable_prime(p):
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _pollard_rho(num):
    import random
    if num % 2 == 0:
        return 2
    rng = random.Random(0xBEEF ^ num)
    while True:
        c = rng.randrange(1, num)
        x = y = rng.randrange(2, num)
        d = 1
        while d == 1:
            x = (x * x + c) % num
            y = (y * y + c) % num
            y = (y * y + c) % num
            d = math.gcd(x - y, num)
        if d != num:
            return d


def _factorize(num):
    """Prime factor set of num >= 1."""
    out = set()
    stack = [num]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out.add(m)
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def is_primitive(degree, mask, group_primes=None):
    """Prove (or refuse to guess) that x^degree + mask is maximal length.

    Returns (ok, reason). The order test needs every prime factor of
    2^degree - 1. They are found here up to a verification cap, so a
    wrong polynomial can never be blessed: big-degree users must rely
    on the shipped table or pass ``group_primes``, which is checked to
    be exactly the primes of 2^degree - 1 before it is used.
    """
    if group_primes is None and degree > _VERIFY_CAP:
        return False, (f"degree {degree} exceeds the on-the-fly verification "
                       f"cap of {_VERIFY_CAP}")
    if not (mask & 1):
        return False, "constant term missing"
    modulus = (1 << degree) | mask
    x = 2
    # Irreducibility (Rabin): x^(2^degree) == x, and for every prime
    # divisor d of the degree, gcd(x^(2^(degree/d)) - x, p) == 1.
    t = x
    for _ in range(degree):
        t = _psqrmod(t, modulus, degree)
    if t != x:
        return False, "reducible (splitting field too small)"
    for d in sorted(_factorize(degree)):
        t = x
        for _ in range(degree // d):
            t = _psqrmod(t, modulus, degree)
        if _pgcd(t ^ x, modulus) != 1:
            return False, f"reducible (factor of degree dividing {degree // d})"
    # Order: x must not die on any maximal proper divisor of 2^n - 1.
    group = (1 << degree) - 1
    if group_primes is None:
        group_primes = _factorize(group)
    else:
        group_primes = set(group_primes)
        rest = group
        for p in group_primes:
            if not _is_probable_prime(p) or rest % p:
                return False, f"{p} is not a prime factor of 2^n - 1"
            while rest % p == 0:
                rest //= p
        if rest != 1:
            return False, f"group_primes miss the factor {rest} of 2^n - 1"
    if _ppowmod(x, group, modulus, degree) != 1:
        return False, "element order does not divide 2^n - 1"
    for q in sorted(group_primes):
        if _ppowmod(x, group // q, modulus, degree) == 1:
            return False, f"order divides (2^n - 1)/{q}"
    return True, "maximal length proven"
