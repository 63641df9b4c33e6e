"""graft's random stream: numpy's SeedSequence and PCG64, bit for bit, in pure Python.

``Stream(seed)`` draws what numpy's ``Generator(PCG64(seed))`` draws, call
for call, on the methods graft uses: ``random``, ``shuffle`` of a list,
``integers``, ``choice`` without replacement and ``binomial``.
``generate_state`` is ``SeedSequence(entropy, spawn_key=...).generate_state``.
So each seed draws through its own PCG64 stream without importing numpy,
which the tests use as the oracle.

- Seeding follows numpy's SeedSequence, after O'Neill's ``seed_seq_fe``: the
  seed's 32-bit words, padded to the pool size when a spawn key follows, are
  hashed into a pool of four words, and the pool is hashed out into state.
- PCG64 is the 128-bit LCG with XSL-RR output (O'Neill 2014, "PCG",
  HMC-CS-2014-0905).  A 32-bit draw uses one half of a 64-bit output and
  keeps the other for the next 32-bit draw; a 64-bit draw leaves it pending.
- ``integers``, ``choice`` and its shuffles take bounded draws by Lemire's
  method on 32-bit draws (Lemire 2019, "Fast random integer generation in an
  interval"), a list ``shuffle`` by masked rejection, and ``binomial`` is
  inversion below n·p = 30 and BTPE above it (Kachitvichyanukul & Schmeiser
  1988, "Binomial random variate generation"), as numpy applies them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import index

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53


def _hash_constants(value: int, mult: int, count: int) -> tuple[int, ...]:
    # SeedSequence's hash constant steps through the same values whatever the
    # data: hash i xors with constant i and multiplies by constant i + 1
    out = [value]
    for _ in range(count):
        value = value * mult & _M32
        out.append(value)
    return tuple(out)


_MULT_A, _MULT_B = 0x931E8875, 0x58F38DED
_HASH_A = _hash_constants(0x43B0D7E5, _MULT_A, 24)  # the pool: fill 0-3, cross-mix 4-15, two more words 16-23
_HASH_B = _hash_constants(0x8B51F9DD, _MULT_B, 8)  # the output: 8 words, PCG64's seed


def _hashed(word: int, i: int) -> int:
    # hash i of an entropy word: xor with constant i, multiply by constant i + 1, fold the top half in
    v = (word ^ _HASH_A[i]) * _HASH_A[i + 1] & _M32
    return v ^ v >> 16


_ZERO_FILL = tuple(_hashed(0, i) for i in range(4))  # the pool filled from zero words, as a one-word seed pads


def _words(value) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer seed, as
    SeedSequence reads it; 0 is one word."""
    value = index(value)  # TypeError for None, floats and text
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def _pool(words: list[int]) -> tuple[int, int, int, int]:
    """SeedSequence's mixed pool of four words for the assembled entropy ``words``."""
    a, m, l, r = _HASH_A, _M32, _MIX_L, _MIX_R
    p0 = _hashed(words[0], 0)
    if len(words) == 1:
        p1, p2, p3 = _ZERO_FILL[1:]
    else:
        p1, p2, p3 = (_hashed(w, i) for i, w in enumerate((words + [0, 0])[1:4], 1))
    # each word hashed into each other one: mix(dst, hash(src)) for src 0..3, dst != src;
    # unrolled, since these twelve steps are most of the cost of seeding a stream
    h = (p0 ^ a[4]) * a[5] & m
    h = (l * p1 - r * (h ^ h >> 16)) & m
    p1 = h ^ h >> 16
    h = (p0 ^ a[5]) * a[6] & m
    h = (l * p2 - r * (h ^ h >> 16)) & m
    p2 = h ^ h >> 16
    h = (p0 ^ a[6]) * a[7] & m
    h = (l * p3 - r * (h ^ h >> 16)) & m
    p3 = h ^ h >> 16
    h = (p1 ^ a[7]) * a[8] & m
    h = (l * p0 - r * (h ^ h >> 16)) & m
    p0 = h ^ h >> 16
    h = (p1 ^ a[8]) * a[9] & m
    h = (l * p2 - r * (h ^ h >> 16)) & m
    p2 = h ^ h >> 16
    h = (p1 ^ a[9]) * a[10] & m
    h = (l * p3 - r * (h ^ h >> 16)) & m
    p3 = h ^ h >> 16
    h = (p2 ^ a[10]) * a[11] & m
    h = (l * p0 - r * (h ^ h >> 16)) & m
    p0 = h ^ h >> 16
    h = (p2 ^ a[11]) * a[12] & m
    h = (l * p1 - r * (h ^ h >> 16)) & m
    p1 = h ^ h >> 16
    h = (p2 ^ a[12]) * a[13] & m
    h = (l * p3 - r * (h ^ h >> 16)) & m
    p3 = h ^ h >> 16
    h = (p3 ^ a[13]) * a[14] & m
    h = (l * p0 - r * (h ^ h >> 16)) & m
    p0 = h ^ h >> 16
    h = (p3 ^ a[14]) * a[15] & m
    h = (l * p1 - r * (h ^ h >> 16)) & m
    p1 = h ^ h >> 16
    h = (p3 ^ a[15]) * a[16] & m
    h = (l * p2 - r * (h ^ h >> 16)) & m
    p2 = h ^ h >> 16
    if len(words) > 4:
        p0, p1, p2, p3 = _mix_in(p0, p1, p2, p3, words[4:], 16)
    return p0, p1, p2, p3


def _mix_in(p0: int, p1: int, p2: int, p3: int, words, at: int) -> tuple[int, int, int, int]:
    """Hash the entropy words past the pool's four into each pool word; ``at``
    is the index of the next hash constant."""
    m, l, r = _M32, _MIX_L, _MIX_R
    h0 = _HASH_A[at]
    pool = [p0, p1, p2, p3]
    for w in words:
        for i in range(4):
            h1 = h0 * _MULT_A & m
            h = (w ^ h0) * h1 & m
            h = (l * pool[i] - r * (h ^ h >> 16)) & m
            pool[i] = h ^ h >> 16
            h0 = h1
    return pool[0], pool[1], pool[2], pool[3]


def _assembled(entropy, spawn_key) -> list[int]:
    words = _words(entropy)
    if spawn_key:
        words += [0] * (4 - len(words))  # numpy pads the seed so that it cannot collide with a spawn key
        for key in spawn_key:
            words += _words(key)
    return words


def generate_state(entropy, spawn_key: tuple[int, ...] = (), n_words: int = 1) -> list[int]:
    """``SeedSequence(entropy, spawn_key=spawn_key).generate_state(n_words)``
    as 32-bit ints.  ``entropy`` is a non-negative integer: a negative one
    raises ValueError, anything else TypeError, ``None`` (numpy's seed from
    the OS) included."""
    pool = _pool(_assembled(entropy, spawn_key))
    out, h0 = [], _HASH_B[0]
    for i in range(n_words):
        h1 = h0 * _MULT_B & _M32
        v = (pool[i & 3] ^ h0) * h1 & _M32
        out.append(v ^ v >> 16)
        h0 = h1
    return out


@lru_cache(maxsize=64)
def _word0(entropy: int) -> int:
    # a trial spawns every iteration's seed from one base seed
    return _pool([entropy])[0]  # only pool word 0 reaches a one-word state


def spawn_word(entropy: int, key0: int, key1: int) -> int:
    """``generate_state(entropy, (key0, key1), 1)[0]``, short path for the
    per-iteration seeds: one-word seed and keys, so no list is built."""
    entropy, key0, key1 = index(entropy), index(key0), index(key1)  # numpy ints become ints that do not wrap
    if not (0 <= entropy <= _M32 and 0 <= key0 <= _M32 and 0 <= key1 <= _M32):
        return generate_state(entropy, (key0, key1), 1)[0]
    p0 = _word0(entropy)
    a, m, l, r = _HASH_A, _M32, _MIX_L, _MIX_R
    # the padded seed's words 0-3 took hashes 0-15; the two key words take 16-23
    h = (key0 ^ a[16]) * a[17] & m
    h = (l * p0 - r * (h ^ h >> 16)) & m
    p0 = h ^ h >> 16
    h = (key1 ^ a[20]) * a[21] & m
    h = (l * p0 - r * (h ^ h >> 16)) & m
    p0 = h ^ h >> 16
    v = (p0 ^ _HASH_B[0]) * _HASH_B[1] & m
    return v ^ v >> 16


class Stream:
    """PCG64 seeded as numpy seeds it, with the ``Generator`` methods graft calls."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        p0, p1, p2, p3 = _pool(_words(seed))
        b, m = _HASH_B, _M32
        # generate_state(8): output word i hashes pool word i % 4 with constants i and i + 1
        w0 = (p0 ^ b[0]) * b[1] & m
        w1 = (p1 ^ b[1]) * b[2] & m
        w2 = (p2 ^ b[2]) * b[3] & m
        w3 = (p3 ^ b[3]) * b[4] & m
        w4 = (p0 ^ b[4]) * b[5] & m
        w5 = (p1 ^ b[5]) * b[6] & m
        w6 = (p2 ^ b[6]) * b[7] & m
        w7 = (p3 ^ b[7]) * b[8] & m
        # the words pair up little-endian into (state high, state low, increment high, increment low)
        initstate = (w1 ^ w1 >> 16) << 96 | (w0 ^ w0 >> 16) << 64 | (w3 ^ w3 >> 16) << 32 | w2 ^ w2 >> 16
        inc = ((w5 ^ w5 >> 16) << 97 | (w4 ^ w4 >> 16) << 65 | (w7 ^ w7 >> 16) << 33 | (w6 ^ w6 >> 16) << 1 | 1) & _M128
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        self._inc = inc
        self._half = None  # the pending upper half of a 64-bit output

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x = (s >> 64 ^ s) & _M64
        return (x << 64 | x) >> (s >> 122) & _M64  # rotated right by the top 6 bits

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * _TO_DOUBLE

    def _bounded(self, top: int) -> int:
        """An integer in [0, top] by Lemire's method (numpy's ``random_bounded_uint64``)."""
        if top == 0:
            return 0
        if top <= _M32:
            draw, bits, mask = self._next32, 32, _M32
        else:
            draw, bits, mask = self._next64, 64, _M64
        if top == mask:
            return draw()
        excl = top + 1
        m = draw() * excl
        if m & mask < excl:
            threshold = (mask - top) % excl
            while m & mask < threshold:
                m = draw() * excl
        return m >> bits

    def integers(self, high: int) -> int:
        """An integer in [0, high)."""
        if not 0 < high <= 1 << 63:
            raise ValueError("high <= 0" if high <= 0 else "high is out of bounds for int64")
        return self._bounded(high - 1)

    def shuffle(self, x: list) -> None:
        """Shuffle a list in place (Fisher-Yates, masked rejection)."""
        for i in reversed(range(1, len(x))):
            mask = (1 << i.bit_length()) - 1
            draw = self._next32 if i <= _M32 else self._next64
            j = draw() & mask
            while j > i:
                j = draw() & mask
            x[i], x[j] = x[j], x[i]

    def _shuffle_tail(self, data: list[int], first: int) -> None:
        # numpy's _shuffle_int: swaps positions n-1 down to first, with Lemire draws
        for i in reversed(range(first, len(data))):
            j = self._bounded(i)
            data[i], data[j] = data[j], data[i]

    def choice(self, a: int, size: int, replace: bool = False) -> list[int]:
        """``size`` distinct integers of [0, a), in numpy's order."""
        if replace:
            raise ValueError("the stream draws without replacement only")
        if size < 0:
            raise ValueError("negative dimensions are not allowed")
        if size > a:
            raise ValueError("Cannot take a larger sample than population when replace is False")
        if a > 10000 and size > a // 50:  # shuffle the tail of the whole range
            idx = list(range(a))
            self._shuffle_tail(idx, max(a - size, 1))
            return idx[a - size :]
        out: list[int] = []
        seen: set[int] = set()
        for j in range(a - size, a):  # Floyd's algorithm, then a shuffle of the sample
            v = self._bounded(j)
            if v in seen:
                v = j
            seen.add(v)
            out.append(v)
        self._shuffle_tail(out, 1)
        return out

    def binomial(self, n: int, p: float) -> int:
        """A Binomial(n, p) draw."""
        if not 0.0 <= p <= 1.0:
            raise ValueError("p < 0, p > 1 or p is NaN")
        if n < 0:
            raise ValueError("n < 0")
        if n == 0 or p == 0.0:
            return 0
        if p <= 0.5:
            return self._inversion(n, p) if p * n <= 30.0 else self._btpe(n, p)
        q = 1.0 - p
        return n - (self._inversion(n, q) if q * n <= 30.0 else self._btpe(n, q))

    def _inversion(self, n: int, p: float) -> int:
        q = 1.0 - p
        qn = math.exp(n * math.log(q))
        np_ = n * p
        bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
        x, px, u = 0, qn, self.random()
        while u > px:
            x += 1
            if x > bound:
                x, px, u = 0, qn, self.random()
            else:
                u -= px
                px = ((n - x + 1) * p * px) / (x * q)
        return x

    def _btpe(self, n: int, r: float) -> int:
        """BTPE for r <= 0.5, step for step as numpy's ``random_binomial_btpe``."""
        q = 1.0 - r
        fm = n * r + r
        m = math.floor(fm)
        p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
        xm = m + 0.5
        xl, xr = xm - p1, xm + p1
        c = 0.134 + 20.5 / (15.3 + m)
        a = (fm - xl) / (fm - xl * r)
        laml = a * (1.0 + a / 2.0)
        a = (xr - fm) / (xr * q)
        lamr = a * (1.0 + a / 2.0)
        p2 = p1 * (1.0 + 2.0 * c)
        p3 = p2 + c / laml
        p4 = p3 + c / lamr
        nrq = n * r * q
        while True:
            u = self.random() * p4
            v = self.random()
            if u <= p1:  # the triangle
                return math.floor(xm - p1 * v + u)
            if u <= p2:  # the parallelograms
                x = xl + (u - p1) / c
                v = v * c + 1.0 - abs(m - x + 0.5) / p1
                if v > 1.0:
                    continue
                y = math.floor(x)
            elif u <= p3:  # the left tail
                if v == 0.0:
                    continue
                y = math.floor(xl + math.log(v) / laml)
                if y < 0:
                    continue
                v = v * (u - p2) * laml
            else:  # the right tail
                if v == 0.0:
                    continue
                y = math.floor(xr - math.log(v) / lamr)
                if y > n:
                    continue
                v = v * (u - p3) * lamr
            k = abs(y - m)
            if k <= 20 or k >= nrq / 2.0 - 1:  # explicit evaluation of f(y) / f(m)
                s = r / q
                a = s * (n + 1)
                f = 1.0
                if m < y:
                    for i in range(m + 1, y + 1):
                        f *= a / i - s
                elif m > y:
                    for i in range(y + 1, m + 1):
                        f /= a / i - s
                if v > f:
                    continue
                return y
            # squeeze on log f(y), then the bound from Stirling's formula
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
            t = -k * k / (2 * nrq)
            big_a = math.log(v) if v > 0.0 else -math.inf
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1, f1, z, w = float(y + 1), float(m + 1), float(n + 1 - m), float(n - y + 1)
            x2, f2, z2, w2 = x1 * x1, f1 * f1, z * z, w * w
            bound = (
                xm * math.log(f1 / x1)
                + (n - m + 0.5) * math.log(z / w)
                + (y - m) * math.log(w * r / (x1 * q))
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / f2) / f2) / f2) / f2) / f1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2) / x1 / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / z2) / z2) / z2) / z2) / z / 166320.0
                + (13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / w2) / w2) / w2) / w2) / w / 166320.0
            )
            if big_a > bound:
                continue
            return y
