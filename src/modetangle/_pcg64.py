"""numpy's SeedSequence children feeding PCG64, many children at once.

A campaign draws trial i from PCG64(SeedSequence(seed).spawn(n)[i]), the
stream np.random.default_rng would give that child.  Building those
objects one by one costs ~20 us per trial.  SeedSequence's entropy
mixing and PCG64's seeding and stepping are fixed integer recurrences
(numpy/random/bit_generator.pyx; O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905), so this module runs them for a whole
block of children as uint32/uint64 array arithmetic and returns the same
raw 64-bit outputs, bit for bit.

Every constant is an explicit np.uint32 or np.uint64 so that the array
arithmetic wraps at the word size under numpy 1.x and 2.x alike.
"""

from __future__ import annotations

import numpy as np

from ._common import require_integer

_U32 = np.uint32
_U64 = np.uint64
_MASK32 = 0xFFFFFFFF

# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_XSHIFT = _U32(16)

# PCG64's 128-bit LCG multiplier as (hi, lo) words, and lo's 32-bit limbs
_LIMB, _LIMB_MASK = _U64(32), _U64(_MASK32)
_MULT_HI, _MULT_LO = _U64(0x2360ED051FC65DA4), _U64(0x4385DF649FCCF645)
_MULT_LO_1, _MULT_LO_0 = _MULT_LO >> _LIMB, _MULT_LO & _LIMB_MASK


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**k mod 2**32 for k = 0..count, as a uint32 column."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=_U32)[:, None]


def _hash(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, row k with hash constants consts[k], consts[k + 1]."""
    x = (values ^ consts[:-1]) * consts[1:]
    return x ^ (x >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> _XSHIFT)


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of a non-negative int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _mul_add(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """One PCG64 LCG step on 128-bit (hi, lo) words: state * multiplier + inc."""
    lo_0, lo_1 = lo & _LIMB_MASK, lo >> _LIMB
    p00, p01, p10 = lo_0 * _MULT_LO_0, lo_0 * _MULT_LO_1, lo_1 * _MULT_LO_0
    mid = (p00 >> _LIMB) + (p01 & _LIMB_MASK) + (p10 & _LIMB_MASK)
    carry = lo_1 * _MULT_LO_1 + (p01 >> _LIMB) + (p10 >> _LIMB) + (mid >> _LIMB)
    return _add(carry + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO, inc_hi, inc_lo)


def _add(a_hi: np.ndarray, a_lo: np.ndarray, b_hi: np.ndarray, b_lo: np.ndarray):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _xsl_rr(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """PCG64's output: (hi ^ lo) rotated right by the state's top 6 bits."""
    x, rot = hi ^ lo, hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


def _spawn_words(children: range) -> list[np.ndarray]:
    """The spawn-key words of each child id, one array per word position."""
    if children.start < 2**32 < children.stop:
        raise ValueError("children must not straddle 2**32")
    ids = np.arange(children.start, children.stop, dtype=_U64)
    low = (ids & _LIMB_MASK).astype(_U32)
    return [low] if children.start < 2**32 else [low, (ids >> _LIMB).astype(_U32)]


# generate_state's hash constants for its 8 output words
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 8)


class SpawnedPCG64:
    """First raw outputs of PCG64 seeded by the children of SeedSequence(rng_seed).

    The pool mixing of the seed's own words is the same for every child,
    so it is done once here; each call mixes in only the children's spawn
    words.
    """

    def __init__(self, rng_seed: int) -> None:
        rng_seed = require_integer("rng_seed", rng_seed)
        if rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {rng_seed}")
        words = _words(rng_seed)
        words += [0] * (_POOL_SIZE - len(words))
        extra = len(words) - _POOL_SIZE
        # 4 fills, 12 cross mixes, 4 per extra word, and 4 per spawn word (at most 2)
        consts = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra + 8)
        pool = _hash(np.array(words[:_POOL_SIZE], dtype=_U32)[:, None], consts[: _POOL_SIZE + 1])
        k = _POOL_SIZE
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    hashed = _hash(pool[src : src + 1], consts[k : k + 2])
                    pool[dst : dst + 1] = _mix(pool[dst : dst + 1], hashed)
                    k += 1
        for word in words[_POOL_SIZE:]:
            pool = _mix(pool, _hash(_U32(word), consts[k : k + _POOL_SIZE + 1]))
            k += _POOL_SIZE
        self._pool = pool
        self._spawn_consts = consts[k:]

    def raw2(self, children: range) -> tuple[np.ndarray, np.ndarray]:
        """PCG64(seq).random_raw(2) as two uint64 columns, one row per seq.

        seq is each child SeedSequence(rng_seed, spawn_key=(i,)) for i in
        children.  Children in one call must all lie below 2**32 or all at
        or above it, since SeedSequence makes one spawn word of an id below
        2**32 and two of one above.
        """
        pool = self._pool
        for j, word in enumerate(_spawn_words(children)):
            consts = self._spawn_consts[_POOL_SIZE * j : _POOL_SIZE * (j + 1) + 1]
            pool = _mix(pool, _hash(word, consts))
        # generate_state(4, np.uint64): 8 hashed pool words, paired little-endian
        state = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS).astype(_U64)
        seed_hi, seed_lo, seq_hi, seq_lo = state[0::2] | (state[1::2] << _LIMB)
        # srandom: the increment is (seq << 1) | 1, the state inc + seed, one step
        inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
        inc_lo = (seq_lo << _U64(1)) | _U64(1)
        hi, lo = _mul_add(*_add(inc_hi, inc_lo, seed_hi, seed_lo), inc_hi, inc_lo)
        hi, lo = _mul_add(hi, lo, inc_hi, inc_lo)
        first = _xsl_rr(hi, lo)
        hi, lo = _mul_add(hi, lo, inc_hi, inc_lo)
        return first, _xsl_rr(hi, lo)

