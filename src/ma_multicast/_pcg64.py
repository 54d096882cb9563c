"""numpy's default generator stream, bit for bit, in plain Python integers.

``PCG64(seed)`` draws exactly what ``numpy.random.default_rng(seed)`` draws
through ``uniform`` and ``integers(low, high)``, so ``validate`` keeps its
fixed-seed samples without loading ``numpy.random``.  The recipes are
numpy's own:

- ``SeedSequence(seed)`` hashes the seed's 32-bit words into a pool of four,
  and ``generate_state(4, uint64)`` hashes the pool into four 64-bit words;
- PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation",
  HMC-CS-2014-0905) seeds its 128-bit LCG from the first two words as the
  state and the last two as the stream, as ``pcg_setseq_128_srandom_r``
  does, then steps and outputs XSL-RR 64-bit words;
- a double is the top 53 bits of a word times 2**-53;
- a 32-bit draw returns the low half of a word and keeps the high half
  for the next 32-bit draw (``has_uint32``/``uinteger``), which 64-bit
  draws leave alone.
"""

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_TWICE = (1 << 64) + 1  # times a 64-bit word: the word in both 64-bit halves
_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_TO_UNIT = 2.0 ** -53

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed: int) -> list:
    """SeedSequence(seed).generate_state(4, uint64) as four Python ints."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    # the 32-bit words read as little-endian 64-bit words
    return [halves[k] | halves[k + 1] << 32 for k in range(0, 8, 2)]


class PCG64:
    """numpy.random.default_rng(seed)'s stream for uniform and integers.

    The attributes mirror numpy's ``bit_generator.state``: the 128-bit
    ``state`` and ``inc`` of the LCG, and the buffered upper half
    ``uinteger`` of the last 64-bit word split for 32-bit draws, valid
    while ``has_uint32`` is 1.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self.inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        # state 0, one step, add the seed state, one more step
        self.state = ((self.inc + (s_hi << 64 | s_lo)) * _MULTIPLIER + self.inc) & _MASK128
        self.has_uint32 = 0
        self.uinteger = 0

    def _next64(self) -> int:
        s = self.state = (self.state * _MULTIPLIER + self.inc) & _MASK128
        # XSL-RR: the xor of the halves, rotated right by the top 6 bits; with
        # the word in both halves of 128 bits, a right shift rotates it
        return ((s >> 64 ^ s) & _MASK64) * _TWICE >> (s >> 122) & _MASK64

    def _next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self._next64()
        self.has_uint32 = 1
        self.uinteger = word >> 32
        return word & _MASK32

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | None = None):
        """low + (high - low) * u per draw, u the next double in [0, 1).

        One float without size, else a list of size floats.  Every element
        takes one 64-bit word, also when high == low.
        """
        low, high = float(low), float(high)
        span = high - low
        if not span >= 0.0:
            raise ValueError("high - low must be non-negative")
        count = 1 if size is None else size
        out = [low + span * ((self._next64() >> 11) * _TO_UNIT) for _ in range(count)]
        return out[0] if size is None else out

    def integers(self, low: int, high: int) -> int:
        """One integer in [low, high): Lemire's bounded draw on 32-bit words.

        numpy takes no word when high - low == 1, and this stream covers
        ranges of at most 2**32 values, where numpy uses 32-bit words.
        """
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError("integers needs 1 <= high - low <= 2**32")
        if span == 1:
            return low
        m = self._next32() * span
        if (m & _MASK32) < span:
            # 2**32 mod span words would bias the result; numpy redraws them
            threshold = (1 << 32) % span
            while (m & _MASK32) < threshold:
                m = self._next32() * span
        return low + (m >> 32)
