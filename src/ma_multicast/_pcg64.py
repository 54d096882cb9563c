"""numpy's default generator stream, bit for bit, in plain Python integers.

``PCG64(state, inc)`` starts from the 128-bit LCG state and increment that
numpy reports after seeding, ``default_rng(seed).bit_generator.state["state"]``,
and from there draws exactly what that generator draws through ``uniform``
and ``integers(low, high)``.  ``validate`` records that state for its one
seed, so it keeps its fixed-seed samples without loading ``numpy.random``.
The recipes are numpy's own:

- PCG64 (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation",
  HMC-CS-2014-0905) steps its 128-bit LCG and outputs XSL-RR 64-bit words;
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


class PCG64:
    """numpy's PCG64 stream for uniform and integers, from a recorded state.

    The attributes mirror numpy's ``bit_generator.state``: the 128-bit
    ``state`` and ``inc`` of the LCG, and the buffered upper half
    ``uinteger`` of the last 64-bit word split for 32-bit draws, valid
    while ``has_uint32`` is 1.  A new stream holds no buffered half, like
    numpy's right after seeding.
    """

    __slots__ = ("state", "inc", "has_uint32", "uinteger")

    def __init__(self, state: int, inc: int):
        self.state = state
        self.inc = inc
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
