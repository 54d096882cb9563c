"""The stdlib PCG64 stream against numpy.random.default_rng, bit for bit.

Oracle: numpy's own Generator on the same seed, with the replica started
from the LCG state and increment that numpy reports after seeding.  After
every call both the drawn values and the whole generator state (the 128-bit
LCG state and increment, and the buffered upper half of a split 64-bit word)
must agree.
"""

import random

import numpy as np
import pytest

from ma_multicast import SystemConfig, random_positions
from ma_multicast._pcg64 import PCG64
from ma_multicast.validation import VALIDATION_SEED, VALIDATION_STATE

# 0, 1, validate's seed, one of more than 32 bits and one of more than 128 bits
SEEDS = [0, 1, VALIDATION_SEED, 2**40 + 12345, 2**130 + 987654321]


def state_of(replica):
    """The replica's state in the form of numpy's bit_generator.state."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": replica.state, "inc": replica.inc},
        "has_uint32": replica.has_uint32,
        "uinteger": replica.uinteger,
    }


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def pair(seed):
    gen = np.random.default_rng(seed)
    lcg = gen.bit_generator.state["state"]
    return gen, PCG64(lcg["state"], lcg["inc"])


def assert_same_call(gen, replica, name, *args):
    want, got = getattr(gen, name)(*args), getattr(replica, name)(*args)
    if name == "integers":
        assert type(got) is int and got == want
    else:
        assert bits(got) == bits(want)
    assert state_of(replica) == gen.bit_generator.state


def test_validation_state_is_numpys_state_for_validation_seed():
    gen = np.random.default_rng(VALIDATION_SEED)
    assert state_of(PCG64(*VALIDATION_STATE)) == gen.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_random_call_mixes_match_numpy(seed):
    gen, replica = pair(seed)
    plan = random.Random(seed)
    for _ in range(2000):
        kind = plan.randrange(6)
        low = plan.uniform(-3.0, 3.0)
        high = low + plan.uniform(0.0, 5.0)
        if kind == 0:
            assert_same_call(gen, replica, "integers", 2, 9)
        elif kind == 1:
            assert_same_call(gen, replica, "integers", plan.randrange(-5, 5), plan.randrange(6, 40))
        elif kind == 2:
            assert_same_call(gen, replica, "uniform", low, high)
        elif kind == 3:
            assert_same_call(gen, replica, "uniform", low, high, plan.randrange(0, 10))
        elif kind == 4:
            # a zero range still takes one word per element
            assert_same_call(gen, replica, "uniform", low, low, plan.choice([None, 1, 3]))
        else:
            assert_same_call(gen, replica, "uniform")


def test_the_buffered_upper_half_carries_across_uniform_calls():
    gen, replica = pair(VALIDATION_SEED)
    assert_same_call(gen, replica, "integers", 2, 9)
    assert replica.has_uint32 == 1
    # 64-bit draws leave the buffered half alone
    assert_same_call(gen, replica, "uniform", 0.0, 1.0, 4)
    assert_same_call(gen, replica, "uniform", 0.5, 2.0)
    assert replica.has_uint32 == 1
    word = replica.state
    assert_same_call(gen, replica, "integers", 2, 9)
    # the second integer came from the buffer: no LCG step
    assert replica.has_uint32 == 0 and replica.state == word


def test_zero_range_positions_take_one_word_per_antenna():
    # (n - 1) * d_min == span_l leaves no slack: uniform(0, 0, n) still draws n words
    cfg = SystemConfig(n_antennas=9, span_l=4.0, d_min=0.5)
    gen, replica = pair(VALIDATION_SEED)
    want, got = random_positions(cfg, gen), random_positions(cfg, replica)
    assert bits(got) == bits(want) == bits(0.5 * np.arange(9))
    assert state_of(replica) == gen.bit_generator.state
    assert_same_call(gen, replica, "uniform", 0.0, 0.0, 9)
    assert_same_call(gen, replica, "uniform", 0.0, 1.0)


# 32-bit words w for integers(2, 9), where Lemire scales by 7: the low half of
# 7 w below 2**32 mod 7 = 4 is redrawn, from 4 up it is kept
LEMIRE_WORDS = {
    "zero, redrawn": 0,
    "low half 3, redrawn": 3 * pow(7, -1, 2**32) % 2**32,
    "low half 5, kept": 5 * pow(7, -1, 2**32) % 2**32,
}


@pytest.mark.parametrize("word", LEMIRE_WORDS.values(), ids=LEMIRE_WORDS.keys())
@pytest.mark.parametrize("seed", [1, VALIDATION_SEED])
def test_lemire_rejection_matches_numpy(seed, word):
    gen, replica = pair(seed)
    state = gen.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, word
    gen.bit_generator.state = state
    replica.has_uint32, replica.uinteger = 1, word
    lcg = replica.state
    assert_same_call(gen, replica, "integers", 2, 9)
    redrawn = (word * 7) % 2**32 < 4
    # a redraw splits a fresh word and leaves its upper half buffered
    assert (replica.state != lcg) == redrawn and replica.has_uint32 == int(redrawn)
    assert_same_call(gen, replica, "integers", 2, 9)


def test_range_edges_match_numpy():
    gen, replica = pair(VALIDATION_SEED)
    lcg = replica.state
    # one value takes no word
    assert_same_call(gen, replica, "integers", 5, 6)
    assert replica.state == lcg
    # 2**32 values take each 32-bit word as it is
    for _ in range(3):
        assert_same_call(gen, replica, "integers", -7, 2**32 - 7)


def test_bad_arguments_are_rejected():
    gen, replica = pair(VALIDATION_SEED)
    for low, high in [(3, 3), (4, 2), (0, 2**32 + 1)]:
        with pytest.raises(ValueError):
            replica.integers(low, high)
    with pytest.raises(ValueError):
        replica.uniform(1.0, 0.0)
    assert state_of(replica) == gen.bit_generator.state
