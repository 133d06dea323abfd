"""The numpy primitives the seed/draw contract rests on, each pinned alone.

The stream and occupation digests pin whole runs, so a numpy whose draws
differ fails them all at once.  These pin the draws they are made of, as
recorded with numpy 2.4.6: a seeded ``PCG64`` (seeded as a trajectory's
generator is, from one integer), its ``standard_exponential`` prefix and
the words the ziggurat took for it, its ``random`` prefix at one word a
value, and ``advance``, which skips a last block's unused branch choices.
numpy does not promise to keep ``Generator`` streams across versions (NEP
19), so a failure here names the primitive that moved.
"""

import hashlib

import numpy as np

SEED = 2024
PREFIX = 4096


def generator():
    return np.random.Generator(np.random.PCG64(SEED))


def digest(values):
    return hashlib.sha256(values.astype("<f8").tobytes()).hexdigest()


def words_taken(rng):
    """Steps of ``PCG64(SEED)`` to ``rng``'s state, one word at a time."""
    walk = np.random.PCG64(SEED)
    for words in range(4 * PREFIX):
        if walk.state == rng.bit_generator.state:
            return words
        walk.advance(1)
    raise AssertionError("state not reached")


def test_standard_exponential_prefix():
    rng = generator()
    values = rng.standard_exponential(PREFIX)
    assert values[:3].tolist() == [0.8531782189379872, 0.11453815110571644,
                                   0.16921459825876747]
    assert digest(values) == (
        "5580e0172712b603b561c85d6fc6095c73b3f2c15dd6ea8f1a4a1823211a35e0")
    assert words_taken(rng) == 4234  # the ziggurat's variable word count


def test_random_prefix():
    rng = generator()
    values = rng.random(PREFIX)
    assert values[:3].tolist() == [0.6758313379812818, 0.21432320123825765,
                                   0.3094520308816917]
    assert digest(values) == (
        "0047eccd512b359a98417cf32db7afb4bf4bd4782321cd3005500938788e7f77")
    assert words_taken(rng) == PREFIX


def test_advance_round_trip():
    # Advancing by n skips exactly n random() draws, and back by n returns.
    drawn, skipped = generator(), generator()
    drawn.random(1000)
    skipped.bit_generator.advance(1000)
    assert skipped.bit_generator.state == drawn.bit_generator.state
    assert skipped.random(8).tolist() == drawn.random(8).tolist()
    skipped.bit_generator.advance(-1008)
    assert skipped.bit_generator.state == generator().bit_generator.state
