"""Deterministic named random streams."""

from __future__ import annotations

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from duodenoise.rng import RngStream, uniform_rows
from reference import M64, fresh


def test_same_key_same_draws():
    a = RngStream(42, 7).uniforms(100)
    b = RngStream(42, 7).uniforms(100)
    np.testing.assert_array_equal(a, b)


def test_distinct_streams_are_distinct():
    a = RngStream(42, 7).uniforms(100)
    b = RngStream(42, 8).uniforms(100)
    c = RngStream(43, 7).uniforms(100)
    assert (a != b).any() and (a != c).any()


def test_derivation_is_stable_and_tag_sensitive():
    s = RngStream(5)
    assert s.derive("channel") == s.derive("channel")
    assert s.derive("channel") != s.derive("clean")
    assert s.derive("trial/3") != s.derive("trial/4")
    # deriving preserves the master seed, changes only the stream id
    assert s.derive("x").master_seed == 5


def test_derivation_depends_on_parent():
    a = RngStream(5).derive("p").derive("c")
    b = RngStream(5).derive("q").derive("c")
    assert a != b


def test_uniforms_in_unit_interval():
    u = RngStream(0).uniforms(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


@pytest.mark.parametrize("n", [1, 3, 5, 7, 256, 1001])
@pytest.mark.parametrize("stream_id", [0, 5, 2**63, M64])
@pytest.mark.parametrize("master_seed", [0, 1, -1, M64, 2**70 + 3, -(2**65)])
def test_uniforms_equal_a_fresh_philox(master_seed, stream_id, n):
    # lengths that are not multiples of 4 leave words in Philox's buffer,
    # which the next stream's reset must discard
    stream = RngStream(master_seed, stream_id)
    assert np.array_equal(stream.uniforms(n), fresh(stream).random(n))
    assert np.array_equal(stream.uniforms(n), stream.generator().random(n))


@pytest.mark.parametrize("n", [1, 3, 5, 256, 1001])
@pytest.mark.parametrize("master_seed", [0, -1, -(2**65), M64, 2**70 + 3])
def test_uniform_rows_are_the_streams_draws(master_seed, n):
    # one block draw resets the generator per row: no row sees its
    # predecessor's buffered words
    stream_ids = [0, 5, 2**63, M64, 5, 2**64 + 5, -3]
    rows = uniform_rows(master_seed, stream_ids, n)
    assert rows.shape == (len(stream_ids), n) and rows.dtype == np.float64
    for row, stream_id in zip(rows, stream_ids):
        stream = RngStream(master_seed, stream_id)
        assert np.array_equal(row, stream.uniforms(n))
        assert np.array_equal(row, fresh(stream).random(n))
    assert uniform_rows(master_seed, [], n).shape == (0, n)


def test_threads_interleaving_streams_draw_their_own_words():
    # randomized blocks run on a thread pool; four threads and a tiny switch
    # interval make threads swap between a stream's reset and its draw
    workers = 4
    start = threading.Barrier(workers)
    failures = [None] * workers

    def check(t):
        start.wait()
        failures[t] = 0
        for i in range(2000):
            stream = RngStream(t, t * 10_000 + i)
            n = 1 + i % 9
            failures[t] += not np.array_equal(stream.uniforms(n), fresh(stream).random(n))
            # and a block draw of three streams
            ids = [stream.stream_id, stream.stream_id + 1, stream.stream_id + 2]
            rows = uniform_rows(t, ids, n)
            failures[t] += not all(np.array_equal(row, fresh(RngStream(t, k)).random(n))
                                   for row, k in zip(rows, ids))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=check, args=(t,)) for t in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == [0] * workers


def test_uniforms_leave_a_held_generator_undisturbed():
    # draw_smoothing_masks holds one generator across chunked random_raw calls
    stream, other = RngStream(3, 7), RngStream(3, 8)
    bits = stream.generator().bit_generator
    first = bits.random_raw(5)
    other.uniforms(11)
    second = bits.random_raw(6)
    whole = stream.generator().bit_generator.random_raw(11)
    assert np.array_equal(np.concatenate([first, second]), whole)


def test_stream_is_an_immutable_value():
    stream = RngStream(5, 7)
    for same in (RngStream(5, 7), RngStream(master_seed=5, stream_id=7)):
        assert stream == same and hash(stream) == hash(same)
    assert stream != RngStream(5, 8) and stream != RngStream(6, 7)
    assert RngStream(5) == RngStream(5, 0) and RngStream(5).stream_id == 0
    for field in ("master_seed", "stream_id"):
        with pytest.raises(AttributeError):
            setattr(stream, field, 1)
    assert (stream.master_seed, stream.stream_id) == (5, 7)


@pytest.mark.parametrize("round_trip", [lambda s: pickle.loads(pickle.dumps(s)),
                                        copy.copy, copy.deepcopy])
def test_stream_round_trips_keep_its_fields(round_trip):
    stream = RngStream(2**64 - 1, 2**63)
    twin = round_trip(stream)
    assert (twin.master_seed, twin.stream_id) == (2**64 - 1, 2**63)
    assert twin == stream and hash(twin) == hash(stream)
    assert np.array_equal(twin.uniforms(5), stream.uniforms(5))
    with pytest.raises(AttributeError):
        twin.stream_id = 0
