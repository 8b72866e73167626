"""Unit tests for the Round-Robin Database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.rrd import ArchiveSpec, RoundRobinDatabase
from repro.exceptions import ConfigurationError, DatabaseError


def _rrd(archives=None, sources=("cpu", "mem")):
    return RoundRobinDatabase(step=60, sources=sources, archives=archives)


class TestArchiveSpec:
    def test_valid(self):
        spec = ArchiveSpec("average", 5, 100)
        assert spec.period == 500

    def test_bad_consolidation(self):
        with pytest.raises(ConfigurationError):
            ArchiveSpec("sum", 1, 10)

    def test_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            ArchiveSpec("average", 0, 10)
        with pytest.raises(ConfigurationError):
            ArchiveSpec("average", 1, 0)


class TestConstruction:
    def test_requires_sources(self):
        with pytest.raises(ConfigurationError):
            RoundRobinDatabase(step=60, sources=[])

    def test_duplicate_sources(self):
        with pytest.raises(ConfigurationError):
            RoundRobinDatabase(step=60, sources=["a", "a"])

    def test_requires_archives(self):
        with pytest.raises(ConfigurationError):
            RoundRobinDatabase(step=60, sources=["a"], archives=[])


class TestUpdates:
    def test_timestamps_must_be_clocked(self):
        rrd = _rrd()
        rrd.update(0, {"cpu": 1.0, "mem": 2.0})
        with pytest.raises(DatabaseError, match="expected 60"):
            rrd.update(120, {"cpu": 1.0, "mem": 2.0})

    def test_source_mismatch(self):
        rrd = _rrd()
        with pytest.raises(DatabaseError, match="mismatch"):
            rrd.update(0, {"cpu": 1.0})
        with pytest.raises(DatabaseError, match="mismatch"):
            rrd.update(0, {"cpu": 1.0, "mem": 2.0, "disk": 3.0})

    def test_non_finite_rejected(self):
        rrd = _rrd()
        with pytest.raises(DatabaseError, match="non-finite"):
            rrd.update(0, {"cpu": float("nan"), "mem": 1.0})

    def test_counters(self):
        rrd = _rrd()
        for i in range(3):
            rrd.update(i * 60, {"cpu": float(i), "mem": 0.0})
        assert rrd.n_updates == 3
        assert rrd.last_timestamp == 120


class TestFetch:
    def test_raw_roundtrip(self):
        rrd = _rrd()
        for i in range(5):
            rrd.update(i * 60, {"cpu": float(i), "mem": float(-i)})
        t, v = rrd.fetch("cpu")
        np.testing.assert_array_equal(v, [0, 1, 2, 3, 4])
        np.testing.assert_array_equal(t, np.arange(5) * 60)

    def test_average_consolidation(self):
        rrd = _rrd(archives=[ArchiveSpec("average", 5, 10)])
        for i in range(10):
            rrd.update(i * 60, {"cpu": float(i), "mem": 0.0})
        _, v = rrd.fetch("cpu")
        np.testing.assert_allclose(v, [2.0, 7.0])  # means of 0..4, 5..9

    @pytest.mark.parametrize(
        "cf,expected", [("max", 4.0), ("min", 0.0), ("last", 4.0)]
    )
    def test_other_consolidations(self, cf, expected):
        rrd = _rrd(archives=[ArchiveSpec(cf, 5, 10)])
        for i in range(5):
            rrd.update(i * 60, {"cpu": float(i), "mem": 0.0})
        _, v = rrd.fetch("cpu")
        assert v[0] == expected

    def test_round_robin_overwrite(self):
        """Old rows fall off once capacity is exceeded; order stays
        chronological."""
        rrd = _rrd(archives=[ArchiveSpec("average", 1, 3)])
        for i in range(5):
            rrd.update(i * 60, {"cpu": float(i), "mem": 0.0})
        t, v = rrd.fetch("cpu")
        np.testing.assert_array_equal(v, [2, 3, 4])
        assert (np.diff(t) > 0).all()

    def test_time_range_filter(self):
        rrd = _rrd()
        for i in range(10):
            rrd.update(i * 60, {"cpu": float(i), "mem": 0.0})
        _, v = rrd.fetch("cpu", start=120, end=240)
        np.testing.assert_array_equal(v, [2, 3, 4])

    def test_incomplete_bucket_not_visible(self):
        rrd = _rrd(archives=[ArchiveSpec("average", 5, 10)])
        for i in range(4):  # one short of a full bucket
            rrd.update(i * 60, {"cpu": 1.0, "mem": 0.0})
        _, v = rrd.fetch("cpu")
        assert v.size == 0

    def test_unknown_source(self):
        with pytest.raises(DatabaseError):
            _rrd().fetch("disk")

    def test_bad_archive_index(self):
        with pytest.raises(DatabaseError):
            _rrd().fetch("cpu", archive=5)

    def test_empty_fetch(self):
        t, v = _rrd().fetch("cpu")
        assert t.size == 0 and v.size == 0


def _assert_bits_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got.view(np.uint8), expected.view(np.uint8))


def _reference_archive(spec, times, values):
    """One consolidation per completed bucket, newest ``rows`` kept.

    Each bucket reduces as a fresh array of Python floats, the way the
    one-sample-at-a-time writer committed it.
    """
    reduce = {
        "average": np.mean,
        "max": np.max,
        "min": np.min,
        "last": lambda bucket: bucket[-1],
    }[spec.consolidation]
    full = len(values) // spec.steps
    stamps, rows = [], []
    for j in range(full):
        lo, hi = j * spec.steps, (j + 1) * spec.steps
        bucket = np.asarray([float(v) for v in values[lo:hi]])
        stamps.append(int(times[(j + 1) * spec.steps - 1]))
        rows.append(float(reduce(bucket)))
    return (
        np.array(stamps[-spec.rows :], dtype=np.int64),
        np.array(rows[-spec.rows :], dtype=np.float64),
    )


_finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@st.composite
def _write_plans(draw):
    """Archives, a two-source series and a split of it into writes."""
    specs = draw(
        st.lists(
            st.builds(
                ArchiveSpec,
                st.sampled_from(["average", "max", "min", "last"]),
                st.integers(1, 40),
                st.integers(1, 20),
            ),
            min_size=1,
            max_size=3,
        )
    )
    n = draw(st.integers(0, 300))
    cpu = draw(st.lists(_finite, min_size=n, max_size=n))
    mem = draw(st.lists(_finite, min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=10)))
    bounds = [0, *cuts, n]
    # True: the piece goes in as single update() calls; False: one block.
    singles = draw(st.lists(st.booleans(), min_size=len(bounds), max_size=len(bounds)))
    pieces = [
        (lo, hi, one_by_one)
        for lo, hi, one_by_one in zip(bounds, bounds[1:], singles)
        if hi > lo
    ]
    start = draw(st.integers(0, 10**6))
    return specs, np.array(cpu), np.array(mem), pieces, start


class TestBlockWrites:
    @given(_write_plans())
    @settings(max_examples=200, deadline=None)
    def test_any_split_matches_per_bucket_reference(self, plan):
        specs, cpu, mem, pieces, start = plan
        rrd = _rrd(archives=specs)
        times = start + 60 * np.arange(cpu.shape[0])
        for lo, hi, one_by_one in pieces:
            if one_by_one:
                for i in range(lo, hi):
                    rrd.update(int(times[i]), {"cpu": cpu[i], "mem": mem[i]})
            else:
                rrd.update_many(times[lo:hi], {"cpu": cpu[lo:hi], "mem": mem[lo:hi]})
        assert rrd.n_updates == cpu.shape[0]
        expected_last = int(times[-1]) if cpu.shape[0] else None
        assert rrd.last_timestamp == expected_last
        for index, spec in enumerate(specs):
            for name, series in (("cpu", cpu), ("mem", mem)):
                t, v = rrd.fetch(name, archive=index)
                ref_t, ref_v = _reference_archive(spec, times, series)
                _assert_bits_equal(t, ref_t)
                _assert_bits_equal(v, ref_v)


def _state(rrd):
    fetched = [
        rrd.fetch(name, archive=index)
        for name in rrd.sources
        for index in range(len(rrd.archive_specs))
    ]
    return rrd.n_updates, rrd.last_timestamp, fetched


def _assert_same_state(a, b):
    assert a[:2] == b[:2]
    for (ta, va), (tb, vb) in zip(a[2], b[2]):
        _assert_bits_equal(ta, tb)
        _assert_bits_equal(va, vb)


_NAN = float("nan")


class TestRejectedWrites:
    """A rejected write changes nothing, and the next good one lands as
    if it had never been sent."""

    _SPECS = [ArchiveSpec("average", 1, 5), ArchiveSpec("max", 3, 4)]

    def _primed(self):
        rrd = _rrd(archives=self._SPECS)
        # 7 samples: the 3-step archive holds a 1-sample partial bucket.
        rrd.update_many(
            60 * np.arange(7), {"cpu": np.arange(7.0), "mem": -np.arange(7.0)}
        )
        return rrd

    @pytest.mark.parametrize(
        "timestamps,values,match",
        [
            ([420, 480, 600], {"cpu": [1, 2, 3], "mem": [1, 2, 3]}, "at 600 .* 540"),
            ([480, 540, 600], {"cpu": [1, 2, 3], "mem": [1, 2, 3]}, "at 480 .* 420"),
            ([420, 480, 540], {"cpu": [1, 2, 3]}, "missing=\\['mem'\\]"),
            (
                [420, 480, 540],
                {"cpu": [1, 2, 3], "mem": [1, 2, 3], "disk": [1, 2, 3]},
                "unknown=\\['disk'\\]",
            ),
            ([420, 480, 540], {"cpu": [1, 2, 3], "mem": [1, 2]}, "'mem' has shape"),
            ([420, 480, 540], {"cpu": [1, 2, 3], "mem": [_NAN, 2, 3]}, "source 'mem'"),
            ([420, 480, 540], {"cpu": [1, 2, _NAN], "mem": [1, 2, 3]}, "source 'cpu'"),
            ([420, 480, 540], {"cpu": [1, 2, 3], "mem": [1, 2, np.inf]}, "'mem'"),
            ([], {"cpu": [], "mem": []}, "non-empty"),
            ([[420, 480]], {"cpu": [1, 2], "mem": [1, 2]}, "non-empty 1-D"),
        ],
    )
    def test_bad_block_changes_nothing(self, timestamps, values, match):
        rrd, twin = self._primed(), self._primed()
        before = _state(rrd)
        with pytest.raises(DatabaseError, match=match):
            rrd.update_many(timestamps, values)
        _assert_same_state(_state(rrd), before)
        good = {"cpu": [10.0, 11.0, 12.0, 13.0], "mem": [9.0, 8.0, 7.0, 6.0]}
        rrd.update_many([420, 480, 540, 600], good)
        twin.update_many([420, 480, 540, 600], good)
        _assert_same_state(_state(rrd), _state(twin))

    def test_non_finite_names_earliest_tick_first(self):
        rrd = _rrd()
        with pytest.raises(DatabaseError, match="source 'mem'"):
            rrd.update_many([0, 60], {"cpu": [1.0, _NAN], "mem": [_NAN, 1.0]})

    def test_rejected_update_writes_no_source(self):
        """A bad value in a later source used to leave the earlier
        sources written: "cpu" kept 5.0, and the retry stored a second
        row at the same timestamp."""
        rrd = _rrd()
        rrd.update(0, {"cpu": 1.0, "mem": 2.0})
        with pytest.raises(DatabaseError, match="non-finite value for source 'mem'"):
            rrd.update(60, {"cpu": 5.0, "mem": _NAN})
        assert rrd.n_updates == 1 and rrd.last_timestamp == 0
        rrd.update(60, {"cpu": 7.0, "mem": 3.0})
        t, v = rrd.fetch("cpu")
        np.testing.assert_array_equal(t, [0, 60])
        np.testing.assert_array_equal(v, [1.0, 7.0])
        t, v = rrd.fetch("mem")
        np.testing.assert_array_equal(t, [0, 60])
        np.testing.assert_array_equal(v, [2.0, 3.0])
