import numpy as np
import pytest

from hedonic_lab.sampling import (
    _CHUNK,
    SeedSpec,
    UtilityDistribution,
    derive_trial_seed,
    sample_game,
)

D = UtilityDistribution(-1, 1)


class TestDistribution:
    def test_requires_ordered_bounds(self):
        with pytest.raises(ValueError):
            UtilityDistribution(1.0, -1.0)

    @pytest.mark.parametrize("lo,hi", [(-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf),
                                       (-np.inf, np.inf)])
    def test_rejects_an_infinite_width(self, lo, hi):
        # hi - lo scales every draw: an infinite width made the buffered path
        # redraw forever and the fresh path raise OverflowError.
        with pytest.raises(ValueError, match="finite width"):
            UtilityDistribution(lo, hi)
        with pytest.raises(ValueError, match="finite width"):
            UtilityDistribution.parse(f"uniform:{lo}:{hi}")

    def test_parse(self):
        d = UtilityDistribution.parse("uniform:-0.5:1.5")
        assert (d.lo, d.hi) == (-0.5, 1.5)
        with pytest.raises(ValueError):
            UtilityDistribution.parse("gaussian:0:1")

    def test_positive_mass(self):
        assert UtilityDistribution(-1, 1).positive_mass == 0.5
        assert UtilityDistribution(-1, 0).positive_mass == 0.0
        assert UtilityDistribution(0.1, 1).positive_mass == 1.0
        assert UtilityDistribution(-0.5, 1.5).positive_mass == 0.75


class TestSampleGame:
    def test_rejects_zero_agents(self):
        with pytest.raises(ValueError):
            sample_game(0, D, SeedSpec(0))

    def test_determinism(self):
        a = sample_game(20, D, SeedSpec(123, 4))
        b = sample_game(20, D, SeedSpec(123, 4))
        assert np.array_equal(a.utilities, b.utilities)

    def test_support_open_interval(self):
        g = sample_game(60, D, SeedSpec(9))
        off = ~np.eye(60, dtype=bool)
        vals = g.utilities[off]
        assert vals.min() > -1.0 and vals.max() < 1.0

    def test_diagonal_zero(self):
        g = sample_game(17, UtilityDistribution(0.5, 2.0), SeedSpec(1))
        assert np.all(np.diagonal(g.utilities) == 0.0)

    def test_mean_within_four_standard_errors(self):
        g = sample_game(1000, D, SeedSpec(77))
        off = ~np.eye(1000, dtype=bool)
        vals = g.utilities[off]
        se = (2.0 / np.sqrt(12.0)) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 4.0 * se

    def test_distinct_seeds_differ(self):
        a = sample_game(10, D, SeedSpec(0, 0))
        b = sample_game(10, D, SeedSpec(0, 1))
        assert not np.array_equal(a.utilities, b.utilities)


class TestDeriveTrialSeed:
    def test_injective_adjacent(self):
        m = SeedSpec(55)
        assert derive_trial_seed(m, 0) != derive_trial_seed(m, 1)

    def test_deterministic(self):
        m = SeedSpec(55)
        assert derive_trial_seed(m, 7) == derive_trial_seed(m, 7)

    def test_rejects_negative_trial(self):
        with pytest.raises(ValueError):
            derive_trial_seed(SeedSpec(0), -1)

    def test_million_derived_seeds_unique(self):
        m = SeedSpec(2024)
        seeds = {derive_trial_seed(m, t) for t in range(1_000_000)}
        assert len(seeds) == 1_000_000

    def test_derived_streams_statistically_distinct(self):
        m = SeedSpec(8)
        first = [derive_trial_seed(m, t).rng().integers(0, 2**63) for t in range(4096)]
        assert len(set(first)) == 4096


class TestSeedFields:
    @pytest.mark.parametrize("args,field", [
        ((1, True), "stream_index"), ((True,), "master_seed"), ((False, 0), "master_seed"),
        ((2.5,), "master_seed"), ((1, 1.5), "stream_index"), ((np.float64(3),), "master_seed"),
        (("3",), "master_seed"), ((None,), "master_seed"), ((1, 2.0), "stream_index")])
    def test_non_integer_fields_raise_at_construction(self, args, field):
        # True once read stream 1; a float failed only later, at ``.rng()``.
        with pytest.raises(TypeError, match=field):
            SeedSpec(*args)

    @pytest.mark.parametrize("trial", [True, 1.0, np.float32(2), "1"])
    def test_non_integer_trial_raises(self, trial):
        with pytest.raises(TypeError, match="trial"):
            derive_trial_seed(SeedSpec(1), trial)

    def test_numpy_integers_are_stored_as_python_ints(self):
        spec = SeedSpec(np.int64(-3), np.uint8(2))
        assert spec == SeedSpec(-3, 2) and hash(spec) == hash(SeedSpec(-3, 2))
        assert type(spec.master_seed) is int and type(spec.stream_index) is int
        derived = derive_trial_seed(SeedSpec(np.int32(5)), np.int64(4))
        assert derived == SeedSpec(5, 4) and type(derived.stream_index) is int

    def test_negative_master_seed_is_allowed(self):
        a = sample_game(6, D, SeedSpec(-7))
        b = sample_game(6, D, SeedSpec(-7 & (2**64 - 1)))
        assert np.array_equal(a.utilities, b.utilities)
        with pytest.raises(ValueError):
            SeedSpec(1, -1)


class TestEmpiricalLaw:
    def test_ks_distance_to_uniform(self):
        rng = SeedSpec(31337).rng()
        vals = np.sort(UtilityDistribution(0.0, 1.0).sample(rng, 1_000_000))
        k = vals.size
        grid_hi = np.arange(1, k + 1) / k
        grid_lo = np.arange(0, k) / k
        ks = max(np.max(grid_hi - vals), np.max(vals - grid_lo))
        assert ks < 0.002

    def test_opposite_entries_uncorrelated(self):
        n = 1415  # ~10^6 ordered pairs
        g = sample_game(n, D, SeedSpec(4242))
        iu = np.triu_indices(n, k=1)
        x = g.utilities[iu]
        y = g.utilities.T[iu]
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.005


@pytest.mark.parametrize("lo,hi", [(-1, 1), (-0.3, 2.5), (0.1, 0.7), (-5, -1)])
@pytest.mark.parametrize("n", [1, 7, 64])
def test_draws_equal_fresh_buffered_and_generator_uniform(n, lo, hi):
    """A game is the generator's ``uniform(lo, hi, (n, n))`` with a zeroed diagonal, bit for bit.

    This holds for a fresh allocation and for a reused ``out`` buffer alike,
    so any rework of the sampling around the draws must keep it.
    """
    dist = UtilityDistribution(lo, hi)
    buf = np.full((n, n), np.nan)
    for seed in (SeedSpec(64), SeedSpec(7, 3), SeedSpec(2**40 + 5, 11)):
        expected = seed.rng().uniform(lo, hi, (n, n))
        np.fill_diagonal(expected, 0.0)
        fresh = sample_game(n, dist, seed).utilities
        reused = sample_game(n, dist, seed, out=buf).utilities
        assert reused is buf
        assert fresh.tobytes() == expected.tobytes()
        assert reused.tobytes() == expected.tobytes()


@pytest.mark.parametrize("buf", [
    np.zeros((5, 5), order="F"),
    np.zeros((5, 6)),
    np.zeros((4, 4)),
    np.zeros(25),
    np.zeros((5, 5), dtype=np.float32),
    np.zeros((5, 10))[:, ::2],
], ids=["fortran-order", "wrong-shape", "wrong-n", "flat", "float32", "strided"])
def test_out_buffer_must_be_c_contiguous_float64_square(buf):
    with pytest.raises(ValueError, match="C-contiguous float64"):
        sample_game(5, D, SeedSpec(3), out=buf)


class ZeroAt:
    """A generator whose doubles at the given stream positions are 0.0, the rest ``seed``'s."""

    def __init__(self, seed, zeros):
        self.rng = seed.rng()
        self.zeros = zeros
        self.pos = 0

    def random(self, size=None, out=None):
        vals = self.rng.random(size) if out is None else self.rng.random(out=out)
        flat = vals.reshape(-1)
        for p in self.zeros:
            if self.pos <= p < self.pos + flat.size:
                flat[p - self.pos] = 0.0
        self.pos += flat.size
        return vals


def whole_table_then_redraws(rng, lo, hi, shape):
    """The draw order before chunking: the whole table, then redraws of every endpoint."""
    vals = rng.random(int(np.prod(shape))).reshape(shape) * (hi - lo) + lo
    bad = (vals <= lo) | (vals >= hi)
    while bad.any():
        vals[bad] = lo + (hi - lo) * rng.random(int(bad.sum()))
        bad = (vals <= lo) | (vals >= hi)
    return vals


@pytest.mark.parametrize("buffered", [False, True])
def test_endpoint_redraws_follow_the_whole_table_order(buffered):
    # A 0.0 double lands on lo, outside the open support.  Endpoints in the
    # first and a later chunk, and one in the first redraw round, must be
    # redrawn in the order of one whole-table draw.
    shape = (3, 150, 100)
    size = int(np.prod(shape))
    zeros = (5, 2 * _CHUNK + 17, size + 1)
    assert size > 2 * _CHUNK + 17
    dist = UtilityDistribution(-0.5, 1.5)
    out = np.full(shape, np.nan) if buffered else None
    got = dist.sample(ZeroAt(SeedSpec(12), zeros), shape, out=out)
    want = whole_table_then_redraws(ZeroAt(SeedSpec(12), zeros), -0.5, 1.5, shape)
    assert got.tobytes() == want.tobytes()
    assert got.min() > -0.5
    plain = dist.sample(SeedSpec(12).rng(), shape).reshape(-1)
    assert np.count_nonzero(got.reshape(-1) != plain) == 2  # the two redrawn entries
