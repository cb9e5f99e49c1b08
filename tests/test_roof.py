"""Convex-roof oracle: sampling, estimation and closed-form agreement."""

import math
import tracemalloc

import numpy as np
import pytest

import gwlab
from gwlab import (
    Applicability,
    DensityOperator,
    GWBlocks,
    GWSpec,
    PureState,
    SubsystemLayout,
    block_pair_reduction,
    build_w_qubit,
    concurrence_pure,
    concurrence_two_qubit,
    convex_roof_bounds,
    f_alpha,
    gw_pairwise_concurrence,
    negativity,
    reduce_to_parties,
    superpose_with_vacuum,
    verify_c_equals_ca,
    verify_e_alpha_formula,
)
import gwlab.roof
from gwlab.featured import figure1_state
from gwlab.roof import (
    AGREEMENT_TOL,
    EXPLORE_CYCLE,
    GENERATION,
    PLATEAU_TOL,
    REFINE_FLOOR,
    REFINE_HORIZON,
    _draw_chunk,
    _eigen_ensemble,
    _haar_isometries,
    _pair_rows,
    _streams,
    oracle_reports,
)
from gwlab.tensor import SUPPORT_TOL, Partition
from conftest import dense_block_pair, rand_unit, random_gw_spec

#: The blocks of ``_figure1_pair``, for the roof run on the pure state.
FIGURE1_PAIR = ({0}, {1})


def _figure1_pair():
    return reduce_to_parties(figure1_state(), {0, 1})


def _draws(rho, m, trials, seed):
    """The rows of each Haar-drawn decomposition, as the roof draws them:
    every trial of generation 0, later every EXPLORE_CYCLE-th trial."""
    ensemble = _eigen_ensemble(rho)
    for _, haar, _, _ in _draw_chunk(_streams(seed), 0, trials, m, ensemble.shape[0]):
        yield from haar @ ensemble


def _generations(seed, trials, chunk, m, r):
    """Every generation's draws of a roof call of ``trials``, drawn as the
    roof draws them in chunks of ``chunk`` generations."""
    streams, span = _streams(seed), chunk * GENERATION
    return [generation for start in range(0, trials, span)
            for generation in _draw_chunk(streams, start, min(trials, start + span), m, r)]


def _generation_bytes(generation):
    t, haar, sources, rotation = generation
    return [(x.shape, x.tobytes()) for x in (t, haar, sources, *rotation)]


#: The isometry shapes m x r the roof draws: rank r = 1-4, m = r + 2.
SHAPES = [(3, 1), (4, 2), (5, 3), (6, 4)]


def _generation_counts(g):
    """Generation g's Haar trials and moves: every trial of generation 0 is
    a Haar trial, later every EXPLORE_CYCLE-th."""
    t = g * GENERATION + np.arange(GENERATION)
    haar = GENERATION if g == 0 else int(np.count_nonzero(t % EXPLORE_CYCLE == 0))
    return haar, GENERATION - haar


def _normal_matrices(rng, count, m, r):
    """``count`` complex normal m x r matrices, drawn as standard_normal of
    (count, m, r, 2) read as real and imaginary parts."""
    return rng.standard_normal((count, m, r, 2)).view(np.complex128)[..., 0]


def _phase_fixed_qr(z):
    """The Haar isometries of z by LAPACK's QR, R's diagonal phases moved
    into Q."""
    q, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("g", [0, 1, 2, 7])
def test_haar_rows_match_full_qr(g):
    # generation g's normals follow those of generations 0 to g - 1 in the
    # seed's first spawned stream: the m x r matrices of its Haar trials,
    # then one angle per move.  Its Haar rows are those matrices made
    # isometries by Gram-Schmidt, the same bits in a chunk of eight
    # generations (the last cut short) and in a chunk of g alone; they
    # agree with the phase-fixed LAPACK QR of the matrices and are
    # orthonormal, at every shape the roof draws.  A Haar trial reads its
    # own Haar rows; a refining trial reads its incumbent's rows (below 2 m
    # in the pool) and its two rotated rows, never a Haar row
    seed = 42
    haars, moves = _generation_counts(g)
    for m, r in SHAPES:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
        rng.standard_normal(sum(h * 2 * m * r + n for h, n in map(_generation_counts, range(g))))
        z = _normal_matrices(rng, haars, m, r)
        angles = rng.standard_normal(moves)
        eight = _draw_chunk(_streams(seed), 0, 8 * GENERATION - 9, m, r)
        streams = _streams(seed)
        if g:
            _draw_chunk(streams, 0, g * GENERATION, m, r)
        alone = _draw_chunk(streams, g * GENERATION, (g + 1) * GENERATION, m, r)
        assert len(eight) == 8 and len(alone) == 1
        np.testing.assert_array_equal(alone[0][1], _haar_isometries(z.copy()))
        haar_rows = 2 * (m + GENERATION)  # the pool's first Haar row
        for t, haar, sources, (pairs, c, *factors) in (eight[g], alone[0]):
            np.testing.assert_array_equal(t, g * GENERATION + np.arange(t.size))
            used = (t % EXPLORE_CYCLE == 0) | (g == 0)
            assert haar.tobytes() == alone[0][1][: len(haar)].tobytes()
            np.testing.assert_allclose(haar, _phase_fixed_qr(z[: len(haar)]), rtol=0, atol=1e-13)
            gram = np.einsum("nki,nkj->nij", haar.conj(), haar)
            np.testing.assert_allclose(gram, np.broadcast_to(np.eye(r), gram.shape), rtol=0,
                                       atol=1e-13)
            scale = REFINE_FLOOR ** np.minimum(1.0, t[~used] / REFINE_HORIZON)
            np.testing.assert_array_equal(c[:, 0], np.cos(scale * angles[: c.shape[0]]))
            sources = sources.reshape(t.size, m)
            np.testing.assert_array_equal(sources[used],
                                          haar_rows + np.arange(haar.size // r).reshape(-1, m))
            refining = sources[~used]
            assert (refining < haar_rows).all()
            assert ((refining >= 2 * m).sum(axis=1) == 2).all()  # rows k and l, rotated
            # the other rows are the minimizer's on even trials, else the maximizer's
            own = (t[~used] % 2 * m)[:, None] + np.arange(m)
            np.testing.assert_array_equal(np.where(refining < 2 * m, refining, own), own)
            np.testing.assert_array_equal(pairs, own[np.arange(len(own)), pairs % m])
            assert pairs.shape == (2, (~used).sum())
            assert all(factor.shape == (pairs.shape[1], 1) for factor in (c, *factors))


@pytest.mark.parametrize("second", [0.0, 2.0], ids=["zero", "parallel"])
def test_dependent_columns_raise_not_nan(second):
    # a column in the span of those before it (probability 0 under the
    # normal stream) leaves a zero residual: Gram-Schmidt raises there, so
    # no NaN row can reach a step and drop its generation's improvements
    z = np.zeros((3, 4, 2), complex)
    z[:, 0, 0], z[:, 0, 1] = 1.0, second
    z[0] = np.eye(4, 2)
    with pytest.raises(FloatingPointError):
        _haar_isometries(z)


@pytest.mark.parametrize("seed", [0, 42, 2**31 - 1])
def test_in_place_draws_equal_sized_draws(seed):
    # the roof fills each stream with one call per chunk: one flat
    # standard_normal over two generations gives, per generation, the
    # complex view of standard_normal((haar trials, m, r, 2)) and then the
    # moves' angles, and random(out=) the doubles of one random(size=) per
    # generation, bit for bit, each leaving the stream where the
    # generation-sized draws leave it: neither keeps a buffer between calls
    m, r = 4, 2
    a, b = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
            for _ in range(2))
    counts = [_generation_counts(g) for g in range(2)]
    normal = a.standard_normal(sum(h * 2 * m * r + n for h, n in counts))
    uniform = np.empty((2, 3, GENERATION))
    a.random(out=uniform)
    for haars, moves in counts:
        z, normal = normal[: haars * 2 * m * r], normal[haars * 2 * m * r :]
        assert z.view(complex).reshape(haars, m, r).tobytes() == _normal_matrices(
            b, haars, m, r).tobytes()
        angles, normal = normal[:moves], normal[moves:]
        assert angles.tobytes() == b.standard_normal(moves).tobytes()
    assert normal.size == 0
    assert uniform.tobytes() == b.random(3 * GENERATION).tobytes() + b.random(
        (3, GENERATION)).tobytes()
    assert a.bit_generator.state == b.bit_generator.state


class _CountedNormals:
    """A normal stream that counts the normals drawn from it."""

    def __init__(self, rng):
        self.rng, self.drawn = rng, 0

    def standard_normal(self, *args, **kwargs):
        out = self.rng.standard_normal(*args, **kwargs)
        self.drawn += out.size
        return out


@pytest.mark.parametrize("trials, order, drawn", [(1000, 1.1, 4864), (GENERATION, None, 1024)],
                         ids=["renyi-1000", "concurrence-64"])
def test_roof_draws_only_the_normals_it_reads(monkeypatch, trials, order, drawn):
    # a rank-2 pair's matrices are 4 x 2, 16 doubles each.  1000 trials
    # take 16 whole generations of normals: the matrices of 256 Haar trials
    # and the angles of 768 moves, where drawing every trial's matrix took
    # 17408 normals; the 64 trials of one generation are all Haar trials
    spies = []

    def streams(seed):
        normals, uniforms = real(seed)
        spies.append(_CountedNormals(normals))
        return spies[-1], uniforms

    real = gwlab.roof._streams
    monkeypatch.setattr(gwlab.roof, "_streams", streams)
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    assert _eigen_ensemble(pair).shape[0] == 2
    convex_roof_bounds(pair, trials=trials, seed=5, order=order)
    assert [spy.drawn for spy in spies] == [drawn]


@pytest.mark.parametrize("chunk", [1, 5])
def test_chunk_size_changes_no_draw(chunk):
    # 2100 trials are 33 generations, the last cut short: drawn in chunks of
    # 1, 5 or DRAW_CHUNK generations, every generation is the same bytes
    want = _generations(8, 2100, gwlab.roof.DRAW_CHUNK, 4, 2)
    got = _generations(8, 2100, chunk, 4, 2)
    assert len(got) == len(want) == 33
    for g, (x, y) in enumerate(zip(got, want)):
        assert _generation_bytes(x) == _generation_bytes(y), g


def test_longer_roof_draws_extend_shorter(monkeypatch):
    # the roof's draws of 1000 trials (16 generations, one chunk, the last
    # generation cut to 40 trials) are the first of its draws of 2100 trials
    # (three chunks): the first 15 generations whole, the 16th a prefix
    drawn = []
    real = gwlab.roof._draw_chunk

    def record(*args):
        chunk = real(*args)
        drawn[-1].extend(chunk)
        return chunk

    monkeypatch.setattr(gwlab.roof, "_draw_chunk", record)
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    for trials in (1000, 2100):
        drawn.append([])
        convex_roof_bounds(pair, trials=trials, seed=5, order=1.1)
    short, long = drawn
    assert (len(short), len(long)) == (16, 33)
    for g in range(15):
        assert _generation_bytes(short[g]) == _generation_bytes(long[g]), g
    (t, haar, sources, (pairs, *factors)), (t2, haar2, sources2, (pairs2, *factors2)) = (
        short[15], long[15])
    assert t.size == 1000 - 15 * GENERATION
    np.testing.assert_array_equal(t, t2[: t.size])
    np.testing.assert_array_equal(haar, haar2[: len(haar)])
    np.testing.assert_array_equal(sources, sources2[: sources.size])
    moves = pairs.shape[1]
    np.testing.assert_array_equal(pairs, pairs2[:, :moves])
    for x, y in zip(factors, factors2):
        np.testing.assert_array_equal(x, y[:moves])


@pytest.mark.parametrize("trials", [1, GENERATION, 1000, 2100])
def test_roof_builds_two_generators_per_call(monkeypatch, trials):
    # one normal and one uniform stream per roof call at any trial count,
    # not one generator per generation
    built = []
    real = np.random.default_rng

    def count(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", count)
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    convex_roof_bounds(pair, trials=trials, seed=5, order=1.1)
    assert len(built) == 2


class _ConstantUniforms:
    """A uniform stream whose every draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, out):
        out.fill(self.u)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
@pytest.mark.parametrize("u, rows", [(np.nextafter(1.0, 0.0), (-1, -2)), (0.0, (0, 1))],
                         ids=["largest-below-one", "zero"])
def test_row_indices_stay_in_range(m, u, rows):
    # rows k = floor(u m) and l = floor(u (m - 1)), l skipping k: the largest
    # double below 1 picks the last row and the one before it, 0 the first
    # two, at every isometry shape the roof draws (rank 1-4)
    streams = (np.random.default_rng(3), _ConstantUniforms(u))
    chunk = _draw_chunk(streams, 0, 3 * GENERATION, m, m - 2)
    for t, haar, sources, (pairs, *factors) in chunk[1:]:
        own = t[t % EXPLORE_CYCLE != 0] % 2 * m  # each move's incumbent's first row
        np.testing.assert_array_equal(pairs - own, np.repeat(np.array([rows]).T % m, own.size, 1))
        sources = sources.reshape(t.size, m)[t % EXPLORE_CYCLE != 0]
        assert ((sources >= 2 * m).sum(axis=1) == 2).all()
        assert (sources < 2 * (m + GENERATION)).all()


def _near_support_tol(factor):
    """A triple whose pair has smaller eigenvalue factor * SUPPORT_TOL: the
    eigenvalues lo and 1 - lo multiply to r (t_a + t_b)."""
    lo, t_a, t_b = factor * SUPPORT_TOL, 0.2, 0.4
    r = lo * (1.0 - lo) / (t_a + t_b)
    return 1.0 - t_a - t_b - r, t_a, t_b


#: (w, t_a, t_b): r = 1 - w - t_a - t_b = 0 at w = 0 and at w > 0; t_a = 0;
#: t_a = t_b = 0; w = 0 with r > 0; a generic triple; w = 0 with r and
#: t_a + t_b near 0.5, where 4 r (t_a + t_b) rounds above 1; the smaller
#: eigenvalue on either side of SUPPORT_TOL, which decides purity.
PAIR_TRIPLES = [(0.0, 0.3, 0.7), (0.2, 0.3, 0.5), (0.2, 0.0, 0.5), (0.3, 0.0, 0.0),
                (0.0, 0.3, 0.2), (0.1, 0.2, 0.3),
                (0.0, 0.43088240841168696, 0.06911759158831321),
                _near_support_tol(0.5), _near_support_tol(2.0)]


@pytest.mark.parametrize("w, t_a, t_b", PAIR_TRIPLES)
def test_pair_rows_are_a_unitary_image_of_the_eigen_ensemble(w, t_a, t_b):
    # the oracle's two rows decompose every pair, and the pair is pure when
    # its eigen-ensemble has one row; where that ensemble has two, both have
    # one isometry shape and differ by a unitary (Hughston, Jozsa and
    # Wootters): Haar draws applied to either have one law
    weights = [t_a, t_b, max(0.0, 1.0 - w - t_a - t_b)]
    pair = block_pair_reduction(GWBlocks(weights, (2, 2, 2), w), {0}, {1})
    (rows, pure), eigen = _pair_rows(w, t_a, t_b), _eigen_ensemble(pair)
    assert rows.shape == (2, 4) and pure == (len(eigen) == 1)
    assert np.abs(rows.T @ rows.conj() - pair.matrix).max() <= 1e-12
    if pure:
        return
    assert rows.shape == eigen.shape
    # eigh finds the smallest kept eigenvalue lo and its eigenvector to a few
    # ulps of the matrix, so that row of the eigen-ensemble, and U, carry
    # errors of up to about eps / lo: 1e-6 just above SUPPORT_TOL
    lo = pair.eigenvalues()[len(rows) - 1]
    tol = 1e-12 + 4.0 * np.finfo(float).eps / lo
    u = eigen @ np.linalg.pinv(rows)
    np.testing.assert_allclose(u @ rows, eigen, rtol=0.0, atol=tol)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(len(rows)), rtol=0.0, atol=tol)


def test_pure_state_has_unique_decomposition(bell_state):
    for rows in _draws(bell_state.density(), 3, 5, seed=3):
        for row in rows:
            w = float(np.vdot(row, row).real)
            if w > 1e-12:
                overlap = abs(np.vdot(row, bell_state.amplitudes)) / math.sqrt(w)
                assert overlap == pytest.approx(1.0, abs=1e-10)


def test_samples_reconstruct_state(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=4)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    for rows in _draws(rho, 4, 20, seed=17):
        recon = rows.T @ rows.conj()
        assert float(np.max(np.abs(recon - rho.matrix))) < 1e-10
        assert abs(float(np.vdot(rows, rows).real) - 1.0) < 1e-10


def test_sampling_is_deterministic(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=3)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    a = list(_draws(rho, 4, 10, seed=99))
    b = list(_draws(rho, 4, 10, seed=99))
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra, rb)


def test_roof_rejects_qutrit_pair():
    # the roof averages two-qubit components only; a pair of qutrits must
    # first become a qubit pair: the canonical pair of the pure state's
    # weights, or the dense compressed pair
    spec = GWSpec(n=3, d=3, amplitudes=np.full((3, 2), 1 / math.sqrt(6)))
    psi = superpose_with_vacuum(spec)
    rho = reduce_to_parties(psi, {0, 1})
    assert rho.layout.dims == (3, 3)
    with pytest.raises(ValueError, match="qubit pairs"):
        convex_roof_bounds(rho, trials=10)
    assert block_pair_reduction(psi, {0}, {1}).layout.dims == (2, 2)
    assert dense_block_pair(rho, {0}, {1}).layout.dims == (2, 2)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"trials": 0}, "trials must be >= 1, got 0"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"order": -1.0}, "order must be positive"),
        ({"order": math.inf}, "must be positive and finite"),
    ],
    ids=["trials-zero", "seed-negative", "bad-order", "infinite-order"],
)
def test_roof_checks_arguments_before_linear_algebra(monkeypatch, kwargs, message):
    pair = dense_block_pair(_figure1_pair(), {0}, {1})

    def refuse(*args):
        raise AssertionError("an eigen-decomposition ran before the checks")

    monkeypatch.setattr(gwlab.roof, "_eigen_ensemble", refuse)
    with pytest.raises(ValueError, match=message):
        convex_roof_bounds(pair, **kwargs)


@pytest.mark.parametrize(
    "parties, orders, trials, message",
    [
        (None, [1.1], 0, "trials must be >= 1, got 0"),
        (None, [1.1, -2.0], 10, "order must be positive"),
        # about 2e6 singleton pairs: the budget is checked before any is built
        (2000, [], 10, "MAX_ORACLE_TARGETS = 100000 oracle targets"),
    ],
    ids=["trials-zero", "last-order-bad", "too-many-targets"],
)
def test_oracle_reports_check_every_target_first(monkeypatch, parties, orders, trials, message):
    if parties is None:
        state, partition = _figure1_pair(), Partition.of(FIGURE1_PAIR)
    else:
        spec = GWSpec.qubit(np.full(parties, 1.0 / math.sqrt(parties)), 0.2)
        state, partition = GWBlocks.of(spec), Partition.singletons(parties)

    def refuse(*args):
        raise AssertionError("a reduction or roof ran before every target was checked")

    for name in ("block_pair_reduction", "gw_pairwise_concurrence", "_eigen_ensemble",
                 "_pair_rows", "_roof_estimates"):
        monkeypatch.setattr(gwlab.roof, name, refuse)
    monkeypatch.setattr(Partition, "block_sums", refuse)
    with pytest.raises(ValueError, match=message):
        oracle_reports(state, partition, orders, trials=trials, seed=3)


def test_roof_bounds_pin_featured_pair():
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    roof_min, roof_max, converged = convex_roof_bounds(pair, trials=3000, seed=5)
    closed = math.sqrt(2.0) / 2.0
    assert abs(roof_min - closed) < AGREEMENT_TOL
    assert abs(roof_max - closed) < AGREEMENT_TOL
    assert roof_min <= roof_max + 1e-9
    assert converged


def test_roof_bounds_pure_input(bell_state):
    roof_min, roof_max, converged = convex_roof_bounds(bell_state.density(), trials=200, seed=1)
    assert roof_min == pytest.approx(1.0, abs=1e-10)
    assert roof_max == pytest.approx(1.0, abs=1e-10)
    assert converged


def test_roof_min_vanishes_on_separable_mixture(bell_state):
    # the two-qubit closed form reports zero; the roof search must find a
    # decomposition certifying it
    q = 0.3
    mat = q * bell_state.density().matrix + (1 - q) * np.eye(4) / 4
    rho = DensityOperator(mat, SubsystemLayout((2, 2)))
    assert concurrence_two_qubit(rho) == 0.0
    roof_min, _, _ = convex_roof_bounds(rho, trials=20000, seed=11)
    assert roof_min <= 5e-3


def test_roof_separable_inputs_stay_small(rng):
    psi = np.kron(rand_unit(rng, 2), rand_unit(rng, 2))
    rho = DensityOperator(np.outer(psi, psi.conj()), SubsystemLayout((2, 2)))
    roof_min, _, _ = convex_roof_bounds(rho, trials=200, seed=2)
    assert roof_min <= 5e-3
    mixed = DensityOperator(np.eye(4) / 4, SubsystemLayout((2, 2)))
    roof_min, _, _ = convex_roof_bounds(mixed, trials=20000, seed=3)
    assert roof_min <= 5e-3


def test_roof_estimates_monotone_in_trials():
    pair = dense_block_pair(_figure1_pair(), {0}, {1})
    prev_min, prev_max = math.inf, -math.inf
    # counts on both sides of generation boundaries and of the first
    # DRAW_CHUNK boundary: a shorter run is a prefix of a longer one
    G = GENERATION
    assert 1024 == gwlab.roof.DRAW_CHUNK * G
    for trials in (1, 50, G - 1, G, G + 1, 3 * G + 5, 800, 1023, 1024, 1025):
        roof_min, roof_max, _ = convex_roof_bounds(pair, trials=trials, seed=21, order=1.1)
        assert roof_min <= prev_min + 1e-12
        assert roof_max >= prev_max - 1e-12
        prev_min, prev_max = roof_min, roof_max


def test_negativity_roof_matches_concurrence_on_family(rng):
    spec = random_gw_spec(rng, n_min=3, n_max=4)
    rho = reduce_to_parties(superpose_with_vacuum(spec), {0, 1})
    pair = dense_block_pair(rho, {0}, {1})
    closed = gw_pairwise_concurrence(rho, {0}, {1})
    # a pure two-qubit component has negativity equal to its concurrence, so
    # the concurrence roof is the negativity (CREN) roof
    for _ in range(5):
        psi = PureState(rand_unit(rng, 4), SubsystemLayout((2, 2)))
        cut = ({0}, {1})
        assert negativity(psi, cut) == pytest.approx(
            concurrence_pure(psi, cut), abs=1e-10
        )
    roof_min, roof_max, _ = convex_roof_bounds(pair, trials=3000, seed=8)
    assert abs(roof_min - closed) < AGREEMENT_TOL
    assert abs(roof_max - closed) < AGREEMENT_TOL


def test_verify_c_equals_ca_featured():
    report = verify_c_equals_ca(figure1_state(), trials=3000, seed=7, blocks=FIGURE1_PAIR)
    assert report.applicability == Applicability.APPLICABLE
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-10
    )


def test_verify_c_equals_ca_product_reduction():
    psi = build_w_qubit((1.0, 0.0, 0.0))
    report = verify_c_equals_ca(psi, trials=300, seed=7, blocks=({1}, {2}))
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(0.0, abs=1e-12)


def test_verify_c_equals_ca_random(rng):
    for _ in range(5):
        spec = random_gw_spec(rng, n_min=3, n_max=5)
        psi = superpose_with_vacuum(spec)
        keep = sorted(rng.choice(spec.n, size=2, replace=False))
        blocks = ({int(keep[0])}, {int(keep[1])})
        report = verify_c_equals_ca(psi, trials=2000, seed=int(rng.integers(1e6)),
                                    blocks=blocks)
        assert report.applicability == Applicability.APPLICABLE
        assert report.satisfied, report.params


def test_verify_e_alpha_min_side_matches():
    # the convex-roof side of the Renyi closed form holds; the assisted side
    # genuinely exceeds it on this family, which the oracle must surface
    # rather than hide
    psi = figure1_state()
    report = verify_e_alpha_formula(psi, 1.1, trials=4000, seed=7, blocks=FIGURE1_PAIR)
    closed = report.params["closed_form"]
    assert abs(report.params["roof_min"] - closed) < AGREEMENT_TOL
    assert report.params["roof_max"] > closed + 0.05
    if report.applicability == Applicability.APPLICABLE:
        assert not report.satisfied  # the finding is reported, not swallowed


def test_verify_e_alpha_out_of_window():
    psi = figure1_state()
    report = verify_e_alpha_formula(psi, 0.5, trials=100, seed=7, blocks=FIGURE1_PAIR)
    assert report.applicability == Applicability.OUT_OF_WINDOW


def test_verify_e_alpha_pure_maximally_entangled_pair():
    # the weight-one maximally entangled pair has a unique decomposition, so
    # every estimate equals the closed form exactly
    psi = build_w_qubit(np.ones(2) / math.sqrt(2.0))
    report = verify_e_alpha_formula(psi.density(), 2.0, trials=200, seed=4)
    assert report.applicability == Applicability.APPLICABLE
    assert report.satisfied
    assert report.params["closed_form"] == pytest.approx(1.0, abs=1e-12)
    assert report.params["roof_min"] == pytest.approx(1.0, abs=1e-12)
    assert report.params["roof_max"] == pytest.approx(1.0, abs=1e-12)
    assert report.params["max_side_checked"]  # rank-1 input


def test_assisted_average_exceeds_closed_form_exactly():
    # eigen-ensemble of the uniform three-party state's pair reduction:
    # weights (1/3, 2/3) with a product and a maximally entangled component
    w3 = build_w_qubit(np.ones(3) / math.sqrt(3))
    rho = reduce_to_parties(w3, {0, 1})
    evals, evecs = np.linalg.eigh(rho.matrix)
    avg = 0.0
    for lam, vec in zip(evals, evecs.T):
        if lam < 1e-12:
            continue
        mat = vec.reshape(2, 2)
        c2 = min(1.0, (2.0 * abs(np.linalg.det(mat))) ** 2)
        avg += lam * f_alpha(c2, 1.1)
    closed = f_alpha(gw_pairwise_concurrence(rho, {0}, {1}) ** 2, 1.1)
    assert avg == pytest.approx(2.0 / 3.0, abs=1e-10)
    assert avg > closed + 0.1


def test_unconverged_runs_are_flagged():
    # too few trials can never certify a Renyi plateau; a concurrence run
    # takes one generation, and every decomposition of a family pair averages
    # to C, so its min and max agree and it has converged
    psi = figure1_state()
    report = verify_e_alpha_formula(psi, 1.1, trials=10, seed=1, blocks=FIGURE1_PAIR)
    assert not report.params["converged"]
    assert report.applicability == Applicability.CONDITION_UNMET
    report = verify_c_equals_ca(psi, trials=10, seed=1, blocks=FIGURE1_PAIR)
    params = report.params
    assert params["trials"] == 10
    assert params["converged"] and params["roof_max"] - params["roof_min"] <= PLATEAU_TOL
    assert report.applicability == Applicability.APPLICABLE
    report = verify_c_equals_ca(psi, trials=1000, seed=1, blocks=FIGURE1_PAIR)
    assert report.params["trials"] == GENERATION and report.params["converged"]


def test_two_block_cover_is_pure_despite_rounding():
    # the two blocks hold every party, so r = 1 - w - t_a - t_b is 0, but it
    # rounds to about 1e-16: the pair is still pure by the eigen-ensemble's
    # rule, every decomposition gives the closed form, and the max side is
    # checked outside the concavity window (order 1.5) too
    amplitudes = np.random.default_rng(11).uniform(0.5, 1.0, 3)
    state = GWBlocks.of(GWSpec.qubit(amplitudes / np.linalg.norm(amplitudes), 0.2))
    partition = Partition.of([{0}, {1, 2}])
    t_a, t_b = partition.block_sums(state.weights).tolist()
    assert 1.0 - state.vacuum_weight - t_a - t_b > 0.0
    reports = oracle_reports(state, partition, [0.9, 1.2, 1.5], trials=300, seed=4)
    assert [report.name for report in reports] == ["c_equals_ca"] + ["e_alpha_formula"] * 3
    for report in reports:
        params = report.params
        assert abs(params["roof_min"] - params["closed_form"]) <= 1e-12
        assert abs(params["roof_max"] - params["closed_form"]) <= 1e-12
    assert reports[-1].params["alpha"] == 1.5 and reports[-1].params["max_side_checked"]


def test_concurrence_spread_beyond_plateau_tol_is_unconverged(monkeypatch):
    # a concurrence run whose min and max differ by more than PLATEAU_TOL
    # broke the identity sum_k p_k C_k = C: it is reported, not certified
    real = gwlab.roof._roof_estimates

    def spread(stacks, seed):
        low, _, converged = real(stacks, seed)
        return low, low + 2.0 * PLATEAU_TOL, converged

    monkeypatch.setattr(gwlab.roof, "_roof_estimates", spread)
    report = verify_c_equals_ca(figure1_state(), trials=100, seed=1, blocks=FIGURE1_PAIR)
    assert not report.params["converged"]
    assert report.applicability == Applicability.CONDITION_UNMET
    assert report.lhs is None and report.satisfied


def test_oracle_sums_blocks_once_and_builds_no_pair_partition(monkeypatch):
    # every block weight comes from one block_sums over the job's partition,
    # and the pairs come by index, with no partition built per pair
    n = 12
    amplitudes = np.random.default_rng(2).uniform(0.5, 1.0, n)
    state = GWBlocks.of(GWSpec.qubit(amplitudes / np.linalg.norm(amplitudes), 0.2))
    partition = Partition.singletons(n)
    sums, built = [], []
    real_sums, real_of = Partition.block_sums, Partition.of.__func__
    monkeypatch.setattr(Partition, "block_sums",
                        lambda self, values: sums.append(self) or real_sums(self, values))
    monkeypatch.setattr(Partition, "of",
                        classmethod(lambda cls, blocks: built.append(1) or real_of(cls, blocks)))
    reports = oracle_reports(state, partition, [1.1], trials=100, seed=2)
    assert len(reports) == n * (n - 1) // 2 + 1
    assert sums == [partition] and built == []


def test_oracle_memory_per_target_stays_bounded():
    # 100 singleton blocks of seeded distinct weights give 4950 distinct
    # concurrence runs of one shape; they step in stacks of GROUP_RUNS, so a
    # generation's temporaries do not grow with the target count.  Stepping
    # one run at a time once peaked at about 11.2 KB per target; these runs
    # of one generation peak at about 2.7 KB.
    n = 100
    amplitudes = np.random.default_rng(6).uniform(0.5, 1.0, n)
    state = GWBlocks.of(GWSpec.qubit(amplitudes / np.linalg.norm(amplitudes), 0.2))
    calls = []
    real = gwlab.roof._roof_estimates
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gwlab.roof, "_roof_estimates",
                          lambda stacks, seed: calls.append(sum(len(rows) for rows, _, _ in stacks))
                          or real(stacks, seed))
            reports = oracle_reports(state, Partition.singletons(n), trials=128, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 4950 and calls == [4950]
    assert peak / len(reports) <= 10.6e3
