"""The lockstep batch solve gives every pixel exactly what ``unmix()`` gives it.

``unmix_batch`` advances the pixels of a slice together, and ``unmix`` runs
the same loop on its one pixel. Each pixel's arithmetic must not depend on
the others in its slice, so every field of every ``Solution`` must match
byte for byte, and a failed pixel must carry the message of the error the
one-pixel solve raises. Small batches make slices of a few pixels, where
ties, clipping and failures meet other pixels in the same round.
"""

import importlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unmix import (
    BatchJob,
    RankDeficientLibrary,
    Solution,
    SolverConfig,
    SolveStatus,
    SpectralLibrary,
    UnmixingProblem,
    brute_force_solve,
    shift_problem,
    unmix,
    unmix_batch,
    verify_kkt,
)
from instances import assert_matches_unmix, counted_starts, field_bytes, refined_start


batch_module = importlib.import_module("unmix.batch")
active_set_module = importlib.import_module("unmix.active_set")
# Libraries with fewer endmembers solve each round in stacked calls.
CROSSOVER = active_set_module._STACKED_BELOW


@st.composite
def batches(draw):
    """A small library, pixels, bounds and config, with degenerate cases on purpose.

    ``ties`` uses an identity library and integer spectra, so several
    coordinates reach zero at exactly the same step; ``mirrored`` makes
    endmembers 0 and 1 images of each other under a swap of bands 0 and 1,
    so they reach zero within roundoff of each other; ``duplicated`` repeats
    a column and ``zero`` zeroes one. Other libraries scale each column by
    ``10^e``, with e within one of a draw from -7 to 7, and about a third
    have fewer bands than endmembers, where every solve starts at a vertex.
    Multipliers scale with the Gram matrix, so ``dual_tol`` scales with it.
    One-hot bounds sum to exactly 1 and leave a zero budget.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = draw(st.integers(1, 15))
    kind = draw(st.sampled_from(["random", "ties", "mirrored", "duplicated", "zero"]))
    m = draw(st.integers(1, 6 if p <= 10 else 2))
    scale = 1.0
    if kind == "ties":
        library = 2.0 * np.eye(p)
        pixels = rng.integers(-2, 4, size=(p, m)).astype(float)
    else:
        n_bands = draw(st.integers(2, p + 4))
        scale = 10.0 ** draw(st.integers(-7, 7))
        library = rng.random((n_bands, p)) * scale * 10.0 ** rng.uniform(-1.0, 1.0, size=p)
        abundances = rng.dirichlet(np.full(p, 0.5), size=m).T
        abundances[rng.random(abundances.shape) < draw(st.sampled_from([0.0, 0.8]))] = 0.0
        pixels = library @ abundances + 0.05 * scale * rng.standard_normal((n_bands, m))
        if kind == "duplicated" and p > 1:
            library[:, 1] = library[:, 0]
        if kind == "mirrored" and p > 1:
            library[1, 2:] = library[0, 2:]
            library[:, 1] = library[[1, 0, *range(2, n_bands)], 0]
            pixels[1] = pixels[0]
        if kind == "zero":
            library[:, rng.integers(p)] = 0.0
    bounds = draw(st.sampled_from(["zero", "random", "one-hot"]))
    if bounds == "zero":
        bounds = None
    elif bounds == "random":
        bounds = rng.dirichlet(np.ones(p)) * 0.5
    else:
        bounds = np.eye(p)[rng.integers(p)]
    if draw(st.booleans()):
        pixels[:, rng.integers(m)] = np.nan
    config = SolverConfig(
        tie_break=draw(st.sampled_from(["smallest", "random"])),
        tie_seed=draw(st.integers(0, 3)),
        max_outer_iterations=draw(st.sampled_from([None, 1, 2])),
        dual_tol=1e-10 * scale**2,
    )
    return SpectralLibrary(library), pixels, bounds, config


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches())
def test_lockstep_batch_equals_per_pixel_solves(batch):
    library, pixels, bounds, config = batch
    solutions = unmix_batch(BatchJob(library, pixels, bounds, config))
    assert_matches_unmix(solutions, library, pixels, bounds, config)
    for column, solution in enumerate(solutions):
        # Sorted although each solve keeps its free set in its factor's order.
        assert (np.diff(solution.final_free) > 0).all()
        support = library.entries[:, solution.final_free]
        if (solution.status is not SolveStatus.OPTIMAL
                or np.linalg.matrix_rank(support) < solution.final_free.size):
            continue
        # The optimal fit A x is unique; x is where the library has full rank.
        oracle = brute_force_solve(shift_problem(UnmixingProblem(library, pixels[:, column],
                                                                 bounds)), config)
        assert abs(solution.objective - oracle.objective) <= 1e-9 * max(1.0, oracle.objective)
        fit = library.entries @ (solution.shifted_abundances - oracle.shifted_abundances)
        assert np.abs(fit).max() <= 1e-6 * np.abs(library.entries).max()
        if np.linalg.matrix_rank(library.entries) == library.n_endmembers:
            assert np.abs(solution.shifted_abundances - oracle.shifted_abundances).max() <= 1e-6


def test_lockstep_breaks_exact_ties_like_the_per_pixel_path():
    # ``tied`` refines its start on its probe's positive support and meets
    # an exact tie whose choice changes the path: one tied index takes 2
    # iterations, the other 3. The library is L^T for an integer
    # lower-triangular L with pivots 1 and 2, so L is the exact Cholesky
    # factor of the Gram matrix and the forward solves divide only by 1 and
    # 2. The probe is (1.25, 1.625, 0.375, -0.5, 0.75, -2.5), and the
    # candidate on its support {0, 1, 2, 4} is exactly (0.5, 0.5, 0, 0),
    # feasible and accepted as iteration 0. Once 3 is released, the next
    # candidate takes coordinates 2 and 4 below zero from exactly 0, and
    # they tie at a step of 0.
    library = SpectralLibrary([[1.0, 1.0, 1.0, 0.0, -1.0, 1.0], [0.0, 2.0, 0.0, 1.0, 1.0, 1.0],
                               [0.0, 0.0, 2.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, 2.0, 0.0, -1.0],
                               [0.0, 0.0, 0.0, 0.0, 2.0, 1.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]])
    tied = np.array([-1.0, 1.0, 0.0, 1.0, -2.0, -2.0])
    pixels = np.column_stack([tied, [1.0, 0.5, 2.0, 0.0, 1.0, 0.5], tied])
    paths = set()
    for tie_seed in range(4):
        config = SolverConfig(tie_break="random", tie_seed=tie_seed)
        solutions = unmix_batch(BatchJob(library, pixels, config=config))
        assert_matches_unmix(solutions, library, pixels, None, config)
        paths.add(solutions[0].outer_iterations)
    assert paths == {2, 3}


@pytest.mark.parametrize("n_endmembers", [CROSSOVER - 1, CROSSOVER],
                         ids=["stacked", "kept"])
def test_lockstep_equals_per_pixel_solves_on_a_224_band_library(n_endmembers):
    # 160 pixels span two lockstep slices on either back end; one pixel
    # is NaN.
    rng = np.random.default_rng(20261018)
    library = SpectralLibrary(rng.random((224, n_endmembers)))
    pixels = library.entries @ rng.dirichlet(np.full(n_endmembers, 0.3), size=160).T
    pixels += 0.01 * rng.standard_normal(pixels.shape)
    pixels[:, 100] = np.nan
    bounds = rng.dirichlet(np.ones(n_endmembers)) * 0.3
    solutions = unmix_batch(BatchJob(library, pixels, bounds))
    assert batch_module._SLICE_FACTOR_BYTES // (8 * n_endmembers**2) < 160
    assert sum(s.status is SolveStatus.OPTIMAL for s in solutions) == 159
    assert_matches_unmix(solutions, library, pixels, bounds, SolverConfig())


@pytest.mark.parametrize("seed", [0, 4])
def test_a_wide_library_fails_only_the_pixel_whose_optimum_needs_more_bands(seed):
    # 12 endmembers over 8 bands, solved in stacked calls. The middle pixel is
    # the library's mean, inside the hull of all 12 spectra: its solve frees
    # a ninth variable, whose block cannot be full rank. Its neighbours fit
    # on a few endmembers. At seed 4 the 9 x 9 block passes the pivot test
    # by roundoff, so only the free set's size shows it singular.
    rng = np.random.default_rng(seed)
    library = SpectralLibrary(rng.random((8, 12)))
    assert library.n_endmembers < CROSSOVER
    inside = library.entries @ np.full(12, 1 / 12)
    pixels = np.column_stack([library.entries[:, [0, 5]] @ np.array([0.6, 0.4]), inside,
                              library.entries[:, 3] + 0.01])
    solutions = unmix_batch(BatchJob(library, pixels))
    assert [s.status for s in solutions] == [SolveStatus.OPTIMAL, SolveStatus.FAILED,
                                             SolveStatus.OPTIMAL]
    assert solutions[1].message.endswith(
        "(9 free variables exceed the 8 spectral bands, so the block cannot be full rank)")
    with pytest.raises(RankDeficientLibrary) as raised:
        unmix(UnmixingProblem(library, inside))
    assert solutions[1].message == f"RankDeficientLibrary: {raised.value}"
    assert_matches_unmix(solutions, library, pixels, None, SolverConfig())


def _clip_instance():
    """An identity library of 7 bands and endmembers, with an eighth band
    and an eighth endmember that couple them, and a pixel."""
    entries = np.eye(8)
    entries[:7, 7] = [1.0, 1.0, 0.0, 0.5, 0.0, 0.0, 1.0]
    entries[7] = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
    return SpectralLibrary(entries), np.array([0.2, 0.2, 0.7, 0.7, -0.6, -0.6, -0.2, 0.5])


def test_tied_coordinate_that_lands_below_zero_is_clipped():
    # ``tied`` refines its start on {0, 1, 2, 3}, whose candidate is
    # (0, 0, 0.5, 0.5) up to roundoff: coordinates 0 and 1 both hold 8.3e-17,
    # so it is feasible and accepted as iteration 0. Once 7 is released, the
    # next step takes 0 and 1 to zero at an exact tie: 0 blocks, and 1
    # lands at -1.2e-32 before the clip. With a cap of 1 that iterate is
    # the answer, so it must read exactly 0 on both paths.
    library, tied = _clip_instance()
    config = SolverConfig(max_outer_iterations=1)
    single = unmix(UnmixingProblem(library, tied), config)
    assert single.status is SolveStatus.MAX_ITERATIONS
    assert list(single.final_free) == [1, 2, 3, 7]
    assert single.shifted_abundances[1] == 0.0
    assert single.shifted_abundances.min() >= 0.0
    pixels = np.column_stack([tied, -tied[::-1], tied])
    solutions = unmix_batch(BatchJob(library, pixels, config=config))
    assert_matches_unmix(solutions, library, pixels, None, config)


_MAX = np.finfo(float).max
_GRAM = "NonFiniteInput: gram contains NaN or infinite values"


@pytest.mark.parametrize("entries, pixel, bounds, failures", [
    # A NaN pixel fails the measurement check.
    (np.eye(3) + 0.5, np.array([0.2, np.nan, 0.3]), None,
     [None, "NonFiniteInput: measurement contains NaN or infinite values", None]),
    # A finite pixel whose linear term A^T y overflows.
    (np.eye(3) + 0.5, np.full(3, _MAX), None,
     [None, "NonFiniteInput: linear contains NaN or infinite values", None]),
    # A finite pixel whose target y - A lb overflows. With |A lb| bounded by
    # the largest entry, that takes a library whose Gram overflows too, and
    # the Gram is reported first.
    (np.full((2, 2), 1e300), np.full(2, -_MAX), np.array([0.5, 0.25]), [_GRAM] * 3),
    # Bounds that sum to exactly 1: a zero budget, solved at the origin.
    (np.eye(3) + 0.5, np.array([0.2, 0.7, 0.3]), np.array([0.25, 0.25, 0.5]), [None] * 3),
    # Libraries whose Gram overflows, in A^T A or in the symmetrizing sum.
    (np.full((2, 2), 1e200), np.ones(2), None, [_GRAM] * 3),
    (np.full((2, 2), 0.8e154), np.ones(2), None, [_GRAM] * 3),
], ids=["nan-pixel", "linear-overflows", "target-overflows", "zero-budget",
        "gram-overflows-in-product", "gram-overflows-in-sum"])
def test_batch_equals_unmix_at_the_edges_of_the_shift(entries, pixel, bounds, failures):
    library = SpectralLibrary(entries)
    finite = library.entries @ np.full(library.n_endmembers, 1.0 / library.n_endmembers)
    pixels = np.column_stack([finite, pixel, finite])
    if bounds is not None and bounds.sum() < 1.0:
        with np.errstate(over="ignore"):
            assert np.isinf(pixel - library.entries @ bounds).all()
    solutions = unmix_batch(BatchJob(library, pixels, bounds))
    assert_matches_unmix(solutions, library, pixels, bounds, SolverConfig())
    assert [s.message or None for s in solutions] == failures
    if bounds is not None and bounds.sum() == 1.0:
        assert all(s.outer_iterations == 0 for s in solutions)
        np.testing.assert_array_equal(solutions[1].abundances, bounds)


def _assert_certified_at_the_iterate(library, pixel):
    shifted = shift_problem(UnmixingProblem(library, pixel))
    solution = unmix(UnmixingProblem(library, pixel))
    assert solution.status is SolveStatus.OPTIMAL
    x = solution.shifted_abundances
    pinned = np.ones(x.size, dtype=bool)
    pinned[solution.final_free] = False
    priced = shifted.gram @ x - shifted.linear + solution.eq_multiplier
    np.testing.assert_allclose(solution.ineq_multipliers[pinned], priced[pinned],
                               rtol=0, atol=1e-12)
    assert not solution.ineq_multipliers[~pinned].any()
    assert verify_kkt(shifted, x, solution.eq_multiplier, solution.ineq_multipliers).satisfied
    return solution


def test_multipliers_are_priced_at_the_returned_iterate():
    # The clip instance above, solved to the end.
    _assert_certified_at_the_iterate(*_clip_instance())
    # The optimum on {0, 1, 2} has x_2 = -5e-11, inside primal_tol, so the
    # accepted candidate is clipped to 0 there; endmember 3 is pinned with a
    # positive multiplier. Priced at the unclipped candidate, that multiplier
    # is off by G_32 * 5e-11, about 1e-10.
    rng = np.random.default_rng(0)
    entries = rng.random((8, 4))
    free = entries[:, :3]
    away = entries[:, 3] - free @ np.linalg.lstsq(free, entries[:, 3], rcond=None)[0]
    pixel = entries @ np.array([0.6, 0.4 + 5e-11, -5e-11, 0.0]) - 0.5 * away
    solution = _assert_certified_at_the_iterate(SpectralLibrary(entries), pixel)
    np.testing.assert_array_equal(solution.final_free, [0, 1, 2])
    assert solution.shifted_abundances[2] == 0.0


@pytest.mark.parametrize("n_endmembers, n_pixels, slices", [
    (10, 2700, [2621, 79]),   # 2 MiB of 10 x 10 arrays, then the rest
    (100, 53, [26, 26, 1]),   # a slice of one pixel runs the same loop
    (CROSSOVER - 1, 200, [89, 89, 22]),  # 2 MiB of stacked 54 x 54 blocks
])
def test_every_slice_is_solved_in_lockstep(monkeypatch, n_endmembers, n_pixels, slices):
    calls = []
    lockstep = batch_module._solve_lockstep

    def counted(problems, config, failures):
        calls.append(len(problems))
        return lockstep(problems, config, failures)

    monkeypatch.setattr(batch_module, "_solve_lockstep", counted)
    rng = np.random.default_rng(n_pixels)
    library = SpectralLibrary(rng.random((n_endmembers + 4, n_endmembers)))
    pixels = library.entries @ rng.dirichlet(np.ones(n_endmembers), size=n_pixels).T
    solutions = unmix_batch(BatchJob(library, pixels))
    assert calls == slices
    assert all(s.status is SolveStatus.OPTIMAL for s in solutions)


def _refining_scene(rng, n_endmembers, bounded):
    """A library, bounds and pixels that take each start: four noiseless
    pixels well inside the simplex (the probe is accepted), then three
    pixels each that refine their start on 1, 2 and 3 or more free sets,
    the first such of a stream of noisy dense and 2-sparse pixels."""
    library = SpectralLibrary(rng.random((224, n_endmembers)))
    bounds = rng.dirichlet(np.ones(n_endmembers)) * 0.1 if bounded else None
    inside = library.entries @ rng.dirichlet(np.full(n_endmembers, 20.0), size=4).T
    chosen = {1: [], 2: [], 3: []}
    while min(map(len, chosen.values())) < 3:
        abundances = rng.dirichlet(np.full(n_endmembers, 0.3))
        if rng.random() < 0.5:
            abundances = np.zeros(n_endmembers)
            abundances[rng.choice(n_endmembers, 2, replace=False)] = rng.dirichlet(np.ones(2))
        pixel = library.entries @ abundances + 0.01 * rng.standard_normal(224)
        shifted = shift_problem(UnmixingProblem(library, pixel, bounds))
        depth = min(len(refined_start(shifted)[0]), 3)
        if depth and len(chosen[depth]) < 3:
            chosen[depth].append(pixel)
    return library, bounds, np.column_stack([inside, *chosen[1], *chosen[2], *chosen[3]])


@pytest.mark.parametrize("bounded", [False, True], ids=["zero bounds", "bounds"])
@pytest.mark.parametrize("n_endmembers", [10, 30, 60])
def test_a_pixel_answer_does_not_depend_on_its_slice(monkeypatch, n_endmembers, bounded):
    # P = 10 and 30 solve their rounds in stacked calls, 60 on kept systems.
    # Slices of 1 and 3 pixels and the default one, which holds all
    # thirteen, give each pixel the bytes of unmix() of its column, whether
    # it keeps its probe or refines its start on 1, 2 or 3 or more free
    # sets, each of whose rounds meets the other pixels' rounds.
    rng = np.random.default_rng(n_endmembers)
    library, bounds, pixels = _refining_scene(rng, n_endmembers, bounded)
    default = batch_module._SLICE_FACTOR_BYTES
    assert default // (8 * n_endmembers**2) >= pixels.shape[1]
    for width in (1, 3, None):
        monkeypatch.setattr(batch_module, "_SLICE_FACTOR_BYTES",
                            default if width is None else width * 8 * n_endmembers**2)
        solutions = unmix_batch(BatchJob(library, pixels, bounds))
        assert_matches_unmix(solutions, library, pixels, bounds, SolverConfig())
        starts = counted_starts(library, pixels, bounds, solutions)
        assert starts == {"uniform": 4, "refined": 9}, starts


_NAN_MEASUREMENT = "NonFiniteInput: measurement contains NaN or infinite values"


@pytest.mark.parametrize("kept", [False, True], ids=["stacked", "kept"])
@pytest.mark.parametrize("n_endmembers", [12, 60])
def test_a_slice_in_which_every_pixel_fails_its_checks_fails_every_pixel(
        monkeypatch, n_endmembers, kept):
    monkeypatch.setattr(active_set_module, "_STACKED_BELOW", 0 if kept else n_endmembers + 1)
    library = SpectralLibrary(np.random.default_rng(n_endmembers).random((70, n_endmembers)))
    pixels = np.full((70, 5), np.nan)
    solutions = unmix_batch(BatchJob(library, pixels))
    assert [s.status for s in solutions] == [SolveStatus.FAILED] * 5
    assert [s.message for s in solutions] == [_NAN_MEASUREMENT] * 5
    assert_matches_unmix(solutions, library, pixels, None, SolverConfig())


@pytest.mark.parametrize("kept", [False, True], ids=["stacked", "kept"])
@pytest.mark.parametrize("n_endmembers", [12, 60])
def test_a_zero_budget_slice_solves_its_finite_pixels_at_the_bounds(
        monkeypatch, n_endmembers, kept):
    # Bounds that sum to exactly 1 leave no budget: every finite pixel is
    # certified at the origin of the shifted problem, while the NaN pixel
    # in the middle of the slice fails alone.
    monkeypatch.setattr(active_set_module, "_STACKED_BELOW", 0 if kept else n_endmembers + 1)
    rng = np.random.default_rng(n_endmembers + 1)
    library = SpectralLibrary(rng.random((70, n_endmembers)))
    bounds = np.zeros(n_endmembers)
    bounds[[1, 4, 7]] = 0.5, 0.25, 0.25
    pixels = library.entries @ rng.dirichlet(np.ones(n_endmembers), size=5).T
    pixels[:, 2] = np.nan
    solutions = unmix_batch(BatchJob(library, pixels, bounds))
    assert_matches_unmix(solutions, library, pixels, bounds, SolverConfig())
    assert solutions[2].message == _NAN_MEASUREMENT
    for column in (0, 1, 3, 4):
        solution = solutions[column]
        assert solution.status is SolveStatus.OPTIMAL and solution.outer_iterations == 0
        np.testing.assert_array_equal(solution.abundances, bounds)


def test_bad_pixels_in_the_middle_of_a_slice_fail_alone():
    # One slice of 72 pixels at P = 30 holds a NaN pixel at column 5 and, at
    # 40, a finite pixel whose residual constant overflows.
    rng = np.random.default_rng(20261019)
    library = SpectralLibrary(rng.random((224, 30)))
    pixels = library.entries @ rng.dirichlet(np.full(30, 0.3), size=72).T
    pixels += 0.01 * rng.standard_normal(pixels.shape)
    assert batch_module._SLICE_FACTOR_BYTES // (8 * 30**2) >= 72
    bad = pixels.copy()
    bad[:, 5] = np.nan
    bad[:, 40] = 1e160 * (library.entries @ rng.dirichlet(np.ones(30)))
    solutions = unmix_batch(BatchJob(library, bad))
    assert [s.message for s in solutions if s.status is SolveStatus.FAILED] == [
        "NonFiniteInput: measurement contains NaN or infinite values",
        "NonFiniteInput: const_term contains NaN or infinite values"]
    assert solutions[5].status is solutions[40].status is SolveStatus.FAILED
    good = np.delete(np.arange(72), [5, 40])
    reference = unmix_batch(BatchJob(library, pixels[:, good]))
    for batched, alone in zip([solutions[column] for column in good], reference):
        for name in Solution.__dataclass_fields__:
            assert field_bytes(getattr(batched, name)) == field_bytes(getattr(alone, name)), name
