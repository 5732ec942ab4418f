import numpy as np
import pytest

from unmix import (
    EmptyFreeSet,
    RankDeficientLibrary,
    factorize,
    solve_subproblem,
)
from scipy.linalg.lapack import dtrtrs

from unmix.kkt import KeptSystem, solve_stacked
from instances import random_spd_system


def _kept(gram, free, linear=None):
    # A system that has factorized its free set at its first solve.
    linear = np.zeros(gram.shape[0]) if linear is None else linear
    system = KeptSystem(gram, linear, free)
    system.solve(1.0)
    return system


def _assert_forward_solves(system, gram, linear, free):
    # Z = L^{-1} [g_F, 1], whatever chain of modifications produced L.
    rhs = np.column_stack((linear[free], np.ones(len(free))))
    expected, _ = dtrtrs(system.lower, rhs, lower=1)
    np.testing.assert_allclose(system.forward, expected, rtol=0, atol=1e-12)


def _assert_factors_block(factor, gram, free):
    block = gram[np.ix_(free, free)]
    scale = max(1.0, np.abs(block).max())
    assert (factor.lower.diagonal() > 0.0).all()
    np.testing.assert_array_equal(factor.lower, np.tril(factor.lower))
    assert np.abs(factor.lower @ factor.lower.T - block).max() <= 1e-12 * scale


def test_identity_restriction_factors_to_identity():
    np.testing.assert_array_equal(factorize(np.eye(3), [0, 2]), np.eye(2))


def test_duplicated_columns_are_rank_deficient():
    column = np.array([1.0, 2.0, 3.0])
    entries = np.column_stack([column, column, np.array([0.0, 1.0, 0.0])])
    gram = entries.T @ entries
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 1])


def test_factor_reconstructs_restricted_block():
    rng = np.random.default_rng(11)
    for _ in range(25):
        gram, _, _ = random_spd_system(rng)
        k = gram.shape[0]
        free = np.sort(rng.choice(k, size=rng.integers(1, k + 1), replace=False))
        lower = factorize(gram, free)
        block = gram[np.ix_(free, free)]
        scale = max(1.0, np.abs(block).max())
        reconstruction = lower @ lower.T
        assert np.abs(reconstruction - block).max() <= 1e-12 * scale


def test_more_free_variables_than_bands_is_rank_deficient():
    rng = np.random.default_rng(12)
    entries = rng.standard_normal((2, 4))
    gram = entries.T @ entries
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 1, 2])


def test_empty_free_set_is_rejected():
    with pytest.raises(EmptyFreeSet):
        factorize(np.eye(2), [])
    with pytest.raises(EmptyFreeSet):
        solve_subproblem(np.eye(2), np.zeros(2), 1.0, [])


def test_singleton_free_set_is_forced_by_the_budget():
    gram = np.array([[2.0, 0.3], [0.3, 1.0]])
    linear = np.array([0.9, -0.2])
    sub = solve_subproblem(gram, linear, 0.7, [0])
    assert sub.free_values == pytest.approx([0.7])
    # On a single coordinate the multiplier is linear - diag * budget.
    assert sub.multiplier == pytest.approx(0.9 - 2.0 * 0.7)


def test_identity_gram_closed_form():
    sub = solve_subproblem(np.eye(2), np.array([0.6, 0.2]), 1.0, [0, 1])
    assert sub.multiplier == pytest.approx(-0.1)
    np.testing.assert_allclose(sub.free_values, [0.7, 0.3], atol=1e-14)


def _bordered_residual(gram, linear, budget, free, sub):
    # Plug the solution into the full (|F|+1) bordered system.
    free = np.asarray(free, dtype=int)
    block = gram[np.ix_(free, free)]
    top = block @ sub.free_values + sub.multiplier - linear[free]
    bottom = sub.free_values.sum() - budget
    return np.abs(top).max(), abs(bottom)


def test_bordered_system_residual_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(200):
        gram, linear, budget = random_spd_system(rng)
        free = np.arange(gram.shape[0])
        sub = solve_subproblem(gram, linear, budget, free)
        top, bottom = _bordered_residual(gram, linear, budget, free, sub)
        bound = 1e-9 * max(1.0, np.abs(linear).max())
        assert top <= bound
        assert bottom <= 1e-9 * max(1.0, budget)


def test_solution_is_invariant_under_free_set_permutation():
    rng = np.random.default_rng(14)
    for _ in range(50):
        gram, linear, budget = random_spd_system(rng)
        k = gram.shape[0]
        ordered = solve_subproblem(gram, linear, budget, np.arange(k))
        perm = rng.permutation(k)
        shuffled = solve_subproblem(gram, linear, budget, perm)
        restored = np.empty(k)
        restored[perm] = shuffled.free_values
        assert np.abs(restored - ordered.free_values).max() <= 1e-9
        assert shuffled.multiplier == pytest.approx(ordered.multiplier, abs=1e-9)


def test_schur_denominator_is_positive_on_every_solve():
    # Consequence of positive definiteness: 1^T G_FF^{-1} 1 > 0.
    rng = np.random.default_rng(15)
    for _ in range(50):
        gram, _, _ = random_spd_system(rng)
        assert np.linalg.solve(gram, np.ones(gram.shape[0])).sum() > 0.0


def test_free_indices_out_of_range_are_rejected():
    with pytest.raises(IndexError):
        factorize(np.eye(2), [0, 2])


def test_free_indices_must_be_integers():
    # Cast to integers, [0.5, 1.7] would solve on [0, 1], and a boolean mask
    # would be read as the indices [1, 0, 1, 1] and fail as rank deficient.
    gram = np.diag([1.0, 2.0, 3.0, 4.0])
    for free in ([0.5, 1.7], np.array([True, False, True, True])):
        with pytest.raises(IndexError, match="free indices must be integers"):
            solve_subproblem(gram, np.zeros(4), 1.0, free)
        with pytest.raises(IndexError, match="free indices must be integers"):
            factorize(gram, free)
        with pytest.raises(IndexError, match="free indices must be integers"):
            KeptSystem(gram, np.zeros(4), free)
    sub = solve_subproblem(gram, np.zeros(4), 1.0, np.array([0, 2], dtype=np.int32))
    np.testing.assert_allclose(sub.free_values, [0.75, 0.25], rtol=0, atol=1e-15)
    with pytest.raises(EmptyFreeSet):  # an empty list is no float array
        KeptSystem(gram, np.zeros(4), []).solve(1.0)


def test_downdate_at_every_position_factors_the_reduced_block():
    rng = np.random.default_rng(16)
    for _ in range(40):
        gram, linear, _ = random_spd_system(rng, size=rng.integers(2, 13))
        k = gram.shape[0]
        free = np.sort(rng.choice(k, size=rng.integers(2, k + 1), replace=False))
        for position in range(free.size):
            system = _kept(gram, free, linear)
            system.remove(free[position])
            reduced = np.delete(free, position)
            np.testing.assert_array_equal(system.free, reduced)
            _assert_factors_block(system, gram, reduced)
            _assert_forward_solves(system, gram, linear, reduced)
            np.testing.assert_array_equal(system.diagonal, gram.diagonal()[reduced])


def test_chain_of_downdates_down_to_one_column():
    rng = np.random.default_rng(17)
    for _ in range(20):
        gram, linear, _ = random_spd_system(rng, size=12)
        free = np.arange(12)
        system = _kept(gram, free, linear)
        while free.size > 1:
            position = int(rng.integers(free.size))
            system.remove(free[position])
            free = np.delete(free, position)
            _assert_factors_block(system, gram, free)
            _assert_forward_solves(system, gram, linear, free)
            assert system.top == gram.diagonal()[free].max()
        with pytest.raises(EmptyFreeSet):
            system.remove(free[0])


def test_downdated_factor_gives_the_fresh_subproblem_solution():
    rng = np.random.default_rng(18)
    for _ in range(30):
        gram, linear, budget = random_spd_system(rng, size=10)
        free = np.arange(10)
        system = _kept(gram, free, linear)
        system.remove(4)
        free = np.delete(free, 4)
        kept = solve_subproblem(gram, linear, budget, free, factor=system)
        fresh = solve_subproblem(gram, linear, budget, free)
        np.testing.assert_allclose(kept.free_values, fresh.free_values, rtol=0, atol=1e-10)
        assert kept.multiplier == pytest.approx(fresh.multiplier, abs=1e-10)


def test_near_dependent_pair_is_rank_deficient_on_both_paths():
    # Library columns a0 = (1, 0, 0) and a2 = (1, 0, 1e-9) are near-dependent;
    # a1 sits between them. The factor is built by hand because factorize
    # rejects the block, so removing a1 exercises the deletion's own rank test.
    lower = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [1.0, 0.0, 1e-9]])
    gram = lower @ lower.T
    system = KeptSystem(gram, np.zeros(3), [0, 1, 2], lower)
    forward = system.forward
    with pytest.raises(RankDeficientLibrary):
        system.remove(1)
    assert system.lower is lower and system.forward is forward
    np.testing.assert_array_equal(system.free, [0, 1, 2])
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 2])
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 1, 2])


def test_downdate_position_out_of_range_is_rejected():
    system = _kept(np.eye(4), [0, 1, 2])
    with pytest.raises(IndexError):  # variable 3 is not free
        system.remove(3)
    np.testing.assert_array_equal(system.free, [0, 1, 2])


@pytest.mark.parametrize("n_bands, n_endmembers", [(60, 50), (30, 45)])
def test_appends_reproduce_the_block_in_factor_order(n_bands, n_endmembers):
    # Up to 40 columns, and up to 30 of 45 endmembers in 30 bands (P > N).
    rng = np.random.default_rng(n_endmembers)
    entries = rng.random((n_bands, n_endmembers))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(n_bands)
    order = rng.permutation(n_endmembers)[:min(40, n_bands)]
    system = _kept(gram, order[:1], linear)
    for size in range(1, order.size):
        system.add(order[size])
        system.solve(1.0)
        np.testing.assert_array_equal(system.free, order[:size + 1])
        _assert_factors_block(system, gram, order[:size + 1])
        _assert_forward_solves(system, gram, linear, order[:size + 1])
        assert system.order == n_endmembers
        np.testing.assert_array_equal(system.diagonal, gram.diagonal()[order[:size + 1]])
        assert system.top == gram.diagonal()[order[:size + 1]].max()


def test_appended_factor_gives_the_fresh_subproblem_solution():
    rng = np.random.default_rng(19)
    entries = rng.random((224, 100))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(224)
    for size in (1, 2, 10, 40):
        order = rng.permutation(100)[:size + 1]
        system = _kept(gram, order[:size], linear)
        system.add(order[size])
        kept = solve_subproblem(gram, linear, 0.7, order, factor=system)
        fresh = solve_subproblem(gram, linear, 0.7, np.sort(order))
        restored = kept.free_values[np.argsort(order)]
        np.testing.assert_allclose(restored, fresh.free_values, rtol=0, atol=1e-9)
        assert kept.multiplier == pytest.approx(fresh.multiplier, abs=1e-9)


def test_appending_a_duplicate_or_an_excess_column_is_rank_deficient():
    rng = np.random.default_rng(20)
    for n_bands in (2, 5, 12):
        entries = rng.random((n_bands, n_bands + 2))
        entries[:, -1] = entries[:, 0]
        gram = entries.T @ entries
        full = _kept(gram, np.arange(n_bands))
        full.add(n_bands)
        with pytest.raises(RankDeficientLibrary):  # the (N+1)-th column
            full.solve(1.0)
        assert len(full.diagonal) == n_bands and full.lower.shape == (n_bands, n_bands)
        duplicate = _kept(gram, [0])
        duplicate.add(n_bands + 1)
        with pytest.raises(RankDeficientLibrary):  # a duplicate of column 0
            duplicate.solve(1.0)
    # Exact arithmetic: a2 = a0 + a1 leaves a pivot of exactly 0.
    gram = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    dependent = _kept(gram, [1, 0])
    dependent.add(2)
    with pytest.raises(RankDeficientLibrary):
        dependent.solve(1.0)


def test_a_larger_diagonal_raises_the_floor_above_an_old_pivot():
    # Columns (1, 0, 0), (0, 1e-7, 0) and (0, 0, 100): the first two pass the
    # floor 3 eps; the third lifts it to 3 eps 1e4, above the pivot 1e-14.
    gram = np.diag([1.0, 1e-14, 1e4])
    system = _kept(gram, [0, 1])
    system.add(2)
    with pytest.raises(RankDeficientLibrary):
        system.solve(1.0)
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 1, 2])


def test_kept_system_follows_a_chain_of_appends_and_deletes():
    # Random releases and pins on a 224-band library at P=60: after each
    # move the forward solves are those of the new factor, and the solve
    # equals a fresh factorization of the free set in the system's order.
    rng = np.random.default_rng(21)
    entries = rng.random((224, 60))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(224)
    free = list(rng.permutation(60)[:20])
    system = _kept(gram, free, linear)
    for _ in range(60):
        pinned = np.setdiff1d(np.arange(60), free)
        if len(free) > 1 and (rng.random() < 0.5 or len(free) == 40):
            position = int(rng.integers(len(free)))
            system.remove(free[position])
            del free[position]
        else:
            new = int(rng.choice(pinned))
            system.add(new)
            free.append(new)
        budget = float(rng.uniform(0.1, 1.0))
        kept = system.solve(budget)
        np.testing.assert_array_equal(system.free, free)
        _assert_factors_block(system, gram, free)
        _assert_forward_solves(system, gram, linear, free)
        fresh_system = KeptSystem(gram, linear, free, factorize(gram, free))
        fresh = solve_subproblem(gram, linear, budget, free, factor=fresh_system)
        np.testing.assert_allclose(kept.free_values, fresh.free_values, rtol=0, atol=1e-9)
        assert kept.multiplier == pytest.approx(fresh.multiplier, abs=1e-9)
        top, bottom = _bordered_residual(gram, linear, budget, free, kept)
        assert top <= 1e-9 * np.abs(linear).max() and bottom <= 1e-12


def test_remove_deletes_the_variables_column_wherever_it_sits():
    # free is not sorted, so a variable's index is not its column's position.
    rng = np.random.default_rng(22)
    entries = rng.random((30, 12))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(30)
    free = np.array([7, 2, 11, 0, 5])
    for variable in free:
        system = _kept(gram, free, linear)
        system.remove(variable)
        reduced = free[free != variable]
        np.testing.assert_array_equal(system.free, reduced)
        _assert_factors_block(system, gram, reduced)
        _assert_forward_solves(system, gram, linear, reduced)


def test_an_added_column_joins_the_factor_at_the_next_solve():
    rng = np.random.default_rng(23)
    entries = rng.random((30, 12))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(30)
    system = _kept(gram, [4, 9], linear)
    lower, forward = system.lower, system.forward
    system.add(1)
    np.testing.assert_array_equal(system.free, [4, 9, 1])
    assert system.lower is lower and system.forward is forward
    system.solve(0.5)
    _assert_factors_block(system, gram, [4, 9, 1])
    _assert_forward_solves(system, gram, linear, [4, 9, 1])
    # A remove between an add and the next solve keeps the added column.
    system.add(6)
    system.remove(9)
    np.testing.assert_array_equal(system.free, [4, 1, 6])
    _assert_factors_block(system, gram, [4, 1, 6])
    _assert_forward_solves(system, gram, linear, [4, 1, 6])


def test_a_given_factor_is_adopted_as_the_first_solve_would_build_it():
    rng = np.random.default_rng(24)
    entries = rng.random((30, 12))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(30)
    free = [3, 8, 0, 6]
    lower = factorize(gram, free)
    adopted = KeptSystem(gram, linear, free, lower)
    assert adopted.lower is lower
    lazy = _kept(gram, free, linear)
    np.testing.assert_array_equal(adopted.lower, lazy.lower)
    np.testing.assert_array_equal(adopted.forward, lazy.forward)
    assert adopted.diagonal == lazy.diagonal and adopted.top == lazy.top


def test_stacked_solves_match_the_kept_system_and_not_the_stack():
    # Each item of the stack equals the item solved alone, bit for bit, and
    # the kept system's solve on the same free set up to roundoff.
    rng = np.random.default_rng(71)
    gram, _, _ = random_spd_system(rng, size=12)
    free = rng.random((9, 12)) < 0.6
    free[:, 0] = True
    free[4] = np.arange(12) == 7  # one free variable
    linear = rng.standard_normal((9, 12))
    budget = rng.uniform(0.1, 1.5, 9)
    candidates, multipliers, failures = solve_stacked(gram, free, linear, budget)
    assert failures == {} and candidates.shape == (9, 12)
    for k in range(9):
        alone, lam, _ = solve_stacked(gram, free[k:k + 1], linear[k:k + 1], budget[k:k + 1])
        assert alone.tobytes() == candidates[k].tobytes() and lam[0] == multipliers[k]
        assert not candidates[k][~free[k]].any()
        sub = solve_subproblem(gram, linear[k], budget[k], np.flatnonzero(free[k]))
        np.testing.assert_allclose(candidates[k][free[k]], sub.free_values, rtol=0, atol=1e-10)
        assert multipliers[k] == pytest.approx(sub.multiplier, rel=1e-10, abs=1e-10)


def test_a_stacked_item_that_fails_the_rank_test_carries_the_factorize_error():
    # Columns 1 and 4 are equal, so only the item that frees both fails; the
    # others are solved and returned in order.
    rng = np.random.default_rng(72)
    entries = rng.random((6, 5))
    entries[:, 4] = entries[:, 1]
    gram = entries.T @ entries
    free = np.zeros((3, 5), dtype=bool)
    free[0, [0, 1, 2]] = free[1, [1, 3, 4]] = free[2, [0, 3]] = True
    candidates, _, failures = solve_stacked(gram, free, rng.random((3, 5)), np.ones(3))
    assert list(failures) == [1] and candidates.shape == (2, 5)
    with pytest.raises(RankDeficientLibrary) as raised:
        factorize(gram, [1, 3, 4])
    assert str(failures[1]) == str(raised.value)
