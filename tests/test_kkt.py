import re

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
    # A system is factorized when it is built.
    linear = np.zeros(gram.shape[0]) if linear is None else linear
    return KeptSystem(gram, linear, free)


def _assert_add_fails_and_leaves_the_system(system, index):
    # A failed append raises and leaves every part of the system as it was.
    free, lower, forward, top = system.free, system.lower, system.forward, system.top
    copies = free.copy(), lower.copy(), forward.copy()
    with pytest.raises(RankDeficientLibrary):
        system.add(index)
    assert system.free is free and system.lower is lower and system.forward is forward
    for array, copy in zip((free, lower, forward), copies):
        np.testing.assert_array_equal(array, copy)
    assert system.top == top


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
    # add() checks its index as factorize checks free indices: 7 must not
    # surface as numpy's bare out-of-bounds error, nor 2.0 be cast.
    system = KeptSystem(np.eye(4), np.zeros(4), [0, 1])
    for index in (4, 7, np.intp(7), np.int32(4)):
        with pytest.raises(IndexError, match=re.escape("free indices must lie in [0, 4)")):
            system.add(index)
    for index in (2.0, True):
        with pytest.raises(IndexError, match="free indices must be integers"):
            system.add(index)
    np.testing.assert_array_equal(system.free, [0, 1])
    system.add(np.int32(3))
    np.testing.assert_array_equal(system.free, [0, 1, 3])


@pytest.mark.parametrize("free", [[-1], [0, -1], np.array([1, -2], dtype=np.intp),
                                  np.array([-1, 0], dtype=np.int32)])
def test_negative_free_indices_are_rejected(free):
    # take() would wrap -1 to the last column and solve a different block;
    # the one-reduction range check must catch a negative index as well.
    gram = np.diag([1.0, 2.0, 3.0])
    message = re.escape("free indices must lie in [0, 3)")
    with pytest.raises(IndexError, match=message):
        factorize(gram, free)
    with pytest.raises(IndexError, match=message):
        solve_subproblem(gram, np.zeros(3), 1.0, free)
    with pytest.raises(IndexError, match=message):
        KeptSystem(gram, np.zeros(3), free)
    # add() would append the last column under index -1 and solve another block.
    system = KeptSystem(gram, np.zeros(3), [1])
    for index in [i for i in np.asarray(free) if i < 0] + [-1]:
        with pytest.raises(IndexError, match=message):
            system.add(index)
    np.testing.assert_array_equal(system.free, [1])


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


def test_near_dependent_pair_is_rank_deficient_on_both_paths():
    # Library columns a0 = (1, 0, 0) and a2 = (1, 0, 1e-9) are near-dependent;
    # a1 sits between them. Pinning a1 leaves the pair: the kept system that
    # the next solve builds on the mask rejects it when it is built, as the
    # stacked solve rejects the mask.
    lower = np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [1.0, 0.0, 1e-9]])
    gram = lower @ lower.T
    mask = np.array([True, False, True])
    with pytest.raises(RankDeficientLibrary) as kept:
        KeptSystem(gram, np.zeros(3), np.flatnonzero(mask))
    _, _, failures = solve_stacked(gram, mask[None], np.zeros((1, 3)), 1.0)
    assert list(failures) == [0]
    with pytest.raises(RankDeficientLibrary) as fresh:
        factorize(gram, [0, 2])
    assert str(kept.value) == str(failures[0]) == str(fresh.value)
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 1, 2])


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
    # The append fails at add(), and the system still solves its old block.
    rng = np.random.default_rng(20)
    for n_bands in (2, 5, 12):
        entries = rng.random((n_bands, n_bands + 2))
        entries[:, -1] = entries[:, 0]
        gram = entries.T @ entries
        full = _kept(gram, np.arange(n_bands))
        _assert_add_fails_and_leaves_the_system(full, n_bands)  # the (N+1)-th column
        assert full.top is None  # nothing was appended, so nothing read it
        assert full.solve(1.0).free_values.size == n_bands
        duplicate = _kept(gram, [0])
        duplicate.add(1)
        assert duplicate.top == gram.diagonal()[:2].max()
        _assert_add_fails_and_leaves_the_system(duplicate, n_bands + 1)  # column 0 again
        _assert_forward_solves(duplicate, gram, np.zeros(n_bands + 2), [0, 1])
    # Exact arithmetic: a2 = a0 + a1 leaves a pivot of exactly 0.
    gram = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    dependent = _kept(gram, [1, 0])
    _assert_add_fails_and_leaves_the_system(dependent, 2)
    _assert_factors_block(dependent, gram, [1, 0])


def test_a_larger_diagonal_raises_the_floor_above_an_old_pivot():
    # Columns (1, 0, 0), (0, 1e-7, 0) and (0, 0, 100): the first two pass the
    # floor 3 eps; the third lifts it to 3 eps 1e4, above the pivot 1e-14.
    gram = np.diag([1.0, 1e-14, 1e4])
    system = _kept(gram, [0, 1])
    _assert_add_fails_and_leaves_the_system(system, 2)
    _assert_factors_block(system, gram, [0, 1])
    with pytest.raises(RankDeficientLibrary):
        factorize(gram, [0, 1, 2])


def test_kept_system_follows_a_chain_of_appends_and_deletes():
    # Random releases and pins on a 224-band library at P=60, as the loop
    # makes them: a release is appended to the system, and a pin drops it
    # for a fresh one on the sorted free set. After each move's solve the
    # forward solves are those of the factor, and the solve equals a fresh
    # factorization of the free set in the system's order.
    rng = np.random.default_rng(21)
    entries = rng.random((224, 60))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(224)
    free = list(rng.permutation(60)[:20])
    system = _kept(gram, free, linear)
    for _ in range(60):
        pinned = np.setdiff1d(np.arange(60), free)
        if len(free) > 1 and (rng.random() < 0.5 or len(free) == 40):
            del free[int(rng.integers(len(free)))]
            free.sort()
            system = KeptSystem(gram, linear, free)
        else:
            new = int(rng.choice(pinned))
            system.add(new)
            free.append(new)
        budget = float(rng.uniform(0.1, 1.0))
        kept = system.solve(budget)
        np.testing.assert_array_equal(system.free, free)
        _assert_factors_block(system, gram, free)
        _assert_forward_solves(system, gram, linear, free)
        fresh = solve_subproblem(gram, linear, budget, free)
        np.testing.assert_allclose(kept.free_values, fresh.free_values, rtol=0, atol=1e-9)
        assert kept.multiplier == pytest.approx(fresh.multiplier, abs=1e-9)
        top, bottom = _bordered_residual(gram, linear, budget, free, kept)
        assert top <= 1e-9 * np.abs(linear).max() and bottom <= 1e-12


def test_a_system_is_whole_when_built_and_after_each_add():
    # No solve is needed for the factor: building factorizes the free set,
    # and add() appends at once, into new arrays, so a factor or forward
    # solve handed out earlier keeps its values.
    rng = np.random.default_rng(23)
    entries = rng.random((30, 12))
    gram = entries.T @ entries
    linear = entries.T @ rng.random(30)
    system = KeptSystem(gram, linear, [4, 9])
    _assert_factors_block(system, gram, [4, 9])
    _assert_forward_solves(system, gram, linear, [4, 9])
    assert system.top is None
    lower, forward = system.lower, system.forward
    copies = lower.copy(), forward.copy()
    system.add(1)
    np.testing.assert_array_equal(system.free, [4, 9, 1])
    assert system.lower is not lower and system.forward is not forward
    np.testing.assert_array_equal(lower, copies[0])
    np.testing.assert_array_equal(forward, copies[1])
    _assert_factors_block(system, gram, [4, 9, 1])
    _assert_forward_solves(system, gram, linear, [4, 9, 1])
    assert system.top == gram.diagonal()[[4, 9, 1]].max()


def test_stacked_solves_match_the_kept_system_and_not_the_stack():
    # Each item of the stack equals the item solved alone, bit for bit, and
    # the kept system's solve on the same free set up to roundoff.
    rng = np.random.default_rng(71)
    gram, _, _ = random_spd_system(rng, size=12)
    free = rng.random((9, 12)) < 0.6
    free[:, 0] = True
    free[4] = np.arange(12) == 7  # one free variable
    linear = rng.standard_normal((9, 12))
    budget = float(rng.uniform(0.1, 1.5))
    candidates, multipliers, failures = solve_stacked(gram, free, linear, budget)
    assert failures == {} and candidates.shape == (9, 12)
    for k in range(9):
        alone, lam, _ = solve_stacked(gram, free[k:k + 1], linear[k:k + 1], budget)
        assert alone.tobytes() == candidates[k].tobytes() and lam[0] == multipliers[k]
        assert not candidates[k][~free[k]].any()
        sub = solve_subproblem(gram, linear[k], budget, np.flatnonzero(free[k]))
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
    candidates, _, failures = solve_stacked(gram, free, rng.random((3, 5)), 1.0)
    assert list(failures) == [1] and candidates.shape == (2, 5)
    with pytest.raises(RankDeficientLibrary) as raised:
        factorize(gram, [1, 3, 4])
    assert str(failures[1]) == str(raised.value)
