"""Step through the active-set machinery by hand on one small instance.

Shows the three moves the solver alternates between - the equality-
constrained solve, the blocking step that pins a variable at zero, and the
multiplier check that releases one - from the uniform start, then how the
solver keeps one Cholesky factor and its forward solves through a release
and a pin, the start the solver itself refines from its first solve, its
monotone objective trace and a cross-check against the exhaustive oracle.
"""

from dataclasses import replace

import numpy as np

from unmix import (
    SpectralLibrary,
    UnmixingProblem,
    active_set_solve,
    brute_force_solve,
    factorize,
    objective_value,
    shift_problem,
    solve_subproblem,
)
from unmix.kkt import KeptSystem
from unmix.active_set import (
    initialize_state,
    lagrange_multipliers,
    max_feasible_step,
    release_from_active,
    transfer_to_active,
)

rng = np.random.default_rng(2)

endmembers = np.abs(rng.standard_normal((15, 5)))
library = SpectralLibrary(endmembers)
# A sparse ground truth: three of the five endmembers are absent, so the
# solver has to pin variables on its way to the optimum.
measured = endmembers @ np.array([0.8, 0.0, 0.2, 0.0, 0.0]) + 0.08 * rng.standard_normal(15)
shifted = shift_problem(UnmixingProblem(library, measured))

print("budget:", shifted.budget)
state = initialize_state(shifted)
print("start: free =", state.free, " objective = %.6f"
      % objective_value(shifted, state.iterate))

for step_number in range(1, 30):
    sub = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, state.free)
    print(f"\nsolve {step_number}: candidate on free set {state.free}")
    print("  candidate:", np.round(sub.free_values, 4), " lambda = %.4f" % sub.multiplier)
    if step_number == 1:
        probe = sub.free_values
        negative = np.count_nonzero(probe < -1e-10)
        verdict = "the solver accepts it"
        if negative:
            verdict = ("the solver refines its start from this candidate's positive support"
                       " (this walk-through stays on the uniform start)")
        print(f"  {negative} of {shifted.size} entries negative; {verdict}")
    if sub.free_values.min() >= -1e-10:
        iterate = np.zeros(shifted.size)
        iterate[state.free] = np.maximum(sub.free_values, 0.0)
        state = replace(state, iterate=iterate)
        mu = lagrange_multipliers(shifted, sub, state.free, state.active)
        print("  feasible; pinned-variable multipliers:", np.round(mu, 4))
        released = release_from_active(state, mu, 1e-10)
        if released is None:
            print("  all multipliers nonnegative -> optimal")
            break
        freed = np.setdiff1d(released.free, state.free)
        print("  releasing variable", freed, "back to the free set")
        state = released
    else:
        step, blocking = max_feasible_step(state, sub)
        direction = np.zeros(shifted.size)
        direction[state.free] = sub.free_values - state.iterate[state.free]
        state = transfer_to_active(state, step, direction, blocking)
        print("  infeasible; step %.4f pins variable %d" % (step, blocking))
    print("  objective now %.6f" % objective_value(shifted, state.iterate))

# The walk above refactorizes every free set. The solver instead keeps one
# system per solve, which owns the free set: the factor L with the forward
# solves L^-1 [g_F, 1]. Its first solve factorizes the free set; after that
# a release adds the freed column last, joining the factor at the next
# solve, and a pin removes a variable's column wherever it sits, so the
# factor's columns follow the order in which the variables were freed
# rather than the sorted free set. Each solve on it is two dot products and
# one back-substitution.
kept = KeptSystem(shifted.gram, shifted.linear, [2, 0])
kept.solve(shifted.budget)
kept.add(4)
kept.solve(shifted.budget)
print("\nfree set [2, 0] plus a released 4: appended factor == factorize([2, 0, 4]):",
      np.allclose(kept.lower, factorize(shifted.gram, [2, 0, 4]), rtol=0, atol=1e-12))
kept.remove(2)
print("then variable 2 pinned: free set", kept.free, "and factor == factorize([0, 4]):",
      np.allclose(kept.lower, factorize(shifted.gram, [0, 4]), rtol=0, atol=1e-12))
sub = kept.solve(shifted.budget)
fresh = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, [0, 4])
print("its solve == solve_subproblem on [0, 4]:",
      np.allclose(sub.free_values, fresh.free_values, rtol=0, atol=1e-12)
      and abs(sub.multiplier - fresh.multiplier) <= 1e-12)

# The solver does not walk from the uniform point. An infeasible probe makes
# it refine its start, as the classical FCLS loop does: it frees the probe's
# strictly positive support and solves there, and while that candidate is
# infeasible it frees the candidate's strictly positive support and solves
# again. The first feasible candidate is accepted and priced as iteration 0,
# and the moves above run from there; here that candidate is already optimal.
free, candidate = np.arange(shifted.size), probe
while candidate.min() < -1e-10:
    free = free[candidate > 0.0]
    candidate = solve_subproblem(shifted.gram, shifted.linear, shifted.budget, free).free_values
    print(f"\nrefined start on {free}: candidate {np.round(candidate, 4)}")
start = np.zeros(shifted.size)
start[free] = np.maximum(candidate, 0.0)
solution = active_set_solve(shifted)
print("the solver's trace begins at %.6f, the refined start's objective %.6f;"
      % (solution.objective_trace[0], objective_value(shifted, start)),
      f"it then took {solution.outer_iterations} iteration(s)")
print("full solver result:", np.round(solution.shifted_abundances, 4))
print("objective trace:", np.round(solution.objective_trace, 6))

oracle = brute_force_solve(shifted)
print("exhaustive-oracle optimum:", np.round(oracle.shifted_abundances, 4))
print("objective difference:", abs(solution.objective - oracle.objective))
