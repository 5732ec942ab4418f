"""Batch unmixing command-line tool.

Reads a spectral library, a matrix of measured spectra, and optional lower
bounds from CSV, solves every pixel, and writes a P x M abundance CSV plus
an optional JSON-lines diagnostics stream. Every flag can also be supplied
through an ``UNMIX_``-prefixed environment variable; an explicit flag wins.

Exit codes: 0 when every pixel solved, 2 on invalid input (dimensions,
infeasible bounds, parse failures), 3 when at least one pixel failed
numerically.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

import numpy as np

from .active_set import SolveStatus
from .batch import BatchJob, _solve_pixels, batch_summary
from .errors import UnmixError
from .model import SolverConfig
from .verify import _verify_kkt_rows

_ENV_PREFIX = "UNMIX_"


def _env(name, fallback=None):
    return os.environ.get(_ENV_PREFIX + name, fallback)


def _env_number(name, convert, fallback):
    text = _env(name)
    if text is None:
        return fallback
    try:
        return convert(text)
    except ValueError:
        raise ValueError(
            f"{_ENV_PREFIX}{name}={text!r} is not a valid {convert.__name__}"
        ) from None


def _env_flag(name):
    text = _env(name, "0")
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"{_ENV_PREFIX}{name}={text!r} is not a valid flag: use 1, true, "
                         "yes or on, or 0, false, no or off")
    return word in ("1", "true", "yes", "on")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unmix",
        description="Batch linear spectral unmixing under minimum-abundance "
        "and sum-to-one constraints.",
    )
    parser.add_argument("--library", default=_env("LIBRARY"),
                        help="CSV with N rows x P columns of endmember spectra")
    parser.add_argument("--input", default=_env("INPUT"),
                        help="CSV with N rows x M columns of measured spectra")
    parser.add_argument("--lower-bounds", default=_env("LOWER_BOUNDS"),
                        help="CSV with P lower bounds (one row or one column); "
                        "defaults to zeros")
    parser.add_argument("--output", default=_env("OUTPUT"),
                        help="destination CSV for the P x M abundance matrix")
    parser.add_argument("--diagnostics", default=_env("DIAGNOSTICS"),
                        help="optional JSONL file with per-pixel solve diagnostics")
    parser.add_argument("--tol", type=float, default=_env_number("TOL", float, 1e-10),
                        help="primal feasibility tolerance (default 1e-10)")
    parser.add_argument("--dual-tol", type=float,
                        default=_env_number("DUAL_TOL", float, 1e-10),
                        help="dual feasibility tolerance (default 1e-10)")
    parser.add_argument("--max-iter", type=int,
                        default=_env_number("MAX_ITER", int, None),
                        help="outer iteration cap (default 10 times the library size)")
    parser.add_argument("--tie-break", default=_env("TIE_BREAK", "smallest"),
                        help="blocking-index tie policy: 'smallest' or 'random:SEED'")
    parser.add_argument("--header", action="store_true", default=_env_flag("HEADER"),
                        help="skip one header row on inputs and write one on the output")
    return parser


def _parse_tie_break(text):
    if text in ("smallest", "random"):
        return text, 0
    policy, colon, seed = text.partition(":")
    if policy == "random" and colon:
        try:
            return "random", int(seed)
        except ValueError:
            pass
    raise ValueError(f"--tie-break (or {_ENV_PREFIX}TIE_BREAK) must be 'smallest', 'random' "
                     f"or 'random:SEED' with an integer SEED, got {text!r}")


def _load_matrix(path, header):
    with warnings.catch_warnings():  # an empty file is reported below, as a parse failure
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        matrix = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
    if matrix.size == 0:
        raise ValueError(f"{path} holds no data")
    return matrix


def _write_abundances(path, abundances, header):
    kwargs = {}
    if header:
        kwargs["header"] = ",".join(f"pixel_{i + 1}" for i in range(abundances.shape[1]))
        kwargs["comments"] = ""
    np.savetxt(path, abundances, delimiter=",", fmt="%.17g", **kwargs)


def _diagnostics_records(first, shifted, solutions):
    """The diagnostics records of one slice's pixels, numbered from
    ``first``: ``shifted`` holds their shifted rows and ``solutions`` their
    answers. The KKT residuals of the OPTIMAL pixels come from one stacked
    check; a capped solve carries no certificate."""
    optimal = [j for j, solution in enumerate(solutions)
               if solution.status is SolveStatus.OPTIMAL]
    reports = {}
    if optimal:
        certified = [solutions[j] for j in optimal]
        reports = dict(zip(optimal, _verify_kkt_rows(
            shifted.gram, shifted.linear.take(optimal, axis=0), shifted.budget,
            np.array([solution.shifted_abundances for solution in certified]),
            np.array([solution.eq_multiplier for solution in certified]),
            np.array([solution.ineq_multipliers for solution in certified]))))
    records = []
    for j, solution in enumerate(solutions):
        record = {"pixel": first + j, "status": solution.status.value}
        records.append(record)
        if solution.status is SolveStatus.FAILED:
            record["error"] = solution.message
            continue
        record.update(
            iterations=solution.outer_iterations,
            free_size=int(solution.final_free.size),
            objective=solution.objective,
        )
        if j in reports:
            report = reports[j]
            record["kkt"] = {
                "stationarity": report.stationarity_residual,
                "primal_eq": report.primal_eq_residual,
                "primal_ineq": report.primal_ineq_violation,
                "dual": report.dual_violation,
                "complementarity": report.complementarity_residual,
                "satisfied": report.satisfied,
            }
        if solution.message:
            record["message"] = solution.message
    return records


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:  # a malformed UNMIX_* variable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    missing = [name for name in ("library", "input", "output") if getattr(args, name) is None]
    if missing:
        print(f"error: missing required option(s): {', '.join('--' + m for m in missing)}",
              file=sys.stderr)
        return 2

    try:
        tie_break, tie_seed = _parse_tie_break(args.tie_break)
        config = SolverConfig(
            primal_tol=args.tol,
            dual_tol=args.dual_tol,
            max_outer_iterations=args.max_iter,
            tie_break=tie_break,
            tie_seed=tie_seed,
        )
        library = _load_matrix(args.library, args.header)
        pixels = _load_matrix(args.input, args.header)
        bounds = None
        if args.lower_bounds is not None:
            bounds = _load_matrix(args.lower_bounds, args.header)
        job = BatchJob(library=library, pixels=pixels, lower_bounds=bounds, config=config)
        solutions, records = [], []
        for shifted, solved in _solve_pixels(job):
            if args.diagnostics is not None:
                records += _diagnostics_records(len(solutions), shifted, solved)
            solutions += solved
    except (UnmixError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    abundances = np.column_stack([s.abundances for s in solutions])
    try:
        _write_abundances(args.output, abundances, args.header)
        if args.diagnostics is not None:
            with open(args.diagnostics, "w", encoding="utf-8") as stream:
                for record in records:
                    stream.write(json.dumps(record) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = batch_summary(solutions)
    failed = summary["pixels"] - summary["optimal"]
    print(
        f"unmixed {summary['pixels']} pixel(s): {summary['optimal']} optimal, "
        f"{summary['max_iterations']} hit the iteration cap, "
        f"{summary['failed']} failed"
    )
    return 3 if failed else 0


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
