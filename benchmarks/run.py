"""Reference unmixing benchmark: one workload, one seed, one run.

    python3 benchmarks/run.py --workload cli-p10 --seed 1 --seconds 36 --trace 0

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its ``src/``. The run

1. draws the workload's inputs from ``--seed`` (see ``scene.py``) into a
   scratch directory of the checkout, outside any timed region;
2. with ``--trace 0``, times ``setup_s`` in fresh set-up-only processes,
   then runs the workload in a fresh child process (``child.py``) with
   every program option at its default: one process, one solver thread,
   calls made in a closed loop until ``--seconds`` of calls have been
   timed; with ``--trace 1``, runs a fixed number of calls untraced and
   then again under the outside-in tracer (``tracer.py``);
3. checks every answer (KKT certificates, a bit-for-bit reference run and
   an exhaustive-oracle sample for the CLI, traced equal to untraced);
4. prints the environment and every metric with its unit, writes the same
   to ``.bench_results/`` and prints, as its last line, one JSON object
   with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The exit code is 0 when every check passed, 1 when a check failed or the
program crashed, and 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from scene import WORKLOADS, library, lower_bounds, pixels  # noqa: E402
from tracer import PRINTED_ONLY  # noqa: E402

SETUP_PROCESSES = 5  # set-up-only children per run, after one untimed warm-up
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ORACLE_PIXELS_PER_CHUNK = 2
ORACLE_TOL = 1e-9  # abundances: exhaustive oracle vs the CLI output
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile

END_TO_END_UNITS = {"px_per_s": "px/s", "px_ms_p50": "ms", "px_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (the benchmark's own tests use 0.01)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "unmix" / "__init__.py").is_file():
        print(f"error: no unmix package under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload].scaled(args.scale)
    child_env = _child_env()
    env = environment(args.seed, child_env)
    work = ROOT / ".bench_work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    setups = []
    try:
        work.mkdir(parents=True)
        write_inputs(work, workload, args.seed)
        spec = {"root": str(ROOT), "kind": workload.kind, "inputs": str(work),
                "seconds": args.seconds, "min_calls": workload.min_calls,
                "trace_calls": workload.trace_calls}
        if args.trace:
            report = run_child(spec, "trace", child_env)
        else:
            run_child(spec, "setup", child_env)
            setups = [run_child(spec, "setup", child_env)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            report = run_child(spec, "run", child_env)
            setups.append(report["setup_s"])
        errors = list(report["errors"])
        if workload.kind == "cli":
            try:
                errors += check_cli_against_reference(work, args.seed)
            except Exception as exc:  # a crash of the reference is a failed check
                errors.append(f"reference check raised {type(exc).__name__}: {exc}")
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        attempted = workload.chunk_pixels * workload.min_calls
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    attempted = sum(report["pixels"])
    printed_only = {}
    if args.trace:
        metrics, samples = report["metrics"], {}
        printed_only = {name: metrics.pop(name) for name in PRINTED_ONLY if name in metrics}
    else:
        metrics, samples = end_to_end_metrics(report, setups)
    correct = not errors
    result = {"correct": correct, "attempted": attempted, "failed": report["failed"],
              "metrics": metrics}

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} ({workload.why}); seed {args.seed}; "
          f"trace {args.trace}; {len(report['pixels'])} calls, {attempted} px")
    for name, metric in {**metrics, **printed_only}.items():
        note = samples.get(name) or ("printed only" if name in printed_only else "")
        note = f"  ({note})" if note else ""
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}{note}")
    per_px_ms = _per_pixel_ms(report)
    if len(per_px_ms) >= P99_MIN_SAMPLES:
        print(f"  {'px_ms_p99':32s} {_percentile(per_px_ms, 0.99):.6g} ms  (99th percentile of "
              f"{len(per_px_ms)} calls; printed only, too unsteady here to gate on)")
    print(f"  {'failed_frac':32s} {report['failed'] / attempted:.6g} ratio"
          f"  ({report['failed']} of {attempted} px not optimal or failing a check)")
    for name, reason in report.get("missing", {}).items():
        print(f"  {name:32s} MISSING: {reason}")
    for error in errors[:20]:
        print(f"error: {error}", file=sys.stderr)

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    record = {"env": env, "workload": workload.name, "seconds": args.seconds,
              "scale": args.scale, "trace": args.trace, "result": result,
              "failed_frac": report["failed"] / attempted, "samples": samples,
              "printed_only": printed_only,
              "missing": report.get("missing", {}), "probes": report.get("probes", {}),
              "durations_s": report.get("durations", []), "setup_samples_s": setups,
              "errors": errors}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def end_to_end_metrics(report, setups):
    """The end-to-end metrics of an untraced run, and their sample notes.

    Every input is timed on each pass over the pool, and each input's time
    is the median of its calls, so a burst of machine slowness that hits
    one pass does not move it. Throughput and latency percentiles are taken
    over these per-input times.
    """
    times = {}  # input -> (pixels, durations of its calls)
    for index, duration, count in zip(report["inputs"], report["durations"], report["pixels"]):
        times.setdefault(index, (count, []))[1].append(duration)
    medians = {index: statistics.median(ds) for index, (_, ds) in times.items()}
    total_px = sum(count for count, _ in times.values())
    per_px_ms = sorted(1e3 * medians[index] / count for index, (count, _) in times.items())
    passes = min(len(ds) for _, ds in times.values())
    values = {
        "px_per_s": total_px / sum(medians.values()),
        "px_ms_p50": statistics.median(per_px_ms),
        "px_ms_p90": _percentile(per_px_ms, 0.90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    per_input = f"{len(times)} inputs, each the median of its {passes} or more calls"
    samples = {
        "px_per_s": f"{total_px} px over the summed median times of {per_input}",
        "px_ms_p50": f"median over {per_input}, per pixel",
        "px_ms_p90": f"90th percentile over {per_input}, per pixel",
        "setup_s": f"median of {len(setups)} fresh processes",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, value in values.items()}
    return metrics, samples


def _per_pixel_ms(report):
    """Each timed call's wall time per pixel, in ms, sorted."""
    return sorted(1e3 * d / n for d, n in zip(report.get("durations", []), report["pixels"]))


def _percentile(ordered, q):
    """Linear-interpolation percentile of a sorted list."""
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def write_inputs(work, workload, seed):
    """Draw the workload's inputs from the seed and store them for the child."""
    import numpy as np

    lib = library(seed, workload)
    bounds = lower_bounds(seed, workload)
    chunks = [pixels(seed, workload, lib, k) for k in range(workload.chunks)]
    if workload.kind == "cli":
        np.savetxt(work / "library.csv", lib, delimiter=",", fmt="%.17g")
        np.savetxt(work / "lower_bounds.csv", bounds[None, :], delimiter=",", fmt="%.17g")
        for k, chunk in enumerate(chunks):
            np.savetxt(work / f"pixels_{k:04d}.csv", chunk, delimiter=",", fmt="%.17g")
        (work / "sizes.json").write_text(json.dumps([c.shape[1] for c in chunks]))
        return
    stored = {"library": lib}
    if bounds is not None:
        stored["lower_bounds"] = bounds
    if workload.kind == "api":
        stored["pixels"] = np.stack([chunk[:, 0] for chunk in chunks])
    else:
        stored["pixels"] = np.stack(chunks)
    np.savez(work / "scene.npz", **stored)


def run_child(spec, mode, child_env):
    """Run ``child.py`` in a fresh interpreter and return its report."""
    report_path = Path(spec["inputs"]) / f"report-{mode}.json"
    spec_path = Path(spec["inputs"]) / f"spec-{mode}.json"
    spec_path.write_text(json.dumps({**spec, "mode": mode, "report": str(report_path)}))
    try:
        done = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, env=child_env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process ran over {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise ChildFailed(f"{mode} process exited with {done.returncode}:\n{done.stderr[-4000:]}")
    report = json.loads(report_path.read_text())
    report_path.unlink()
    return report


def check_cli_against_reference(work, seed):
    """Each CLI output equals an in-process ``unmix_batch`` bit for bit, and a
    seeded sample of its pixels matches ``brute_force_solve``."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    import unmix

    def load(path):
        return np.loadtxt(path, delimiter=",", ndmin=2)

    lib = unmix.SpectralLibrary(load(work / "library.csv"))
    bounds = load(work / "lower_bounds.csv").ravel()
    errors = []
    for out_path in sorted(work.glob("out_*.csv")):
        k = int(out_path.stem.split("_")[1])
        spectra = load(work / f"pixels_{k:04d}.csv")
        written = load(out_path)
        solutions = unmix.unmix_batch(unmix.BatchJob(lib, spectra, bounds))
        reference = np.column_stack([s.abundances for s in solutions])
        if written.shape != reference.shape or not np.array_equal(
            written.view(np.uint64), reference.view(np.uint64)
        ):
            errors.append(f"chunk {k}: OUT.csv differs from in-process unmix_batch")
            continue
        rng = np.random.default_rng([seed, 7919, k])
        sample = rng.choice(spectra.shape[1], min(ORACLE_PIXELS_PER_CHUNK, spectra.shape[1]),
                            replace=False)
        for column in sorted(sample):
            problem = unmix.UnmixingProblem(lib, spectra[:, column], bounds)
            oracle = unmix.brute_force_solve(unmix.shift_problem(problem))
            gap = np.abs(oracle.shifted_abundances + bounds - written[:, column]).max()
            if not gap <= ORACLE_TOL:
                errors.append(f"chunk {k}, pixel {column}: {gap:.3g} from the exhaustive oracle")
    return errors


def _child_env():
    env = dict(os.environ)
    for name in BLAS_THREAD_VARS:
        env.setdefault(name, "1")
    return env


def environment(seed, child_env):
    """Interpreter, libraries, BLAS, cores, thread variables, seed, commit."""
    import numpy as np
    from importlib import metadata

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: child_env.get(name) for name in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
    }


def _git_commit():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


if __name__ == "__main__":
    sys.exit(main())
