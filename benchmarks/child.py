"""One benchmark process: set up, make the timed calls, check every answer.

Run by ``run.py`` as ``python3 benchmarks/child.py SPEC.json`` in a fresh
interpreter, so that ``setup_s`` and ``peak_rss_mb`` belong to this process
alone. The spec names the checkout, the workload, the mode (``setup``,
``run`` or ``trace``) and the input directory; the report is written as
JSON to the path the spec gives.

Only the program's calls are timed. The checks between calls run outside
the timed region and, in a traced run, with the tracer disabled. numpy is
imported inside functions: it must load as part of ``import unmix``, after
the set-up clock has started.
"""

import json
import sys
import time
from pathlib import Path


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    root = Path(spec["root"])
    kind = spec["kind"]
    inputs = Path(spec["inputs"])

    started = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import unmix

    if kind == "cli":
        import unmix.cli
    import_s = time.perf_counter() - started
    expected = (root / "src" / "unmix").resolve()
    if Path(unmix.__file__).resolve().parent != expected:
        raise RuntimeError(f"imported unmix from {unmix.__file__}, not from {expected}")

    import numpy as np

    arrays = None
    if kind != "cli":
        with np.load(inputs / "scene.npz") as stored:
            arrays = dict(stored)
    started = time.perf_counter()
    workload = _WORKLOADS[kind](unmix, arrays, inputs)
    setup_s = import_s + time.perf_counter() - started

    report = {"setup_s": setup_s}
    if spec["mode"] != "setup":
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        report.update(_measure(spec, workload))
    Path(spec["report"]).write_text(json.dumps(report))


def _measure(spec, workload):
    import resource

    if spec["mode"] == "trace":
        return _measure_traced(spec, workload)
    durations, pixels, inputs = [], [], []
    while True:
        call = len(durations)
        index = call % workload.chunks
        started = time.perf_counter()
        output = workload.call(index)
        durations.append(time.perf_counter() - started)
        pixels.append(workload.pixels(index))
        inputs.append(index)
        workload.check_once(index, output)
        if call + 1 >= spec["min_calls"] and sum(durations) >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"durations": durations, "pixels": pixels, "inputs": inputs,
            "peak_rss_mb": peak_rss_mb, "failed": workload.failed, "errors": workload.errors}


def _measure_traced(spec, workload):
    from tracer import Tracer, per_layer_metrics

    calls = range(spec["trace_calls"])
    untraced = []
    untraced_wall = 0.0
    for index in calls:
        started = time.perf_counter()
        output = workload.call(index)
        untraced_wall += time.perf_counter() - started
        untraced.append(workload.abundances(index, output))
        workload.check_once(index, output)

    tracer = Tracer()
    tracer.install()
    traced_wall = 0.0
    try:
        for index in calls:
            tracer.enabled = True
            started = time.perf_counter()
            output = workload.call(index)
            traced_wall += time.perf_counter() - started
            tracer.enabled = False
            if workload.abundances(index, output) != untraced[index]:
                workload.errors.append(
                    f"call {index}: traced abundances differ from the untraced run")
    finally:
        tracer.enabled = False
        tracer.uninstall()

    pixels = sum(workload.pixels(index) for index in calls)
    metrics, missing = per_layer_metrics(tracer, pixels, untraced_wall, traced_wall)
    return {"pixels": [workload.pixels(index) for index in calls], "metrics": metrics,
            "missing": missing, "probes": tracer.summary()[0],
            "failed": workload.failed, "errors": workload.errors}


class _Workload:
    """Inputs built at set-up, one timed ``call`` and its untimed ``check``."""

    def __init__(self, unmix):
        self.unmix = unmix
        self.failed = 0
        self.errors = []
        self.first = {}  # input -> (answer of its first call, pixels that call failed)
        # Bound before any tracer rebinds the public names.
        self.verify_kkt = unmix.verify_kkt
        self.shift_problem = unmix.shift_problem
        self.optimal = unmix.SolveStatus.OPTIMAL

    def abundances(self, index, output):
        """Bytes of the abundances an output holds, for exact comparison."""
        import numpy as np

        return np.column_stack([s.abundances for s in output]).tobytes()

    def answer(self, index, output):
        """What a repeated call on the same input must return again."""
        return self.abundances(index, output)

    def check_once(self, index, output):
        """Check the first answer for each input in full; a repeat must equal it."""
        answer = self.answer(index, output)
        if index in self.first:
            first, failed = self.first[index]
            self.failed += failed
            if answer != first:
                self.failed += self.pixels(index) - failed
                self.errors.append(f"input {index}: answer differs from an earlier call on it")
            return
        failed_before = self.failed
        self.check(index, output)
        self.first[index] = (answer, self.failed - failed_before)

    def check_solutions(self, index, solutions, spectra, bounds):
        """Every optimal solution passes ``verify_kkt`` on its shifted problem."""
        import numpy as np

        for column, solution in enumerate(solutions):
            if solution.status is not self.optimal:
                self.failed += 1
                continue
            problem = self.unmix.UnmixingProblem(self.library, spectra[column], bounds)
            report = self.verify_kkt(
                self.shift_problem(problem),
                solution.shifted_abundances,
                solution.eq_multiplier,
                solution.ineq_multipliers,
            )
            unshifted = solution.shifted_abundances + problem.lower_bounds
            if not report.satisfied or not np.array_equal(unshifted, solution.abundances):
                self.failed += 1
                self.errors.append(f"call {index}, pixel {column}: answer fails the KKT check")


class _BatchWorkload(_Workload):
    def __init__(self, unmix, arrays, inputs):
        super().__init__(unmix)
        self.library = unmix.SpectralLibrary(arrays["library"])
        self.spectra = [chunk.T for chunk in arrays["pixels"]]
        self.jobs = [unmix.BatchJob(self.library, chunk) for chunk in arrays["pixels"]]
        self.chunks = len(self.jobs)

    def call(self, index):
        return self.unmix.unmix_batch(self.jobs[index])

    def pixels(self, index):
        return self.jobs[index].pixels.shape[1]

    def check(self, index, output):
        self.check_solutions(index, output, self.spectra[index], None)


class _ApiWorkload(_Workload):
    def __init__(self, unmix, arrays, inputs):
        super().__init__(unmix)
        self.library = unmix.SpectralLibrary(arrays["library"])
        self.bounds = arrays["lower_bounds"]
        self.spectra = arrays["pixels"]
        self.chunks = len(self.spectra)

    def call(self, index):
        unmix = self.unmix
        return [unmix.unmix(unmix.UnmixingProblem(self.library, self.spectra[index], self.bounds))]

    def pixels(self, index):
        return 1

    def check(self, index, output):
        self.check_solutions(index, output, self.spectra[index : index + 1], self.bounds)


class _CliWorkload(_Workload):
    """``unmix.cli.main`` with lower bounds and diagnostics on CSV chunks.

    The first output of each chunk is kept as ``out_<k>.csv`` for the
    reference comparison that ``run.py`` makes; a repeated call must write
    the same output and diagnostics bytes again.
    """

    def __init__(self, unmix, arrays, inputs):
        super().__init__(unmix)
        self.inputs = inputs
        self.chunk_files = sorted(inputs.glob("pixels_*.csv"))
        self.chunks = len(self.chunk_files)
        self.sizes = json.loads((inputs / "sizes.json").read_text())

    def call(self, index):
        out = self.inputs / "OUT.csv"
        diag = self.inputs / "DIAG.jsonl"
        argv = ["--library", str(self.inputs / "library.csv"),
                "--input", str(self.chunk_files[index]),
                "--lower-bounds", str(self.inputs / "lower_bounds.csv"),
                "--output", str(out), "--diagnostics", str(diag)]
        code = self.unmix.cli.main(argv)
        return code, out.read_bytes(), diag.read_bytes()

    def pixels(self, index):
        return self.sizes[index]

    def abundances(self, index, output):
        return output[1]

    def answer(self, index, output):
        return output

    def check(self, index, output):
        code, out, diag = output
        if code not in (0, 3):
            self.errors.append(f"call {index}: unmix exited with code {code}")
            self.failed += self.pixels(index)
            return
        (self.inputs / f"out_{index}.csv").write_bytes(out)
        failed = 0
        records = [json.loads(line) for line in diag.decode().splitlines()]
        if len(records) != self.pixels(index):
            self.errors.append(f"call {index}: {len(records)} diagnostics records")
        for record in records:
            if record["status"] != "optimal":
                failed += 1
            elif not record["kkt"]["satisfied"]:
                failed += 1
                self.errors.append(f"call {index}, pixel {record['pixel']}: KKT not satisfied")
        self.failed += failed


_WORKLOADS = {"cli": _CliWorkload, "batch": _BatchWorkload, "api": _ApiWorkload}


if __name__ == "__main__":
    main(sys.argv[1])
