"""Batch unmixing of many pixels, via the API and via the ``unmix`` CLI.

Simulates a tiny 12x12-pixel scene from four endmembers, unmixes every
pixel with the library's one Gram matrix, then round-trips the same scene through
the command-line tool with CSV files and a JSONL diagnostics stream.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from unmix import BatchJob, SpectralLibrary, batch_summary, unmix_batch

rng = np.random.default_rng(99)

n_bands, n_endmembers = 30, 4
endmembers = np.abs(rng.standard_normal((n_bands, n_endmembers)))
library = SpectralLibrary(endmembers)

# A 12x12 scene: smoothly varying mixtures plus sensor noise, flattened to
# one column per pixel.
n_pixels = 144
fractions = rng.dirichlet(np.full(n_endmembers, 2.0), size=n_pixels)
pixels = endmembers @ fractions.T + 0.01 * rng.standard_normal((n_bands, n_pixels))

job = BatchJob(library, pixels)
solutions = unmix_batch(job)
print("batch summary:", batch_summary(solutions))

abundances = np.column_stack([s.abundances for s in solutions])
errors = np.abs(abundances - fractions.T).max(axis=0)
print("worst abundance error vs ground truth: %.4f" % errors.max())
print("median outer iterations:",
      int(np.median([s.outer_iterations for s in solutions])))

# Same scene through the CLI.
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    np.savetxt(tmp / "library.csv", endmembers, delimiter=",", fmt="%.17g")
    np.savetxt(tmp / "pixels.csv", pixels, delimiter=",", fmt="%.17g")
    command = [
        sys.executable, "-m", "unmix.cli",
        "--library", str(tmp / "library.csv"),
        "--input", str(tmp / "pixels.csv"),
        "--output", str(tmp / "abundances.csv"),
        "--diagnostics", str(tmp / "diagnostics.jsonl"),
    ]
    result = subprocess.run(command, capture_output=True, text=True)
    print("\nCLI:", " ".join(command[2:]))
    print("exit code:", result.returncode)
    print(result.stdout.strip())

    from_cli = np.loadtxt(tmp / "abundances.csv", delimiter=",")
    print("CLI output matches the API exactly:",
          np.array_equal(from_cli, abundances))

    records = [json.loads(line)
               for line in (tmp / "diagnostics.jsonl").read_text().splitlines()]
    certified = sum(record["kkt"]["satisfied"] for record in records)
    print("pixels with a satisfied KKT certificate:", certified, "/", len(records))
