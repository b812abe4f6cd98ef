"""Inputs of the benchmark workloads, made from the workload seed.

Seed 0 uses the README `targets.json` as written.  Any other seed turns each
of the four targets by its own seeded unit phase.  Every certificate and
index scan reads coefficient magnitudes only, so the shift counts and the
work per round stay those of the README targets while the bundle bytes, the
block phases and the C2 identity change with the seed.  A seeded permutation
of the targets would instead change which target meets which degree, and
with it the work of a deep build by up to a factor of three, which no run
length can average out.

Everything else a workload runs (spaces, weights, depths, elements) is fixed.
"""
from __future__ import annotations

import cmath
import random

README_TARGETS = [
    {"coeffs": [[0, 1.0, 0.0]]},
    {"coeffs": [[0, 1.0, 0.0], [1, 1.0, 0.0]]},
    {"coeffs": [[0, 2.0, 0.0], [1, -1.0, 0.0]]},
    {"coeffs": [[2, 0.0, 1.0]]},
]

# the default of HYPERFORGE_BUDGET, set explicitly in every child so that a
# stray variable in the caller's environment cannot change a workload
BUDGET = "50000000"

# no further pass starts that would end past this many seconds of a run
PASS_LIMIT_S = 120.0

# the README "CLI session", in order; (phase, argv after `hyperforge`)
CLI_SESSION = [
    ("other", ["spaces", "list"]),
    ("other", ["criteria", "hc", "--space", "l1", "--weight", "const:2", "--count", "16",
               "--out", "pk.json"]),
    ("other", ["criteria", "mixing", "--space", "entire_cauchy", "--weight", "maclane"]),
    ("other", ["criteria", "prop-a", "--space", "entire_hadamard"]),
    ("other", ["criteria", "prop-b", "--space", "l1"]),
    ("build", ["build", "coord", "--space", "l1", "--weight", "const:2",
               "--targets", "targets.json", "--rounds", "12", "--out", "g.json"]),
    ("build", ["build", "algebrable-coord", "--space", "l1", "--weight", "const:2",
               "--targets", "targets.json", "--rounds", "12", "--K", "3", "--out", "g3.json"]),
    ("build", ["build", "cauchy", "--space", "entire_cauchy", "--weight", "maclane",
               "--targets", "targets.json", "--rounds", "8", "--out", "c.json"]),
    ("build", ["build", "algebrable-cauchy", "--space", "l1", "--weight", "const:2",
               "--targets", "targets.json", "--rounds", "8", "--K", "2", "--out", "ca.json"]),
    ("verify", ["verify", "power", "--bundle", "g.json", "--power", "2"]),
    ("verify", ["verify", "element", "--bundle", "g3.json", "--element", "x1^2 + 0.3*x1^3"]),
    ("verify", ["verify", "zero-products", "--bundle", "g3.json"]),
    ("verify", ["verify", "expansion", "--bundle", "c.json", "--element", "x1^2 + x1"]),
    ("verify", ["verify", "element", "--bundle", "ca.json", "--element", "x1*x2 + x1",
                "--csv", "orbit.csv"]),
    ("verify", ["verify", "certificates", "--bundle", "ca.json"]),
]
CLI_BUNDLES = ["g.json", "g3.json", "c.json", "ca.json"]


def targets_json(seed: int) -> list[dict]:
    """The four README targets, each turned by a seeded phase (none for seed 0)."""
    if seed == 0:
        return [dict(t) for t in README_TARGETS]
    rng = random.Random(seed)
    out = []
    for target in README_TARGETS:
        turn = cmath.exp(1j * rng.uniform(0.0, 2.0 * cmath.pi))
        coeffs = []
        for n, re, im in target["coeffs"]:
            z = complex(re, im) * turn
            coeffs.append([n, z.real, z.imag])
        out.append({"coeffs": coeffs})
    return out
