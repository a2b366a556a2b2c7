"""Result checks for each workload, run after a pass, outside the timed region.

* ``sweep``: every band table must contain the oracle's eigenvalues on a
  seeded sub-lattice of its grid, and stay within a certified distance
  (Lipschitz constant times the sub-lattice spacing) of their extremes; flat
  levels must agree.  Dispersion jobs are compared row by row, in memory and
  in the CSV dump, at seeded grid points.
* ``bracket``: every number of the report must equal the oracle's
  recomputation from the edge list, the built-in graphs must also match the
  values recorded in ``golden/bracket.json``, and the bracket must contain
  the oracle's swept bandwidth of the same graph and kind.
* ``cli_examples``: exit code, standard output and written files must equal
  ``golden/cli.json`` byte for byte.

A problem is returned as a one-line string; ``None`` means the output is right.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import inputs
import oracle

GOLDEN = Path(__file__).resolve().parent / "golden"

SAMPLE_POINTS = 4096
SAMPLE_ROWS = 64
REL = 1e-9


def job_name(job) -> str:
    return job.name if hasattr(job, "name") else " ".join(job)


def close(a: float, b: float, rel: float = REL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def make_checker(state):
    kinds = {"sweep": SweepChecker, "bracket": BracketChecker, "cli_examples": CliChecker}
    return kinds[state.workload](state)


class SweepChecker:
    def __init__(self, state):
        self.expected = {}
        for number, job in enumerate(state.jobs):
            rng = np.random.default_rng([state.seed, 10, number])
            q, n = job.graph, job.grid_n
            coords, stride = oracle.sublattice(rng, q.dim, n, SAMPLE_POINTS)
            lam = oracle.eigenvalues(q, job.kind, oracle.grid_points(n, coords))
            slack = oracle.lipschitz(q, job.kind) * (stride // 2) * 2.0 * np.pi / n
            self.expected[job.name] = (coords, lam, slack)

    def refusals(self):
        return {"refused": 0, "failed": []}

    def check(self, job, out):
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        coords, lam, slack = self.expected[job.name]
        table = out[0] if job.dump else out
        problem = self._table(table, lam, slack)
        if problem or not job.dump:
            return problem
        return self._dump(job, coords, lam, *out[1:])

    @staticmethod
    def _table(table, lam, slack):
        tol = REL * (1.0 + float(np.abs(lam).max()))
        if len(table.bands) != lam.shape[1]:
            return f"{len(table.bands)} bands, expected {lam.shape[1]}"
        lows, highs = lam.min(axis=0), lam.max(axis=0)
        for j, band in enumerate(table.bands):
            if band.lo > lows[j] + tol or band.hi < highs[j] - tol:
                return f"band {j + 1} [{band.lo}, {band.hi}] misses sampled [{lows[j]}, {highs[j]}]"
            if band.lo < lows[j] - slack - tol or band.hi > highs[j] + slack + tol:
                return f"band {j + 1} [{band.lo}, {band.hi}] exceeds the spectrum bound (slack {slack:.3g})"
        sampled_flat = [
            float(v) for v in np.unique(np.round(lam[0], 9)) if np.abs(lam - v).min(axis=1).max() < 1e-9
        ]
        reported = list(table.flat_values)
        for v in reported:
            if np.abs(lam - v).min(axis=1).max() > 1e-7:
                return f"flat level {v} is not an eigenvalue at every sampled point"
        for v in sampled_flat:
            if not any(abs(v - r) < 1e-7 for r in reported):
                return f"flat level {v} not reported"
        return None

    @staticmethod
    def _dump(job, coords, lam, points, grid_lam, path):
        n, dim = job.grid_n, job.graph.dim
        rows = oracle.flat_index(coords, n)
        tol = REL * (1.0 + float(np.abs(lam).max()))
        if grid_lam.shape != (n**dim, lam.shape[1]):
            return f"dispersion shape {grid_lam.shape}"
        if not np.allclose(points[rows], oracle.grid_points(n, coords), rtol=0, atol=1e-12):
            return "dispersion grid points differ from the grid"
        if np.abs(grid_lam[rows] - lam).max() > tol:
            return "dispersion eigenvalues differ from the oracle"
        lines = Path(path).read_text(encoding="utf-8").split("\n")
        header = [f"k{s + 1}" for s in range(dim)] + [f"lambda{j + 1}" for j in range(lam.shape[1])]
        if lines[0] != ",".join(header) or len(lines) != n**dim + 2 or lines[-1] != "":
            return "dispersion CSV header or row count is wrong"
        for i in range(0, len(rows), max(1, len(rows) // SAMPLE_ROWS)):
            values = [float(v) for v in lines[rows[i] + 1].split(",")]
            expected = list(oracle.grid_points(n, coords[i : i + 1])[0]) + list(lam[i])
            if not all(math.isclose(a, b, rel_tol=1e-11, abs_tol=1e-11) for a, b in zip(values, expected)):
                return f"dispersion CSV row {rows[i] + 1} differs from the oracle"
        return None


CONTAINMENT_GRID = {1: 512, 2: 64, 3: 16}


class BracketChecker:
    FIELDS = ("lower_closed_form", "lower_refined", "lower", "upper", "upper_closed_form", "measure_lower")

    def __init__(self, state):
        self.state = state
        self.golden = json.loads((GOLDEN / "bracket.json").read_text())
        self.jobs = list(state.jobs) + inputs.refusal_jobs(state.seed)
        self.box = {}
        self.swept = {}
        for job in self.jobs:
            q = job.graph
            if q.name not in self.box:
                self.box[q.name] = oracle.box_min_bridges(q)
            key = (q.name, job.kind)
            if key not in self.swept:
                graph = q.zero_potential() if job.kind == "laplacian" else q
                self.swept[key] = oracle.swept_bandwidth(graph, job.kind, CONTAINMENT_GRID[q.dim])

    def refusals(self):
        """Bound the inputs the box search refuses; a refusal is counted, not failed."""
        ps = self.state.ps
        refused, failed = 0, []
        for job in self.jobs[len(self.state.jobs) :]:
            try:
                report = ps.bounds_for_kind(job.graph.to_graph(ps), job.kind, n_max=job.n_max)
            except ps.SearchCapExceeded:
                refused += 1
                continue
            except Exception as exc:  # anything else is a wrong answer
                report = exc
            problem = self.check(job, report)
            if problem:
                failed.append(f"{job.name}: {problem}")
        return {"refused": refused, "failed": failed}

    def check(self, job, report):
        if isinstance(report, Exception):
            return f"raised {type(report).__name__}: {report}"
        q = job.graph
        sc = report.constants
        box = self.box[q.name]
        if not q.dim <= sc.min_bridges <= (box if box is not None else sc.bridges):
            return f"min_bridges {sc.min_bridges} outside [{q.dim}, {box}]"
        want = oracle.expected_bracket(q, job.kind, job.n_max, sc.min_bridges)
        if (sc.bridges, sc.betti) != (want["bridges"], want["betti"]):
            return f"bridges/betti {(sc.bridges, sc.betti)}, expected {(want['bridges'], want['betti'])}"
        for field in self.FIELDS:
            if not close(getattr(report, field), want[field]):
                return f"{field} {getattr(report, field)!r}, oracle {want[field]!r}"
        if len(report.terms) != job.n_max:
            return f"{len(report.terms)} terms, expected {job.n_max}"
        for term, b1, b2 in zip(report.terms, want["B1"], want["B2"]):
            if not (close(term.b1, b1) and close(term.b2, b2)):
                return f"n={term.n} (B1, B2) = ({term.b1!r}, {term.b2!r}), oracle ({b1!r}, {b2!r})"
        if report.refined_n is not None and not close(report.terms[report.refined_n - 1].value, report.lower_refined):
            return f"refined_n {report.refined_n} does not hold the refined lower bound"
        golden = self.golden.get(job.name)
        if golden is not None:
            for field in self.FIELDS:
                if not close(getattr(report, field), golden[field]):
                    return f"{field} {getattr(report, field)!r}, recorded {golden[field]!r}"
            recorded = golden["terms"]
            if len(recorded) != len(report.terms) or not all(
                close(t.b1, b1) and close(t.b2, b2) for t, (b1, b2) in zip(report.terms, recorded)
            ):
                return "terms differ from the recorded values"
        swept, gap = self.swept[(q.name, job.kind)]
        scale = REL * (1.0 + swept)
        if not report.lower <= swept + gap + scale or not report.upper >= swept - scale:
            return f"bracket [{report.lower}, {report.upper}] misses swept bandwidth {swept} (+{gap:.3g})"
        return None


class CliChecker:
    def __init__(self, state):
        recorded = json.loads((GOLDEN / "cli.json").read_text())
        self.golden = {tuple(entry["args"]): entry for entry in recorded}

    def refusals(self):
        return {"refused": 0, "failed": []}

    def check(self, job, out):
        if isinstance(out, Exception):
            return f"raised {type(out).__name__}: {out}"
        want = self.golden[tuple(job)]
        if out["exit_code"] != want["exit_code"]:
            return f"exit code {out['exit_code']}, recorded {want['exit_code']}"
        if out["stdout"] != want["stdout"].encode("utf-8"):
            return "stdout differs from the recorded output"
        if out["files"] != want["files"]:
            return f"written files {sorted(out['files'])} differ from the recorded ones"
        return None
