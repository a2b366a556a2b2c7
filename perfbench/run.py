"""Benchmark of periodic-spectra: one workload, one seed, checked results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (job lists in ``inputs.py``, reasons in ``README.md``):

* ``sweep``        ``band_structure`` and ``dispersion`` torus sweeps
* ``bracket``      ``bounds_for_kind`` brackets (walk sums and gauge search)
* ``cli_examples`` the README commands, one ``python -m periodic_spectra.cli``
                   process each, compared byte for byte with recorded output

One process drives a closed loop, one job at a time; the library keeps its
default worker count.  A run makes a fixed number of passes over the job
list, ``round(seconds / nominal pass time)`` and at least two, so the same
``--seconds`` always measures the same work.  Every output is checked against
an oracle after its pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics from span wrappers
(``spans.py``) around the library's public functions; its layer times are
totals over the traced part of the run: one set-up, the traced passes and,
for the in-process workloads, one traced CLI process.

The last line of standard output is the result, a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON record with the environment and the details behind the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("sweep", "bracket", "cli_examples")

# Seconds one pass takes at the seed commit on 2 CPUs; sets the pass count.
NOMINAL_PASS_S = {"sweep": 5.0, "bracket": 6.5, "cli_examples": 9.0}

# Set-ups measured per run (this process plus fresh processes); setup_s is their median.
SETUP_SAMPLES = 5

# The traced CLI process of the in-process workloads: a README command that
# reaches every layer the `traces` verb uses.
TRACE_PROBE = ("traces", "--builtin", "kagome", "--operator", "adjacency", "--n-max", "4")

# A run stops starting passes after this many times --seconds, whatever is left.
DEADLINE_FACTOR = 2.0

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER_UNITS = {
    "laurent.eval_grid_s": "s",
    "laurent.power_s": "s",
    "operators.assemble_s": "s",
    "operators.fiber_grid_s": "s",
    "operators.eigvalsh_s": "s",
    "operators.kpoints": "count",
    "operators.workers": "count",
    "operators.cpu_per_wall": "ratio",
    "operators.stack_bytes": "B",
    "bands.sweep_s": "s",
    "bands.reduce_s": "s",
    "bands.dispersion_csv_s": "s",
    "walks.enumerate_s": "s",
    "walks.classify_s": "s",
    "walks.trace_series_s": "s",
    "walks.steps": "count",
    "walks.cap_refusals": "count",
    "graphs.parse_s": "s",
    "graphs.lattice_check_s": "s",
    "graphs.gauge_search_s": "s",
    "graphs.gauge_calls": "count",
    "graphs.gauge_candidates": "count",
    "graphs.gauge_cap_refusals": "count",
    "bounds.structural_s": "s",
    "bounds.report_s": "s",
    "bounds.verify_s": "s",
    "cli.import_s": "s",
    "cli.command_s": "s",
    "cli.process_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


# -- set-up ---------------------------------------------------------------------


class State:
    """What a set-up leaves behind: the library, the jobs, and the tracer.

    ``graphs[(name, p)]`` is the library graph that pass ``p`` uses for the
    job graph ``name``.
    """

    def __init__(self, workload, seed, tracer):
        self.workload, self.seed, self.tracer = workload, seed, tracer
        self.ps = None
        self.jobs = []
        self.graphs = {}


def pass_count(workload: str, seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_PASS_S[workload]))


def set_up(workload: str, seed: int, passes: int, trace: bool) -> State:
    """Import the library, generate every pass's inputs and warm up every layer."""
    from spans import Tracer

    tracer = Tracer() if trace else None
    state = State(workload, seed, tracer)
    start = time.perf_counter()
    import periodic_spectra as ps

    if tracer:
        tracer.add_span("cli.import", start, time.perf_counter())
        tracer.install(ps)
    state.ps = ps
    import inputs

    if workload == "cli_examples":
        state.jobs = list(inputs.CLI_COMMANDS)
        for args in state.jobs:
            ps.builtin_graph(args[args.index("--builtin") + 1])
    else:
        state.jobs = inputs.sweep_jobs(seed) if workload == "sweep" else inputs.bracket_jobs(seed)
        for p in range(passes):
            for job in state.jobs:
                if (job.graph.name, p) not in state.graphs:
                    variant = job.graph.variant(seed, p)
                    state.graphs[(job.graph.name, p)] = variant.to_graph(ps)
    warm_up(ps)
    if tracer:
        tracer.uninstall()
    return state


def warm_up(ps) -> None:
    """One small call into every layer, so first-call costs fall in set-up."""
    kagome = ps.builtin_graph("kagome")
    grid = ps.KGrid(2, 8)
    ps.band_structure(kagome, "laplacian", grid)
    points, lam = ps.dispersion(kagome, "schrodinger", grid)
    ps.bands.dispersion_csv(points, lam)
    ps.bounds_for_kind(kagome, "laplacian", n_max=2)
    ps.trace_series(kagome, "adjacency", 2)
    ps.verify_index_lattice(ps.builtin_graph("hexagonal"))


def setup_probe(workload: str, seed: int, seconds: float) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--setup-only"]
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
        timeout=120,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


# -- jobs ---------------------------------------------------------------------------


def child_env(traced: bool, spans_path: Path | None = None) -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + ([str(HERE)] if traced else [])
    env["PYTHONPATH"] = os.pathsep.join(paths + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    if spans_path is not None:
        env["PERFBENCH_SPANS"] = str(spans_path)
    return env


def run_cli(args: tuple[str, ...], workdir: Path, traced: bool) -> dict:
    """One CLI process; returns exit code, stdout, written files, peak RSS and spans."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    spans_path = workdir.parent / (workdir.name + ".spans.json")
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *args]
    else:
        cmd = [sys.executable, "-m", "periodic_spectra.cli", *args]
    with open(workdir.parent / (workdir.name + ".out"), "wb+") as out, open(os.devnull, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=workdir, env=child_env(traced, spans_path))
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.iterdir())}
    spans = json.loads(spans_path.read_text()) if traced else None
    return {
        "exit_code": proc.returncode,
        "stdout": stdout,
        "files": files,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "wall": wall,
        "spans": spans,
    }


def run_job(state: State, job, number: int, traced: bool):
    ps = state.ps
    if state.workload == "cli_examples":
        return run_cli(job, TMP / f"cli{state.jobs.index(job)}", traced)
    graph = state.graphs[(job.graph.name, number)]
    if state.workload == "bracket":
        return ps.bounds_for_kind(graph, job.kind, n_max=job.n_max)
    grid = ps.KGrid(graph.dim, job.grid_n)
    if not job.dump:
        return ps.band_structure(graph, job.kind, grid)
    points, lam = ps.dispersion(graph, job.kind, grid)
    table = ps.bands.table_from_eigenvalues(job.kind, grid, lam)
    path = TMP / f"{job.name}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(ps.bands.dispersion_csv(points, lam))
    return table, points, lam, path


# -- environment --------------------------------------------------------------------


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def environment(ps) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "GOTO_NUM_THREADS", "PERIODIC_SPECTRA_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "library_workers": ps.operators.worker_count(),
        "thread_env": {name: os.environ.get(name) for name in thread_vars},
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
    }


# -- statistics ----------------------------------------------------------------------


def machine_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed at the moment.

    Recorded before and after the passes, not as a metric, so that a change in
    a metric can be told apart from the machine slowing down.
    """
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and that percentile."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(dumps: list[dict], pass_windows, traced_walls, untraced_walls, cli_walls) -> dict:
    from spans import cpu_per_wall, self_times

    totals: dict[str, float] = {}
    counts: dict[str, float] = {}
    maxes: dict[str, float] = {}
    covered = 0.0
    for dumped in dumps:
        for name, value in self_times(dumped).items():
            totals[name] = totals.get(name, 0.0) + value
        for window in pass_windows:
            covered += sum(self_times(dumped, window).values())
        for name, value in dumped["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        for name, value in dumped["maxes"].items():
            maxes[name] = max(maxes.get(name, 0.0), value)
    fiber_cpu = [cpu_per_wall(d) for d in dumps if cpu_per_wall(d) > 0]
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "s":
            out[name] = totals.get(name[:-2], 0.0)
        elif name in maxes:
            out[name] = int(maxes[name])
        else:
            out[name] = int(counts.get(name, 0))
    out["cli.process_s"] = sum(cli_walls)
    out["operators.cpu_per_wall"] = statistics.median(fiber_cpu) if fiber_cpu else 0.0
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    # Share of the traced passes' wall time that library spans account for;
    # child processes share the monotonic clock, so their spans count too.
    out["trace.coverage"] = covered / sum(traced_walls)
    return out


# -- main ---------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    opts = parser.parse_args()

    if not (SRC / "periodic_spectra" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}; run from the root of a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    trace = bool(opts.trace)

    if opts.setup_only:
        start = time.perf_counter()
        set_up(opts.workload, opts.seed, pass_count(opts.workload, opts.seconds), trace=False)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return

    TMP.mkdir(exist_ok=True)
    try:
        result, record = measure(opts.workload, opts.seed, opts.seconds, trace)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))


def measure(workload: str, seed: int, seconds: float, trace: bool):
    passes = pass_count(workload, seconds)
    start = time.perf_counter()
    state = set_up(workload, seed, passes, trace)
    setups = [time.perf_counter() - start]
    if not trace:
        setups += [setup_probe(workload, seed, seconds) for _ in range(SETUP_SAMPLES - 1)]
    import checks  # after set-up, which has to pay for importing numpy itself

    checker = checks.make_checker(state)

    probes = [machine_probe_ms()]
    deadline = time.perf_counter() + DEADLINE_FACTOR * seconds
    job_times: list[float] = []
    walls = {False: [], True: []}
    windows = []
    cli_walls: list[float] = []
    child_dumps: list[dict] = []
    attempted = failed = 0
    child_rss = 0.0
    per_job: dict[str, list[float]] = {}
    errors: list[str] = []
    for p in range(passes):
        if p >= 2 and time.perf_counter() > deadline:
            passes = p
            break
        traced = trace and p % 2 == 1
        if traced:
            state.tracer.install(state.ps)
        outputs = []
        pass_start = time.perf_counter()
        for job in state.jobs:
            job_start = time.perf_counter()
            try:
                out = run_job(state, job, p, traced)
            except Exception as exc:  # a failed job is scored, not fatal
                out = exc
            outputs.append(out)
            if not traced:
                job_times.append(time.perf_counter() - job_start)
                per_job.setdefault(checks.job_name(job), []).append(job_times[-1])
        pass_end = time.perf_counter()
        if traced:
            state.tracer.uninstall()
            windows.append((pass_start, pass_end))
        walls[traced].append(pass_end - pass_start)
        for job, out in zip(state.jobs, outputs):
            attempted += 1
            problem = checker.check(job, out)
            if problem:
                failed += 1
                errors.append(f"{checks.job_name(job)}: {problem}")
            if isinstance(out, dict):
                child_rss = max(child_rss, out["rss_mb"])
                if traced:
                    cli_walls.append(out["wall"])
                    child_dumps.append(out["spans"])

    probes.append(machine_probe_ms())
    if trace:
        state.tracer.install(state.ps)
    refusals = checker.refusals()
    if trace:
        state.tracer.uninstall()
    failed += len(refusals["failed"])
    errors += refusals["failed"]

    if workload == "cli_examples":
        rss = child_rss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            probe = run_cli(TRACE_PROBE, TMP / "probe", traced=True)
            cli_walls.append(probe["wall"])
            child_dumps.append(probe["spans"])
            attempted += 1
            problem = checks.CliChecker(state).check(TRACE_PROBE, probe)
            if problem:
                failed += 1
                errors.append(f"{checks.job_name(TRACE_PROBE)}: {problem}")

    tail_value, tail_pct = tail(job_times)
    record = {
        "workload": workload,
        "seed": seed,
        "environment": environment(state.ps),
        "passes": passes,
        "pass_walls_s": walls[False],
        "traced_pass_walls_s": walls[True],
        "job_samples": len(job_times),
        "job_medians_s": {name: statistics.median(times) for name, times in per_job.items()},
        "job_tail_percentile": tail_pct,
        "setup_samples_s": setups,
        "machine_probe_ms": probes,
        "fail_ratio": failed / attempted,
        "gauge_cap_refusals": refusals["refused"],
        "errors": errors,
    }
    if trace:
        dumps = ([state.tracer.dump()] if workload != "cli_examples" else []) + child_dumps
        metrics = layer_metrics(dumps, windows, walls[True], walls[False], cli_walls)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "job_p50_s": statistics.median(job_times),
            "job_tail_s": tail_value,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, record


if __name__ == "__main__":
    main()
