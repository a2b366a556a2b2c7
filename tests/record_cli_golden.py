"""Record the CLI golden cases: ``python tests/record_cli_golden.py``.

Every case runs one command line in-process through click's test runner and
keeps its exit code, standard output, standard error and the bytes of the
files it wrote (``--out`` and ``--dispersion-out``).  The matrix covers every
verb in every format, every operator kind, three graphs (kagome, fig4_chain
and ``golden/loop_potential.json``, a graph file with a loop and a nonzero
potential) at small ``--grid``/``--n-max``, the defaults, ``--help`` and the
usage and input errors.  Longer walks run ``cycles`` and ``traces`` to
``--n-max 8`` and ``verify`` to its witness at n = 40 on ``z_cycle(40)``; ``traces`` also runs
on two sparse quotients with more than four vertices, ``z_cycle(12)`` and the
ring graph below.
Two band sweeps are large enough that the torus sweep solves them in several
chunks: kagome at ``--grid 160`` and a dispersion dump of a 96-vertex ring
(see :func:`ring_graph_text`).  A 2-vertex graph with the edge index 193
(see :func:`wide_graph_text`) runs ``bandwidth`` at ``--grid 20000``, where
the pruned sweep skips points of a wide-index operator.
A written file larger than ``DIGEST_BYTES`` is kept as its sha256, its length
in bytes and its first ``HEAD_LINES`` lines (see :func:`file_record`), so the
large dumps are pinned byte for byte without being committed in full.
``test_cli_golden.py`` reruns each recorded case and requires the same bytes.
The recorder prints the arguments of every case whose recorded bytes change
(new cases included), and their count.  A file recorded before in full counts
as unchanged only when the new digest is the digest of that full text.

Placeholders in the recorded arguments are filled in per run: ``{graph}``
with the graph file above, ``{ring}`` with the ring graph, ``{wide}`` with the
wide-index graph, ``{broken}`` with
a file that is not JSON, ``{out}``/``{disp}`` with output files in a scratch
directory and ``{missing}`` with a path in a directory that does not exist.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from click.testing import CliRunner

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import periodic_spectra as ps  # noqa: E402  (the library in this checkout)

GOLDEN = HERE / "golden"
CASES_FILE = GOLDEN / "cli_cases.json"
GRAPH_FILE = GOLDEN / "loop_potential.json"

# Written files above this many bytes are recorded as a digest.
DIGEST_BYTES = 64 * 1024
HEAD_LINES = 5

FORMATS = ("text", "json", "csv")
SOURCES = (["--builtin", "kagome"], ["--builtin", "fig4_chain"], ["--graph", "{graph}"])
EXTRA = {
    "bands": ["--grid", "4", "--dispersion-out", "{disp}"],
    "bandwidth": ["--grid", "4"],
    "bounds": ["--n-max", "3"],
    "cycles": ["--n-max", "3"],
    "traces": ["--n-max", "3"],
}
PLAIN_VERBS = ("info", "embed", "verify")
VERBS = (*EXTRA, *PLAIN_VERBS)


def case_args() -> list[list[str]]:
    cases = []
    for source in SOURCES:
        for verb, extra in EXTRA.items():
            for kind in ps.OPERATOR_KINDS:
                for fmt in FORMATS:
                    cases.append([verb, *source, "--operator", kind, "--format", fmt, *extra])
        for verb in PLAIN_VERBS:
            for fmt in FORMATS:
                cases.append([verb, *source, "--format", fmt])
    for verb in VERBS:
        cases.append([verb, "--builtin", "kagome"])
        for fmt in FORMATS:
            cases.append([verb, "--builtin", "kagome", "--format", fmt, "--out", "{out}", *EXTRA.get(verb, [])])
        cases.append([verb, "--help"])
    cases += [
        ["--help"],
        ["bandwidth", "--builtin", "fig4_chain", "--operator", "normalized_laplacian", "--grid", "8", "--flat-tol", "1e-3"],
        ["bounds", "--builtin", "fig4_chain", "--operator", "normalized_laplacian", "--n-max", "4"],
        ["cycles", "--builtin", "z_cycle(3)", "--n-max", "5", "--format", "csv"],
        ["verify", "--builtin", "hexagonal"],
        # longer walks: the exact recursion and the symbolic power run to n = 8, the witnesses to n = 40
        *(
            [verb, *source, "--operator", kind, "--n-max", "8", "--format", "json"]
            for verb in ("cycles", "traces")
            for source, kind in (
                (["--builtin", "kagome"], "adjacency"),
                (["--builtin", "kagome"], "schrodinger"),
                (["--builtin", "kagome"], "transition"),
                (["--graph", "{graph}"], "schrodinger"),
            )
        ),
        ["verify", "--builtin", "z_cycle(40)"],
        # the symbolic power on sparse quotients with nu > 4
        ["traces", "--builtin", "z_cycle(12)", "--operator", "transition", "--format", "json"],
        ["traces", "--graph", "{ring}", "--operator", "schrodinger", "--n-max", "4", "--format", "json"],
        # usage errors (exit 2) and input errors (exit 1)
        ["info"],
        ["info", "--builtin", "kagome", "--graph", "{graph}"],
        ["info", "--builtin", "kagome", "--format", "xml"],
        ["info", "--builtin", "kagome", "--radius", "1"],
        ["bands", "--builtin", "kagome", "--operator", "bogus"],
        ["info", "--graph", "{missing}"],
        ["info", "--builtin", "nope"],
        ["info", "--graph", "{broken}"],
        ["bands", "--builtin", "kagome", "--grid", "31"],
        ["bandwidth", "--builtin", "kagome", "--grid", "8", "--flat-tol", "0"],
        ["verify", "--builtin", "kagome", "--out", "{missing}"],
        ["bands", "--builtin", "zd(1)", "--grid", "4", "--dispersion-out", "{missing}"],
        # sweeps that span several chunks of the torus sweep
        ["bands", "--builtin", "kagome", "--grid", "160", "--format", "json"],
        ["bands", "--graph", "{ring}", "--operator", "schrodinger", "--grid", "16",
         "--dispersion-out", "{disp}"],
        # dumps that span several CSV blocks: three blocks in 2-D, two in 3-D
        ["bands", "--builtin", "kagome", "--grid", "182", "--dispersion-out", "{disp}"],
        ["bands", "--builtin", "zd(3)", "--grid", "26", "--dispersion-out", "{disp}"],
        # a wide edge index: the pruned sweep still tests the points it skips
        *(
            ["bandwidth", "--graph", "{wide}", "--operator", kind, "--grid", "20000", "--format", "json"]
            for kind in ("adjacency", "schrodinger")
        ),
    ]
    return cases


def ring_graph_text(nu: int = 96) -> str:
    """A rank-1 graph file: a ring of ``nu`` vertices with chords and potentials.

    Its fiber matrices are large (``nu`` x ``nu``) and complex, so a sweep of
    a few points already spans several chunks.
    """
    labels = [f"r{i}" for i in range(nu)]
    vertices = [{"id": lab, "potential": (i * 37 % 11) / 4 - 1} for i, lab in enumerate(labels)]
    edges = [
        {"from": labels[i], "to": labels[(i + 1) % nu], "index": [int(i == nu - 1)]} for i in range(nu)
    ]
    edges += [
        {"from": labels[i], "to": labels[(5 * i + 3) % nu], "index": [i % 3 - 1]} for i in range(0, nu, 4)
    ]
    return json.dumps({"dimension": 1, "vertices": vertices, "edges": edges})


def wide_graph_text(index: int = 193) -> str:
    """A rank-1 graph file: edges a-b of index 0 and of index ``index``, and a loop of index 1 at a.

    Its fiber has the frequency ``index``, so the rounding of its evaluation
    grows with it while its eigenvalues stay those of small indices.
    """
    edges = [
        {"from": "a", "to": "b", "index": [0]},
        {"from": "a", "to": "b", "index": [index]},
        {"from": "a", "to": "a", "index": [1]},
    ]
    return json.dumps({"dimension": 1, "vertices": [{"id": "a"}, {"id": "b"}], "edges": edges})


def file_record(text: str) -> str | dict:
    """A written file as recorded: its text, or above ``DIGEST_BYTES`` a digest."""
    data = text.encode("utf-8")
    if len(data) <= DIGEST_BYTES:
        return text
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data), "head": text.split("\n")[:HEAD_LINES]}


def run_case(args: list[str], scratch: Path) -> dict:
    """Run one recorded command line; return what it printed and wrote."""
    from periodic_spectra.cli import main

    broken = scratch / "broken.json"
    broken.write_text("{broken", encoding="utf-8")
    ring = scratch / "ring.json"
    ring.write_text(ring_graph_text(), encoding="utf-8")
    wide = scratch / "wide.json"
    wide.write_text(wide_graph_text(), encoding="utf-8")
    paths = {
        "graph": str(GRAPH_FILE),
        "ring": str(ring),
        "wide": str(wide),
        "broken": str(broken),
        "out": str(scratch / "out.txt"),
        "disp": str(scratch / "disp.csv"),
        "missing": str(scratch / "no_such_dir" / "file.txt"),
    }
    for name in ("out", "disp"):
        Path(paths[name]).unlink(missing_ok=True)
    # A fixed help width keeps `--help` output independent of the terminal.
    result = CliRunner().invoke(
        main, [a.format(**paths) for a in args], prog_name="periodic-spectra", terminal_width=80
    )
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    files = {
        name: Path(paths[name]).read_bytes().decode("utf-8")
        for name in ("out", "disp")
        if Path(paths[name]).exists()
    }

    def portable(text: str) -> str:
        return text.replace(str(scratch), "{scratch}")

    return {
        "args": args,
        "exit_code": result.exit_code,
        "stdout": portable(result.stdout),
        "stderr": portable(result.stderr),
        "files": {name: file_record(portable(text)) for name, text in files.items()},
    }


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        cases = [run_case(args, Path(scratch)) for args in case_args()]
    old = json.loads(CASES_FILE.read_text(encoding="utf-8")) if CASES_FILE.exists() else []
    for case in old:  # full texts recorded before compare by their digest
        case["files"] = {name: file_record(text) if isinstance(text, str) else text for name, text in case["files"].items()}
    recorded = {json.dumps(case["args"]): case for case in old}
    changed = [case["args"] for case in cases if recorded.get(json.dumps(case["args"])) != case]
    for args in changed:
        print("changed:", " ".join(args))
    CASES_FILE.write_text(json.dumps(cases, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {CASES_FILE}; {len(changed)} changed")


if __name__ == "__main__":
    main()
