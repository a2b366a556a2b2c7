"""Record the reference outputs the checks compare against.

Run from the root of a checkout of the commit whose outputs are the
reference::

    python3 perfbench/record_golden.py

It writes ``golden/cli.json`` (exit code, standard output and written files
of every README command) and ``golden/bracket.json`` (the bracket of every
seed-independent ``bracket`` job).
"""

import json
import sys
from pathlib import Path

import checks
import inputs
import run

sys.path.insert(0, str(run.SRC))
import periodic_spectra as ps  # noqa: E402


def main() -> None:
    run.TMP.mkdir(exist_ok=True)
    try:
        cli = []
        for number, args in enumerate(inputs.CLI_COMMANDS):
            out = run.run_cli(args, run.TMP / f"cli{number}", traced=False)
            cli.append(
                {
                    "args": list(args),
                    "exit_code": out["exit_code"],
                    "stdout": out["stdout"].decode("utf-8"),
                    "files": out["files"],
                }
            )
    finally:
        run.shutil.rmtree(run.TMP, ignore_errors=True)
    brackets = {}
    for job in inputs.bracket_jobs(0):
        if job.graph.name.startswith("q"):
            continue  # seeded random quotient: checked by the oracle only
        report = ps.bounds_for_kind(job.graph.to_graph(ps), job.kind, n_max=job.n_max)
        brackets[job.name] = {
            **{field: getattr(report, field) for field in checks.BracketChecker.FIELDS},
            "terms": [[t.b1, t.b2] for t in report.terms],
        }
    golden = Path(__file__).resolve().parent / "golden"
    (golden / "cli.json").write_text(json.dumps(cli, indent=1) + "\n", encoding="utf-8")
    (golden / "bracket.json").write_text(json.dumps(brackets, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
