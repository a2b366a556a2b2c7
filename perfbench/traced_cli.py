"""Run one CLI command like ``python -m periodic_spectra.cli``, traced.

Usage: ``python traced_cli.py VERB [OPTIONS...]`` with ``PYTHONPATH`` naming
the library's ``src`` directory and ``PERFBENCH_SPANS`` naming the JSON file
that receives the spans.  Standard output and the exit code are those of the
plain command; the spans file is written on the way out.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import periodic_spectra  # noqa: E402
import periodic_spectra.cli as cli  # noqa: E402

imported = time.perf_counter()

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.add_span("cli.import", start, imported)
tracer.install(periodic_spectra, cli)
try:
    cli.main.main(args=sys.argv[1:], prog_name="periodic-spectra")
finally:
    tracer.uninstall()
    with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
