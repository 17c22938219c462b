"""Child-process entry points of the benchmark.

    python3 bench/child.py setup SPECS_JSON
        Import gromov4, then build every model in SPECS_JSON (preset names,
        or "file:<path>" for model files), once.  Prints one JSON object
        with import_s and build_s.

    python3 bench/child.py cli OUT_JSON ARG...
        One traced CLI call: the same as `python3 -m gromov4 ARG...`, with
        the import of gromov4.cli and the time inside cli.run measured, and
        the package's public functions traced.  Writes the timings, call
        counts and spans to OUT_JSON.
"""

import json
import sys
from time import perf_counter


def setup(specs):
    t0 = perf_counter()
    import gromov4

    t1 = perf_counter()
    for spec in specs:
        if spec.startswith("file:"):
            gromov4.load_model(spec[5:])
        else:
            gromov4.preset(spec)
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


def traced_cli(out_path, argv):
    t0 = perf_counter()
    import gromov4.cli

    t1 = perf_counter()
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    t2 = perf_counter()
    try:
        code = gromov4.cli.run(argv)
    finally:
        t3 = perf_counter()
        tracer.uninstall()
        sys.stdout.flush()
    record = {
        "import_s": t1 - t0,
        "install_s": t2 - t1,
        "run_s": t3 - t2,
        "totals": tracer.totals(),
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as out:
        json.dump(record, out)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(json.loads(sys.argv[2]))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
