"""Run one `prochain` command under the span tracer and leave the spans in
a JSON file; the traced form of `python3 -m prochain.cli ARGS...`.

    python3 bench/cli_shim.py SPANS.json ARGS...

The exit code, stdout and stderr are those of the command, tracebacks
included, so the traced cli round sees the same outcomes as the untraced.
"""

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    before = len(sys.modules)
    t = time.perf_counter()
    import prochain.cli
    import_s = time.perf_counter() - t
    modules = len(sys.modules) - before

    import spans
    tracer = spans.Tracer(spans.lru_caches())
    tracer.install()
    try:
        code = prochain.cli.main(argv)
    finally:
        snap = tracer.snapshot()
        snap.update(import_s=import_s, modules_loaded=modules)
        with open(out_path, "w") as fh:
            json.dump(snap, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
