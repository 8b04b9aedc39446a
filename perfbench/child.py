"""Run one spintrack subcommand in this fresh interpreter and record its costs.

    python3 perfbench/child.py STATS_JSON [SUBCOMMAND ARGS...]

Writes to STATS_JSON the monotonic time at which `import spintrack.cli`
finished (the parent subtracts its spawn time to get set-up time), the
seconds spent inside `cli.main`, and peak RSS: this process's
`ru_maxrss` plus that of its reaped children (the engine's pool workers).
With no subcommand it only imports, which warms the bytecode cache.
Exits with the subcommand's exit code.
"""

import json
import resource
import sys
import time

import spintrack.cli as cli


def main() -> int:
    imported_at = time.monotonic()
    stats_path, argv = sys.argv[1], sys.argv[2:]
    code, main_s = 0, 0.0
    if argv:
        t0 = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(stats_path, "w") as fh:
        json.dump({"imported_at": imported_at, "main_s": main_s, "rss_kib": own + kids,
                   "code": code, "module": cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
