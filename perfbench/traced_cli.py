"""``python -m homlattice`` with the boundary wrappers installed.

    python3 perfbench/traced_cli.py SPANS_JSON <homlattice arguments>

Times the package import, runs the command line, then writes the spans
and counts of this process to SPANS_JSON and exits with the command's
exit code.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    dump, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import homlattice.cli
    import_s = time.perf_counter() - t0
    sys.path.insert(0, HERE)
    import spans

    tracer = spans.Tracer()
    tracer.install()
    code = homlattice.cli.main(argv)
    tracer.dump(dump, import_s=import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
