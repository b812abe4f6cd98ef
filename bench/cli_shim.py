"""Traced stand-in for `python -m hyperforge`: installs the layer hooks, runs
one CLI command through `hyperforge.cli.main`, and writes the command's spans
and counters as JSON.

    python bench/cli_shim.py TRACE_OUT.json spaces list
"""
import json
import sys

import layers


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = layers.Tracer()
    tracer.install()
    import hyperforge.cli

    code = hyperforge.cli.main(argv)
    with open(out_path, "w") as fh:
        json.dump(tracer.export(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
