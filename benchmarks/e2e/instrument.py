"""Run one ``repro`` command line with the layer wrappers installed.

    python benchmarks/e2e/instrument.py TRACE_OUT ARG...

installs :class:`layers.Tracer`, calls ``repro.cli.main([ARG...])`` and,
once it returns (for ``serve``: after SIGTERM), writes the per-layer
accumulators and spans to ``TRACE_OUT``.  The exit status is the CLI's.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(_HERE)),
                                "src"))

from layers import Tracer  # noqa: E402


def main(argv: list) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer().install()
    from repro import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.enabled = False
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
