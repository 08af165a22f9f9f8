"""Run ``repro serve`` with the per-layer wrappers installed.

Usage: ``python perfbench/serve_launcher.py SPANS_OUT serve ARGS...``

Installs :class:`layers.SpanRecorder` before ``repro.cli.main`` builds
the service (the batcher binds its evaluation hook at construction), and
writes every recorded span to ``SPANS_OUT`` as JSON when the server has
drained and stopped.
"""

import json
import sys

from layers import SpanRecorder


def main(argv: list[str]) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    recorder = SpanRecorder().install()
    recorder.active = True
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        recorder.active = False
        with open(spans_out, "w") as handle:
            json.dump(
                [
                    [s.sid, s.name, s.start, s.end, s.parent, s.thread, s.attrs]
                    for s in recorder.spans
                ],
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
