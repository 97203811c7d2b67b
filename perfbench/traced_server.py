"""Server child for the traced run.

``python perfbench/traced_server.py --spans-out FILE <server args>``
wraps the server-side layers with span timers, then hands the remaining
arguments to ``repro.deploy.server`` unchanged. The spans stay in
memory and are written to ``FILE`` after the server has drained.
"""

from __future__ import annotations

import argparse
import sys

from instrument import instrument_server
from spans import SpanRecorder


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spans-out", required=True)
    args, server_argv = parser.parse_known_args(argv)
    recorder = SpanRecorder("s")
    instrument_server(recorder)
    from repro.deploy import server

    code = server.main(server_argv)
    recorder.dump(args.spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
