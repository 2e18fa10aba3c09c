"""Traced run: call fracnls.cli.main in this process under span wrappers.

    python3 perfbench/traced_main.py SPANS_JSON CLI_ARGS...

Runs the CLI with CLI_ARGS exactly as the console script would, then
writes the recorded spans, the tracer's notes and the exit code to
SPANS_JSON and exits with the CLI's exit code.  `src` must be on
PYTHONPATH.
"""

import json
import sys
from pathlib import Path

from spans import SpanRecorder, Tracer, spans_to_json


def main(argv) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    import fracnls.cli

    recorder = SpanRecorder()
    with Tracer(recorder) as tracer:
        code = fracnls.cli.main(cli_args)
    spans_path.write_text(json.dumps({
        "exit_code": code, "notes": tracer.notes,
        "spans": spans_to_json(recorder.spans)}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
