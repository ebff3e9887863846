"""``repro serve`` with the layers timed from outside.

Usage: ``python serve_traced.py <run_dir> serve [repro serve flags]``.
Wraps the layer entry points (``layers.py``), runs the stock CLI, and
when the server stops writes ``server-spans.jsonl`` and
``server-layers.json`` into ``run_dir``.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from layers import Recorder, install  # noqa: E402


def main() -> int:
    run_dir = pathlib.Path(sys.argv[1])
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        recorder.write_jsonl(run_dir / "server-spans.jsonl")
        (run_dir / "server-layers.json").write_text(json.dumps(recorder.summary()))


if __name__ == "__main__":
    sys.exit(main())
