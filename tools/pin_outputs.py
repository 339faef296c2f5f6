"""SHA-256 pins of the lfunlab CLI's output bytes, kept in tests/output_pins.json.

Usage, from the repository root:

    python3 tools/pin_outputs.py

rewrites tests/output_pins.json from the tree's own src/.  A change that
alters output bytes on purpose reruns it and lists each changed command.

The commands are tools/compare_outputs.py's FIXED list: one argv is one
step, a list of argvs the steps of one command.  Each command runs in
process through lfunlab.cli.run in a fresh temporary directory, with
relative --out and --cache-dir names and LFUNLAB_CACHE_DIR set to a
directory inside it.  A pin holds, for each step, the exit code and the
SHA-256 of its stdout and stderr, and the SHA-256 of every file the command
leaves in its directory.  The lfunlab logger's warnings go to the captured
stderr, as a fresh interpreter prints them through logging's last-resort
handler.  The file also records the numpy version the pins were made with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import logging
import os
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN_FILE = ROOT / "tests" / "output_pins.json"

sys.path.insert(0, str(ROOT / "tools"))
from compare_outputs import fixed_commands  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_steps(steps: list[list[str]]) -> dict:
    """The pin of one command, run in process in a fresh temporary directory."""
    from lfunlab import cli

    logger = logging.getLogger("lfunlab")
    cwd, env = os.getcwd(), os.environ.get("LFUNLAB_CACHE_DIR")
    with tempfile.TemporaryDirectory(prefix="pins-") as work:
        os.chdir(work)
        os.environ["LFUNLAB_CACHE_DIR"] = "default-cache"
        results = []
        try:
            for argv in steps:
                out, err = io.StringIO(), io.StringIO()
                handler = logging.StreamHandler(err)
                handler.setLevel(logging.WARNING)
                logger.addHandler(handler)
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.run(argv)
                        except SystemExit as exc:  # argparse refusals
                            code = exc.code
                finally:
                    logger.removeHandler(handler)
                results.append([code, _sha(out.getvalue().encode()), _sha(err.getvalue().encode())])
            files = {str(p.relative_to(work)): _sha(p.read_bytes())
                     for p in sorted(Path(work).rglob("*")) if p.is_file()}
        finally:
            os.chdir(cwd)
            if env is None:
                os.environ.pop("LFUNLAB_CACHE_DIR", None)
            else:
                os.environ["LFUNLAB_CACHE_DIR"] = env
    return {"steps": results, "files": files}


def command_name(steps: list[list[str]]) -> str:
    return " ; ".join("lfunlab " + shlex.join(argv) for argv in steps)


def pins() -> dict[str, dict]:
    """The pin of every command, keyed by its command line."""
    return {command_name(steps): run_steps(steps) for steps in fixed_commands()}


def main() -> int:
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    commands = pins()
    lines = ",\n".join(f"  {json.dumps(name)}: {json.dumps(pin)}" for name, pin in commands.items())
    PIN_FILE.write_text(f'{{"numpy": {json.dumps(np.__version__)}, "commands": {{\n{lines}\n}}}}\n',
                        encoding="utf-8")
    print(f"wrote {len(commands)} pins to {PIN_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
