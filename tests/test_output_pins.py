"""The CLI's output bytes, pinned: tools/compare_outputs.py's FIXED commands
against the SHA-256 pins in tests/output_pins.json (tools/pin_outputs.py)."""

import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import pin_outputs  # noqa: E402


def test_cli_output_bytes_are_pinned():
    golden = json.loads(pin_outputs.PIN_FILE.read_text(encoding="utf-8"))
    assert golden["numpy"] == np.__version__, (
        f"the pins were made with numpy {golden['numpy']} and this is numpy {np.__version__}; "
        "check the outputs and rerun python3 tools/pin_outputs.py")
    actual = pin_outputs.pins()
    assert list(actual) == list(golden["commands"]), "the FIXED list changed; rerun python3 tools/pin_outputs.py"
    differing = [f"{name}: {golden['commands'][name]} -> {pin}"
                 for name, pin in actual.items() if pin != golden["commands"][name]]
    assert not differing, "output bytes changed:\n" + "\n".join(differing)
