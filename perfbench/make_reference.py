"""Regenerate the per-modulus reference rows under perfbench/reference/.

Usage, from the repository root:

    python3 perfbench/make_reference.py

For every sweep the workloads can issue, this runs `lfunlab sweep` on each
modulus any seed can draw and writes the rows, in the CLI's own CSV format,
to reference/<name>.csv.  Each modulus is its own command with cold memos,
so at most one large table is alive at a time.  The benchmark compares its
report rows with these; regenerate only when the reported numbers are meant
to change.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads and puts src/ on sys.path
import workloads


def main() -> int:
    lfunlab = run.import_lfunlab()
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as tmp:
        for name, sweep in workloads.reference_sweeps():
            runner = run.Runner(lfunlab, [], Path(tmp))
            header, rows = None, []
            for q in sweep.moduli:
                out = Path(tmp) / "ref.csv"
                code, _, log = runner.command(dataclasses.replace(sweep, moduli=(q,)).argv(str(out)))
                if code != 0:
                    print(f"{name}: q={q} exited {code}\n{log}", file=sys.stderr)
                    return 1
                lines = out.read_text().splitlines()
                header = lines[0]
                rows += lines[1:]
            (workloads.REFERENCE_DIR / f"{name}.csv").write_text("\n".join([header, *rows]) + "\n")
            print(f"{name}: {len(rows)} rows from {len(sweep.moduli)} moduli")
    return 0


if __name__ == "__main__":
    sys.exit(main())
