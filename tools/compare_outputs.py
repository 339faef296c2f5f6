"""Byte comparison of the lfunlab CLI's outputs between two source trees.

Usage, from the repository root:

    python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of the repository; its src/ goes first on
PYTHONPATH, and the script checks that the package is imported from there.
Both trees run the same commands:

  - every command of perfbench/workloads.generate(workload, seed), for every
    workload and seeds 1-5; a cached sweep runs cold, then warm, against one
    --cache-dir;
  - a fixed list of commands and refusals (FIXED below), some of several
    steps run in one directory.

Each command runs as `python -m lfunlab.cli` in a fresh temporary
directory, with relative --out and --cache-dir names.  The exit code,
standard output and standard error of every step, and the bytes of every
file the command leaves in its directory (--out files and cache records),
are compared.  Every differing command is printed with what differs; the
exit status is 1 on any difference and 0 when all outputs are identical.
The workload list is read from this repository's perfbench/workloads.py,
which is imported without writing bytecode.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 6)

sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402

SHIFTS = ("7/2", "3.5", "1.5e0", "-1", "abc", "1/0")
# Commands, argv after `lfunlab`: one argv is one step, a list of argvs the
# steps of one command, run in order in one directory.
SWEEP_EQ1_JOBS = ["sweep", "--target", "eq1", "--moduli", "97,1009,2003,3001,4001", "--a", "3/2", "--jobs", "2"]
SWEEP_THM1 = ["sweep", "--target", "thm1", "--moduli", "3,4,9,35,97,210,211", "--a", "2", "--k", "3"]
SWEEP_LEMMA4 = ["sweep", "--target", "lemma4", "--moduli", "3,4,9,35,97,210,211", "--a", "2"]
SWEEP_THM2 = ["sweep", "--target", "thm2", "--primes", "5..60", "--a", "1", "--degree", "3", "--seed", "7"]


def cold_then_warm(argv: list[str]) -> list[list[str]]:
    """A cached sweep's steps: cold, then warm, against one --cache-dir."""
    return [[*argv, "--cache-dir", "cache", "--out", f"{run}.csv"] for run in ("cold", "warm")]


FIXED = [
    *[["lvalue", "--q", "35", "--a", a, "--method", m]
      for m in ("closed_direct", "closed_lemma1", "truncated") for a in SHIFTS],
    ["lvalue", "--q", "101", "--a", "3/2", "--j", "7", "--method", "truncated", "--n-terms", "20200"],
    ["lvalue", "--q", "5", "--a", "1", "--n-terms", "50"],
    ["chars", "--q", "35", "--out", "chars.json"],
    ["chars", "--q", "2310"],
    ["expsum", "--p", "13", "--f", "1,0,3,2"],
    ["verify", "--target", "orthogonality", "--q", "1009"],
    ["verify", "--target", "lemma1", "--q", "101"],
    ["verify", "--target", "lemma1", "--q", "35", "--a", "7/2", "--n-terms", "3500"],
    ["verify", "--target", "lemma1", "--q", "12", "--a", "1/0"],
    ["verify", "--target", "lemma2", "--p", "211", "--f", "1,0,3,2"],
    ["verify", "--target", "lemma3", "--p", "211", "--f", "1,0,3,2"],
    ["verify", "--target", "thm2", "--p", "211", "--f", "1,0,3,2"],
    ["verify", "--target", "thm2", "--p", "211", "--f", "1,0,3,2", "--a", "5/2"],
    ["verify", "--target", "recombination", "--q", "2310", "--k", "13"],
    ["verify", "--target", "recombination", "--q", "2310", "--k", "13", "--a", "3/2"],
    ["verify", "--target", "thm2", "--p", "12", "--f", "1,2"],
    ["verify", "--target", "recombination", "--q", "35"],
    # flags the target does not read
    ["verify", "--target", "lemma2", "--p", "13", "--f", "1,0,3,2", "--a", "5", "--k", "3"],
    ["verify", "--target", "orthogonality", "--q", "13", "--f", "1,2"],
    ["verify", "--target", "lemma1", "--q", "13", "--k", "2"],
    ["verify", "--target", "thm2", "--p", "13", "--f", "1,2", "--n-terms", "130"],
    [*SWEEP_EQ1_JOBS, "--out", "jobs.csv"],
    [*SWEEP_THM1, "--out", "thm1.json"],
    ["sweep", "--target", "lemma4", "--primes", "3..60", "--a", "2"],
    ["sweep", "--target", "thm2", "--moduli", "7,11", "--a", "1"],
    ["sweep", "--target", "eq1", "--moduli", "7", "--a", "1/2", "--out", "bad.txt"],
    ["cache", "--cache-dir", "cache"],
    # a cached sweep of each target, cold then warm; the eq1 one in a pool, then cleared
    [*cold_then_warm(SWEEP_EQ1_JOBS), ["cache", "--cache-dir", "cache", "--clear"]],
    cold_then_warm(SWEEP_THM1),
    cold_then_warm(SWEEP_LEMMA4),
    cold_then_warm(SWEEP_THM2),
    # sweep flags the target does not read, and a missing or conflicting one
    ["sweep", "--target", "eq1", "--moduli", "7,11", "--a", "3/2", "--k", "3"],
    ["sweep", "--target", "lemma4", "--moduli", "7,11", "--a", "2", "--f", "1,2", "--degree", "3"],
    ["sweep", "--target", "thm1", "--moduli", "7,11", "--a", "2", "--k", "3", "--degree", "3"],
    ["sweep", "--target", "eq1", "--moduli", "7,11", "--a", "3/2", "--seed", "3"],
    ["sweep", "--target", "thm1", "--moduli", "7,11", "--a", "2"],
    ["sweep", "--target", "thm2", "--moduli", "7,11", "--a", "1", "--f", "1,2", "--degree", "3"],
    # parameters refused once per sweep, and moduli skipped before a polynomial is sampled
    ["sweep", "--target", "thm1", "--moduli", "7,11", "--a", "2", "--k", "1"],
    ["sweep", "--target", "eq1", "--moduli", "7,11", "--a", "1/2"],
    ["sweep", "--target", "lemma4", "--moduli", "7,11", "--a", "3/2"],
    ["sweep", "--target", "thm2", "--moduli", "7,11", "--a", "1", "--degree", "0"],
    ["sweep", "--target", "thm2", "--moduli", "0,2,4,7", "--a", "1", "--degree", "2"],
    # a modulus listed twice, and --out in a missing directory, refused before any work
    ["sweep", "--target", "eq1", "--moduli", "7,7,11", "--a", "2"],
    ["sweep", "--target", "eq1", "--moduli", "3", "--a", "1", "--out", "missing/x.csv"],
]


def fixed_commands() -> list[list[list[str]]]:
    """Every FIXED command as its list of steps (argv lists after `lfunlab`)."""
    return [entry if isinstance(entry[0], list) else [entry] for entry in FIXED]


def commands() -> list[list[list[str]]]:
    """Every command as its list of steps (argv lists after `lfunlab`)."""
    out = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for cmd in workloads.generate(workload, seed):
                if isinstance(cmd, workloads.Verify):
                    out.append([cmd.argv()])
                elif cmd.cached:
                    out.append([cmd.argv("cold.csv", "cache"), cmd.argv("warm.csv", "cache")])
                else:
                    out.append([cmd.argv("out.csv")])
    return out + fixed_commands()


def tree_env(tree: Path, default_cache: str) -> dict[str, str]:
    src = str(tree / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "LFUNLAB_CACHE_DIR": default_cache, "PYTHONDONTWRITEBYTECODE": "1",
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    found = subprocess.run([sys.executable, "-c", "import lfunlab; print(lfunlab.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"{tree}: lfunlab is imported from {found}, not from {src}")
    return env


def run_command(steps: list[list[str]], env: dict[str, str]) -> tuple:
    """(exit code, stdout, stderr) of each step, then {path: bytes} of the files left behind."""
    with tempfile.TemporaryDirectory(prefix="compare-") as work:
        results = [subprocess.run([sys.executable, "-m", "lfunlab.cli", *argv], cwd=work, env=env,
                                  capture_output=True, timeout=600)
                   for argv in steps]
        files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(Path(work).rglob("*")) if p.is_file()}
    return [(r.returncode, r.stdout, r.stderr) for r in results], files


def differences(parent: tuple, change: tuple) -> list[str]:
    out = []
    for i, (before, after) in enumerate(zip(parent[0], change[0])):
        for name, x, y in zip(("exit code", "stdout", "stderr"), before, after):
            if x != y:
                out.append(f"step {i + 1} {name}: {x!r:.200} -> {y!r:.200}")
    for path in sorted(set(parent[1]) | set(change[1])):
        if parent[1].get(path) != change[1].get(path):
            out.append(f"file {path} differs" if path in parent[1] and path in change[1]
                       else f"file {path} only in the {'parent' if path in parent[1] else 'change'}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT_TREE CHANGE_TREE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-env-") as scratch:
        envs = [tree_env(Path(tree).resolve(), os.path.join(scratch, f"cache{i}")) for i, tree in enumerate(argv)]
        cmds = commands()
        differing = 0
        for steps in cmds:
            diff = differences(*(run_command(steps, env) for env in envs))
            if diff:
                differing += 1
                print(" ; ".join("lfunlab " + shlex.join(s) for s in steps))
                for line in diff:
                    print(f"    {line}")
    print(f"{differing} of {len(cmds)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
