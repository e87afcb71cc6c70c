"""Write the fixed output set at two revisions and compare them.

    python tools/compare_revision.py OLD [NEW] [--scenarios NAME ...] [--values-may-differ]

OLD and NEW are git revisions of this repository; each is extracted with
``git archive`` into a temporary directory.  Without NEW the working tree
is used as it stands, uncommitted changes included.  In each tree, with
``OPENBLAS_NUM_THREADS=1`` and ``OMP_NUM_THREADS=1`` and that tree's
``src`` as the only ``PYTHONPATH`` entry, ``python -m triring.cli`` writes:

- every scenario the tree's CLI names, at ``--dims 4``, once with
  ``--jobs 1`` (under ``jobs1/``) and once with ``--jobs 2`` (``jobs2/``);
- ``triring point`` on the paper's working point at 5x5x5 with the
  convergence check, as ``point.json`` and as ``point.csv``.

``--scenarios`` runs only the named scenarios and skips the point.  The two
output directories then go to ``tools/compare_outputs.py``, whose report
this prints and whose exit status it returns: 0 when every file is
identical, 1 on any difference.  ``--values-may-differ`` is passed on to
it, so that only a missing or extra file exits 1.  A revision that does
not resolve, or a command that fails in either tree, exits 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
# the README's point config, the working point on the bridge-coupled ring,
# with the convergence check
POINT = {
    "params": {"delta": 0.5, "u": 5.0, "j": 0.70710678, "theta": -0.78539816,
               "omega": 0.1, "kappa": 1.0, "kappa_b": 1.0},
    "dims": 5, "convergence_check": True,
}


class RevisionError(Exception):
    pass


def _run(argv: list[str], env: dict | None = None) -> bytes:
    """The command's stdout; a nonzero exit raises :class:`RevisionError`."""
    proc = subprocess.run(argv, capture_output=True, env=env)
    if proc.returncode != 0:
        raise RevisionError(
            f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.decode(errors='replace')}"
        )
    return proc.stdout


def extract(revision: str, target: Path) -> Path:
    """``git archive`` of ``revision`` unpacked into ``target``."""
    commit = _run(["git", "-C", str(ROOT), "rev-parse", "--verify", f"{revision}^{{commit}}"])
    archive = _run(["git", "-C", str(ROOT), "archive", commit.decode().strip()])
    # the "data" filter refuses links and paths that leave the target
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, **safe)
    return target


def write_outputs(tree: Path, out: Path, point: Path, scenarios: list[str] | None) -> None:
    """The fixed output set of the source tree ``tree``, written under ``out``."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    python = [sys.executable, "-m", "triring.cli"]
    names = scenarios or _run(
        [sys.executable, "-c", "from triring.cli import SCENARIO_NAMES; print(*SCENARIO_NAMES)"],
        env,
    ).decode().split()
    for jobs in ("1", "2"):
        _run([*python, "scenario", *names, "--dims", "4", "--jobs", jobs,
              "--out", str(out / f"jobs{jobs}")], env)
    if scenarios is None:
        for fmt in ("json", "csv"):
            _run([*python, "point", str(point), "--format", fmt,
                  "--out", str(out / f"point.{fmt}")], env)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the fixed output set of two revisions."
    )
    parser.add_argument("old", help="git revision to compare against")
    parser.add_argument("new", nargs="?", help="git revision (default: the working tree)")
    parser.add_argument("--scenarios", nargs="+", metavar="NAME",
                        help="run only these scenarios, and no point")
    parser.add_argument("--values-may-differ", action="store_true",
                        help="exit 0 when values differ; 1 only for a missing or extra file")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare_revision_") as tmp:
        tmp = Path(tmp)
        point = tmp / "point_config.json"
        point.write_text(json.dumps(POINT))
        try:
            old = extract(args.old, tmp / "tree_old")
            new = extract(args.new, tmp / "tree_new") if args.new else ROOT
            for label, tree in (("old", old), ("new", new)):
                write_outputs(tree, tmp / label, point, args.scenarios)
        except RevisionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        flags = ["--values-may-differ"] if args.values_may_differ else []
        compare = subprocess.run(
            [sys.executable, str(TOOLS / "compare_outputs.py"), str(tmp / "old"), str(tmp / "new"),
             *flags]
        )
    return compare.returncode


if __name__ == "__main__":
    sys.exit(main())
