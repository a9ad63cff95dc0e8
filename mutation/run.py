"""Mutation gate: every mutant in ``mutants.json`` must fail its named tests.

Each mutant is an exact text replacement in one file under ``src/``: ``old``
must occur exactly once in ``file`` and is replaced by ``new``.  For each
mutant the runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
fresh temporary directory, applies the replacement there and runs pytest on
the mutant's ``tests`` only (files or node ids).  The mutant is killed when
those tests fail; a surviving mutant is a gap in the tests, to be mended by
a test, not by deleting the mutant.  Before the mutants, the unmutated copy
must pass every named test, or no kill would mean anything.

Usage, from anywhere (exit status 1 if a mutant survives or a test errs):

    python mutation/run.py            # every mutant
    python mutation/run.py ID [ID..]  # the named mutants
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> int:
    """pytest's exit status on ``tests`` in ``tree``, its sources first on the path."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode


def _mutated(tree: Path, mutant: dict) -> str:
    """The text of the mutant's file in ``tree`` with the mutant applied."""
    text = (tree / mutant["file"]).read_text()
    count = text.count(mutant["old"])
    if count != 1:
        raise SystemExit(f"{mutant['id']}: old text occurs {count} times in {mutant['file']}")
    return text.replace(mutant["old"], mutant["new"])


def main(argv: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text())
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            raise SystemExit(f"unknown mutant ids: {sorted(unknown)}")
        mutants = [m for m in mutants if m["id"] in argv]
    for m in mutants:  # a stale old text stops the run before any test
        _mutated(ROOT, m)
    named = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory(prefix="phasetv-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        status = _pytest(base, named)
        if status != 0:
            print(f"unmutated tree: pytest exit {status} on {' '.join(named)}")
            return 1
        survivors, errors = [], []
        for i, m in enumerate(mutants):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            (tree / m["file"]).write_text(_mutated(tree, m))
            status = _pytest(tree, m["tests"])
            shutil.rmtree(tree)
            # 1: tests failed; 2: collection failed, as an import of the mutant may.
            verdict = {0: "SURVIVED", 1: "killed", 2: "killed"}.get(status, f"pytest exit {status}")
            print(f"{verdict:>9}  {m['id']}  ({m['file']})", flush=True)
            if status == 0:
                survivors.append(m["id"])
            elif status not in (1, 2):
                errors.append(m["id"])
    print(f"{len(mutants) - len(survivors) - len(errors)} of {len(mutants)} mutants killed")
    for name, ids in (("survived", survivors), ("errors", errors)):
        if ids:
            print(f"{name}: {' '.join(ids)}")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
