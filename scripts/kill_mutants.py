"""Check that every mutant in the kill list is killed by the tests it names.

Each entry of ``scripts/mutants.json`` names a file, a source text that
occurs there exactly once, its replacement and the ids of the tests that
must fail once the text is replaced. Each mutant is applied to a fresh copy
of ``src/``, ``tests/``, ``scripts/``, ``pyproject.toml`` and ``README.md``
(whose key table a test reads) in a temporary directory, and only its tests
run there, one pytest process per mutant, under the ``mutants`` hypothesis
profile, which does not shrink a failing example. Only hypothesis's pytest plugin is loaded: pytest rewrites the
assertions in the whole package of each autoloaded plugin, and without
cached byte-code that doubles the start-up of every pytest process:

    python3 scripts/kill_mutants.py [--list FILE]

A failure counts as a kill only if the test passes without the mutant, so
every listed test first runs once on an unmodified copy, and the runner
stops with exit 1 if any of them fails there. Otherwise it checks every
entry and exits 1 when a mutant's source text no longer occurs exactly once
(a refactor must update the list), when one of its tests passes (the mutant
survived), or when its tests cannot run: they time out, an id names no
test, or collection fails.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml", "README.md")
TIMEOUT_S = 120.0


def failed_in(summary: str, test_id: str) -> bool:
    """True when a ``FAILED`` or ``ERROR`` line of pytest's short summary
    (``-rfE``) names ``test_id`` whole, up to the line's end or pytest's `` - ``.
    The id is matched rather than cut at a space: parametrized ids may hold one."""
    named = re.compile(rf"^(?:FAILED|ERROR) {re.escape(test_id)}(?: - |$)", re.M)
    return named.search(summary) is not None


def copy_tree(dest: Path) -> None:
    """Copy the files the tests need from the repository into ``dest``."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def apply(tree: Path, mutant: dict) -> str | None:
    """Replace the mutant's source text in ``tree``; the reason when it cannot."""
    path = tree / mutant["file"]
    text = path.read_text()
    found = text.count(mutant["find"])
    if found != 1:
        return f"source text occurs {found} times in {mutant['file']}, not once"
    path.write_text(text.replace(mutant["find"], mutant["replace"]))
    return None


def failing_tests(tree: Path, ids: list[str]) -> set[str]:
    """Run ``ids`` in ``tree``; the ids that failed. Raises RuntimeError when
    the tests cannot run to completion."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p",
           "_hypothesis_pytestplugin", "--tb=no", "-rfE", "--hypothesis-profile=mutants", *ids]
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"tests did not finish within {TIMEOUT_S:.0f} s") from None
    if proc.returncode not in (0, 1):  # 0: all passed, 1: some failed
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {i for i in ids if failed_in(proc.stdout, i)}


def baseline(ids: list[str]) -> str | None:
    """None when every test in ``ids`` passes on an unmodified copy; otherwise why not."""
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        try:
            failed = failing_tests(tree, ids)
        except RuntimeError as exc:
            return str(exc)
    return f"fails without a mutant: {', '.join(sorted(failed))}" if failed else None


def check(mutant: dict) -> str | None:
    """None when every listed test fails on the mutant; otherwise why not."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        problem = apply(tree, mutant)
        if problem:
            return problem
        try:
            failed = failing_tests(tree, mutant["kills"])
        except RuntimeError as exc:
            return str(exc)
    survived = [i for i in mutant["kills"] if i not in failed]
    return f"survived: {', '.join(survived)} passed" if survived else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", type=Path, default=ROOT / "scripts" / "mutants.json")
    args = parser.parse_args(argv)
    mutants = json.loads(args.list.read_text())
    problem = baseline(sorted({i for m in mutants for i in m["kills"]}))
    if problem:
        print(f"unmutated: FAIL: {problem}")
        return 1
    bad = 0
    for mutant in mutants:
        t0 = perf_counter()
        problem = check(mutant)
        verdict = "killed" if problem is None else f"FAIL: {problem}"
        print(f"{mutant['name']}: {verdict} ({perf_counter() - t0:.1f} s)", flush=True)
        bad += problem is not None
    print(f"{bad} of {len(mutants)} mutants not killed" if bad else "every mutant killed")
    return 1 if bad else 0

if __name__ == "__main__":
    sys.exit(main())
