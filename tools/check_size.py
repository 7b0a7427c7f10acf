#!/usr/bin/env python3
"""Line ceilings for the files ROADMAP.md watches (run by ``make docs-check``).

Each ceiling is the size the file had when it was last deliberately
changed.  A PR that grows a file past its ceiling has to raise the number
here, in its own diff, where a reviewer sees it; a PR that shrinks one
should lower it.  Exits 0 within every ceiling, 1 otherwise.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Path under ``src/repro`` ("" = every ``*.py`` below it), or a tuple of
#: paths whose lines sum under one ceiling -> line ceiling.
CEILINGS = {
    # ROADMAP item 8's gate: the three files together, whatever each holds.
    ("core/scenarios.py", "resolver/recursive.py", "core/worlds.py"): 3342,
    "core/scenarios.py": 1440,
    "resolver/recursive.py": 981,
    "core/worlds.py": 921,
    "resolver/cache.py": 733,
    "serve/memo.py": 222,
    "serve/frontend.py": 440,
    "net/latency.py": 187,
    "net/transport.py": 435,
    "server/authoritative.py": 161,
    "server/anycast.py": 112,
    "dns/name.py": 314,
    "metrics/registry.py": 258,
    "runner/executor.py": 339,
    "": 19455,
}


def lines(path: Path) -> int:
    files = [path] if path.is_file() else sorted(path.rglob("*.py"))
    return sum(len(file.read_text(encoding="utf-8").splitlines()) for file in files)


def main() -> int:
    grown = 0
    for rel, ceiling in CEILINGS.items():
        group = rel if isinstance(rel, tuple) else (rel,)
        size = sum(lines(SRC / path) for path in group)
        name = " + ".join(f"src/repro/{path or '**/*.py'}" for path in group)
        verdict = "ok" if size <= ceiling else "GROWN"
        print(f"{verdict:>5} {name}: {size} lines "
              f"(ceiling {ceiling}, headroom {ceiling - size})")
        grown += size > ceiling
    return 1 if grown else 0


if __name__ == "__main__":
    sys.exit(main())
