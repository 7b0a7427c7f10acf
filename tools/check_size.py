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
    # Raised by worlds.py's 10 below.
    ("core/scenarios.py", "resolver/recursive.py", "core/worlds.py"): 3346,
    "core/scenarios.py": 1439,
    "resolver/recursive.py": 976,
    # Raised: query logs are opt-in, so World.keep_query_logs and the
    # three builders whose experiments read logs turn them on.
    "core/worlds.py": 931,
    "resolver/cache.py": 718,
    "serve/memo.py": 222,
    "serve/frontend.py": 440,
    "net/latency.py": 187,
    "net/transport.py": 439,
    "server/authoritative.py": 172,
    "server/anycast.py": 113,
    "dns/name.py": 314,
    "metrics/registry.py": 258,
    "runner/executor.py": 341,
    # Raised: worlds.py's log opt-in (+10) and dns/zone.py's weakly held,
    # self-compiling response table (+10), less cache.py's link probes (-9).
    "": 19465,
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
