"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload makedo --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the program under test is
imported from its ``src/`` directory.  See ``perfbench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
