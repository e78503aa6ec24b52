"""Run one rwtree benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload {fib,dispatch,hol} --seed N --seconds S --trace {0,1}

The package is imported from the checkout's ``src/`` directory and nowhere
else; without it the script exits with status 2 before measuring anything.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit status is
0 only when every op produced the reference result.
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

if __name__ == "__main__":
    if not (SRC / "rwtree" / "__init__.py").is_file():
        print(f"rwtree sources not found: {SRC / 'rwtree'} is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    sys.exit(harness.main())
