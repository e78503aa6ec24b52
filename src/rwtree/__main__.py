"""``python -m rwtree``: the command-line front end (see ``rwtree.cli``)."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
