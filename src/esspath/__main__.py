"""``python -m esspath``: the command-line front end of esspath.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
