"""``python -m repro.container [-q] <file> [...]`` — fsck host container files."""

import sys

from .verify import main

if __name__ == "__main__":
    sys.exit(main())
