"""`python -m gwrev <command> ...`: the command-line driver of `gwrev.cli`."""

import sys

from .cli import main

sys.exit(main())
