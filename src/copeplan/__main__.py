"""`python -m copeplan`: the same command line as the `copeplan` script."""

import sys

from .cli import main

sys.exit(main())
