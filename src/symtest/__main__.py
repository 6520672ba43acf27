"""``python -m symtest``: the ``symtest`` command line, from a source checkout too."""

import sys

from .cli import main

sys.exit(main())
