"""`python -m kstfree`: the `kstfree` command line (`kstfree.cli.main`)."""
import sys

from .cli import main

sys.exit(main())
