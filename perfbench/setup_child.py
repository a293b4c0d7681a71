"""The fixed per-config cost a CLI user pays before any solve work.

Usage: python3 perfbench/setup_child.py CONFIG.json

Imports the CLI, builds the surface and divisor, then the divisor fields
(log section fields from the Green kernel). The parent times this process
from spawn to exit.
"""

import json
import sys


def main(path):
    import vortexlab.cli as cli

    with open(path) as fh:
        cfg = json.load(fh)
    surface, divisor = cli.build_setup(cfg)
    cli.build_divisor_fields(surface, divisor)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
