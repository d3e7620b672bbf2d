"""The process entry of ``python -m confmass`` and of the ``confmass``
console script (``pyproject.toml`` names ``run``).

``run`` freezes the heap that importing the CLI built (numpy and the
confmass layers every command loads, some 23k tracked objects that stay
alive until exit) before the command runs.  Every later collection then
skips those objects, the last one at interpreter exit too, which would
otherwise spend most of a cold command's teardown walking them while
the operating system reclaims the memory anyway; the command's own
objects and the layers it imports later are collected as before.  Only
this entry freezes: ``cli.main`` runs many times in one process (the
tests call it in-process), and a freeze there would keep each call's
leftover garbage cycles for the rest of that process.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Freeze the import-time heap, then run the CLI on ``sys.argv``."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
