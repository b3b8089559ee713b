"""The ``uuqc`` command: ``python -m uuqc`` and the installed ``uuqc`` script.

A command runs once and exits, and the cyclic garbage collector frees next
to nothing in it.  So ``main`` switches the collector off before
``uuqc.cli`` loads numpy, and freezes the heap before exit, which makes the
interpreter's final collection at shutdown skip it.  Importing ``uuqc``,
``uuqc.cli`` or this module leaves the collector as it is.
"""

import gc
import sys


def main() -> None:
    gc.disable()
    from .cli import dispatch

    code = dispatch(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
