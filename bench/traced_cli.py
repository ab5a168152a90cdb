"""`sym batch` with span recorders installed; writes its spans at exit.

    python3 bench/traced_cli.py SPANS_PATH < commands
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.op = 0          # every span of the child belongs to some input line
tracer.install()

import ccsym.cli  # noqa: E402  (already patched through tracer.install)

try:
    status = ccsym.cli.main(["batch"])
finally:
    tracer.dump(sys.argv[1])
sys.exit(status)
