"""Child processes import the package under test.

pytest's `pythonpath` setting reaches only this interpreter, so the
`python -m formflux.cli` runs of the acceptance tests would import an
installed formflux, or none.  The package's `src/` is prepended to
PYTHONPATH, which child processes inherit.
"""

import os
from pathlib import Path

import formflux

_SRC = str(Path(formflux.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)
