"""One calibrated end-to-end benchmark for the placement service.

See ``README.md`` in this directory.  Importing the package puts the
repository's ``src/`` on ``sys.path`` (nothing is pip-installed where
this runs), so ``python3 benchmarks/e2e/run.py`` works from a bare
checkout.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if not (ROOT / "src" / "repro").is_dir():
    raise ImportError(
        f"benchmarks.e2e measures the package under {ROOT / 'src'}; "
        "no src/repro there"
    )
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
