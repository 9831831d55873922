"""Regenerate tests/golden/digests.json: the sha256 of every artifact of
``pipeline --n-assets 2 --n-runs-total 300`` at seeds 0 and 3, with the
Python and numpy versions that made them.

    PYTHONPATH=src python tests/golden/regenerate.py

Run it only when a change moves the artifacts' bytes on purpose, or when
numpy's version changes, and commit the file with a line in CHANGES.md
that names the files whose digests changed and why.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import GOLDEN, golden_versions, pipeline_digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as root:
        digests = pipeline_digests(Path(root))
    GOLDEN.write_text(json.dumps({**golden_versions(), "digests": digests}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
