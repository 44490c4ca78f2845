"""Record the sha256 of every reference cli-corpus report in digests.json.

    python3 perfbench/make_digests.py

The traced cli-corpus run re-renders the same reports and prints how many
differ as ``cli.reports_changed``.  The stored digests were taken at the
commit named in the file; re-record them only when a change to the reports
is intended.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import import_package  # noqa: E402
from perfbench.workloads import CliCorpus  # noqa: E402


def main() -> int:
    P = import_package()
    if P is None:
        return 2
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=HERE, capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory(dir=HERE.parent) as work:
        reports = CliCorpus(P, 0, Path(work)).reference_reports()
    (HERE / "digests.json").write_text(json.dumps({"commit": commit, "reports": reports}, indent=1, sort_keys=True) + "\n")
    print(f"{len(reports)} report digests written at {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
