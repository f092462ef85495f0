"""Record the reference data the benchmark compares output with.

Run from the repository root, at the commit whose output is the reference:

    PYTHONPATH=src python3 perfbench/record.py

It writes ``data/connected.g6``, the canonical connected graphs of orders 2,
3, 5 and 7 in the program's sort order (the factor-stream generator draws
product factors from it), and ``data/digests.json``, the SHA-256 of stdout of
every fixed-argument job command.  Both pin the CLI's output to be
byte-identical from then on.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import workloads
from boxprime import encode_graph6, enumerate_connected

DATA = Path(__file__).resolve().parent / "data"
FIXED = ("census", "population", "series")


def main() -> None:
    DATA.mkdir(exist_ok=True)
    table = [encode_graph6(g) for n in (2, 3, 5, 7) for g in enumerate_connected(n)]
    (DATA / "connected.g6").write_text("\n".join(table) + "\n", encoding="ascii")
    digests = {}
    for name in FIXED:  # fixed-argument workloads write no input files
        for cmd in workloads.build(name, 0, DATA).job:
            out = subprocess.run([sys.executable, "-m", "boxprime", *cmd.argv],
                                 capture_output=True, check=True).stdout
            digests[" ".join(cmd.argv)] = hashlib.sha256(out).hexdigest()
    (DATA / "digests.json").write_text(json.dumps(digests, indent=1) + "\n",
                                       encoding="ascii")


if __name__ == "__main__":
    main()
