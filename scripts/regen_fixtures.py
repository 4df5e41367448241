"""Regenerate the DOT golden files from the shipped running example.

    python3 scripts/regen_fixtures.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ceaf import dot, io_doc

FIXDIR = ROOT / "fixtures"
GOLDDIR = FIXDIR / "goldens"


def main():
    GOLDDIR.mkdir(parents=True, exist_ok=True)
    ldp = io_doc.load(FIXDIR / "ldp.json").framework
    a1 = ldp.by_id("a1")
    a2 = ldp.by_id("a2")
    a3 = ldp.by_id("a3")
    goldens = {
        "ldp-whole.dot": dot.export_dot(ldp),
        "ldp-view-a1-a3.dot": dot.export_dot(ldp, {a1, a3}),
        "ldp-view-a1-a2-a3.dot": dot.export_dot(ldp, {a1, a2, a3}),
    }
    for name, text in goldens.items():
        (GOLDDIR / name).write_text(text)
        print("wrote", GOLDDIR / name)


if __name__ == "__main__":
    main()
