"""Regenerate the golden CLI reports under tests/golden/.

Run from the repository root after any intentional change to report
content, then review the diff before committing.
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from parakahler.cli import main  # noqa: E402

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
PROBLEMS = os.path.join(ROOT, "problems")
GOLDEN = os.path.join(ROOT, "tests", "golden")

RUNS = [
    ("lagrangian_xy.json", "derive"),
    ("oscillator.json", "derive"),
    ("model_space.json", "check"),
    ("potential.json", "check"),
    ("space_form.json", "check"),
    ("space_form_n3.json", "check"),
    ("lagrangian_xy.json", "integrate"),
    ("oscillator.json", "integrate"),
    ("lagrangian_n3.json", "integrate"),
    ("coupled_se.json", "integrate"),
]


def regenerate() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="golden-")
    try:
        for problem, command in RUNS:
            path = os.path.join(PROBLEMS, problem)
            code = main([command, "--problem", path, "--out", scratch])
            if code != 0:
                print(f"error: {command} on {problem} exited {code}",
                      file=sys.stderr)
                return code
        for entry in sorted(os.listdir(scratch)):
            if entry.endswith(".json"):
                shutil.copy(os.path.join(scratch, entry),
                            os.path.join(GOLDEN, entry))
                print(f"wrote tests/golden/{entry}")
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
