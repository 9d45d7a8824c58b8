"""Regenerate the golden CLI reports under tests/golden/.

Run from the repository root after any intentional change to report
content, then review the diff before committing.  A run given a seed
passes it as --seed and keeps its report as <report>-seed<seed>.json.
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
    ("lagrangian_n3.json", "derive"),
    ("separable_lagrangian.json", "derive"),
    ("model_space.json", "check"),
    ("potential.json", "check"),
    ("space_form.json", "check"),
    ("space_form_n3.json", "check"),
    ("space_form_matrix.json", "check"),
    ("space_form.json", "check", 7),
    ("space_form.json", "check", 17),
    ("space_form_n3.json", "check", 7),
    ("space_form_n3.json", "check", 17),
    ("potential.json", "check", 7),
    ("potential.json", "check", 17),
    ("space_form_matrix.json", "check", 7),
    ("space_form_matrix.json", "check", 17),
    ("lagrangian_xy.json", "integrate"),
    ("oscillator.json", "integrate"),
    ("lagrangian_n3.json", "integrate"),
    ("coupled_se.json", "integrate"),
    ("quartic_se.json", "integrate"),
]


def regenerate() -> int:
    os.makedirs(GOLDEN, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="golden-")
    try:
        for i, (problem, command, *seed) in enumerate(RUNS):
            out = os.path.join(scratch, str(i))
            path = os.path.join(PROBLEMS, problem)
            code = main([command, "--problem", path, "--out", out,
                         *(["--seed", str(seed[0])] if seed else [])])
            if code != 0:
                print(f"error: {command} on {problem} exited {code}",
                      file=sys.stderr)
                return code
            report = next(e for e in os.listdir(out) if e.endswith(".json"))
            name = f"{report[:-5]}-seed{seed[0]}.json" if seed else report
            shutil.copy(os.path.join(out, report), os.path.join(GOLDEN, name))
            print(f"wrote tests/golden/{name}")
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
