"""``tools/fixture_digests.py`` runs and prints one named sha256 per output.

The digests themselves are not checked: their bits depend on the platform.
"""

import itertools
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = ("nesterov", "pgd", "monotone-nesterov")
TAUS = ("0.0", "0.01")


def expected_names() -> list[str]:
    names = []
    for task, variant, tau, form, field in itertools.product(
            ("solve", "solve_svr"), VARIANTS, TAUS, ("frozen", "adaptive"),
            ("duals", "F", "gradient", "history", "iterations", "terminated_by", "factor")):
        names.append(f"{task}/{variant}/tau={tau}/{form}/{field}")
    model_fields = ("bias", "meta", "eta", "F", "decisions")
    for variant, tau, trainer, field in itertools.product(
            VARIANTS, TAUS, ("train", "train_svr"), model_fields):
        names.append(f"{trainer}/{variant}/tau={tau}/{field}")
    names += [f"train_scalable/{field}" for field in model_fields]
    for task in ("svm", "svr"):
        names += [f"cli/train-{task}/stdout", f"cli/train-{task}/model",
                  f"cli/predict-{task}/stdout"]
    return names + ["cli/bounds/stdout"]


def test_the_tool_prints_a_digest_for_every_output():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "fixture_digests.py")],
                            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                            text=True, timeout=600, check=True)
    lines = [line.split(" ") for line in result.stdout.splitlines()]
    assert all(len(parts) == 2 and re.fullmatch("[0-9a-f]{64}", parts[1]) for parts in lines)
    assert [parts[0] for parts in lines] == expected_names()
