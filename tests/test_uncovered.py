"""``tools/uncovered.py`` runs pytest under its tracer and lists the statements never run."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_tool_lists_never_run_statements_and_counts_them_per_module():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "uncovered.py"), "-q",
                             "-p", "no:cacheprovider", "tests/test_data.py"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    counts = [re.fullmatch(r"(src/adakern/\w+\.py): (\d+) of (\d+) statements never run", line)
              for line in lines]
    counts = {m[1]: (int(m[2]), int(m[3])) for m in counts if m}
    modules = sorted(f"src/adakern/{p.name}" for p in (ROOT / "src" / "adakern").glob("*.py"))
    assert sorted(counts) == modules
    missed = [re.fullmatch(r"(src/adakern/\w+\.py):(\d+): (.+)", line) for line in lines]
    missed = [m for m in missed if m]
    for module, (never, total) in counts.items():
        assert 0 <= never <= total
        assert sum(m[1] == module for m in missed) == never
    # test_data.py imports the data module and never the command line.
    assert counts["src/adakern/cli.py"][0] == counts["src/adakern/cli.py"][1] > 0
    assert counts["src/adakern/data.py"][0] < counts["src/adakern/data.py"][1]
    source = (ROOT / "src" / "adakern" / "data.py").read_text().splitlines()
    for m in missed:
        if m[1] == "src/adakern/data.py":
            assert source[int(m[2]) - 1].strip() == m[3]
    assert not any(m[1] == "src/adakern/data.py" and m[3].startswith("def parse_csv")
                   for m in missed)
