"""The README's library quickstart runs as written."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Library quickstart\n\n```python\n(.*?)```", text,
                      re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "quickstart"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    assert all(math.isfinite(float(v)) for v in printed)
