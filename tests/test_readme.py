"""The README's library examples run as written.

Its ```python blocks run in order in one namespace, as a reader pastes
them, so an example that calls a removed function or passes a removed
argument fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].converged
    assert "ErrorReport(" in capsys.readouterr().out
