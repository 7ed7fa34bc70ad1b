"""README's library example runs as written, on a short epoch budget."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    assert "epochs=600" in blocks[0]
    exec(compile(blocks[0].replace("epochs=600", "epochs=2"),
                 str(README), "exec"), {})
    misfit, rmse = map(float, capsys.readouterr().out.split())
    assert misfit > 0 and rmse > 0
