"""The README's Library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The first python block under the Library quickstart heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # its cache directory is relative
    text = quickstart()
    code = compile(text, "README.md", "exec")
    # each print prints the leading digits its comment promises
    promised = [line.split("#", 1)[1].split(",") for line in text.splitlines()
                if line.startswith("print(")]
    for first_run in (True, False):
        names = {}
        exec(code, names)
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == len(promised)
        for out, digits in zip(printed, promised):
            for value, prefix in zip(out.split(), digits, strict=True):
                assert value.startswith(prefix.strip().rstrip(".")), (out, digits)
        specs = names["specs"]
        assert list(names["solved"]) == specs
        assert names["hits"] == (set() if first_run else set(specs))
