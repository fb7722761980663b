"""The README's examples, run as they are written there."""

import json
import shlex
from pathlib import Path

from conftest import dump_document
from dulac.cli import main
from dulac.fieldfile import field_to_dict

README = (Path(__file__).parent.parent / "README.md").read_text()
INPUTS = Path(__file__).parent / "golden" / "inputs"


def _blocks(section: str, language: str):
    """The fenced ``language`` blocks under the level-2 heading
    ``section``, up to the next level-2 heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return [chunk.split("```", 1)[0]
            for chunk in body.split(f"```{language}\n")[1:]]


def test_library_example_runs():
    block, = _blocks("Library", "python")
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    result = namespace["result"]
    assert str(result.normal_form) == (
        "(x1 + -1*x1^2*x2 + -1*x1^3*x2^2, -1*x2 + x1*x2^2 + x1^2*x2^3)")
    assert result.normal_form.spectrum == namespace["spec"]
    # the goldens pin Bruno's criterion on this field's nonlinear normal form
    assert dump_document(field_to_dict(namespace["f"])) == (
        INPUTS / "bruno-saddle.json").read_text()


def test_saddle_normalize_example_matches_the_output(tmp_path, capsys):
    block = next(b for b in _blocks("Command line", "sh")
                 if "$ cat saddle.json" in b)
    lines = block.splitlines()
    run = next(k for k, line in enumerate(lines)
               if line.startswith("$ dulac normalize"))
    document = json.loads("\n".join(lines[1:run]))
    shown = lines[run + 1:]
    assert shown[-1] == "  ..."
    (tmp_path / "saddle.json").write_text(json.dumps(document))
    argv = shlex.split(lines[run])[2:]
    argv[argv.index("saddle.json")] = str(tmp_path / "saddle.json")
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("\n".join(shown[:-1]) + "\n")
