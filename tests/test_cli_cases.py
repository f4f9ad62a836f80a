"""Every case of the CLI byte check, run in process on this tree alone.

``tools/cli_diff.py`` compares the CLI of two trees; this runs its case table
once and checks what each case writes: no escaping exception, a documented
exit code, JSON that parses without NaN or Infinity, and CSV without inf or nan.
A case that sets a removed key must exit 2.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from psamzi import cli

_SPEC = importlib.util.spec_from_file_location(
    "cli_diff", Path(__file__).resolve().parents[1] / "tools" / "cli_diff.py")
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)
CASES = cli_diff.cases()


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def check_document(text: str) -> None:
    """A CSV table has no inf or nan cell; JSON parses with NaN and Infinity refused."""
    if text.startswith("#"):
        cells = [cell for line in text.splitlines()[1:] for cell in line.split(",")]
        assert not [cell for cell in cells if cell.lstrip("+-") in ("inf", "nan")]
    elif text.startswith(("{", "[")):
        json.loads(text, parse_constant=_refuse)


@pytest.mark.parametrize("label, argv, inputs", CASES, ids=[case[0] for case in CASES])
def test_case_writes_valid_output(label, argv, inputs, tmp_path, monkeypatch, capsys):
    cli_diff.write_inputs(tmp_path, inputs)
    monkeypatch.chdir(tmp_path)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert code == 2 or label not in cli_diff.REMOVED
    check_document(capsys.readouterr().out)
    for path in tmp_path.iterdir():
        if path.is_file() and path.name not in inputs:
            check_document(path.read_text(encoding="utf-8"))
