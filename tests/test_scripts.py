"""Each script's main() run in process on a small budget."""

import importlib.util
import json
import re
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_benchmark(capsys):
    assert load_script("oracle_benchmark").main(["--instances", "2", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 5  # header, two instances, a blank line, the summary
    header = ["instance", "topology", "optimum", "bound", "median", "gap", "gens", "oracle", "ms"]
    assert out.splitlines()[0].split() == header
    # both instances' initial populations already hold a plan at the bound
    assert [line.split()[5] for line in out.splitlines()[1:3]] == ["0", "0"]
    # both instances' solves price exactly at their optimum, which equals the bound
    assert [line.split()[4] for line in out.splitlines()[1:3]] == ["0.00%", "0.00%"]
    assert "2/2 instance medians within 2%" in out
    assert "; 0 generations run, 4/4 solves stopped at generation 0;" in out


def test_solve_scenarios(tmp_path, capsys):
    load_script("solve_scenarios").main(["--generations", "3", "--outdir", str(tmp_path)])
    names = ("baseline", "dc_expansion", "network_expansion")
    for name in names:
        assert json.loads((tmp_path / f"{name}.result.json").read_text())["generations_run"] == 3
        assert len((tmp_path / f"{name}.trace.csv").read_text().splitlines()) == 4
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == list(names)


def test_solve_digest(capsys):
    argv = ["--generations", "20", "--seeds", "1", "--tiny", "16"]
    digests = []
    for _ in range(2):
        assert load_script("solve_digest").main(argv) == 0
        digests.append(capsys.readouterr().out)
    assert re.fullmatch(r"aggregate [0-9a-f]{64}\nstrict [0-9a-f]{64}\n", digests[0]) and digests[1] == digests[0]
