"""The scripts in scripts/, run in-process as __main__: each exits 0 at
the tiny size TINY_ARGV must give it and 2 on a bad flag value, and the
README's command-line recipe for the step ablation matches the demo.
"""

import re
import runpy
import sys
from pathlib import Path

import pytest

import demo_pipeline
from motionflow import cli, flowmatch, textio, trajeval

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
README = SCRIPTS.parent / "README.md"
TINY_ARGV = {
    "demo_pipeline": ["--n", "11", "--epochs", "2", "--steps", "1,2"],
    "ambiguity_sweep": ["--epochs", "2", "--samples", "2"],
}


def exit_code(monkeypatch, name, *argv):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / f"{name}.py"), run_name="__main__")
    return stop.value.code


@pytest.mark.parametrize("name", sorted(path.stem for path in SCRIPTS.glob("*.py")))
def test_script_exits_0(monkeypatch, name):
    assert exit_code(monkeypatch, name, *TINY_ARGV[name]) == 0


@pytest.mark.parametrize("argv", [["demo_pipeline", "--n", "1"],
                                  ["demo_pipeline", "--steps", "0,2"],
                                  ["ambiguity_sweep", "--samples", "0"]], ids=" ".join)
def test_bad_flag_value_exits_2(monkeypatch, capsys, argv):
    assert exit_code(monkeypatch, *argv) == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err


def test_cli_recipe_matches_demo(tmp_path, monkeypatch):
    """gen, train with the demo's schedule, and ablate-steps give, as
    text, the sim(3) ATE demo_pipeline.run gives per step count."""
    scenario, _, rows = demo_pipeline.run(n=21, epochs=5, steps=(1, 2))
    monkeypatch.chdir(tmp_path)
    Path("train.cfg").write_text("batch_size = 64\nepochs = 5\nlr = 2e-3\n"
                                 "lr_decay_factor = 0.05\nlr_decay_epoch = 2\nseed = 10\n")
    for command in ("gen --kind figure8 --n 21 --seed 7 --out gen",
                    "train --dataset gen/dataset.csv --config train.cfg --out train",
                    "ablate-steps --checkpoint train/checkpoint.txt --dataset gen/dataset.csv"
                    " --gt gen/gt.tum --steps 1,2 --seed 17 --out ablate"):
        assert cli.main(command.split()) == 0
    assert Path("ablate/ablation.csv").read_text().splitlines()[1:] == [
        f"{k}," + textio.fmt([trajeval.ate(est, scenario.gt_trajectory, align="sim3")])
        for k, (_, est) in rows.items()]


def test_readme_train_cfg_is_the_demo_schedule(tmp_path):
    """The README's train.cfg loads, so it names no removed key, and it is
    the schedule demo_pipeline trains with at its default epochs."""
    blocks = re.findall(r"^cat > train\.cfg <<EOF\n(.*?)^EOF$", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    path = tmp_path / "train.cfg"
    path.write_text(blocks[0])
    assert flowmatch.load_train_config(path) == demo_pipeline.train_config(1500, seed=10)
