"""README.md against the code: its commands parse, the recipe copies outside
the acceptance suite still run its desk recipe's commands, and its config
example loads.

The acceptance suite runs the desk-scale recipe block itself
(``test_acceptance.run_recipe``); ``tools/samebytes.py`` and perfbench's
``sim_recipe`` workload keep hand-written copies of it, at their own sizes
and seeds, which are checked here by subcommand and flags.
"""

import importlib.util
import re
import sys

from helpers import README, desk_recipe, readme_blocks, shell_commands
from tcssd.cli import _build_parser
from tcssd.config import RunConfig, apply_flat_overrides, flat_dict, parse_config_file

ROOT = README.parent
# Sizes that the copies set on their own, as the README leaves them at default.
OWN_FLAGS = {"--steps", "--batch-size"}


def load_module(name, relpath):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shape(argv):
    """A command's subcommand and its flags, less the sizes a copy sets."""
    return argv[0], frozenset(w for w in argv if w.startswith("--")) - OWN_FLAGS


def missing_from(copy):
    have = {shape(argv) for argv in copy}
    return [" ".join(argv) for argv in desk_recipe() if shape(argv) not in have]


def test_every_readme_tcssd_line_parses():
    lines = [words[1:] for _, block in readme_blocks("sh")
             for words in shell_commands(block) if words[0] == "tcssd"]
    bad = []
    for argv in lines:
        try:
            _build_parser().parse_args(argv)
        except SystemExit:
            bad.append("tcssd " + " ".join(argv))
    assert lines and not bad, f"README.md lines the CLI refuses: {bad}"


def test_samebytes_runs_each_desk_recipe_command(tmp_path):
    samebytes = load_module("samebytes", "tools/samebytes.py")
    for split in ("train", "eval"):
        (tmp_path / f"wav_{split}").mkdir()
        (tmp_path / f"wav_{split}" / "u.wav").write_bytes(b"")
    missing = missing_from(samebytes.commands(str(tmp_path), samebytes.SIZES["default"]))
    assert not missing, f"tools/samebytes.py lacks README.md's desk recipe commands {missing}"


def test_perfbench_sim_recipe_runs_each_desk_recipe_command(tmp_path):
    workloads = load_module("perfbench_workloads", "perfbench/workloads.py")
    setup, stages = workloads.prepare("sim_recipe", 1, str(tmp_path)).stages(
        str(tmp_path / "rep"))
    missing = missing_from(setup + stages)
    assert not missing, f"perfbench sim_recipe lacks README.md's desk recipe commands {missing}"


def test_readme_config_example_loads_and_key_count_holds(tmp_path):
    (example,) = [text for _, text in readme_blocks("") if text.startswith("# run.cfg")]
    (tmp_path / "run.cfg").write_text(example)
    flat = parse_config_file(tmp_path / "run.cfg")
    loaded = flat_dict(apply_flat_overrides(RunConfig(), flat))
    assert flat and all(loaded[k] == v or float(loaded[k]) == float(v)
                        for k, v in flat.items()), (flat, loaded)
    stated = re.search(r"(\d+) in all", README.read_text())
    assert stated and int(stated.group(1)) == len(flat_dict(RunConfig()))
