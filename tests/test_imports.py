"""Importing pifam registers every submodule, and each runs on first use.

Each test runs in a fresh `python -S` process, so nothing this test
session imported counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pifam import design_to_dict, family_to_dict, hadamard_family, hadamard_matrix, projective_plane

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = ("setsys", "construct", "exactlin", "graphs", "search")
# the public names of the package and the submodule that defines each
EXPORTS = {
    **dict.fromkeys(["CapacityError", "CertificateError", "Event", "Family", "ParameterError",
                     "PifamError", "SampleSpace", "family_from_dict", "family_to_dict",
                     "is_independent", "is_pairwise_independent", "is_valid_g_family",
                     "mask_to_points", "points_to_mask", "probability", "violations"], "setsys"),
    **dict.fromkeys(["Design", "DesignCheck", "HadamardMatrix", "check_design",
                     "design_from_dict", "design_to_dict", "dualize_design", "hadamard_family",
                     "hadamard_from_json", "hadamard_from_text", "hadamard_matrix",
                     "hadamard_to_design", "hadamard_to_json", "hadamard_to_text", "paley1",
                     "paley_orders", "projective_plane", "sylvester", "sylvester_orders"],
                    "construct"),
    **dict.fromkeys(["GramReport", "gram_certify"], "exactlin"),
    **dict.fromkeys(["JohnsonGraphOracle", "PowerSetGraphOracle"], "graphs"),
    **dict.fromkeys(["CliqueResult", "SweepRow", "conjecture_sweep", "f_exact", "g_exact",
                     "implied_f_bound", "johnson_omega", "max_clique"], "search"),
}
SEARCH = ["construct", "graphs", "search", "setsys"]
# each command and the submodules it runs
COMMANDS = [
    (["family", "verify", "g12.json"], ["setsys"]),
    (["family", "gram", "g12.json"], ["exactlin", "setsys"]),
    (["design", "check", "fano.json"], ["construct", "setsys"]),
    (["hadamard", "--order", "4"], ["construct", "setsys"]),
    (["gmax", "--n", "8", "--json"], SEARCH),
    (["johnson", "--n", "9", "--r", "3", "--s", "1"], SEARCH),
    (["conjecture", "--max", "8"], SEARCH),
]
# `type` reads no attribute of a lazy module, so ran() runs none of them
PRELUDE = f"""\
import json, sys, types
import pifam
EXPORTS = {EXPORTS!r}

def ran():
    return sorted(m for m in {MODULES!r} if type(sys.modules['pifam.' + m]) is types.ModuleType)

def same(namespace):
    return all(namespace[n] is getattr(sys.modules['pifam.' + m], n) for n, m in EXPORTS.items())
"""


def fresh(code: str, *argv: str, cwd: Path | None = None):
    """The JSON value that `code`, run after PRELUDE in a new interpreter, prints last."""
    out = subprocess.run([sys.executable, "-S", "-W", "error", "-c", PRELUDE + code, *argv],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def test_import_registers_every_submodule_and_runs_none():
    code = "print(json.dumps([sorted(k for k in sys.modules if k.startswith('pifam.')), ran()]))"
    assert fresh(code) == [sorted(f"pifam.{m}" for m in MODULES), []]


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_each_command_runs_only_its_modules(tmp_path, argv, modules):
    (tmp_path / "g12.json").write_text(json.dumps(family_to_dict(hadamard_family(hadamard_matrix(12)))))
    (tmp_path / "fano.json").write_text(json.dumps(design_to_dict(projective_plane(2))))
    code = "from pifam.cli import main; print(json.dumps([main(sys.argv[1:]), ran()]))"
    assert fresh(code, *argv, cwd=tmp_path) == [0, modules]


def test_all_and_dir_list_every_public_name_before_any_module_runs():
    code = ("listed = dir(pifam); before = ran()\n"
            "print(json.dumps([pifam.__all__, sorted(set(EXPORTS) - set(listed)), before,"
            " same({n: getattr(pifam, n) for n in pifam.__all__})]))")
    assert fresh(code) == [sorted(EXPORTS), [], [], True]


def test_an_unknown_name_raises_attribute_error_and_runs_nothing():
    code = ("try:\n    pifam.no_such_name\nexcept AttributeError as exc:\n"
            "    print(json.dumps([str(exc), ran()]))")
    assert fresh(code) == ["module 'pifam' has no attribute 'no_such_name'", []]


def test_star_import_binds_every_public_name():
    code = ("before = ran(); namespace = {}\nexec('from pifam import *', namespace)\n"
            "print(json.dumps([before, sorted(set(namespace) - {'__builtins__'}), same(namespace)]))")
    assert fresh(code) == [[], sorted(EXPORTS), True]
