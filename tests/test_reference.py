"""The reference record of the five shipped configs: each runs in-process
and must agree with its ``tests/reference/<config>.json``, written by
``scripts/reference.py --write``."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest


def _reference_module():
    path = Path(__file__).resolve().parents[1] / "scripts" / "reference.py"
    spec = importlib.util.spec_from_file_location("reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reference = _reference_module()


def _stored(name):
    with open(Path(reference.RECORDS) / f"{name}.json") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(reference.COMMANDS))
def test_shipped_config_agrees_with_its_record(name):
    assert reference.differences(_stored(name), reference.record(name)) == []


def test_record_comparison_tells_a_moved_value_from_rounding():
    want = _stored("vortex_torus256")
    assert reference.differences(want, copy.deepcopy(want)) == []
    # a count, a bound or a constant moved by hand shows up
    for section, key, sub in (("counts", "cg_iterations", None),
                              ("checks", "vortex_mass_identity", "rhs"),
                              ("constants", "vortex_mass", None),
                              ("fields", "f_tilde", "max")):
        got = copy.deepcopy(want)
        if sub is None:
            got[section][key] += 1 if section == "counts" else 1e-6
        else:
            got[section][key][sub] *= 1.0 + 1e-6
        assert reference.differences(want, got) != [], (section, key)
    # a rounding-sized lhs that moves inside a tenth of its bound does not
    got = copy.deepcopy(want)
    check = got["checks"]["vortex_multistart_uniqueness"]
    check["lhs"] += 0.05 * check["rhs"]
    assert reference.differences(want, got) == []
    check["lhs"] += 0.1 * check["rhs"]
    assert reference.differences(want, got) != []


def test_rounding_sized_constants_have_a_floor():
    want = _stored("gv_torus256")
    got = copy.deepcopy(want)
    # any residual below the accept tolerance, and a kernel identity gap
    # inside its check's floor, is the same outcome
    got["constants"]["residual_norm"] *= 0.5
    got["constants"]["kernel_identity_gap"] = 1e-12
    got["checks"]["kernel_identity"]["lhs"] = 1e-12
    assert reference.differences(want, got) == []
    # the other constants keep the relative test
    got["constants"]["C1"] *= 1.0 + 1e-6
    assert [d.split(":")[0] for d in reference.differences(want, got)] == [
        "constants.C1"]
