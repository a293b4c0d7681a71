#!/usr/bin/env python3
"""The reference record of the shipped configs: what each config of
``scripts/configs/`` produces, so that a change that moves a count, a
certificate value or a field beyond rounding shows up.

Usage:
    python scripts/reference.py --write   # write tests/reference/<config>.json

``tests/test_reference.py`` compares a fresh record of each config with the
written one.

Each config's solve command runs in-process (``cli.main``, its artifact in a
temporary directory). Its record holds the exit code, the work counts of
``metadata.json`` (``profile.counts``), every certificate check's ``lhs``,
``rhs`` and ``passed``, every certificate constant, every number of
``ladder.json`` (by its path of keys and list indices) and, per written
field, its max, min and mean. It holds no hash: those change with numpy
builds and CPUs.

Two records agree when their keys agree, counts, integers and flags are
equal, and each other number a, b has |a - b| <= 1e-9 max(|a|, |b|), or
|a - b| <= its floor.  Rounding-sized values move with the BLAS kernels
(the thread count, the CPU) beyond that relative test, so three kinds get
a floor:

- a check's ``lhs``: a tenth of its ``rhs``.  The scalar solves stop
  anywhere below a tenth of the residual bound, and the finite-difference
  gap is rounding; between 1 and 2 OpenBLAS threads ``tke_residual`` and
  ``vortex_linearization_fd`` each move by about 0.4 % of their bound.
- the constant ``residual_norm``: the accept tolerance
  ``solvers.ACCEPT_TOL`` (the shipped configs keep the default), for any
  residual below it is the same outcome.
- the constant ``kernel_identity_gap``: the floor of the ``kernel_identity``
  check's ``lhs``, which it repeats.

The fields, the other constants, every ``rhs`` and ``ladder.json`` keep the
relative test.  A change that moves a value beyond that runs ``--write``
and lists the record's diff in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CONFIGS = os.path.join(HERE, "configs")
RECORDS = os.path.join(ROOT, "tests", "reference")
COMMANDS = {"vortex_torus256": "solve-vortex", "tke_torus256": "solve-tke",
            "gv_torus256": "solve-gv", "sweep_torus256": "sweep-eps",
            "eb_sphere127": "solve-eb"}
RTOL = 1e-9        # relative agreement of two numbers
LHS_FLOOR = 0.1    # a check's lhs also agrees within this share of its rhs


def _numbers(value, path=""):
    """{path: number} of every int, float or bool below a JSON value."""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out.update(_numbers(v, f"{path}.{k}" if path else k))
        return out
    if isinstance(value, list):
        out = {}
        for i, v in enumerate(value):
            out.update(_numbers(v, f"{path}.{i}" if path else str(i)))
        return out
    if isinstance(value, (bool, int, float)):
        return {path: value}
    return {}


def record(name):
    """The record of ``scripts/configs/<name>.json``."""
    from vortexlab.cli import main
    from vortexlab.fieldio import read_field

    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "art")
        code = main([COMMANDS[name], "--config",
                     os.path.join(CONFIGS, name + ".json"), "--out", out,
                     "--quiet"])

        def read(rel):
            path = os.path.join(out, rel)
            if not os.path.exists(path):
                return {}
            with open(path) as fh:
                return json.load(fh)

        cert = read("certificate.json")
        fields = {}
        fdir = os.path.join(out, "fields")
        for fname in sorted(os.listdir(fdir)) if os.path.isdir(fdir) else []:
            values, _ = read_field(os.path.join(fdir, fname))
            fields[fname[:-len(".vfield")]] = {
                "max": float(np.max(values)), "min": float(np.min(values)),
                "mean": float(np.mean(values))}
        return {
            "config": name + ".json",
            "command": COMMANDS[name],
            "exit": code,
            "counts": read("metadata.json").get("profile", {})
                                           .get("counts", {}),
            "checks": {c["name"]: {k: c[k] for k in ("lhs", "rhs", "passed")}
                       for c in cert.get("checks", [])},
            "constants": cert.get("constants", {}),
            "ladder": _numbers(read("ladder.json")),
            "fields": fields,
        }


def _agree(a, b, floor=0.0):
    if isinstance(a, (bool, int)) or isinstance(b, (bool, int)):
        return type(a) is type(b) and a == b
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if a == b:
            return True
        return abs(a - b) <= max(RTOL * max(abs(a), abs(b)), floor)
    return a == b


def _constant_floor(name, want):
    """The floor of a rounding-sized constant of the reference ``want``."""
    if name == "residual_norm":
        from vortexlab.solvers import ACCEPT_TOL

        return ACCEPT_TOL
    if name == "kernel_identity_gap":
        return LHS_FLOOR * abs(want["checks"]["kernel_identity"]["rhs"])
    return 0.0


def differences(want, got):
    """Where the record ``got`` departs from the reference ``want``."""
    diffs = []

    def compare(where, a, b, floor=0.0):
        if not _agree(a, b, floor):
            diffs.append(f"{where}: {a!r} -> {b!r}")

    def common(where, a, b):
        for key in sorted(set(a) ^ set(b)):
            diffs.append(f"{where}.{key}: only in the "
                         f"{'reference' if key in a else 'new record'}")
        return sorted(set(a) & set(b))

    for key in ("config", "command", "exit"):
        compare(key, want.get(key), got.get(key))
    for section in ("counts", "constants", "ladder"):
        a, b = want.get(section, {}), got.get(section, {})
        for key in common(section, a, b):
            compare(f"{section}.{key}", a[key], b[key],
                    _constant_floor(key, want) if section == "constants"
                    else 0.0)
    for section in ("checks", "fields"):
        a, b = want.get(section, {}), got.get(section, {})
        for name in common(section, a, b):
            floor = (LHS_FLOOR * abs(a[name]["rhs"]) if section == "checks"
                     else 0.0)
            for key in common(f"{section}.{name}", a[name], b[name]):
                compare(f"{section}.{name}.{key}", a[name][key], b[name][key],
                        floor if key == "lhs" else 0.0)
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", required=True,
                        help="write the records (required, so that a bare "
                             "run overwrites nothing)")
    parser.parse_args(argv)
    os.makedirs(RECORDS, exist_ok=True)
    for name in sorted(COMMANDS):
        path = os.path.join(RECORDS, name + ".json")
        with open(path, "w") as fh:
            json.dump(record(name), fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
