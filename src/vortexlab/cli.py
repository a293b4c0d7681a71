"""Command-line interface: config ingestion, run orchestration, artifact
persistence, verification, and heatmap export.

Subcommands: solve-vortex, solve-tke, solve-gv, sweep-eps, solve-eb,
verify, export.  Exit codes: 0 ok, 2 config/validation or a bad file path,
3 convergence or verification failure, 4 admissibility refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    AssumptionNotSatisfied,
    ConfigError,
    ConvergenceFailure,
    VortexlabError,
)
from .fieldio import read_field, sha256_file, write_field, write_jsonl, write_pgm
from .fields import DivisorData, build_divisor_fields, derive_params
from .surface import build_surface, check_field
from .verify import Certificate, certify_state, certify_tke, certify_vortex

__all__ = [
    "main",
    "read_json",
    "validate_config",
    "build_divisor",
    "build_setup",
    "build_divisor_fields",
    "synthesize_twist",
    "run_sequence",
    "vortex_problem",
    "eb_problem",
    "run_verify",
    "run_export",
]

# Every command certifies through verify and writes through fieldio; the
# solver modules are imported by the commands that run them, so solve-eb
# and its verify load no coupled, singular, solvers or vortex, and the
# torus commands load no bogomolnyi.

# The config schema of a command (its entry of _COMMANDS) maps its keys to
# a kind.
# - A string names a kind of _KINDS; a trailing "!" marks a required key.
# - A dict is a nested table of keys; a list [kind] is a list whose entries
#   are all of that kind; a tuple lists alternatives.
_DIVISOR = {"zeros": [{"point": "point!", "n": "integer!"}],
            "cone": [{"point": "point!", "beta": "number!"}],
            "parabolic": [{"point": "point!", "alpha_k": "number!"}]}
_COMMON = {"backend": "any!", "resolution": "integer!", "divisor": _DIVISOR,
           "seed": "count", "label": "any",
           "tolerances": {"residual": "tolerance", "multistart": "count",
                          "assembled_residual": "tolerance"}}
_PATH = ("nonnegative", {"target": ("nonnegative", "alpha_star"),
                         "steps": "positive"})


def _is_number(v):
    return type(v) is int or type(v) is float and math.isfinite(v)


def _is_integer(v):
    return type(v) is int or _is_number(v) and v.is_integer()


def _numbers(v):
    return isinstance(v, list) and v != [] and all(map(_is_number, v))


def _decreasing(v):
    return _numbers(v) and all(b < a for a, b in zip(v, v[1:]))


# name: (test, description)
_KINDS = {
    "number": (_is_number, "a finite number"),
    "integer": (_is_integer, "an integer"),
    "nonnegative": (lambda v: _is_number(v) and v >= 0, "a non-negative number"),
    "count": (lambda v: _is_integer(v) and v >= 0, "a non-negative integer"),
    "positive": (lambda v: _is_integer(v) and v >= 1, "a positive integer"),
    "tolerance": (lambda v: _is_number(v) and v > 0, "a positive number"),
    "boolean": (lambda v: type(v) is bool, "true or false"),
    "ladder": (lambda v: _is_number(v) or _decreasing(v),
               "a number or a non-empty strictly decreasing list of numbers"),
    "rungs": (_decreasing, "a non-empty strictly decreasing list of numbers"),
    "point": (lambda v: _numbers(v) and len(v) == 2, "a list of 2 numbers"),
    "mode": (lambda v: _numbers(v) and len(v) == 4
             and all(map(_is_integer, v[:2])),
             "a list of 4 numbers whose first two are integers"),
    "null": (lambda v: v is None, "null"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "table": (lambda v: isinstance(v, dict), "an object"),
    "alpha_star": (lambda v: v == "alpha_star", '"alpha_star"'),
    "any": (lambda v: True, "anything"),
}


def _check(key, value, kind):
    """Check the value of config key ``key`` against a schema kind; a
    mismatch raises ConfigError naming the innermost key at fault."""
    if isinstance(kind, tuple):
        for alt in kind:
            try:
                return _check(key, value, alt)
            except ConfigError:
                if isinstance(alt, dict) and isinstance(value, dict):
                    raise
    elif isinstance(kind, dict) and isinstance(value, dict):
        for k in value:
            if k not in kind:
                raise ConfigError(f"unknown config key {k!r} in {key!r}")
        for k, sub in kind.items():
            required = isinstance(sub, str) and sub.endswith("!")
            if k in value:
                _check(k, value[k], sub[:-1] if required else sub)
            elif required:
                raise ConfigError(f"missing config key {k!r} in {key!r}")
        return
    elif isinstance(kind, list) and isinstance(value, list):
        for v in value:
            _check(key, v, kind[0])
        return
    elif isinstance(kind, str) and _KINDS[kind][0](value):
        return
    raise ConfigError(f"{key!r} must be {_describe(kind)}, got {value!r}")


def _describe(kind):
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if isinstance(kind, str):
        return _KINDS[kind][1]
    return "an object" if isinstance(kind, dict) else "a list"


def read_json(path):
    """A JSON file; one that is not UTF-8 JSON is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def validate_config(cfg, command):
    _check(command, cfg, _COMMANDS[command].schema)
    return cfg


def build_divisor(cfg):
    div = cfg.get("divisor", {})
    zeros = tuple((tuple(e["point"]), int(e["n"])) for e in div.get("zeros", []))
    cone = tuple((tuple(e["point"]), float(e["beta"])) for e in div.get("cone", []))
    parab = tuple((tuple(e["point"]), float(e["alpha_k"]))
                  for e in div.get("parabolic", []))
    return DivisorData(zeros=zeros, cone=cone, parabolic=parab)


def build_setup(cfg):
    """The surface and the divisor; build_divisor_fields refuses marked
    points on grid nodes."""
    surface = build_surface(cfg["backend"], int(cfg["resolution"]))
    return surface, build_divisor(cfg)


def synthesize_twist(surface, twist_cfg):
    """Mean-free twist potential from the mode list in the config."""
    if twist_cfg is None:
        return 0.0, None
    b = float(twist_cfg.get("b", 0.0))
    modes = twist_cfg.get("modes", [])
    if not modes:
        return b, None
    norm = [(int(k1), int(k2), float(a), float(c)) for k1, k2, a, c in modes]
    if surface.backend == "torus":
        if any(k[:2] == (0, 0) for k in norm):
            raise ConfigError("twist mode (0,0) is not mean-free")
        return b, surface.eval_modes(norm)
    if not all(0 < l <= surface.L and 0 <= m <= l for l, m, _, _ in norm):
        raise ConfigError(f"sphere twist modes (l, m) need 0 <= m <= l and "
                          f"0 < l <= {surface.L} (l = 0 is not mean-free)")
    return b, surface.eval_modes(norm)


def run_sequence(cfg):
    """Alpha target and step count for continuation commands."""
    a = cfg.get("alpha", {})
    if isinstance(a, dict):
        return a.get("target", "alpha_star"), int(a.get("steps", 16))
    return float(a), 16


# --- one problem builder and one certifier per command --------------------
# The solve and `verify` both call these, so a stored result is
# re-certified against the same problem that produced it; scripts/bench.py
# times the public builders.


def _tol(cfg, key, default):
    return float(cfg.get("tolerances", {}).get(key, default))


def _residual_tol(cfg, command):
    """``tolerances.residual``, which _run and run_verify read once and pass
    to the command's solve or recertify: the residual sup norm below which
    a state is accepted (default ``solvers.ACCEPT_TOL``), or for solve-eb
    the change tolerance of the monotone chain (``bogomolnyi.CHANGE_TOL``).
    The modules are loaded here, per command, as the solves load theirs."""
    if command == "solve-eb":
        from .bogomolnyi import CHANGE_TOL as default
    else:
        from .solvers import ACCEPT_TOL as default
    return _tol(cfg, "residual", default)


def vortex_problem(cfg, surface, divisor, tol, log=None):
    """The twisted-vortex problem from the config's tau, twist and t."""
    from .vortex import make_vortex_problem

    tau = float(cfg["tau"])
    b, F = synthesize_twist(surface, cfg.get("twist"))
    weight = np.exp(build_divisor_fields(surface, divisor).log_phi_sq)
    return make_vortex_problem(surface, weight, tau, divisor.N, b=b, F=F,
                               t=float(cfg.get("t", 1.0)), tol=tol, log=log)


def _certify_vortex(cfg, problem, seed, f, tol):
    return certify_vortex(problem.surface, problem, f, seed=seed,
                          multistart=int(_tol(cfg, "multistart", 3)), tol=tol)


def _tke_problem(cfg, surface, divisor):
    """(chi~, F_xi) of the twisted Kaehler-Einstein equation."""
    fields = build_divisor_fields(surface, divisor)
    return (divisor.chi_tilde(surface),
            fields.F_xi(float(cfg.get("epsilon", 0.1))))


def _certify_tke(cfg, surface, problem, seed, u, tol):
    chi_tilde, F_xi = problem
    return certify_tke(surface, chi_tilde, F_xi, u, t=float(cfg.get("t", 1.0)),
                       seed=seed, tol=tol)


# solve-gv and sweep-eps build their problem with coupled.make_problem at the
# recorded epsilon and certify with verify.certify_state


def eb_problem(cfg, surface, divisor):
    """The c~ = 0 problem from whichever of alpha/tau the config gives."""
    from .bogomolnyi import make_eb_problem

    alpha, tau = cfg.get("alpha"), cfg.get("tau")
    return make_eb_problem(
        surface, divisor,
        alpha=float(alpha) if alpha is not None else None,
        tau=float(tau) if tau is not None else None,
        lam=cfg.get("lambda"), sigma=cfg.get("sigma"),
    )


def _certify_eb(cfg, problem, seed, f, w, ladder, margins):
    """Supersolution margin on every delta rung, and the residual of the
    assembled pair at the last rung, for the lam of the ladder report.
    ``margins`` are the margins the ladder run computed, or None to
    compute them from w (``verify`` trusts no stored margin)."""
    from .bogomolnyi import assembled_residual, supersolution_margin

    lam, deltas = ladder["lam"], ladder["deltas"]
    if margins is None:
        margins = [supersolution_margin(problem, w, lam, d) for d in deltas]
    res = assembled_residual(problem, f, deltas[-1], lam)
    cert = Certificate(seed=seed)
    cert.add("supersolution_margin_min", 0.0, min(margins), tol=0.0,
             note="strict inequality pointwise, every rung")
    # 1e-6 is the default-resolution figure; coarse grids have a larger
    # spectral floor and may override through tolerances
    cert.add("assembled_residual_masked", res["sup_masked"],
             _tol(cfg, "assembled_residual", 1e-6), tol=0.0)
    cert.constants.update({"lam": lam, "lam_min": ladder["lam_min"],
                           "C_sigma": ladder["C_sigma"],
                           "alpha": problem.alpha, "tau": problem.tau})
    return cert


# --- one solve per command ------------------------------------------------
# solve(cfg, surface, divisor, seed, tol, phases) runs after the `setup` phase,
# ends its own phases and returns (certificate, {field name: values},
# {file name: report}, metadata extras) for _run to write.


class _Phases:
    """Wall seconds of the consecutive phases of a run, for metadata.json."""

    def __init__(self, started):
        self.seconds = {}
        self._last = started

    def end(self, name):
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now


def _solve_vortex(cfg, surface, divisor, seed, tol, phases):
    from .vortex import solve_vortex

    log = []
    problem = vortex_problem(cfg, surface, divisor, tol, log)
    f = solve_vortex(problem, tol=tol, log=log)
    phases.end("solve")
    cert = _certify_vortex(cfg, problem, seed, f, tol)
    phases.end("certify")
    return (cert, {"f_tilde": f, "Phi": problem.phi0_sq * np.exp(2.0 * f)},
            {"iterations.jsonl": log}, {})


def _solve_tke(cfg, surface, divisor, seed, tol, phases):
    from .vortex import solve_twisted_ke

    chi_tilde, F_xi = problem = _tke_problem(cfg, surface, divisor)
    log = []
    u = solve_twisted_ke(surface, chi_tilde, F_xi, t=float(cfg.get("t", 1.0)),
                         tol=tol, log=log)
    phases.end("solve")
    cert = _certify_tke(cfg, surface, problem, seed, u, tol)
    phases.end("certify")
    return (cert, {"u": u, "metric_density": 1.0 - surface.laplacian(u)},
            {"iterations.jsonl": log}, {"chi_tilde": chi_tilde})


def _solve_gv(cfg, surface, divisor, seed, tol, phases):
    from .coupled import make_problem, solve_path

    fields = build_divisor_fields(surface, divisor)
    phases.end("divisor_fields")
    tau = float(cfg["tau"])
    eps = float(cfg.get("epsilon", 0.1))
    target, steps = run_sequence(cfg)
    problem = make_problem(surface, divisor, tau=tau, eps=eps, fields=fields)
    if target == "alpha_star":
        target = problem.params.alpha_star
    final, path, newton = solve_path(problem, float(target), n_steps=steps,
                                     tol=tol)
    phases.end("solve")
    cert = certify_state(problem, final, seed=seed, tol=tol)
    phases.end("certify")
    return (cert, {"f_tilde": final.f_tilde, "u": final.u, "Phi": final.Phi},
            {"iterations.jsonl": path + newton},
            {"alpha": final.alpha, "epsilon": problem.eps,
             "alpha_star": problem.params.alpha_star})


def _sweep_eps(cfg, surface, divisor, seed, tol, phases):
    from .singular import run_ladder

    fields = build_divisor_fields(surface, divisor)
    phases.end("divisor_fields")
    tau = float(cfg["tau"])
    eps = cfg.get("epsilon", [0.1, 0.05, 0.025, 0.0125])
    eps_list = [float(e) for e in (eps if isinstance(eps, list) else [eps])]
    target, steps = run_sequence(cfg)
    if target == "alpha_star":
        target = derive_params(divisor, surface, tau,
                               epsilon=eps_list[0]).alpha_star
    report = run_ladder(surface, divisor, tau, float(target), eps_list,
                        n_steps=steps, tol=tol, seed=seed,
                        fit=bool(cfg.get("fit", True)), fields=fields)
    if not report.states:
        raise ConvergenceFailure(f"ladder failed: {report.failures}")
    phases.end("ladder")
    # a truncated ladder certifies its last completed rung
    final, problem = report.states[-1], report.problem
    cert = certify_state(problem, final, seed=seed, tol=tol)
    phases.end("certify")
    ladder = {key: getattr(report, key) for key in (
        "d_f", "d_u", "rho_K", "holder_f", "holder_u", "wp_integrals",
        "lp_exponent", "newton_counts", "failures")}
    ladder.update(eps=report.eps_list[: len(report.newton_counts)],
                  fits=[vars(f) for f in report.fits])
    log = [{"eps": e, "newton_steps": c}
           for e, c in zip(report.eps_list, report.newton_counts)]
    return (cert, {"f_tilde": final.f_tilde, "u": final.u},
            {"ladder.json": ladder, "iterations.jsonl": log},
            {"alpha": final.alpha, "epsilon": problem.eps})


def _solve_eb(cfg, surface, divisor, seed, tol, phases):
    from .bogomolnyi import delta_ladder_and_assemble

    deltas = cfg.get("delta", [0.1 * 0.5**k for k in range(7)])
    deltas = [float(d) for d in (deltas if isinstance(deltas, list) else [deltas])]
    margin = float(cfg.get("margin", 0.5))
    problem = eb_problem(cfg, surface, divisor)
    log = []
    f, g_density, h_factor, w, report = delta_ladder_and_assemble(
        problem, deltas=deltas, tol=tol, margin=margin, log=log)
    fields = {"f_tilde": f, "supersolution_w": w, "metric_density": g_density,
              "hermitian_factor": h_factor}
    reports = {"na_report.json": report["na_report"], "ladder.json": report,
               "iterations.jsonl": log}
    if cfg.get("lambda_pair", False):
        lam2 = 2.0 * report["lam"]
        f2 = delta_ladder_and_assemble(
            dataclasses.replace(problem, lam=lam2), deltas=deltas[-1:],
            tol=tol, margin=margin)[0]
        fields["f_tilde_lam2"] = f2
        reports["lambda_dependence.json"] = {
            "lam_pair": [report["lam"], lam2],
            "sup_difference": float(np.max(np.abs(f - f2))),
        }
    phases.end("ladder")
    cert = _certify_eb(cfg, problem, seed, f, w, report, report["sup_margins"])
    phases.end("certify")
    return cert, fields, reports, {"alpha": problem.alpha, "tau": problem.tau}


# --- verification of stored artifacts -----------------------------------


class _Stored:
    """A finished artifact directory, read back for re-certification."""

    def __init__(self, outdir):
        self.outdir = outdir
        path = os.path.join(outdir, "metadata.json")
        if not os.path.exists(path):
            raise ConfigError(f"no artifact metadata in {outdir}")
        meta = read_json(path)
        if not (isinstance(meta, dict) and isinstance(meta.get("command"), str)
                and meta["command"] in _COMMANDS
                and isinstance(meta.get("files", {}), dict)
                and _KINDS["count"][0](meta.get("seed", 0))):
            raise ConfigError(f"{path} is not the metadata of a solve: it "
                              f"needs a 'command' of {sorted(_COMMANDS)}, "
                              "a 'files' table and a non-negative 'seed'")
        self.meta, self.seed = meta, int(meta.get("seed", 0))

    def read_json(self, relpath):
        return read_json(os.path.join(self.outdir, relpath))

    def field(self, name, surface):
        values, _ = read_field(os.path.join(self.outdir, "fields",
                                            name + ".vfield"))
        check_field(surface, values)
        return values


def _recertify_gv(cfg, surface, divisor, tol, art):
    """The stored coupled state's certificate; a state whose residual is
    not below tol, the tolerance its solve accepted at, is refused."""
    from .coupled import accepted_state, make_problem

    for key in ("epsilon", "alpha"):
        if not _is_number(art.meta.get(key)):
            raise ConfigError(f"metadata.json records no number {key!r}; "
                              "solve again to verify")
    problem = make_problem(surface, divisor, tau=float(cfg["tau"]),
                           eps=float(art.meta["epsilon"]))
    state = accepted_state(problem, float(art.meta["alpha"]),
                           art.field("f_tilde", surface), art.field("u", surface))
    if not state.res_norm < tol:
        raise ConvergenceFailure(
            f"the stored state does not solve its equations: residual_norm "
            f"{state.res_norm:.3e} is not below tolerances.residual {tol:g}")
    return certify_state(problem, state, seed=art.seed, tol=tol)


def _recertify_vortex(cfg, surface, divisor, tol, art):
    return _certify_vortex(cfg, vortex_problem(cfg, surface, divisor, tol),
                           art.seed, art.field("f_tilde", surface), tol)


def _recertify_eb(cfg, surface, divisor, tol, art):
    ladder = art.read_json("ladder.json")
    # the keys the certifier reads, checked as a config's are
    stored = ladder if isinstance(ladder, dict) else {}
    for key, kind in (("lam", "number"), ("lam_min", "number"),
                      ("C_sigma", "number"), ("deltas", "rungs")):
        _check(f"ladder.json:{key}", stored.get(key), kind)
    return _certify_eb(cfg, eb_problem(cfg, surface, divisor), art.seed,
                       art.field("f_tilde", surface),
                       art.field("supersolution_w", surface), ladder, None)


# --- the command table and the one runner ----------------------------------


@dataclasses.dataclass(frozen=True)
class _Command:
    """A solve command: its config schema, its theorem-coverage line, its
    solve and its recertify(cfg, surface, divisor, tol, stored), which reads
    the stored result back and certifies it as the solve did."""

    schema: dict
    coverage: str
    solve: object
    recertify: object


_CONTINUATION = ("experimental: continuation existence is proven for "
                 "genus >= 2; model backends are genus 0/1")
_COMMANDS = {
    "solve-vortex": _Command(
        dict(_COMMON, tau="number!", t="number",
             twist=("null", {"b": "number", "modes": ["mode"]})),
        "covered: twisted-vortex existence/uniqueness (no genus restriction)",
        _solve_vortex, _recertify_vortex),
    "solve-tke": _Command(
        dict(_COMMON, epsilon="nonnegative", t="number"),
        "covered: twisted Kaehler-Einstein, negative constant",
        _solve_tke,
        lambda cfg, s, d, tol, art: _certify_tke(
            cfg, s, _tke_problem(cfg, s, d), art.seed, art.field("u", s),
            tol)),
    "solve-gv": _Command(
        dict(_COMMON, tau="number!", alpha=_PATH, epsilon="number"),
        _CONTINUATION, _solve_gv, _recertify_gv),
    "sweep-eps": _Command(
        dict(_COMMON, tau="number!", alpha=_PATH, epsilon="ladder",
             fit="boolean"),
        _CONTINUATION, _sweep_eps, _recertify_gv),
    "solve-eb": _Command(
        dict(_COMMON, tau="number", alpha="number", delta="ladder",
             sigma="number", margin="number", lambda_pair="boolean",
             **{"lambda": "number"}),
        "covered (sphere): Bogomol'nyi-phase existence under the "
        "admissibility inequalities",
        _solve_eb, _recertify_eb),
}


def _run(command, cfg, outdir, seed, quiet):
    """Solve, certify and write the artifact of one command. ``outdir`` is
    made only once the solve has returned, or has refused (exit 4) with
    the admissibility report it writes; a failed check is exit 3. Either
    way metadata.json profiles the run: its phase seconds (a refusal ends
    the phase ``refused``) and the work counts of its surface."""
    t0 = time.perf_counter()
    phases = _Phases(t0)
    surface, divisor = build_setup(cfg)
    phases.end("setup")
    refusal = None
    try:
        cert, fields, reports, extra = _COMMANDS[command].solve(
            cfg, surface, divisor, seed, _residual_tol(cfg, command), phases)
        reports["certificate.json"] = cert.to_dict()
    except AssumptionNotSatisfied as exc:
        phases.end("refused")
        refusal, fields, extra = exc, {}, {"refused": True}
        reports = {"na_report.json": exc.report.to_dict()}
    files = _write_files(outdir, t0, surface, fields,
                         {**reports, "config.json": cfg})
    phases.end("write")
    _write_metadata(outdir, command, cfg, seed, t0, files, dict(
        extra, profile={"seconds": phases.seconds,
                        "counts": dict(surface.counts)}), quiet)
    if refusal is not None:
        raise refusal
    if not cert.all_passed:
        raise ConvergenceFailure("certificate checks failed")
    return 0


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1, default=float)


def _write_files(outdir, t0, surface, fields, reports):
    """Write a run's fields and reports into ``outdir``; returns their
    {relpath: sha256}. A ``.jsonl`` report is log records, whose
    perf_counter ``time`` is made run-relative; any other is JSON."""
    os.makedirs(os.path.join(outdir, "fields"), exist_ok=True)
    written = []
    for name, values in fields.items():
        written.append(os.path.join("fields", name + ".vfield"))
        write_field(os.path.join(outdir, written[-1]), values, surface.backend,
                    surface.n if surface.backend == "torus" else surface.L,
                    name)
    for rel, obj in reports.items():
        written.append(rel)
        if rel.endswith(".jsonl"):
            write_jsonl(os.path.join(outdir, rel),
                        [dict(r, time=r["time"] - t0) if "time" in r else r
                         for r in obj])
        else:
            _write_json(os.path.join(outdir, rel), obj)
    return {rel: sha256_file(os.path.join(outdir, rel)) for rel in written}


def _write_metadata(outdir, command, cfg, seed, t0, files, extra, quiet):
    """metadata.json: the hashes of the run's files, its provenance and the
    command's ``extra`` keys."""
    _write_json(os.path.join(outdir, "metadata.json"), {
        "command": command,
        "files": files,
        "label": cfg.get("label", ""),
        "seed": seed,
        "theorem_coverage": _COMMANDS[command].coverage,
        "runtime_seconds": time.perf_counter() - t0,
        "versions": {
            "vortexlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        **extra,
    })
    if not quiet:
        print(f"[vortexlab] artifact written to {outdir}")


def run_verify(outdir, quiet):
    art = _Stored(outdir)
    for rel, digest in art.meta.get("files", {}).items():
        path = os.path.join(outdir, rel)
        if not os.path.isfile(path):
            raise ConvergenceFailure(f"artifact file {rel} is missing")
        if sha256_file(path) != digest:
            raise ConvergenceFailure(f"artifact file {rel} hash mismatch")
    command = art.meta["command"]
    cfg = validate_config(art.read_json("config.json"), command)
    stored = art.read_json("certificate.json")
    # the keys _compare_certificates reads, checked as a config's are
    for key, kind in (("checks", [_STORED_CHECK]), ("constants", "table")):
        _check(f"certificate.json:{key}",
               stored.get(key) if isinstance(stored, dict) else None, kind)
    surface, divisor = build_setup(cfg)
    cert = _COMMANDS[command].recertify(cfg, surface, divisor,
                                        _residual_tol(cfg, command), art)
    fresh = cert.to_dict()
    mism = _compare_certificates(stored, fresh)
    if mism:
        raise ConvergenceFailure(
            "re-certification differs from the stored certificate: "
            + "; ".join(mism))
    if not cert.all_passed:
        raise ConvergenceFailure("certificate checks fail on re-verification")
    if not quiet:
        print(f"[vortexlab] verified {outdir}: "
              f"{len(fresh['checks'])} checks reproduced, all passed")
    return 0


# a check of a stored certificate.json, as Check.to_dict writes it
_STORED_CHECK = {"name": "string!", "lhs": "any!", "rhs": "any!",
                 "passed": "any!", "slack": "any", "note": "any"}


def _compare_certificates(stored, fresh):
    """Where a stored certificate departs from the fresh one: its check
    sets and each check's lhs, rhs and passed, and its constants, key by
    key."""
    mism = []
    a = {c["name"]: c for c in stored["checks"]}
    b = {c["name"]: c for c in fresh["checks"]}
    if set(a) != set(b):
        mism.append(f"check sets differ: {sorted(set(a) ^ set(b))}")
        return mism
    for name in a:
        for key in ("lhs", "rhs", "passed"):
            if a[name][key] != b[name][key]:
                mism.append(f"{name}.{key}: {a[name][key]} != {b[name][key]}")
    a, b = stored["constants"], fresh["constants"]
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            mism.append(f"constants.{key}: {a.get(key)} != {b.get(key)}")
    return mism


def run_export(field_path, out_path, quiet):
    values, header = read_field(field_path)
    if out_path is None:
        out_path = os.path.splitext(field_path)[0] + ".pgm"
    meta = write_pgm(out_path, values)
    if not quiet:
        print(f"[vortexlab] wrote {out_path} "
              f"(min={meta['min']:.6g}, max={meta['max']:.6g})")
    return 0


# --- entry point ----------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="gravitating-vortex and Bogomol'nyi-phase solvers on "
                    "compact model surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    pv = sub.add_parser("verify")
    pv.add_argument("--out", required=True)
    pv.add_argument("--quiet", action="store_true")
    pe = sub.add_parser("export")
    pe.add_argument("--field", required=True)
    pe.add_argument("--out", default=None)
    pe.add_argument("--quiet", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.out, quiet=args.quiet)
        if args.command == "export":
            return run_export(args.field, args.out, quiet=args.quiet)
        cfg = validate_config(read_json(args.config), args.command)
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise ConfigError(f"--out {args.out} is not a directory")
        if args.seed is not None:
            _check("--seed", args.seed, "count")
        seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
        return _run(args.command, cfg, args.out, seed, args.quiet)
    except AssumptionNotSatisfied as exc:
        print(f"[vortexlab] refused: {exc}", file=sys.stderr)
        return 4
    except ConvergenceFailure as exc:
        print(f"[vortexlab] solver failure: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"[vortexlab] config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # names the file: a bad input or output path
        print(f"[vortexlab] file error: {exc}", file=sys.stderr)
        return 2
    except VortexlabError as exc:
        print(f"[vortexlab] error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
