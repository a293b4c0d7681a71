"""Per-layer metrics from the spans of one traced CLI process.

Layers are the vortexlab modules. `calls` are exact counts, `self_s` is a
span's duration minus the time its child spans cover, and `s` is inclusive.
Figures named `*_computed` are derived from call counts and array sizes,
not measured.
"""

from __future__ import annotations

import math
from collections import defaultdict

SURFACE_METHODS = ("laplacian", "solve_shifted", "solve_block_model",
                   "analyze", "synthesize")
# numpy FFT calls made by one call of each surface method
FFTS_PER_CALL = {
    "surface.Torus.laplacian": 2, "surface.Torus.solve_shifted": 2,
    "surface.Torus.solve_block_model": 4, "surface.Torus.dz": 2,
    "surface.Torus.dz2": 2, "surface.Sphere.analyze": 1,
    "surface.Sphere.synthesize": 1,
}
SOLVE_RUNNERS = {"cli.run_solve_vortex", "cli.run_solve_tke", "cli.run_solve_gv",
                 "cli.run_sweep_eps", "cli.run_solve_eb"}
VERIFY_RUNNERS = {"cli.run_verify"}
CERTIFY = {"verify.certify_state", "verify.certify_vortex", "verify.certify_tke"}


class Spans:
    """The spans of one traced process, with self and inclusive times."""

    def __init__(self, doc):
        self.doc = doc
        self.spans = doc["spans"]
        self.by_id = {s["id"]: s for s in self.spans}
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] in self.by_id:
                covered[s["parent"]] += s["end"] - s["start"]
        for s in self.spans:
            s["dur"] = s["end"] - s["start"]
            s["self"] = s["dur"] - covered[s["id"]]
        self.by_name = defaultdict(list)
        for s in self.spans:
            self.by_name[s["name"]].append(s)

    def named(self, *names):
        return [s for n in names for s in self.by_name.get(n, ())]

    def calls(self, *names):
        return len(self.named(*names))

    def self_s(self, *names):
        return sum(s["self"] for s in self.named(*names))

    def incl_s(self, *names):
        return sum(s["dur"] for s in self.named(*names))

    def parent_name(self, span):
        parent = self.by_id.get(span["parent"])
        return parent["name"] if parent else None

    def failed(self, *names):
        return sum(1 for s in self.named(*names) if not s["ok"])

    def ancestors(self, span):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent["name"]
            parent = self.by_id.get(parent["parent"])

    def count_under(self, names, ancestors):
        """Spans named in `names` that have an ancestor named in `ancestors`."""
        return sum(1 for s in self.named(*names)
                   if any(a in ancestors for a in self.ancestors(s)))


def _both(method):
    return f"surface.Torus.{method}", f"surface.Sphere.{method}"


def common_metrics(sp, resolution, runners):
    """Metrics reported for both the solve and the verify command."""
    m = {
        "cli.import_s": (sp.doc["import_s"], "s", "lower"),
        "cli.runner.self_s": (sp.self_s(*runners), "s", "lower"),
        "surface.build_s": (sp.incl_s("surface.build_surface"), "s", "lower"),
    }
    for method in SURFACE_METHODS:
        m[f"surface.{method}.calls"] = (sp.calls(*_both(method)), "count", "lower")
        m[f"surface.{method}.self_s"] = (sp.self_s(*_both(method)), "s", "lower")
    transforms = {n: sp.calls(n) * k for n, k in FFTS_PER_CALL.items()}
    torus_ffts = sum(v for n, v in transforms.items() if n.startswith("surface.Torus."))
    sht_calls = sp.calls("surface.Sphere.analyze", "surface.Sphere.synthesize")
    L = resolution
    nlat = math.ceil(3 * (L + 1) / 2)
    n = resolution
    m.update({
        "surface.fft.transforms": (sum(transforms.values()), "count", "lower"),
        # real grid in, half-spectrum out, per 2-D torus transform
        "surface.fft.bytes_computed": (torus_ffts * (n * n * 8 + n * (n // 2 + 1) * 16),
                                       "B", "lower"),
        # the dense (L+1) x nlat x (L+1) Legendre tensor is read once per call,
        # 4 flops per entry (real tensor times complex vector, multiply-add)
        "surface.sht.bytes_computed": (sht_calls * (L + 1) * nlat * (L + 1) * 8, "B", "lower"),
        "surface.sht.flops_computed": (sht_calls * 4 * (L + 1) * nlat * (L + 1), "flop", "lower"),
        "greens.green_field.calls": (sp.calls("greens.green_field"), "count", "lower"),
        "greens.green_field.self_s": (sp.self_s("greens.green_field"), "s", "lower"),
        "greens.green_field.s": (sp.incl_s("greens.green_field"), "s", "lower"),
        "fields.build_divisor_fields.calls": (sp.calls("fields.build_divisor_fields"),
                                              "count", "lower"),
        "fields.build_divisor_fields.self_s": (sp.self_s("fields.build_divisor_fields"),
                                               "s", "lower"),
        "verify.certify.s": (sp.incl_s(*CERTIFY), "s", "lower"),
        "verify.logy_bounds.s": (sp.incl_s("verify.certify_logy_bounds"), "s", "lower"),
        "verify.kernel_identity.s": (sp.incl_s("verify.kernel_identity"), "s", "lower"),
        "verify.green_field.calls": (
            sum(1 for s in sp.named("greens.green_field")
                if any(a.startswith("verify.") for a in sp.ancestors(s))),
            "count", "lower"),
        "verify.multistart.s": (
            sum(s["dur"] for s in sp.named("vortex.solve_vortex")
                if sp.parent_name(s) == "verify.certify_vortex"), "s", "lower"),
        "fieldio.sha256.s": (sp.incl_s("fieldio.sha256_file"), "s", "lower"),
        "fieldio.read_field.s": (sp.incl_s("fieldio.read_field"), "s", "lower"),
        "solvers.helmholtz.calls": (sp.calls("solvers.solve_helmholtz"), "count", "lower"),
        "solvers.cg.matvecs": (sp.count_under(_both("laplacian"),
                                              {"solvers.solve_helmholtz"}), "count", "lower"),
        "solvers.newton_scalar.iterations": (
            sp.count_under(("solvers.solve_helmholtz",), {"solvers.damped_newton_scalar"}),
            "count", "lower"),
        "vortex.solve_vortex.calls": (sp.calls("vortex.solve_vortex"), "count", "lower"),
        "vortex.solve_vortex.s": (sp.incl_s("vortex.solve_vortex"), "s", "lower"),
        "coupled.make_problem.calls": (sp.calls("coupled.make_problem"), "count", "lower"),
        "coupled.make_problem.s": (sp.incl_s("coupled.make_problem"), "s", "lower"),
        "coupled.residual.calls": (sp.calls("coupled.residual"), "count", "lower"),
        "bogomolnyi.assembled_residual.s": (sp.incl_s("bogomolnyi.assembled_residual"),
                                            "s", "lower"),
    })
    return m


def solve_metrics(sp):
    """Metrics reported for the solve command only."""
    block = {"solvers.solve_block_newton_step"}
    ladder_starts = [s for s in sp.named("coupled.solve_at_alpha")
                     if sp.parent_name(s) == "singular.run_ladder"]
    solves = sp.named("vortex.solve_vortex")
    steps = [s["value"] for s in sp.named("coupled.newton_step") if s["ok"]]
    return {
        "solvers.helmholtz.self_s": (sp.self_s("solvers.solve_helmholtz"), "s", "lower"),
        "solvers.helmholtz.failed": (sp.failed("solvers.solve_helmholtz"), "count", "lower"),
        "solvers.cg.precond": (
            sum(1 for s in sp.named(*_both("solve_shifted"))
                if sp.parent_name(s) == "solvers.solve_helmholtz"), "count", "lower"),
        "solvers.newton_scalar.calls": (sp.calls("solvers.damped_newton_scalar"),
                                        "count", "lower"),
        "solvers.newton_scalar.failed": (sp.failed("solvers.damped_newton_scalar"),
                                         "count", "lower"),
        "solvers.block_step.calls": (sp.calls(*block), "count", "lower"),
        "solvers.block_step.self_s": (sp.self_s(*block), "s", "lower"),
        "solvers.block_step.s": (sp.incl_s(*block), "s", "lower"),
        "solvers.gmres.iterations": (
            sum(s["value"] for s in sp.named(*block) if s["ok"]), "count", "lower"),
        "solvers.gmres.matvecs": (sp.count_under(("coupled.jacobian_vp",), block),
                                  "count", "lower"),
        "solvers.gmres.precond": (
            sp.count_under(_both("solve_block_model") + _both("solve_shifted"), block),
            "count", "lower"),
        "solvers.dense_fallbacks": (sp.calls("solvers._dense_block_solve"), "count", "lower"),
        "vortex.homotopy_fallbacks": (
            sum(1 for s in solves
                if sum(1 for c in sp.named("vortex.solve_exp_scalar")
                       if c["parent"] == s["id"]) > 1), "count", "lower"),
        "vortex.make_vortex_problem.s": (sp.incl_s("vortex.make_vortex_problem"), "s", "lower"),
        "vortex.solve_twisted_ke.s": (sp.incl_s("vortex.solve_twisted_ke"), "s", "lower"),
        "coupled.decoupled_state.s": (sp.incl_s("coupled.decoupled_state"), "s", "lower"),
        "coupled.continue_alpha.s": (sp.incl_s("coupled.continue_alpha"), "s", "lower"),
        "coupled.solve_at_alpha.calls": (sp.calls("coupled.solve_at_alpha"), "count", "lower"),
        "coupled.solve_at_alpha.failed": (sp.failed("coupled.solve_at_alpha"), "count", "lower"),
        "coupled.newton_step.calls": (sp.calls("coupled.newton_step"), "count", "lower"),
        # a step of 2^-k took k halvings
        "coupled.newton.backtracks": (sum(round(math.log2(1.0 / s)) for s in steps),
                                      "count", "lower"),
        "coupled.residual.self_s": (sp.self_s("coupled.residual"), "s", "lower"),
        "coupled.jacobian_vp.calls": (sp.calls("coupled.jacobian_vp"), "count", "lower"),
        "coupled.jacobian_vp.self_s": (sp.self_s("coupled.jacobian_vp"), "s", "lower"),
        "singular.run_ladder.s": (sp.incl_s("singular.run_ladder"), "s", "lower"),
        "singular.rungs_completed": (
            sum(s["value"] for s in sp.named("singular.run_ladder") if s["ok"]),
            "count", "higher"),
        "singular.warm_start.attempted": (len(ladder_starts), "count", "lower"),
        "singular.warm_start.accepted": (sum(1 for s in ladder_starts if s["ok"]),
                                         "count", "higher"),
        "singular.fits.s": (sp.incl_s("singular.conical_fit", "singular.parabolic_fit"),
                            "s", "lower"),
        "bogomolnyi.monotone.calls": (sp.calls("bogomolnyi.monotone_iterate"), "count", "lower"),
        "bogomolnyi.monotone.iterations": (
            sum(s["value"] for s in sp.named("bogomolnyi.monotone_iterate") if s["ok"]),
            "count", "lower"),
        "bogomolnyi.monotone.self_s": (sp.self_s("bogomolnyi.monotone_iterate"), "s", "lower"),
        "bogomolnyi.supersolution.s": (sp.incl_s("bogomolnyi.build_supersolution"),
                                       "s", "lower"),
        "fieldio.write_field.calls": (sp.calls("fieldio.write_field"), "count", "lower"),
        "fieldio.bytes_written": (
            sum(s["value"] for s in sp.named("fieldio.write_field") if s["ok"]),
            "B", "lower"),
    }


def command_metrics(doc, resolution, command):
    """{name: (value, unit, better)} for one traced `solve` or `verify` process."""
    sp = Spans(doc)
    if command == "solve":
        m = common_metrics(sp, resolution, SOLVE_RUNNERS)
        m.update(solve_metrics(sp))
    else:
        m = common_metrics(sp, resolution, VERIFY_RUNNERS)
    return {f"{command}.{k}": v for k, v in m.items()}


def is_count(unit):
    return unit in ("count", "B", "flop")
