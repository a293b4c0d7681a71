"""Run the vortexlab CLI with a span around every public function.

Usage: python3 perfbench/trace_child.py SPANS.json RUN_ID -- CLI-ARGS...

Wrappers are installed from outside the package: every public module-level
function is replaced in every module namespace that holds it (so calls
between modules are caught), and the public Torus/Sphere methods are
replaced on the classes. Spans are kept in memory and written to SPANS.json
when the CLI returns. Nothing under src/ is changed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import pkgutil
import sys
import threading
import time
import types

# private functions that are wrapped too, because a count needs them
EXTRA = {"solvers._dense_block_solve"}


def _file_size(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


# counts read from return values, stored as the span's "value"
NOTES = {
    "solvers.solve_block_newton_step": lambda a, k, out: out[2],   # GMRES niter
    "coupled.newton_step": lambda a, k, out: out[3],               # step size
    "bogomolnyi.monotone_iterate": lambda a, k, out: out[1]["iterations"],
    "singular.run_ladder": lambda a, k, out: len(out.states),
    "fieldio.write_field": _file_size,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._wrapped = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        if fn in self._wrapped:
            return self._wrapped[fn]
        note = NOTES.get(name)
        spans, ids, stack_of, clock = self.spans, self._ids, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            # [id, name, parent, start, end, ok, value]
            rec = [next(ids), name, stack[-1][0] if stack else -1, 0.0, 0.0, False, None]
            stack.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
                spans.append(rec)
            rec[5] = True
            if note is not None:
                rec[6] = note(args, kwargs, out)
            return out

        self._wrapped[fn] = traced
        return traced

    def install(self):
        import vortexlab

        modules = [importlib.import_module(f"vortexlab.{m.name}")
                   for m in pkgutil.iter_modules(vortexlab.__path__)]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("vortexlab.")):
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if not attr.startswith("_") or name in EXTRA:
                    setattr(mod, attr, self.wrap(name, obj))
        from vortexlab.surface import Sphere, Torus

        for cls in (Torus, Sphere):
            for attr, obj in list(vars(cls).items()):
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    setattr(cls, attr, self.wrap(f"surface.{cls.__name__}.{attr}", obj))
        # tables built at import time hold the originals (cli._RUNNERS)
        for mod in modules:
            for table in vars(mod).values():
                if isinstance(table, dict):
                    for key, val in table.items():
                        if isinstance(val, types.FunctionType) and val in self._wrapped:
                            table[key] = self._wrapped[val]

    def dump(self, path, run_id, import_s):
        keys = ("id", "name", "parent", "start", "end", "ok", "value")
        doc = {"run": run_id, "import_s": import_s,
               "spans": [dict(zip(keys, rec), run=run_id) for rec in self.spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def main(argv):
    spans_path, run_id, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: trace_child.py SPANS.json RUN_ID -- CLI-ARGS...")
    t0 = time.perf_counter()
    import vortexlab.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    try:
        return vortexlab.cli.main(cli_argv)
    finally:
        tracer.dump(spans_path, run_id, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
