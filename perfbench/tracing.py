"""Spans around the public calls of each g3chabauty layer.

Wrappers are installed from here on the attributes the package looks up at
call time (module globals such as ``kernels.poly_mul_mod`` or the names
``pipeline`` imported, and class attributes for methods) and removed again
afterwards, so nothing under ``src/`` is edited and an untraced pass runs
the original functions.

A span is ``[name, start, end, parent, op, info]``: ``parent`` indexes the
enclosing span in the same list (-1 for none), ``op`` identifies the
benchmark operation, and ``info`` holds counts taken at the boundary.
Spans stay in memory and are written out when the run ends.
"""

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Frobenius retries with headroom delta = 4, 8, 16 (frobenius_data).
_ATTEMPTS = {4: 1, 8: 2, 16: 3}


def _kernel_work(coeff_ops, mod):
    """Computed, not measured: coefficient operations and the bytes they
    touch at ceil(bits(mod) / 8) bytes per coefficient."""
    return {"coeff_ops": coeff_ops,
            "bytes": coeff_ops * ((mod.bit_length() + 7) // 8)}


def _mul_info(args, result, ok):
    a, b, mod = args
    return _kernel_work(len(a) * len(b), mod)


def _divmod_info(args, result, ok):
    a, b, mod = args
    return _kernel_work(max(0, len(a) - len(b) + 1) * len(b), mod)


def _frobenius_info(args, result, ok):
    if not ok:
        return {"attempts": len(_ATTEMPTS), "k_max": 0, "work_exp": 0}
    return {"attempts": _ATTEMPTS[result.delta], "k_max": result.k_max,
            "work_exp": result.work_exp}


def _ok_info(args, result, ok):
    return {"ok": int(ok)}


def _hit_info(args, result, ok):
    return {"hit": int(ok and result is not None)}


def _points_info(args, result, ok):
    return {"points": len(result) if ok else 0}


def _targets():
    """(owner, attribute, span name, info function) for every wrapper."""
    from g3chabauty import (_kernels, cli, coleman, curve, jacobian, pipeline,
                            recognize)
    from g3chabauty.localdisk import LocalExpansion
    return [
        (_kernels, "poly_mul_mod", "kernels.mul", _mul_info),
        (_kernels, "poly_divmod_monic_mod", "kernels.divmod", _divmod_info),
        (_kernels, "poly_eval_mod", "kernels.eval", None),
        (_kernels, "fp_curve_points", "kernels.fp_points", None),
        (_kernels, "search_x_squares", "kernels.search", None),
        (curve.CurveModel, "search_rational_points", "curve.search",
         _points_info),
        (curve.CurveModel, "weierstrass_points_qp", "curve.weierstrass", None),
        (coleman, "frobenius_data", "frobenius", _frobenius_info),
        (coleman, "padic_linsolve", "coleman.linsolve", None),
        (coleman, "LocalExpansion", "localdisk.expansion", None),
        (coleman.ColemanContext, "disk_data", "coleman.disk_data", None),
        (coleman.ColemanContext, "halfint", "coleman.halfint", None),
        (LocalExpansion, "differential_series",
         "localdisk.differential_series", None),
        (pipeline, "series_roots_in_disk", "rootfinding.roots", _ok_info),
        (pipeline, "rational_reconstruct", "recognize.reconstruct",
         _hit_info),
        (recognize, "small_integer_relation", "recognize.relation",
         _hit_info),
        (jacobian.MumfordDivisorFp, "order", "jacobian.order", None),
        (pipeline, "analyze_curve", "pipeline", None),
        (cli, "analyze_curve", "pipeline", None),
        (cli, "run_job", "cli.run_job", None),
    ]


class Tracer:
    """Span recorder; ``op`` tags the spans of the current operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            result, ok = None, False
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, result, ok)
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, info in _targets():
                original = (owner.__dict__[attr] if isinstance(owner, type)
                            else getattr(owner, attr))
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def extend(self, spans, op):
        """Append spans recorded by another process, retagged with op."""
        base = len(self.spans)
        for name, start, end, parent, _, info in spans:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, op, info])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def layer_metrics(spans):
    """Per-layer totals over every span: ``.s`` is time inside the call,
    ``.calls`` a count, shares are of the time inside ``analyze_curve``."""
    by_name = defaultdict(list)
    for rec in spans:
        by_name[rec[0]].append(rec)

    def seconds(name):
        return sum(r[2] - r[1] for r in by_name[name])

    def calls(name):
        return len(by_name[name])

    def info(name, key, combine=sum):
        return combine([r[5][key] for r in by_name[name] if r[5]] or [0])

    analyze = seconds("pipeline")
    children = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0 and spans[rec[3]][0] == "pipeline":
            children[rec[3]] += rec[2] - rec[1]
    self_s = sum(r[2] - r[1] - children[id_] for id_, r in enumerate(spans)
                 if r[0] == "pipeline")

    def in_disk_layers(rec):
        return rec[0].startswith(("coleman.", "localdisk."))

    def outermost(id_, pred):
        parent = spans[id_][3]
        while parent >= 0:
            if pred(spans[parent]):
                return False
            parent = spans[parent][3]
        return True

    disk_s = sum(r[2] - r[1] for id_, r in enumerate(spans)
                 if in_disk_layers(r) and outermost(id_, in_disk_layers))
    builds = sum(1 for id_, r in enumerate(spans)
                 if r[0] == "localdisk.expansion"
                 and not outermost(id_,
                                   lambda s: s[0] == "coleman.disk_data"))
    root_calls = calls("rootfinding.roots")
    rec_calls = calls("recognize.reconstruct") + calls("recognize.relation")
    rec_hits = (info("recognize.reconstruct", "hit")
                + info("recognize.relation", "hit"))

    def share(part):
        return part / analyze if analyze else 0.0

    out = {
        "pipeline.s": analyze,
        "pipeline.self_s": self_s,
        "curve.search.s": seconds("curve.search"),
        "curve.search.calls": calls("curve.search"),
        "curve.search.points": info("curve.search", "points"),
        "curve.search.share": share(seconds("curve.search")),
        "curve.weierstrass.s": seconds("curve.weierstrass"),
        "frobenius.s": seconds("frobenius"),
        "frobenius.share": share(seconds("frobenius")),
        "frobenius.attempts": info("frobenius", "attempts"),
        "frobenius.k_max": info("frobenius", "k_max", max),
        "frobenius.work_exp": info("frobenius", "work_exp", max),
    }
    for short in ("divmod", "mul", "eval", "fp_points", "search"):
        name = "kernels." + short
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = seconds(name)
    for short in ("divmod", "mul"):
        name = "kernels." + short
        out[name + ".coeff_ops"] = info(name, "coeff_ops")
        out[name + ".bytes"] = info(name, "bytes")
    out.update({
        "coleman.share": share(disk_s),
        "coleman.disk_data.s": seconds("coleman.disk_data"),
        "coleman.disk_builds": builds,
    })
    for name in ("coleman.halfint", "coleman.linsolve", "localdisk.expansion",
                 "localdisk.differential_series", "rootfinding.roots",
                 "recognize.relation", "jacobian.order"):
        out[name + ".calls"] = calls(name)
        out[name + ".s"] = seconds(name)
    out.update({
        "rootfinding.isolated_frac": (info("rootfinding.roots", "ok")
                                      / root_calls if root_calls else 0.0),
        "recognize.reconstruct.calls": calls("recognize.reconstruct"),
        "recognize.reconstruct.hits": info("recognize.reconstruct", "hit"),
        "recognize.relation.hits": info("recognize.relation", "hit"),
        "recognize.hit_frac": rec_hits / rec_calls if rec_calls else 0.0,
    })
    return out


def layer_unit(name):
    if name.endswith(("share", "frac")):
        return "frac"
    if name.endswith("bytes"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("work_exp"):
        return "digits"
    return "count"
