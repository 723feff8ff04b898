"""Per-layer tracing from outside the library, and the kernel micro-loop.

The tracer wraps every public function of each layer module (and the
private pipeline stages `_expand` and `_pigeonhole`) by rebinding the
module attribute in every `growthlab` module that holds it, so that
`from .gset import product` bindings are traced too.  Each call becomes a
span kept in memory: name, start, end, parent span, scenario and op.  A
span's self time is its duration minus the time its child spans cover.

Per-element methods (`mul`, `inv`, `QuotientView.reduce`, `Meter.spend`,
`meets_translated`, `commutator` as seen from `oracle`) are only counted,
never spanned, because a span per element would swamp what it measures.
"""
from __future__ import annotations

import functools
import inspect
import json
import random
import statistics
import sys
import time
from collections import Counter

SPANNED_LAYERS = (
    "gset", "subgroups", "approx", "covering", "progressions",
    "oracle", "pipeline", "recipes", "scenarios", "textio",
)
PRIVATE_STAGES = ("pipeline._expand", "pipeline._pigeonhole")
COUNT_ONLY = ("covering.meets_translated",)

# Op kinds the benchmark workloads run; each gets scenarios.op.<op>.s.
OPS = (
    "certify", "chain", "chang", "corollary", "decompose", "hom", "oracle",
    "plunnecke", "pullback", "ruzsa", "sanders", "section", "slice",
)

# Fixed descriptors for the kernel micro-loop, by metric tag.
KERNELS = {
    "ab-101": "ab:101",
    "ab-0": "ab:0",
    "ut-3-0": "ut:3:0",
    "ut-3-5": "ut:3:5",
    "ut-4-0": "ut:4:0",
    "prod": "prod:(ab:5);(ut:3:3)",
}
KERNEL_OPERANDS = 256
KERNEL_ROUNDS = 40
KERNEL_REPEATS = 5


def _self_s(name):
    return (f"{name}.self_s", "s", "lower")


# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = (
    [(f"groups.mul_calls.{k}", "count", "lower") for k in ("ut", "ab", "prod", "quotient")]
    + [("groups.inv_calls", "count", "lower")]
    + [(f"groups.{op}_ns.{tag}", "ns", "lower") for op in ("mul", "inv") for tag in KERNELS]
    + [
        ("gset.product.calls", "count", "lower"),
        ("gset.product.pairs", "count", "lower"),
        ("gset.product.out_elems", "count", "lower"),
        ("gset.product.yield", "ratio", "higher"),
        ("gset.product.max_pairs", "count", "lower"),
        _self_s("gset.product"),
        ("gset.power_chain.calls", "count", "lower"),
        _self_s("gset.power_chain"),
    ]
    + [_self_s(f"subgroups.{f}") for f in ("span", "normal_closure", "step_of_generated", "check_normal")]
    + [("subgroups.quotient_reduce.calls", "count", "lower"),
       ("subgroups.quotient_reduce.hit_ratio", "ratio", "higher")]
    + [_self_s(f"approx.{f}") for f in (
        "greedy_cover_certificate", "sumset_growth_table", "slicing_cover", "predicate_slice_certificate")]
    + [("approx.growth_law.calls", "count", "lower"), _self_s("approx.growth_law")]
    + [_self_s(f"covering.{f}") for f in ("ruzsa_cover", "chang_cover", "verify_translate_cover")]
    + [("covering.witness_scan.elems", "count", "lower"),
       ("covering.witness_scan.hit_ratio", "ratio", "higher")]
    + [_self_s("progressions.ordered_progression"),
       ("progressions.ordered_progression.out_elems", "count", "lower")]
    + [_self_s(f"progressions.{f}") for f in ("word_progression", "hull_progression", "containment_exponent")]
    + [("oracle.find_coset_progression.calls", "count", "lower"),
       _self_s("oracle.find_coset_progression")]
    + [_self_s(f"oracle.{f}") for f in ("difference_body", "subgroups_within", "derive_sanders_cover")]
    + [("oracle.commutator_calls", "count", "lower"), ("oracle.search_examined", "count", "lower")]
    + [_self_s(f"pipeline.{f}") for f in (
        "decompose", "expand", "step_reduction", "abelian_factorization", "containment_radius",
        "word_radius_bound", "corollary_covers", "build_section", "pullback_check", "pigeonhole")]
    + [("pipeline.pigeonhole.product_pairs", "count", "lower")]
    + [_self_s("recipes.generate_example")]
    + [(f"scenarios.op.{op}.s", "s", "lower") for op in OPS]
    + [_self_s("textio.dumps_json")]
    + [("trace.overhead_frac", "ratio", "lower"), ("package.src_lines", "lines", "lower")]
)


def kernel_timings(gl) -> dict[str, dict]:
    """Nanoseconds per `mul`/`inv` on fixed seeded operands, per descriptor.

    Each timing is the median of KERNEL_REPEATS loops of `ops` calls made
    through the descriptor's bound method on coordinate tuples.
    """
    out = {}
    for tag, text in KERNELS.items():
        G = gl.parse_group(text)
        rng = random.Random(f"kernel-{tag}")
        xs = [G.reduce(tuple(rng.randrange(-9, 10) for _ in range(G.arity)))
              for _ in range(KERNEL_OPERANDS)]
        pairs = list(zip(xs, xs[1:] + xs[:1])) * KERNEL_ROUNDS
        ops = len(pairs)
        mul, inv = G.mul, G.inv
        mul_t, inv_t = [], []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            t1 = time.perf_counter()
            for a, _b in pairs:
                inv(a)
            t2 = time.perf_counter()
            mul_t.append(t1 - t0)
            inv_t.append(t2 - t1)
        out[tag] = {
            "mul_ns": statistics.median(mul_t) / ops * 1e9,
            "inv_ns": statistics.median(inv_t) / ops * 1e9,
            "ops": ops,
        }
    return out


class Tracer:
    """Spans and counters for one traced pass; `install` then `uninstall`."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, scenario, op]
        self.stack: list[int] = []
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_pairs = 0
        self.scenario = None
        self.op = None
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, post=None):
        spans, stack, active, clock = self.spans, self.stack, self.active, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.scenario, tracer.op]
            stack.append(len(spans))
            spans.append(rec)
            active[name] += 1
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                active[name] -= 1
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def _op(self, name, fn):
        tracer = self
        inner = self._span(f"scenarios.op.{name}", fn)

        def wrapper(state, params, budget):
            outer, tracer.op = tracer.op, name
            try:
                return inner(state, params, budget)
            finally:
                tracer.op = outer

        return wrapper

    def _counted(self, fn, key, hits=None):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            out = fn(*args)
            if hits is not None and out:
                counts[hits] += 1
            return out

        return wrapper

    # -- post hooks -------------------------------------------------------
    def _after_product(self, args, out):
        pairs = len(args[0]) * len(args[1])
        c = self.counts
        c["product.pairs"] += pairs
        c["product.out"] += len(out)
        self.max_pairs = max(self.max_pairs, pairs)
        if self.active["pipeline.pigeonhole"]:
            c["pigeonhole.pairs"] += pairs

    def _after_ordered(self, args, out):
        self.counts["ordered.out"] += len(out)

    def _after_oracle(self, args, out):
        self.counts["oracle.examined"] += out.search_log

    # -- install / uninstall ----------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "growthlab" or n.startswith("growthlab.")}
        groups, subgroups = mods["growthlab.groups"], mods["growthlab.subgroups"]
        covering, oracle = mods["growthlab.covering"], mods["growthlab.oracle"]
        scenarios = mods["growthlab.scenarios"]

        for cls, tag in ((groups.Unitriangular, "ut"), (groups.FiniteAbelian, "ab"),
                         (groups.DirectProduct, "prod"), (subgroups.QuotientView, "quotient")):
            self._set(cls, "mul", self._counted(cls.mul, f"mul.{tag}"))
        for cls in (groups.Unitriangular, groups.FiniteAbelian, groups.DirectProduct):
            self._set(cls, "inv", self._counted(cls.inv, "inv"))
        self._set(subgroups.QuotientView, "reduce", self._quotient_reduce(subgroups.QuotientView.reduce))
        self._set(covering.Meter, "spend", self._meter_spend(covering.Meter.spend))
        self._set(oracle, "commutator", self._counted(oracle.commutator, "oracle.commutator"))

        replace = {}
        posts = {"gset.product": self._after_product,
                 "progressions.ordered_progression": self._after_ordered,
                 "oracle.find_coset_progression": self._after_oracle}
        for layer in SPANNED_LAYERS:
            mod = mods[f"growthlab.{layer}"]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                qualified = f"{layer}.{attr}"
                if qualified in COUNT_ONLY:
                    replace[fn] = self._counted(fn, qualified, hits=f"{qualified}.hits")
                elif not attr.startswith("_") or qualified in PRIVATE_STAGES:
                    name = f"{layer}.{attr.lstrip('_')}"
                    replace[fn] = self._span(name, fn, posts.get(name))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    self._set(mod, attr, replace[value])

        ops = scenarios._OPS
        self._undo.append((ops, None, dict(ops)))
        for name, fn in list(ops.items()):
            ops[name] = self._op(name, fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            if attr is None:
                owner.clear()
                owner.update(value)
            else:
                setattr(owner, attr, value)

    def _quotient_reduce(self, fn):
        counts = self.counts

        def reduce(view, coords):
            cache = view._rep_cache
            before = len(cache)
            out = fn(view, coords)
            counts["quotient.reduce"] += 1
            if len(cache) > before:
                counts["quotient.miss"] += 1
            return out

        return reduce

    def _meter_spend(self, fn):
        counts = self.counts

        def spend(meter, n):
            counts["witness.elems"] += n
            return fn(meter, n)

        return spend

    # -- results ----------------------------------------------------------
    def span_stats(self) -> dict[str, list]:
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for _name, t0, t1, parent, _sc, _op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats: dict[str, list] = {}
        for i, (name, t0, t1, _parent, _sc, _op) in enumerate(self.spans):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - child[i]
        return stats

    def write_spans(self, path, origin: float) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, sc, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0 - origin, "end": t1 - origin,
                                     "parent": parent, "scenario": sc, "op": op}) + "\n")

    def metrics(self, kernel: dict, overhead: float, src_lines: int) -> dict[str, tuple]:
        """Every PER_LAYER metric as name -> (value, unit)."""
        st = self.span_stats()
        c = self.counts

        def calls(name):
            return st.get(name, [0, 0.0, 0.0])[0]

        def self_s(name):
            return st.get(name, [0, 0.0, 0.0])[2]

        def ratio(num, den):
            return num / den if den else 0.0

        v = {
            "groups.mul_calls.ut": c["mul.ut"],
            "groups.mul_calls.ab": c["mul.ab"],
            "groups.mul_calls.prod": c["mul.prod"],
            "groups.mul_calls.quotient": c["mul.quotient"],
            "groups.inv_calls": c["inv"],
            "gset.product.calls": calls("gset.product"),
            "gset.product.pairs": c["product.pairs"],
            "gset.product.out_elems": c["product.out"],
            "gset.product.yield": ratio(c["product.out"], c["product.pairs"]),
            "gset.product.max_pairs": self.max_pairs,
            "gset.power_chain.calls": calls("gset.power_chain"),
            "subgroups.quotient_reduce.calls": c["quotient.reduce"],
            "subgroups.quotient_reduce.hit_ratio":
                ratio(c["quotient.reduce"] - c["quotient.miss"], c["quotient.reduce"]),
            "approx.growth_law.calls": calls("approx.growth_law"),
            "covering.witness_scan.elems": c["witness.elems"],
            "covering.witness_scan.hit_ratio":
                ratio(c["covering.meets_translated.hits"], c["covering.meets_translated"]),
            "progressions.ordered_progression.out_elems": c["ordered.out"],
            "oracle.find_coset_progression.calls": calls("oracle.find_coset_progression"),
            "oracle.commutator_calls": c["oracle.commutator"],
            "oracle.search_examined": c["oracle.examined"],
            "pipeline.pigeonhole.product_pairs": c["pigeonhole.pairs"],
            "trace.overhead_frac": overhead,
            "package.src_lines": src_lines,
        }
        for tag, k in kernel.items():
            v[f"groups.mul_ns.{tag}"] = k["mul_ns"]
            v[f"groups.inv_ns.{tag}"] = k["inv_ns"]
        for op in OPS:
            v[f"scenarios.op.{op}.s"] = st.get(f"scenarios.op.{op}", [0, 0.0, 0.0])[1]
        out = {}
        for name, unit, _better in PER_LAYER:
            if name not in v:
                v[name] = self_s(name[: -len(".self_s")])
            out[name] = (v[name], unit)
        return out
