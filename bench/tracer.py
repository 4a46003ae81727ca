"""Spans around the public functions of each nilpal layer, from outside.

`Tracer.install()` wraps the functions and methods in `TARGETS` and puts
each wrapper in every place the original is bound: its defining module,
every other loaded `nilpal` module that imported it by name (`autos`
binds `multiply`, `bar` and `lattice_solve`; `nilpotent` binds `mat_vec`
and `smith_normal_form`).  Nothing under
`src/` is edited.

A span opens when a wrapped call starts and closes when it returns or
raises.  Open spans form a stack, so each span's parent is the innermost
span open when it started; a span's self time is its duration minus the
durations of its direct children.  Spans are reduced as they close into
per-name totals and per-(parent, child) call-graph edges, bucketed by the
current phase (`"setup"`, `"timed"`, or `None` to record nothing).
"""

import sys
from time import perf_counter_ns

from nilpal import autos, foxring, intlinalg, kernel, nilpotent


def _poly_mul_extra(stat, args, out):
    stat["pairs"] += len(args[0]) * len(args[1])
    stat["out_terms"] += len(out)


def _peel_extra(stat, args, out):
    stat["in_terms"] += len(args[1])


def _snf_extra(stat, args, out):
    rows = len(args[0])
    cols = len(args[0][0]) if rows else 0
    stat["cells"] += rows * cols
    stat["max_dim"] = max(stat["max_dim"], rows, cols)


def _found_extra(stat, args, out):
    stat["found"] += out is not None


# (span name, owner, attribute, extra counter hook); the owner is a module
# for functions and a class for methods.
TARGETS = (
    ("kernel.poly_mul", kernel, "poly_mul", _poly_mul_extra),
    ("kernel.poly_inv", kernel, "poly_inv", None),
    ("kernel.poly_pow", kernel, "poly_pow", None),
    ("nilpotent.hall_basis", nilpotent, "hall_basis", None),
    ("nilpotent.peel", nilpotent.HallBasis, "element_from_poly", _peel_extra),
    ("nilpotent.block_poly", nilpotent.HallBasis, "ordered_block_poly", None),
    ("nilpotent.from_exponents", nilpotent.HallBasis, "from_exponents", None),
    ("nilpotent.collect", nilpotent, "collect", None),
    ("nilpotent.multiply", nilpotent, "multiply", None),
    ("nilpotent.bar", nilpotent, "bar", None),
    ("intlinalg.snf", intlinalg, "smith_normal_form", _snf_extra),
    ("intlinalg.mat_mul", intlinalg, "mat_mul", None),
    ("intlinalg.mat_vec", intlinalg, "mat_vec", None),
    ("intlinalg.lattice_solve", intlinalg, "lattice_solve", _found_extra),
    ("autos.solve_conjugator", autos, "solve_conjugator", _found_extra),
    ("autos.compose", autos, "compose", None),
    ("autos.endo_apply", autos.Endo, "apply", None),
    ("autos.inverse_with_factors", autos, "inverse_with_factors", None),
    ("autos.classify", autos, "classify", None),
    ("autos.decompose_central", autos, "decompose_central", None),
    ("autos.decompose_bglm", autos, "decompose_bglm", None),
    ("autos.tameness_residue", autos, "tameness_residue", None),
    ("foxring.bglm_residue", foxring, "bglm_residue", None),
)


def _new_stat():
    return {"calls": 0, "total_ns": 0, "self_ns": 0,
            "pairs": 0, "out_terms": 0, "in_terms": 0,
            "cells": 0, "max_dim": 0, "found": 0}


class Tracer:
    def __init__(self):
        self.phase = None
        self.stats = {}   # (phase, name) -> stat dict
        self.edges = {}   # (phase, parent name or None, name) -> [calls, total_ns]
        self._stack = []  # open spans: [name, child_ns]

    def _wrap(self, name, fn, extra):
        stack = self._stack

        def wrapper(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            out = done = None
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                stat = self.stats.get((phase, name))
                if stat is None:
                    stat = self.stats[(phase, name)] = _new_stat()
                stat["calls"] += 1
                stat["total_ns"] += dur
                stat["self_ns"] += dur - frame[1]
                if done and extra is not None:
                    extra(stat, args, out)
                key = (phase, parent[0] if parent else None, name)
                edge = self.edges.get(key)
                if edge is None:
                    edge = self.edges[key] = [0, 0]
                edge[0] += 1
                edge[1] += dur

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target and put the wrapper at every binding site."""
        originals = {}
        for name, owner, attr, extra in TARGETS:
            fn = owner.__dict__[attr]
            wrapped = self._wrap(name, fn, extra)
            setattr(owner, attr, wrapped)
            originals[id(fn)] = (fn, wrapped)
        for key, mod in list(sys.modules.items()):
            if key != "nilpal" and not key.startswith("nilpal."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
