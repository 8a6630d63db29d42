"""Outside-in spans around qeslab's layers, for the traced run.

`Tracer.install()` replaces each listed public function or method with
a wrapper that records one span per call: name, start, end, parent span
and job id.  Module-level functions are replaced under every alias that
a qeslab module holds (`spectral.restrict`, `verify.solve_linear`, ...),
so calls through a `from ... import` keep their spans.  Spans stay in
memory until the job ends; `summary()` reduces them to per-name calls,
inclusive time and self time (duration minus child spans), and
`write_tsv()` writes them out.

Counters are computed from call arguments (term pairs of an operator
product, scalar products of a matrix product, FD matrix size); they are
counts of work requested, not hardware counters.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

from qeslab import exactnum, generators, spectral, verify, weyl


def _nonzero_rows(entries):
    return [sum(1 for e in row if e) for row in entries]


def _count_matmul(counters, args, kwargs):
    a, b = args
    if isinstance(b, exactnum.ExactMatrix):
        products = a.rows * a.cols * b.cols
        col_nnz = _nonzero_rows(zip(*a.entries))
        row_nnz = _nonzero_rows(b.entries)
        useful = sum(x * y for x, y in zip(col_nnz, row_nnz))
    else:
        products = a.rows * a.cols
        useful = sum(_nonzero_rows(a.entries)) if b else 0
    counters["exactnum.matmul.products"] += products
    counters["exactnum.matmul.useful"] += useful


def _count_mul(counters, args, kwargs):
    a, b = args
    if isinstance(b, weyl.DiffOp):
        counters["weyl.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _count_charpoly(counters, args, kwargs):
    counters["exactnum.charpoly.max_dim"] = max(
        counters["exactnum.charpoly.max_dim"], args[0].rows
    )


_CROSSCHECK_SIG = inspect.signature(spectral.numeric_crosscheck)


def _count_fd(counters, args, kwargs):
    bound = _CROSSCHECK_SIG.bind(*args, **kwargs)
    bound.apply_defaults()
    dim = 2 * bound.arguments["grid_points"]
    counters["spectral.fd.dim"] = max(counters["spectral.fd.dim"], dim)
    # the dense float64 FD matrix plus the eigenvector matrix eigh returns
    counters["spectral.fd.bytes_computed"] += 2 * dim * dim * 8


# (owner, attribute, span name, counter); owner is a module or a class
def _targets():
    e, w, s = exactnum, weyl, spectral
    out = [
        (sys.modules["qeslab.cli"], "main", "cli.main", None),
        (w.DiffOp, "__mul__", "weyl.mul", _count_mul),
        (w.DiffOp, "apply", "weyl.apply", None),
        (w.MatOp, "__mul__", "weyl.matop_mul", None),
        (w, "restrict", "weyl.restrict", None),
        (w, "commutator", "weyl.commutator", None),
        (w, "anticommutator", "weyl.anticommutator", None),
        (e.ExactMatrix, "__mul__", "exactnum.matmul", _count_matmul),
        (e.ExactMatrix, "char_poly", "exactnum.charpoly", _count_charpoly),
        (e.ExactMatrix, "nullspace", "exactnum.nullspace", None),
        (e.ExactMatrix, "det", "exactnum.det", None),
        (e.ParamPoly, "__call__", "exactnum.poly_eval", None),
        (e, "real_roots", "exactnum.roots", None),
        (e, "square_free_part", "exactnum.squarefree", None),
        (e, "square_free_decomposition", "exactnum.squarefree", None),
        (e, "solve_linear", "exactnum.solve", None),
        (e, "poly_gcd", "exactnum.poly_gcd", None),
        (e, "sturm_sequence", "exactnum.sturm_sequence", None),
        (e, "sturm_count", "exactnum.sturm_count", None),
        (e, "isolate_real_roots", "exactnum.isolate", None),
        (e, "cauchy_bound", "exactnum.cauchy_bound", None),
        (s, "numeric_crosscheck", "spectral.fd", _count_fd),
    ]
    for name in (
        "build_hamiltonian_gauged", "restricted_hamiltonian",
        "symbolic_char_poly", "algebraic_spectrum", "eigenvectors",
        "eigenvectors_y", "y_node_count", "sweep", "write_csv",
        "find_degeneracy", "hamiltonian_leakage_reports", "reflection_check",
    ):
        out.append((s, name, f"spectral.{name}", None))
    for name in (
        "default_suite", "verify_sl2", "leakage_reports", "verify_tensor",
        "verify_triplets", "verify_identities", "verify_q2",
        "verify_q2_matrix", "project_span", "scan_point", "delta4_scan",
        "failures",
    ):
        out.append((verify, name, f"verify.{name}", None))
    for name in (
        "sl2_gens", "bosonic_gens", "lowering_word", "fermionic_gens",
        "qbar_triplet", "p_triplet", "t_triplet", "triplet_F", "q2_gens",
        "quintet_S", "discover_mix",
    ):
        out.append((generators, name, f"generators.{name}", None))
    numpy = sys.modules.get("numpy")
    if numpy is not None:
        # the dense FD eigensolve inside numeric_crosscheck
        out.append((numpy.linalg, "eigh", "spectral.fd.eigh", None))
    return out


class Tracer:
    """Span store for one job in one interpreter."""

    def __init__(self, job: str):
        self.job = job
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same name
        self._active = []
        self._stack = [-1]
        self.counters = {
            "weyl.mul.term_pairs": 0,
            "exactnum.matmul.products": 0,
            "exactnum.matmul.useful": 0,
            "exactnum.charpoly.max_dim": 0,
            "spectral.fd.dim": 0,
            "spectral.fd.bytes_computed": 0,
        }
        self._undo = []

    def _wrap(self, func, name, counter):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        nid = self._name_ids[name]
        name_id, parent, start, end = (
            self.name_id, self.parent, self.start, self.end
        )
        outermost, active, stack, counters = (
            self.outermost, self._active, self._stack, self.counters
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if counter is not None:
                counter(counters, args, kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            outermost.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1

        wrapper.__name__ = getattr(func, "__name__", name)
        wrapper.__doc__ = getattr(func, "__doc__", None)
        wrapper.__wrapped__ = func
        return wrapper

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "qeslab" or key.startswith("qeslab."))
        ]
        for owner, attr, name, counter in _targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, counter)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            holders = [owner] + [
                m for m in modules
                if m is not owner and getattr(m, attr, None) is original
            ]
            for holder in holders:
                self._undo.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {
            name: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        for i in range(count):
            entry = spans[self.names[self.name_id[i]]]
            duration = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["self_s"] += duration - child[i]
            if self.outermost[i]:
                entry["inclusive_s"] += duration
        return {"spans": spans, "counters": dict(self.counters)}

    def write_tsv(self, path: str):
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.job}\n"
                )
