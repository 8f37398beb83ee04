"""Spans around the calls into each templap layer, and the per-layer metrics.

Nothing under ``src/`` knows about tracing: ``instrument`` replaces each
layer's public function in the namespace its caller looks it up in (a module
global, or a class attribute for methods) with a wrapper that records a span,
and restores the originals on exit.  A span is (name, start, end, parent);
spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its children (calls are sequential, so children never
overlap).

Kernel counts (FFT lengths, flops, bytes) are computed from array sizes with
the models below, not measured: bytes ignore caches, flops are nominal.
"""

from __future__ import annotations

import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import perfbench.studies  # noqa: F401  (puts this checkout's templap on the path)
from templap import assembly, convergence, preconditioners, problems, reference

# (namespace, attribute, span name): every call into a layer from its callers.
# core and quadrature are helpers whose cost lands in their callers; the cli
# is not on the path of run_convergence_study.
CALL_SITES = (
    (convergence, "example1_f", "problems.source"),
    (convergence, "example2_setup", "problems.source"),
    (convergence, "example3_setup", "problems.source"),
    (problems, "reference_apply_operator", "reference.apply"),
    (problems, "tail_profile", "tails.profile"),
    (reference, "tail_profile", "tails.profile"),
    (assembly, "tail_profile", "tails.profile"),
    (convergence, "assemble_rhs", "assembly.rhs"),
    (convergence, "assemble_operator", "assembly.operator"),
    (assembly, "assemble_offdiagonal", "assembly.offdiag"),
    (assembly, "assemble_diagonal", "assembly.diagonal"),
    (assembly, "pair_sum_profile", "coefficients"),
    (assembly, "boundary_left_profile", "coefficients"),
    (assembly, "coeff_near_diag", "coefficients"),
    (assembly, "singular_cell_weight", "coefficients"),
    (assembly.OperatorMatrix, "matvec", "toeplitz.matvec"),
    (convergence, "build_tchan_precond", "preconditioners.tchan_build"),
    (convergence, "build_band_compensated_ichol", "preconditioners.ichol_build"),
    (preconditioners.CirculantPrecond, "apply", "preconditioners.tchan_apply"),
    (preconditioners.BandedCholPrecond, "apply", "preconditioners.ichol_apply"),
    (convergence, "pcg_solve", "solvers.pcg"),
)
STUDY_SPAN = "convergence.study"
SOURCE_SPAN = "problems.source"


class Tracer:
    """In-memory span recorder plus the raw facts the counters need."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self._open = -1
        self.pass_starts: list[int] = []
        # raw facts, turned into counts by layer_metrics()
        self.matvec_M: dict[int, int] = defaultdict(int)
        self.tchan_M: dict[int, int] = defaultdict(int)
        self.ichol_kM: dict[tuple[int, int], int] = defaultdict(int)
        self.pcg_iters = 0
        self.pcg_unconverged = 0
        self.tail_levels: list[list] = []
        self.tail_points = 0
        self.tail_distinct = 0

    def begin_pass(self) -> None:
        self.pass_starts.append(len(self.spans))

    def end_pass(self) -> None:
        """Fold the pass's tail distances into counts (outside any timing)."""
        for level in self.tail_levels:
            if level:
                d = np.concatenate([np.atleast_1d(np.asarray(x, dtype=float))
                                    for x in level])
                self.tail_points += d.size
                self.tail_distinct += np.unique(d).size
        self.tail_levels = []

    def wrap(self, name: str, fn, before=None, after=None):
        """fn with a span around each call.

        before(args) and after(args, result) run outside the span.
        """
        spans = self.spans

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            parent = self._open
            idx = len(spans)
            spans.append(None)
            self._open = idx
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open = parent
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- counters, called with the wrapped call's arguments and result ------

    def _before_source(self, args):
        # Every level of a study starts with its source, so the tail calls
        # from here to the next source call belong to one (study, level).
        self.tail_levels.append([])

    def _on_tails(self, args, out):
        if not self.tail_levels:
            self.tail_levels.append([])
        self.tail_levels[-1].append(args[0])

    def _on_matvec(self, args, out):
        self.matvec_M[args[0].diag.size] += 1

    def _on_tchan_apply(self, args, out):
        self.tchan_M[args[0].first_col.size] += 1

    def _on_ichol_apply(self, args, out):
        pre = args[0]
        self.ichol_kM[(pre.bandwidth, pre.lower_factor.shape[1])] += 1

    def _on_pcg(self, args, out):
        report = out[1]
        self.pcg_iters += report.iterations
        self.pcg_unconverged += not report.converged

    def hooks_for(self, name: str):
        """(before, after) counter hooks of a span name."""
        if name == SOURCE_SPAN:
            return self._before_source, None
        return None, {
            "tails.profile": self._on_tails,
            "toeplitz.matvec": self._on_matvec,
            "preconditioners.tchan_apply": self._on_tchan_apply,
            "preconditioners.ichol_apply": self._on_ichol_apply,
            "solvers.pcg": self._on_pcg,
        }.get(name)

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(calls, total self time) per span name over every recorded span."""
        names = [s[0] for s in self.spans]
        start = np.array([s[1] for s in self.spans])
        dur = np.array([s[2] for s in self.spans]) - start
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        covered = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        selfs = dur - covered
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, st in zip(names, selfs):
            out[name][0] += 1
            out[name][1] += float(st)
        return {k: (c, s) for k, (c, s) in out.items()}

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns (name index, start, end, parent, pass) for writing out."""
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        pass_of = np.zeros(len(self.spans), dtype=np.int32)
        for i, first in enumerate(self.pass_starts):
            pass_of[first:] = i
        return {
            "names": np.array(names),
            "name": np.array([code[s[0]] for s in self.spans], dtype=np.int32),
            "start": np.array([s[1] for s in self.spans]),
            "end": np.array([s[2] for s in self.spans]),
            "parent": np.array([s[3] for s in self.spans], dtype=np.int64),
            "pass": pass_of,
        }


@contextmanager
def instrument(tracer: Tracer):
    """Route every layer call of templap through ``tracer`` while active."""
    saved = []
    try:
        for owner, attr, name in CALL_SITES:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(name, fn, *tracer.hooks_for(name)))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# -- computed kernel counts ---------------------------------------------------
#
# numpy.fft is pocketfft: a length with a large prime factor is done by
# Bluestein's algorithm, two complex FFTs of a smooth length >= 2n - 1, when
# pocketfft's own cost estimate says that is cheaper.  Nominal flops are
# 2.5 n log2 n per real FFT and 5 n log2 n per complex FFT.

def _factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _cost_guess(n: int) -> float:
    return n * sum(p if p <= 5 else 1.1 * p for p in _factors(n))


def _good_size(n: int) -> int:
    """Smallest m >= n whose prime factors are all at most 11."""
    while _factors(n)[-1] > 11:
        n += 1
    return n


def rfft_flops(n: int) -> float:
    """Nominal flops of one real FFT (forward or inverse) of length n."""
    if n < 2:
        return 0.0
    lpf = _factors(n)[-1]
    if n >= 50 and lpf * lpf > n:
        n2 = _good_size(2 * n - 1)
        if 2 * 1.5 * _cost_guess(n2) < 0.5 * _cost_guess(n):
            # chirp in and out (n each), two length-n2 FFTs, one product
            return 2 * 5.0 * n2 * math.log2(n2) + 6.0 * n2 + 12.0 * n
    return 2.5 * n * math.log2(n)


def matvec_fft_len(M: int) -> int:
    """Power-of-two circulant embedding of the M x M Toeplitz part (>= 2M - 1)."""
    return 1 << (2 * M - 1).bit_length()


def matvec_counts(M: int) -> tuple[float, float]:
    """(flops, bytes) of one H v: rfft, spectrum product, irfft, diagonal part."""
    L = matvec_fft_len(M)
    H = L // 2 + 1
    flops = 2 * rfft_flops(L) + 6.0 * H + 2.0 * M
    # rfft: 8M in, 16H out; product: 32H in, 16H out; irfft: 16H in, 8L out;
    # diag * v and the sum: 32M in, 16M out.
    nbytes = 8.0 * M + 16 * H + 48 * H + 16 * H + 8.0 * L + 48.0 * M
    return flops, nbytes


def tchan_apply_counts(M: int) -> tuple[float, float]:
    """(flops, bytes) of one circulant solve: rfft, division, irfft, length M."""
    H = M // 2 + 1
    flops = 2 * rfft_flops(M) + 2.0 * H
    # rfft: 8M in, 16H out; division: 24H in, 16H out; irfft: 16H in, 8M out.
    nbytes = 8.0 * M + 16 * H + 24 * H + 16 * H + 16 * H + 8.0 * M
    return flops, nbytes


def ichol_apply_counts(k: int, M: int) -> tuple[float, float]:
    """(flops, bytes) of two banded triangular solves with a (k+1) x M factor."""
    flops = 4.0 * k * M
    nbytes = 2 * 8.0 * (k + 1) * M + 3 * 8.0 * M
    return flops, nbytes


def _weighted(calls: dict, counts) -> tuple[float, float, float]:
    """Summed flops and bytes, and the call-weighted mean FFT length (0: no calls)."""
    flops = nbytes = length = 0.0
    for key, n in calls.items():
        f, b, L = counts(key)
        flops += n * f
        nbytes += n * b
        length += n * L
    total = sum(calls.values())
    return flops, nbytes, (length / total if total else 0.0)


def unit_of(name: str) -> str:
    for suffix, unit in ((".self_s", "s"), (".calls", "count"), (".iters", "count"),
                         (".unconverged", "count"), (".points", "points"),
                         (".fft_len", "points"), (".flops_computed", "flop"),
                         (".bytes_computed", "B")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics, each per traced pass, from the spans and counters."""
    st = tracer.self_times()

    def calls(name):
        return st.get(name, (0, 0.0))[0] / passes

    def self_s(name):
        return st.get(name, (0, 0.0))[1] / passes

    points, distinct = tracer.tail_points, tracer.tail_distinct
    mv_flops, mv_bytes, mv_len = _weighted(
        tracer.matvec_M, lambda M: (*matvec_counts(M), matvec_fft_len(M)))
    tc_flops, tc_bytes, tc_len = _weighted(
        tracer.tchan_M, lambda M: (*tchan_apply_counts(M), M))
    ic_flops, ic_bytes, _ = _weighted(
        tracer.ichol_kM, lambda kM: (*ichol_apply_counts(*kM), 0))
    return {
        "reference.apply.calls": calls("reference.apply"),
        "reference.apply.self_s": self_s("reference.apply"),
        "problems.source.calls": calls("problems.source"),
        "problems.source.self_s": self_s("problems.source"),
        "tails.profile.calls": calls("tails.profile"),
        "tails.profile.points": points / passes,
        "tails.profile.self_s": self_s("tails.profile"),
        "tails.profile.unique_ratio": distinct / points if points else 0.0,
        "assembly.rhs.self_s": self_s("assembly.rhs"),
        "assembly.offdiag.self_s": self_s("assembly.offdiag"),
        "assembly.diagonal.self_s": self_s("assembly.diagonal"),
        "coefficients.self_s": self_s("coefficients"),
        "toeplitz.matvec.calls": calls("toeplitz.matvec"),
        "toeplitz.matvec.self_s": self_s("toeplitz.matvec"),
        "toeplitz.matvec.fft_len": mv_len,
        "toeplitz.matvec.flops_computed": mv_flops / passes,
        "toeplitz.matvec.bytes_computed": mv_bytes / passes,
        "preconditioners.tchan_apply.calls": calls("preconditioners.tchan_apply"),
        "preconditioners.tchan_apply.self_s": self_s("preconditioners.tchan_apply"),
        "preconditioners.tchan_apply.fft_len": tc_len,
        "preconditioners.tchan_apply.flops_computed": tc_flops / passes,
        "preconditioners.tchan_apply.bytes_computed": tc_bytes / passes,
        "preconditioners.ichol_apply.calls": calls("preconditioners.ichol_apply"),
        "preconditioners.ichol_apply.self_s": self_s("preconditioners.ichol_apply"),
        "preconditioners.ichol_apply.flops_computed": ic_flops / passes,
        "preconditioners.ichol_apply.bytes_computed": ic_bytes / passes,
        "preconditioners.tchan_build.self_s": self_s("preconditioners.tchan_build"),
        "preconditioners.ichol_build.self_s": self_s("preconditioners.ichol_build"),
        "solvers.pcg.calls": calls("solvers.pcg"),
        "solvers.pcg.iters": tracer.pcg_iters / passes,
        "solvers.pcg.unconverged": tracer.pcg_unconverged / passes,
        "solvers.pcg.self_s": self_s("solvers.pcg"),
        "convergence.study.self_s": self_s(STUDY_SPAN),
    }
