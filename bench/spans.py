"""In-memory span tracer that wraps package functions where callers find them.

A span records (name, parent span, operation, start, end, info).  Functions
are wrapped by replacing the attribute their caller looks up at call time,
e.g. ``toymodel.branch_decomposition``; the package itself is not edited.
Spans stay in memory until ``write`` dumps them as JSON lines.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, op, start, end, info]
        self._stack = []
        self._patched = []
        self.ops = 0  # a span opened with no span open starts a new operation

    def _open(self, name):
        sid = len(self.spans)
        if self._stack:
            parent = self._stack[-1]
        else:
            parent = None
            self.ops += 1
        self.spans.append([name, parent, self.ops - 1, time.perf_counter(), None, None])
        self._stack.append(sid)
        return sid

    def _close(self, sid, info=None):
        self._stack.pop()
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = info

    @contextmanager
    def span(self, name):
        """Span around a block of the caller's."""
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, module, attr, name, info=None):
        """Replace ``module.attr`` with a traced wrapper until ``restore``.

        ``info(args, result)`` may return a small dict stored on the span.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            sid = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(sid, info(args, result) if info and result is not None else None)

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, parent, op, start, end, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end, "info": info}) + "\n")


def digest(a) -> str:
    return hashlib.blake2b(a.tobytes() + repr(a.shape).encode(), digest_size=16).hexdigest()


def install(tracer: Tracer):
    """Wrap every boundary the per-layer metrics are read from."""
    from treeq import branches, cli, search, toymodel

    plan = [
        (cli, "gen_model", "toymodel.gen", None),
        (cli, "gen_calibration", "toymodel.gen", None),
        (toymodel, "gen_calibration", "toymodel.gen", None),
        (cli, "tss_search", "search.tss", lambda a, r: {"evals": r.evals}),
        (search, "tss_search", "search.tss", lambda a, r: {"evals": r.evals}),
        (search, "leaf_queue", "search.leaf", None),
        (search, "merge", "search.merge", lambda a, r: {
            "unions": len(a[0].entries) * len(a[1].entries),
            "raw": r.raw_frontier_size, "kept": len(r.entries)}),
        (search, "end_to_end_mse", "toymodel.mse", None),
        (cli, "end_to_end_mse", "toymodel.mse", None),
        (toymodel, "forward_batch", "toymodel.forward", lambda a, r: {"layers": a[0].n_layers}),
        (toymodel, "branch_decomposition", "branches.fit", None),
        (toymodel, "forward_quantized_batch", "branches.forward", lambda a, r: {"rows": r.shape[0]}),
        (branches, "truncated_svd", "linalg.svd", lambda a, r: {"input": digest(a[0])}),
        (branches, "top_singular_pair", "linalg.top_pair", None),
        (branches, "quantize_rotated_batch", "quantizer.act_quant", None),
        (branches, "quantize_weight_channelwise", "quantizer.weight_quant", None),
    ]
    for module, attr, name, info in plan:
        tracer.wrap(module, attr, name, info)


PER_LAYER = [
    ("linalg.svd_calls", "count"), ("linalg.svd_s", "s"),
    ("linalg.top_pair_calls", "count"), ("linalg.top_pair_s", "s"),
    ("linalg.svd_distinct_ratio", "ratio"),
    ("branches.fit_calls", "count"), ("branches.fit_s", "s"), ("branches.fit_self_s", "s"),
    ("branches.forward_calls", "count"), ("branches.forward_s", "s"),
    ("branches.forward_self_s", "s"), ("branches.forward_rows", "count"),
    ("quantizer.calibrate_s", "s"), ("quantizer.act_quant_s", "s"),
    ("quantizer.weight_quant_calls", "count"), ("quantizer.weight_quant_s", "s"),
    ("toymodel.gen_s", "s"), ("toymodel.mse_calls", "count"), ("toymodel.mse_s", "s"),
    ("toymodel.mse_hit_ratio", "ratio"), ("toymodel.forward_calls", "count"),
    ("toymodel.layer_forwards", "count"),
    ("search.tss_s", "s"), ("search.leaf_s", "s"), ("search.merge_calls", "count"),
    ("search.merge_s", "s"), ("search.merge_self_s", "s"), ("search.evals", "count"),
    ("search.unions", "count"), ("search.frontier_raw", "count"), ("search.kept", "count"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def per_layer(tracer: Tracer, n_ops: int) -> dict:
    """Per-operation counts and times from the spans of ``n_ops`` operations.

    Self time is a span's duration minus the durations of its direct
    children (single-threaded, so children never overlap).
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    forwards_under = [0] * len(spans)
    for name, parent, op, start, end, info in spans:
        if parent is not None:
            child_time[parent] += end - start
            if name == "toymodel.forward":
                forwards_under[parent] += 1

    calls, total, self_s, sums = {}, {}, {}, {}
    distinct = set()
    hits = 0
    for sid, (name, parent, op, start, end, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[sid])
        for key, value in (info or {}).items():
            if key == "input":
                distinct.add((op, value))
            else:
                sums[(name, key)] = sums.get((name, key), 0) + value
        if name == "toymodel.mse" and forwards_under[sid] == 0:
            hits += 1

    def per_op(table, name):
        return table.get(name, 0) / n_ops

    svd_calls = calls.get("linalg.svd", 0)
    mse_calls = calls.get("toymodel.mse", 0)
    return {
        "linalg.svd_calls": per_op(calls, "linalg.svd"),
        "linalg.svd_s": per_op(total, "linalg.svd"),
        "linalg.top_pair_calls": per_op(calls, "linalg.top_pair"),
        "linalg.top_pair_s": per_op(total, "linalg.top_pair"),
        # no fit at all wastes nothing, so an idle layer reads 1
        "linalg.svd_distinct_ratio": len(distinct) / svd_calls if svd_calls else 1.0,
        "branches.fit_calls": per_op(calls, "branches.fit"),
        "branches.fit_s": per_op(total, "branches.fit"),
        "branches.fit_self_s": per_op(self_s, "branches.fit"),
        "branches.forward_calls": per_op(calls, "branches.forward"),
        "branches.forward_s": per_op(total, "branches.forward"),
        "branches.forward_self_s": per_op(self_s, "branches.forward"),
        "branches.forward_rows": per_op(sums, ("branches.forward", "rows")),
        "quantizer.act_quant_s": per_op(total, "quantizer.act_quant"),
        "quantizer.weight_quant_calls": per_op(calls, "quantizer.weight_quant"),
        "quantizer.weight_quant_s": per_op(total, "quantizer.weight_quant"),
        "toymodel.gen_s": per_op(total, "toymodel.gen"),
        "toymodel.mse_calls": per_op(calls, "toymodel.mse"),
        "toymodel.mse_s": per_op(total, "toymodel.mse"),
        "toymodel.mse_hit_ratio": hits / mse_calls if mse_calls else 0.0,
        "toymodel.forward_calls": per_op(calls, "toymodel.forward"),
        "toymodel.layer_forwards": per_op(sums, ("toymodel.forward", "layers")),
        "search.tss_s": per_op(total, "search.tss"),
        "search.leaf_s": per_op(total, "search.leaf"),
        "search.merge_calls": per_op(calls, "search.merge"),
        "search.merge_s": per_op(total, "search.merge"),
        "search.merge_self_s": per_op(self_s, "search.merge"),
        "search.evals": per_op(sums, ("search.tss", "evals")),
        "search.unions": per_op(sums, ("search.merge", "unions")),
        "search.frontier_raw": per_op(sums, ("search.merge", "raw")),
        "search.kept": per_op(sums, ("search.merge", "kept")),
        "cli.self_s": per_op(self_s, "cli.main"),
    }
